"""The Dirac index of each discrete series, read off its matrix column.

For a discrete series pi with Harish-Chandra parameter lambda, the
virtual K-module pi|_K (x) (S+ - S-) is +-E_{lambda - rho_c}, where S+
and S- are the half-spin modules of p (Atiyah-Schmid, Invent. Math. 42,
1977; Parthasarathy, Ann. of Math. 96, 1972).  The source paper's
result is equivalent to the Connes-Kasparov isomorphism, which is Dirac
induction, so this is a second theorem about the same columns: a defect
that Blattner's formula and ``oracles.blattner_by_enumeration`` share
(the rho_n shift, the chamber, two_rho_c) need not pass it.

A K-type sigma is compared only when every K-type the tensor reaches it
from is a row, so the window's edge never stands in for a zero.
"""

from collections import defaultdict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tempiric import builtin
from tempiric.tempered import tempiric_window
from tempiric.weights import TORUS1

import oracles
from conftest import half_gram_sp11
from test_scaled_gram import _ENTRY, _with_gram

DATA = {
    "SL2R": lambda: builtin("SL2R"),
    "Sp11": lambda: builtin("Sp11"),
    "Sp11-half-gram": half_gram_sp11,
}

# The sign of E_{lambda - rho_c}, per group and chamber (the positive
# noncompact roots, sorted).
SIGNS = {
    ("SL2R", ((-2,),)): -1,
    ("SL2R", ((2,),)): -1,
    ("Sp11", ((-1, 1), (1, 1))): 1,
    ("Sp11", ((1, -1), (1, 1))): 1,
}


def _columns(matrix):
    columns = defaultdict(dict)
    for tau, row in zip(matrix.rows, matrix.nonzeros):
        for j, v in row.items():
            columns[j][tau] = v
    return columns


def _reached_from_rows(atoms, sigma, weights, rows):
    # The K-types tau with tau + weight = sigma, for each weight, are rows.
    for weight in weights:
        tau = tuple(s - w for s, w in zip(sigma, weight))
        if all(kind == TORUS1 or c >= 0 for kind, c in zip(atoms, tau)) and tau not in rows:
            return False
    return True


@pytest.mark.parametrize(
    "name, bound",
    [("SL2R", 100), ("SL2R", 400), ("Sp11", 100), ("Sp11", 400), ("Sp11-half-gram", 100)],
)
def test_each_series_has_the_dirac_index_of_its_parameter(name, bound):
    datum = DATA[name]()
    atoms = datum.k.atoms
    assert all(r % 2 == 0 for r in datum.two_rho_c)
    matrix = tempiric_window(datum, bound).matrix
    rows = set(matrix.rows)
    columns = _columns(matrix)
    series = [j for j, rep in enumerate(matrix.cols) if rep.kind == "ds"]
    assert series
    for j in series:
        lam = matrix.cols[j].hc_param
        weights = oracles.half_spin_weights(datum, lam)
        tensor = oracles.spin_tensor(atoms, columns[j], weights)
        target = tuple(c - r // 2 for c, r in zip(lam, datum.two_rho_c))
        sign = SIGNS[datum.name, tuple(oracles.chamber_by_pairing(datum, lam))]
        compared = [
            sigma for sigma in matrix.rows if _reached_from_rows(atoms, sigma, weights, rows)
        ]
        assert target in compared, (lam, target)
        for sigma in compared:
            expected = sign if sigma == target else 0
            assert tensor.get(sigma, 0) == expected, (lam, sigma)


# Diagonal Grams only: Sp11's W_K is the sign changes, so only diagonal
# forms are W_K-invariant.
GRAMS = {
    "SL2R": lambda a, d: [[a]],
    "Sp11": lambda a, d: [[a, 0], [0, d]],
}


@pytest.mark.parametrize("name", GRAMS)
@settings(max_examples=40, deadline=None)
@given(a=_ENTRY, d=_ENTRY, bound=st.fractions(min_value=20, max_value=100, max_denominator=5))
def test_the_dirac_index_holds_on_drawn_rational_grams(name, a, d, bound):
    # The sign of E_{lambda - rho_c} is (-1)^|positive noncompact roots|,
    # which SIGNS pins for each chamber it lists.
    datum = _with_gram(builtin(name), GRAMS[name](a, d))
    atoms = datum.k.atoms
    matrix = tempiric_window(datum, bound).matrix
    rows = set(matrix.rows)
    columns = _columns(matrix)
    series = [j for j, rep in enumerate(matrix.cols) if rep.kind == "ds"]
    assume(series)  # Sp11's window at a small bound can have no series
    targets_compared = 0
    for j in series:
        lam = matrix.cols[j].hc_param
        chamber = tuple(oracles.chamber_by_pairing(datum, lam))
        sign = (-1) ** len(chamber)
        assert SIGNS.get((name, chamber), sign) == sign, chamber
        weights = oracles.half_spin_weights(datum, lam)
        tensor = oracles.spin_tensor(atoms, columns[j], weights)
        target = tuple(c - r // 2 for c, r in zip(lam, datum.two_rho_c))
        compared = [
            sigma for sigma in matrix.rows if _reached_from_rows(atoms, sigma, weights, rows)
        ]
        # On an anisotropic Gram the target of a series at the window's
        # edge can be reached from a K-type past the bound.
        targets_compared += target in compared
        for sigma in compared:
            expected = sign if sigma == target else 0
            assert tensor.get(sigma, 0) == expected, (lam, sigma)
    assert targets_compared, "no series had its target compared"
