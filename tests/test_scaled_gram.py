"""Integer Vogan norms on rational Gram matrices.

Scaling a group's Gram matrix by c > 0 scales every Vogan norm by c, so
every window computed at bound c * B must equal the window of the
unscaled group at bound B.  The brute-force oracles work on the
``Fraction`` Gram matrix and share no code with the integer hot path.
"""

import itertools
import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempiric import tempered
from tempiric.catalog import BUILTIN_NAMES, builtin, load, serialize
from tempiric.cktheory import mult_matrix
from tempiric.tempered import (
    InternalInconsistencyError,
    TempiricRep,
    blattner_mult,
    blattner_scatter,
    ds_enumerate,
    tempiric_window,
)
from tempiric.weights import (
    enumerate_ktypes,
    label_lattice_coords,
    scaled_norm,
    vogan_norm,
)

import oracles
from conftest import swap_sp11

SCALES = (Fraction(1, 2), Fraction(2, 3), Fraction(3))


def _with_gram(datum, gram):
    doc = serialize(datum)
    doc["gram"] = [str(v) for row in gram for v in row]
    return load(json.dumps(doc))


def scaled(datum, c):
    return _with_gram(datum, [[c * v for v in row] for row in datum.gram])


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_integer_gram_clears_denominators(name, c):
    datum = scaled(builtin(name), c)
    denominators = [v.denominator for row in datum.gram for v in row]
    assert datum.gram_scale == lcm(*denominators)
    for row, int_row in zip(datum.gram, datum.int_gram):
        for v, n in zip(row, int_row):
            assert type(n) is int and Fraction(n, datum.gram_scale) == v


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_vogan_norm_scales(name, c):
    datum = builtin(name)
    rescaled = scaled(datum, c)
    for tau in enumerate_ktypes(datum, 60):
        norm = vogan_norm(rescaled, tau)
        assert isinstance(norm, Fraction)
        assert norm == c * vogan_norm(datum, tau)
        assert norm == oracles.norm_oracle(rescaled, tau)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(BUILTIN_NAMES),
    c=st.sampled_from(SCALES),
    bound=st.fractions(min_value=0, max_value=120, max_denominator=7),
)
def test_enumerate_ktypes_scales(name, c, bound):
    datum = builtin(name)
    assert enumerate_ktypes(scaled(datum, c), c * bound) == enumerate_ktypes(datum, bound)


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_window_and_matrix_scale(name, c):
    datum = builtin(name)
    rescaled = scaled(datum, c)
    for bound in (Fraction(40), Fraction(101, 3)):
        window = tempiric_window(rescaled, c * bound)
        plain = tempiric_window(datum, bound)
        assert (window.rows, window.reps) == (plain.rows, plain.reps)
        assert mult_matrix(window) == mult_matrix(plain)


def test_bound_at_and_between_norms(sp11):
    half = scaled(sp11, Fraction(1, 2))
    assert half.gram_scale == 2
    tau = (1, 1)
    norm = vogan_norm(half, tau)
    assert norm == 9
    # the bound equals the norm exactly
    assert tau in enumerate_ktypes(half, norm)
    # D * bound = 17 + 1/3 and 18 + 1/3: not integers
    assert tau not in enumerate_ktypes(half, norm - Fraction(1, 3))
    assert tau in enumerate_ktypes(half, norm + Fraction(1, 6))
    top = ds_enumerate(half, 30)[-1]
    top_norm = vogan_norm(half, top.min_ktype)
    assert top in ds_enumerate(half, top_norm)
    assert top not in ds_enumerate(half, top_norm - Fraction(1, 5))


def test_half_gram_blattner_matches_oracle(sp11):
    half = scaled(sp11, Fraction(1, 2))
    window = enumerate_ktypes(half, 20)
    for rep in ds_enumerate(half, 20):
        for tau in window:
            assert blattner_mult(half, rep, tau) == oracles.blattner_by_enumeration(
                half, rep.hc_param, tau
            )
    for tau in window:
        assert vogan_norm(half, tau) == oracles.norm_oracle(half, tau)


_ENTRY = st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(a=_ENTRY, d=_ENTRY, t=st.fractions(min_value=-1, max_value=1, max_denominator=5),
       bound=st.fractions(min_value=0, max_value=30, max_denominator=5))
def test_enumerate_ktypes_off_diagonal_gram(sp11, a, d, t, bound):
    # |b| <= min(a, d) / 2 keeps the smallest eigenvalue at least 1/4, so
    # every K-type of norm <= 30 has coordinates below 12.
    b = t * min(a, d) / 2
    datum = _with_gram(sp11, [[a, b], [b, d]])
    expected = sorted(
        (oracles.norm_oracle(datum, tau), tau)
        for tau in oracles.all_klabels_up_to(datum, 12)
        if oracles.norm_oracle(datum, tau) <= bound
    )
    assert enumerate_ktypes(datum, bound) == [tau for _, tau in expected]


@settings(max_examples=30, deadline=None)
@given(a=_ENTRY, d=_ENTRY, t=st.fractions(min_value=-1, max_value=1, max_denominator=5),
       c=st.integers(min_value=0, max_value=6))
def test_standalone_minimal_ktypes_on_rational_grams(sp11, a, d, t, c):
    # (c,0) occurs in the class of (c) and has norm at most 252 on these
    # Grams, so the window at 252 meets the class, and every K-type at or
    # below that norm has coordinates below 30, inside the sweep.
    b = t * min(a, d) / 2
    datum = _with_gram(sp11, [[a, b], [b, d]])
    window = tempiric_window(datum, 252)
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_ktypes(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tempered, "enumerate_ktypes", counted)
        minima = window.classes[window.class_of[(c,)]]
    assert minima == oracles.minimal_ktypes_by_sweep(datum, (c,))
    assert len(calls) == 1


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(BUILTIN_NAMES), a=_ENTRY, d=_ENTRY, equal=st.booleans(),
       t=st.fractions(min_value=-1, max_value=1, max_denominator=5),
       bound=st.fractions(min_value=0, max_value=80, max_denominator=5))
def test_window_classes_match_the_sweep_on_drawn_grams(name, a, d, equal, t, bound):
    # One Gram per rule: parity (SL2R), torus-restriction (SO31) and
    # clebsch-diagonal (Sp11).  Every eigenvalue is at least 1/4, so every
    # K-type of norm <= 80 has coordinates below 30 and the oracle sweeps
    # all K-types below each class's minimum.  Split classes occur: SL2R's
    # class (1) has the minima (-1) and (1), and Sp11 has them when a == d.
    datum = builtin(name)
    if datum.k.lattice_dim == 1:
        gram = [[a]]
    else:
        d = a if equal else d
        b = t * min(a, d) / 2
        gram = [[a, b], [b, d]]
    datum = _with_gram(datum, gram)
    for cls, minima in tempiric_window(datum, bound).classes.items():
        expected = oracles.minimal_ktypes_by_sweep(datum, cls.representative)
        assert minima == expected, cls.describe()
        assert all(
            oracles.mult_in_induced_oracle(datum, cls.representative, tau) == 1
            for tau in minima
        )


def _skew_gram(datum):
    return _with_gram(datum, [[1, Fraction(-5, 2)], [Fraction(-5, 2), 7]])


_GRAMS = {
    "half": lambda sp11: scaled(sp11, Fraction(1, 2)),
    "skew": _skew_gram,
}


def _assert_window_coordinates(datum, bound):
    window = tempiric_window(datum, bound)
    assert window.rows
    # The identity maps each row to its own doubled, rho_c-shifted
    # coordinates, and each row has one image per W_K element.
    for i, (tau, norm) in enumerate(zip(window.rows, window.norms, strict=True)):
        mu = label_lattice_coords(datum.k, tau)
        assert (i, 1) in window.images[tuple(2 * m + r for m, r in zip(mu, datum.two_rho_c))]
        assert norm == scaled_norm(datum, tau)
    assert sum(map(len, window.images.values())) == len(window.rows) * len(datum.ds.weyl_k)


def _assert_ds_enumerate_matches_the_scan(datum, bound):
    try:
        expected = oracles.ds_enumerate_by_scan(datum, bound)
    except oracles.InconsistentDatum as exc:
        with pytest.raises(InternalInconsistencyError) as raised:
            ds_enumerate(datum, bound)
        assert str(raised.value) == str(exc)
        return
    assert ds_enumerate(datum, bound) == [
        TempiricRep(kind="ds", min_ktype=lowest, hc_param=lam) for lam, lowest in expected
    ]


@pytest.mark.parametrize("gram", sorted(_GRAMS))
def test_window_coordinates_and_norms(sp11, gram):
    _assert_window_coordinates(_GRAMS[gram](sp11), 60)


@pytest.mark.parametrize("name", ["SL2R", "Sp11", "Sp11-half", "Sp11-skew"])
def test_ds_enumerate_matches_the_pointwise_scan(name):
    group, _, gram = name.partition("-")
    datum = builtin(group)
    if gram:
        datum = _GRAMS[gram](datum)
    _assert_ds_enumerate_matches_the_scan(datum, 60)


def _sp11_with(field, value):
    doc = serialize(builtin("Sp11"))
    (doc["ds"] if field == "wk_elements" else doc)[field] = value
    return load(json.dumps(doc))


_ONE = [[1, 0], [0, 1]]
_SCAN_DATA = {
    "SL2R": lambda: builtin("SL2R"),
    "Sp11": lambda: builtin("Sp11"),
    "Sp11-half": lambda: _GRAMS["half"](builtin("Sp11")),
    # No element of these W_K negates one coordinate alone, so ds_enumerate
    # narrows no axis of its box; with SU2 atoms, some kept parameter then
    # has a lowest K-type that is not dominant.
    "Sp11-minus-one": lambda: _sp11_with("wk_elements", [_ONE, [[-1, 0], [0, -1]]]),
    "Sp11-swap": swap_sp11,
    # Every lowest K-type is half-integral.
    "Sp11-negative-rho": lambda: _sp11_with("two_rho_c", [-1, -1]),
}


@pytest.mark.parametrize("name", sorted(_SCAN_DATA))
def test_ds_enumerate_matches_the_scan_at_every_bound(name):
    # Same series in the same order, or the same raise at the same
    # parameter, at every bound: the narrowed box, the chamber per sign
    # pattern and the norm before the label change nothing.
    datum = _SCAN_DATA[name]()
    for bound in [*range(61), 400]:
        _assert_ds_enumerate_matches_the_scan(datum, bound)


def _noncompact_roots(group, roots):
    doc = serialize(builtin(group))
    doc["ds"]["noncompact_roots"] = roots
    return load(json.dumps(doc))


def test_ds_enumerate_refuses_a_noncompact_root_listed_twice():
    # The loader only asks the noncompact roots to be closed under
    # negation, so (2) may be listed twice; no chamber then makes half
    # of them positive.
    datum = _noncompact_roots("SL2R", [[2], [2], [-2]])
    with pytest.raises(InternalInconsistencyError, match="noncompact root wall"):
        ds_enumerate(datum, 60)
    _assert_ds_enumerate_matches_the_scan(datum, 60)


@settings(max_examples=40, deadline=None)
@given(a=_ENTRY, d=_ENTRY, t=st.fractions(min_value=-1, max_value=1, max_denominator=5),
       bound=st.fractions(min_value=0, max_value=30, max_denominator=5))
def test_window_parts_and_series_on_rational_grams(sp11, a, d, t, bound):
    b = t * min(a, d) / 2
    datum = _with_gram(sp11, [[a, b], [b, d]])
    _assert_window_coordinates(datum, 60)
    _assert_ds_enumerate_matches_the_scan(datum, bound)


_CHAMBER_DATA = {
    "SL2R": lambda: builtin("SL2R"),
    "Sp11": lambda: builtin("Sp11"),
    "Sp11-half": lambda: _GRAMS["half"](builtin("Sp11")),
    "Sp11-skew": lambda: _GRAMS["skew"](builtin("Sp11")),
    "SL2R-twice": lambda: _noncompact_roots("SL2R", [[2], [2], [-2]]),
    # (-1,-1) listed three times: at lambda = (1,1) one root pairs
    # positively, three negatively and two to zero, so a chamber that
    # counted the zeros as positive would pass the half rule there.
    "Sp11-thrice": lambda: _noncompact_roots(
        "Sp11", [[1, 1], [1, -1], [-1, 1], [-1, -1], [-1, -1], [-1, -1]]
    ),
}


@pytest.mark.parametrize("name", sorted(_CHAMBER_DATA))
def test_blattner_kernel_raises_only_off_a_chamber(name):
    # On any parameter, singular ones included, the Blattner kernel
    # blattner_scatter raises exactly where the oracle's chamber breaks the
    # half rule, even with no rows to walk; a compact wall alone is never
    # refused.
    datum = _CHAMBER_DATA[name]()
    for lam in itertools.product(range(-3, 4), repeat=datum.k.lattice_dim):
        rep = TempiricRep(kind="ds", min_ktype=lam, hc_param=lam)
        try:
            oracles.chamber_by_pairing(datum, lam)
        except oracles.InconsistentDatum as exc:
            with pytest.raises(InternalInconsistencyError) as raised:
                blattner_scatter(datum, rep, {}, 0)
            assert str(raised.value) == str(exc)
        else:
            assert blattner_scatter(datum, rep, {}, 0) == {}
