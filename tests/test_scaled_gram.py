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
    make_principal_class,
    minimal_ktypes,
    tempiric_window,
)
from tempiric.weights import (
    enumerate_ktypes,
    label_lattice_coords,
    scaled_norm,
    vogan_norm,
)

import oracles

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
    # The witness (c,0) has norm at most 252 on these Grams, so every
    # K-type at or below it has coordinates below 30, inside the sweep.
    b = t * min(a, d) / 2
    datum = _with_gram(sp11, [[a, b], [b, d]])
    cls = make_principal_class(datum, (c,))
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_ktypes(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tempered, "enumerate_ktypes", counted)
        minima = minimal_ktypes(datum, cls)
    assert minima == oracles.minimal_ktypes_by_sweep(datum, (c,))
    assert len(calls) == 1


def _skew_gram(datum):
    return _with_gram(datum, [[1, Fraction(-5, 2)], [Fraction(-5, 2), 7]])


_GRAMS = {
    "half": lambda sp11: scaled(sp11, Fraction(1, 2)),
    "skew": _skew_gram,
}


def _assert_window_coordinates(datum, bound):
    window = tempiric_window(datum, bound)
    assert window.rows
    for tau, shifted, norm in zip(window.rows, window.shifted, window.norms, strict=True):
        mu = label_lattice_coords(datum.k, tau)
        assert shifted == tuple(2 * m + r for m, r in zip(mu, datum.two_rho_c))
        assert norm == scaled_norm(datum, tau)


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
