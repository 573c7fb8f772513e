import itertools
from fractions import Fraction
from math import floor, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempiric import tempered, weights
from tempiric.catalog import BUILTIN_NAMES, GroupDatum, builtin
from tempiric.tempered import ds_enumerate
from tempiric.weights import (
    SO3,
    SU2,
    TORUS1,
    CYCLIC2,
    CompactGroup,
    WindowTooLargeError,
    enumerate_ktypes,
    isotypic_pairing,
    vogan_norm,
    weyl_dim,
)

import oracles

T1 = CompactGroup((TORUS1,))
C2 = CompactGroup((CYCLIC2,))
A1 = CompactGroup((SU2,))
B1 = CompactGroup((SO3,))
A1A1 = CompactGroup((SU2, SU2))
MIXED = CompactGroup((TORUS1, SU2))


def test_weyl_dim_atoms():
    assert weyl_dim(T1, (5,)) == 1
    assert weyl_dim(A1, (2,)) == 3
    assert weyl_dim(A1A1, (1, 2)) == 6
    assert weyl_dim(B1, (3,)) == 7
    assert weyl_dim(C2, (1,)) == 1


def test_weight_count_equals_dimension():
    for group in (A1, B1, A1A1, MIXED):
        for label in itertools.islice(_labels(group, 5), 200):
            multiset = oracles.weight_multiset(group.atoms, label)
            assert sum(multiset.values()) == weyl_dim(group, label)


def _labels(group, cap):
    axes = []
    for kind in group.atoms:
        if kind == CYCLIC2:
            axes.append([0, 1])
        elif kind == TORUS1:
            axes.append(list(range(-cap, cap + 1)))
        else:
            axes.append(list(range(0, cap + 1)))
    return itertools.product(*axes)


def test_dual_label():
    assert weights.dual_rule(T1)((3,)) == (-3,)
    assert weights.dual_rule(A1)((4,)) == (4,)
    assert weights.dual_rule(MIXED)((-2, 3)) == (2, 3)


@pytest.mark.parametrize(
    "group",
    [T1, C2, A1, B1, MIXED] + [builtin(name).m for name in BUILTIN_NAMES],
    ids=lambda group: "x".join(group.atoms),
)
def test_dual_rule_equals_dual_label(group):
    # The per-group sign rule, applied without validation, on every label
    # of the box: circle atoms negate, the other kinds are self-dual.
    dual = weights.dual_rule(group)
    labels = list(weights.labels_in_box(group, 6))
    assert labels
    for label in labels:
        assert dual(label) == _dual_label(group, label)


def _dual_label(group, label):
    return tuple(-v if kind == TORUS1 else v for kind, v in zip(group.atoms, label))


def test_hom_invariant_dim():
    # isotypic_pairing is dim Hom(V1, V2)^G on {label: multiplicity} dicts.
    assert isotypic_pairing({(1,): 1}, {(1,): 1}) == 1
    assert isotypic_pairing({(0,): 1, (2,): 2}, {(2,): 1}) == 2
    assert isotypic_pairing({(3,): 1}, {(-3,): 1}) == 0
    with pytest.raises(ValueError, match="^isotypic_pairing requires"):
        isotypic_pairing({(1,): -1}, {(1,): 1})


def test_hom_dim_agrees_with_dual_tensor_route():
    # Hom(V1,V2)^G is the invariant part of dual(V1) (x) V2, decomposed
    # here by the peeling oracle.
    for l1, l2 in itertools.product(_labels(MIXED, 3), repeat=2):
        direct = isotypic_pairing({l1: 1}, {l2: 1})
        product = oracles.tensor_by_peeling(MIXED.atoms, _dual_label(MIXED, l1), l2)
        assert direct == product.get((0, 0), 0)


def test_vogan_norm_catalog(sl2r, so31, sp11):
    assert vogan_norm(sl2r, (3,)) == 9
    assert vogan_norm(sp11, (0, 0)) == 8
    assert vogan_norm(so31, (2,)) == 9
    assert vogan_norm(so31, (0,)) == 1
    assert isinstance(vogan_norm(sp11, (1, 1)), Fraction)


def test_vogan_norm_matches_oracle(sl2r, so31, sp11):
    for datum in (sl2r, so31, sp11):
        for tau in enumerate_ktypes(datum, 50):
            assert vogan_norm(datum, tau) == oracles.norm_oracle(datum, tau)


def test_enumerate_ktypes_examples(sl2r, so31, sp11):
    assert enumerate_ktypes(sl2r, 4) == [(0,), (-1,), (1,), (-2,), (2,)]
    assert enumerate_ktypes(sp11, 8) == [(0, 0)]
    assert enumerate_ktypes(sl2r, -1) == []
    assert enumerate_ktypes(so31, 16) == [(0,), (1,), (2,), (3,)]


def test_enumerate_ktypes_sorted_and_stable(sl2r, so31, sp11):
    for datum in (sl2r, so31, sp11):
        window = enumerate_ktypes(datum, 100)
        again = enumerate_ktypes(datum, 100)
        assert window == again
        assert len(set(window)) == len(window)
        keys = [(vogan_norm(datum, tau), tau) for tau in window]
        assert keys == sorted(keys)


def test_enumerate_ktypes_is_exhaustive(sp11):
    # every label in a generous box with norm below the bound is listed
    window = set(enumerate_ktypes(sp11, 60))
    for label in _labels(sp11.k, 12):
        inside = vogan_norm(sp11, label) <= 60
        assert (label in window) == inside


def test_label_validation(sp11):
    with pytest.raises(ValueError):
        weyl_dim(sp11.k, (1,))
    with pytest.raises(ValueError):
        weyl_dim(sp11.k, (-1, 0))
    with pytest.raises(ValueError):
        weyl_dim(C2, (2,))


@pytest.mark.parametrize("label", [5, None, 1.5])
def test_a_label_that_is_not_a_sequence_is_refused(label):
    with pytest.raises(ValueError) as refusal:
        weights.validate_label(T1, label)
    assert str(refusal.value) == f"label {label!r} is not a sequence"


def test_oversize_windows_refused_before_enumeration(sl2r, sp11):
    with pytest.raises(WindowTooLargeError, match="needs a box of"):
        enumerate_ktypes(sp11, 10**8)
    with pytest.raises(WindowTooLargeError, match="needs a box of"):
        ds_enumerate(sp11, 10**8)
    with pytest.raises(WindowTooLargeError):
        enumerate_ktypes(sl2r, 10**14)


@pytest.mark.parametrize(
    "bound, text",
    [
        (10**40, str(10**40)),
        (Fraction(10**40, 3), f"{10**40}/3"),
        (10**5000 - 1, "~10^4999"),
        (10**5000, "~10^5000"),
        (Fraction(10**5000, 3), "~10^4999"),
    ],
    ids=["1e40", "1e40/3", "1e5000-1", "1e5000", "1e5000/3"],
)
def test_box_refusal_names_any_bound(bound, text):
    # Past Python's int-to-str digit limit the message gives the power of
    # ten, exactly, instead of failing to format the refusal.
    box = [range(int(bound) + 1)]
    with pytest.raises(WindowTooLargeError) as refusal:
        weights.require_box_within_limit(box, bound)
    size = weights._decimal(int(bound) + 1)
    assert str(refusal.value) == (
        f"bound {text} needs a box of {size} labels, above the limit of 1000000"
    )


@pytest.mark.parametrize(
    "value, text",
    [
        (-(10**5000), "-~10^5000"),
        (Fraction(1, 10**5000), "~10^-5000"),
        (Fraction(1, 10**5000 + 1), "~10^-5001"),
        (Fraction(-1, 10**5000 - 1), "-~10^-5000"),
    ],
    ids=["-1e5000", "1e-5000", "1/(1e5000+1)", "-1/(1e5000-1)"],
)
def test_decimal_names_negative_and_tiny_numbers(value, text):
    # A sign and the power of ten e with 10^e <= |value| < 10^(e+1).
    assert weights._decimal(value) == text


@pytest.mark.parametrize("group", [(TORUS1,), (SO3,), (SU2, CYCLIC2), (TORUS1, SU2)])
def test_labels_in_box_refuses_an_oversize_box(group):
    group = CompactGroup(group)
    cap = 10**6 if group.lattice_dim == 1 else 10**3
    with pytest.raises(WindowTooLargeError, match=f"bound {cap} needs a box of"):
        weights.labels_in_box(group, cap)
    with pytest.raises(WindowTooLargeError, match="bound 10000000000000000000000 needs"):
        weights.labels_in_box(group, 10**22)


class _BoxChecked(Exception):
    pass


@pytest.mark.parametrize("name", ["sl2r", "so31", "sp11"])
def test_sweep_ceiling_box_within_limit(request, monkeypatch, name):
    # A window at norm 40,000 passes the box check;
    # each routine stops right after it instead of scanning the box.
    datum = request.getfixturevalue(name)
    check = weights.require_box_within_limit

    def check_then_stop(axes, bound):
        check(axes, bound)
        raise _BoxChecked

    monkeypatch.setattr(weights, "require_box_within_limit", check_then_stop)
    monkeypatch.setattr(tempered, "require_box_within_limit", check_then_stop)
    with pytest.raises(_BoxChecked):
        enumerate_ktypes(datum, Fraction(40000))
    if datum.equal_rank:
        with pytest.raises(_BoxChecked):
            ds_enumerate(datum, Fraction(40000))


def _leibniz_det(rows):
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        sign = (-1) ** sum(
            perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))
        )
        term = sign
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_integer_det_examples():
    assert weights.integer_det([]) == 1
    assert weights.integer_det([[0, 1], [1, 0]]) == -1
    assert weights.integer_det([[0, 0], [0, 1]]) == 0
    assert weights.integer_det([[1, 2], [2, 4]]) == 0
    # the second pivot vanishes after one step and needs a row swap
    assert weights.integer_det([[1, 1, 1], [1, 1, 2], [0, 1, 1]]) == -1


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_integer_det_matches_leibniz(rows):
    assert weights.integer_det(rows) == _leibniz_det(rows)


_OFF_DIAGONAL = st.fractions(min_value=-2, max_value=2, max_denominator=4)
_DIAGONAL = st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=4)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 3),
    bound=st.fractions(min_value=0, max_value=200, max_denominator=7),
)
def test_coordinate_caps_match_dense_inverse(data, n, bound):
    # G = L L^T with L lower triangular and a positive diagonal is
    # positive-definite; each cap is floor(sqrt(bound * (G^-1)_ii)).
    lower = [
        [
            data.draw(_DIAGONAL if j == i else _OFF_DIAGONAL) if j <= i else 0
            for j in range(n)
        ]
        for i in range(n)
    ]
    gram = tuple(
        tuple(sum(lower[i][k] * lower[j][k] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    datum = GroupDatum(
        name="random-gram",
        k=CompactGroup((TORUS1,) * n),
        m=CompactGroup((CYCLIC2,)),
        branching_rule="parity",
        gram=gram,
        two_rho_c=(0,) * n,
        weyl_on_mhat="identity",
        equal_rank=False,
        ds=None,
    )
    inverse = oracles.invert_rational_matrix(gram)
    expected = [isqrt(floor(bound * inverse[i][i])) for i in range(n)]
    assert weights._coordinate_caps(datum, bound) == expected
