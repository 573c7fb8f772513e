import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest

from tempiric import branching, tempered, weights
from tempiric.catalog import DiscreteSeriesDatum, GroupDatum
from tempiric.tempered import (
    blattner_mult,
    ds_enumerate,
    tempiric_window,
)
from tempiric.weights import (
    CompactGroup,
    WindowTooLargeError,
    dual_rule,
    enumerate_ktypes,
    ktype_axes,
    vogan_norm,
)

import oracles


def test_principal_classes_sl2r(sl2r):
    classes = list(tempiric_window(sl2r, 9).classes)
    assert [c.orbit for c in classes] == [((0,),), ((1,),)]
    assert all(c.w_sigma_order == 2 for c in classes)


def test_principal_classes_so31(so31):
    classes = list(tempiric_window(so31, 16).classes)
    assert [c.orbit for c in classes] == [
        ((0,),),
        ((-1,), (1,)),
        ((-2,), (2,)),
        ((-3,), (3,)),
    ]
    assert [c.w_sigma_order for c in classes] == [2, 1, 1, 1]


def test_principal_classes_sp11(sp11):
    classes = list(tempiric_window(sp11, 34).classes)
    assert [c.orbit for c in classes] == [((c,),) for c in range(5)]
    assert all(c.w_sigma_order == 2 for c in classes)


def test_induced_mult_examples(sl2r, so31, sp11):
    # A K-type's multiplicity in a class's principal series is the
    # window's restriction of its row at the dual of the representative.
    for datum, sigma, tau, mult in (
        (sl2r, (1,), (-3,), 1),
        (sp11, (2,), (1, 1), 1),
        (so31, (2,), (1,), 0),
    ):
        window = tempiric_window(datum, vogan_norm(datum, tau))
        sigma = window.class_of[sigma].representative
        (c,) = window.duals[sigma]
        got = window.restrictions[window.row_index[tau]].count(c)
        assert got == mult == oracles.mult_in_induced_oracle(datum, sigma, tau)
        assert window.restriction({tau: 1}).get((c,), 0) == mult


def _minima(window, sigma):
    # The minimal K-types the window's class pass certifies for sigma's class.
    return window.classes[window.class_of[sigma]]


def _class_reps(window, sigma):
    cls = window.class_of[sigma]
    return [rep for rep in window.reps if rep.ps_class == cls]


def test_minimal_ktypes_examples(sl2r, so31, sp11):
    assert _minima(tempiric_window(sl2r, 41), (1,)) == ((-1,), (1,))
    assert _minima(tempiric_window(sl2r, 41), (0,)) == ((0,),)
    assert _minima(tempiric_window(sp11, 41), (2,)) == ((1, 1),)
    assert _minima(tempiric_window(sp11, 41), (3,)) == (
        (1, 2),
        (2, 1),
    )
    assert _minima(tempiric_window(so31, 41), (3,)) == ((3,),)


def test_minimal_ktypes_match_exhaustive_sweep(sl2r, so31, sp11):
    # At bound 100 each listed class occurs: its minima have norm at most 72.
    for datum, reps in (
        (sl2r, [(0,), (1,)]),
        (so31, [(n,) for n in range(7)]),
        (sp11, [(c,) for c in range(9)]),
    ):
        window = tempiric_window(datum, 100)
        for sigma in reps:
            cls = window.class_of[sigma]
            expected = oracles.minimal_ktypes_by_sweep(datum, cls.representative)
            assert _minima(window, sigma) == expected, sigma


def test_minimal_multiplicity_is_one(sl2r, so31, sp11):
    for datum in (sl2r, so31, sp11):
        for cls, minima in tempiric_window(datum, 100).classes.items():
            for tau in minima:
                assert oracles.mult_in_induced_oracle(datum, cls.representative, tau) == 1


def test_constituent_counts(sl2r, so31, sp11):
    sl2r_window, so31_window, sp11_window = (tempiric_window(d, 100) for d in (sl2r, so31, sp11))
    assert len(_class_reps(sl2r_window, (0,))) == 1
    split = _class_reps(sl2r_window, (1,))
    assert len(split) == 2 and all(rep.split for rep in split)
    assert {rep.min_ktype for rep in split} == {(-1,), (1,)}
    for n in range(6):
        assert len(_class_reps(so31_window, (n,))) == 1
    for c in range(8):
        count = len(_class_reps(sp11_window, (c,)))
        assert count == (2 if c % 2 else 1)


def test_ds_enumerate_sl2r(sl2r):
    reps = ds_enumerate(sl2r, 16)
    assert {rep.min_ktype for rep in reps} == {
        (-2,), (2,), (-3,), (3,), (-4,), (4,)
    }
    assert {rep.hc_param for rep in reps} == {
        (-1,), (1,), (-2,), (2,), (-3,), (3,)
    }
    for rep in reps:
        lam, lowest = rep.hc_param[0], rep.min_ktype[0]
        assert lowest == lam + (1 if lam > 0 else -1)


def test_ds_enumerate_refuses_two_parameters_sharing_a_lowest_ktype(monkeypatch, sl2r):
    # No loadable datum maps two kept parameters to one lowest K-type, so
    # every parameter's lowest K-type is made (0); SL2R keeps -2, -1, 1, 2
    # at bound 9, in that order.
    monkeypatch.setattr(tempered, "_lowest_ktype", lambda datum, lam, base: (0,))
    with pytest.raises(
        tempered.InternalInconsistencyError,
        match=r"^parameters \(-2,\) and \(-1,\) share lowest K-type \(0\)$",
    ):
        ds_enumerate(sl2r, 9)


def test_ds_enumerate_requires_equal_rank(so31):
    with pytest.raises(ValueError):
        ds_enumerate(so31, 10)


def test_ds_enumerate_sp11(sp11):
    reps = ds_enumerate(sp11, 34)
    expected = {
        (a, b)
        for a in range(6)
        for b in range(6)
        if abs(a - b) >= 2 and (a + 2) ** 2 + (b + 2) ** 2 <= 34
    }
    assert {rep.min_ktype for rep in reps} == expected
    for rep in reps:
        a, b = rep.min_ktype
        lam = rep.hc_param
        assert lam == ((a, b + 1) if a > b else (a + 1, b))
    # lowest K-types are pairwise distinct
    assert len({rep.min_ktype for rep in reps}) == len(reps)


def test_ds_enumerate_sorted(sp11):
    reps = ds_enumerate(sp11, 100)
    keys = [(vogan_norm(sp11, rep.min_ktype), rep.min_ktype) for rep in reps]
    assert keys == sorted(keys)


def test_class_pass_memory_does_not_grow_with_the_restrictions(so31):
    # SO31 at 301^2 has 301 rows, whose restrictions hold about 90,000
    # M-labels in all.  The class pass reads each row's range and keeps
    # only per-class and per-M-type state, so its peak stays far below
    # what one entry per M-label of every row would take.
    window = tempiric_window(so31, 301**2)
    assert len(window.rows) == len(window.norms) == 301
    tracemalloc.start()
    try:
        classes = window.classes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(classes) == 301
    assert peak < 2 * 2**20


def test_class_pass_looks_up_each_label_met_once(so31):
    # SO31 at 10^6 has 1,000 rows (j,), each restricting to -j..j: about
    # 10^6 M-labels in all, 1,999 of them distinct, and no two rows share
    # a norm.  The sweep reads only the part of a row's range that no row
    # of lower norm covered, so it looks each label up once.
    window = tempiric_window(so31, 10**6)
    assert len(window.rows) == 1000
    lookups = []
    dual = dual_rule(so31.m)

    class CountedDuals(dict):
        def __getitem__(self, label):
            lookups.append(label)
            return dual(label)

    window.__dict__["duals"] = CountedDuals()
    classes = window.classes
    assert len(lookups) < 2 * len(window.rows)
    assert sorted(lookups) == [(c,) for c in range(-999, 1000)]
    assert [cls.representative for cls in classes] == [(c,) for c in range(1000)]


def test_oversize_label_boxes_are_refused_before_the_class_pass(sp11, monkeypatch):
    # At bound 41 the series' parameter box is larger than the rows' label
    # box.  With the limit between the two, Window.reps refuses the
    # parameter box, as ds_enumerate does, before any row is restricted;
    # with the limit below both, the rows' box is refused first, as the
    # class pass would have refused it.
    bound = Fraction(41)
    labels = math.prod(len(axis) for axis in ktype_axes(sp11, bound))
    params = math.prod(len(axis) for axis in tempered._parameter_box(sp11, bound))
    assert labels < params

    def no_restriction(*entries):
        raise AssertionError("a row was restricted")

    k, m, _ = branching.BRANCHING_RULES[sp11.branching_rule]
    monkeypatch.setitem(branching.BRANCHING_RULES, sp11.branching_rule, (k, m, no_restriction))
    for limit, size in ((params - 1, params), (labels - 1, labels)):
        monkeypatch.setattr(weights, "MAX_BOX_LABELS", limit)
        with pytest.raises(WindowTooLargeError, match=f"needs a box of {size} labels"):
            tempiric_window(sp11, bound).reps
    monkeypatch.setattr(weights, "MAX_BOX_LABELS", params - 1)
    with pytest.raises(WindowTooLargeError, match=f"needs a box of {params} labels"):
        ds_enumerate(sp11, bound)
    monkeypatch.setattr(weights, "MAX_BOX_LABELS", params)
    assert tempiric_window(sp11, bound).series == ds_enumerate(sp11, bound)


def test_blattner_examples(sl2r, sp11):
    (ds_plus,) = [r for r in ds_enumerate(sl2r, 4) if r.hc_param == (1,)]
    assert blattner_mult(sl2r, ds_plus, (2,)) == 1
    assert blattner_mult(sl2r, ds_plus, (0,)) == 0
    assert blattner_mult(sl2r, ds_plus, (4,)) == 1
    assert blattner_mult(sl2r, ds_plus, (3,)) == 0
    (d21,) = [r for r in ds_enumerate(sp11, 20) if r.hc_param == (2, 1)]
    assert blattner_mult(sp11, d21, (3, 1)) == 1
    assert blattner_mult(sp11, d21, (2, 0)) == 1
    assert blattner_mult(sp11, d21, (1, 1)) == 0


def test_blattner_sl2r_ladder(sl2r):
    for rep in ds_enumerate(sl2r, 36):
        lowest = rep.min_ktype[0]
        for n in range(-9, 10):
            in_ladder = (
                n * lowest > 0 and abs(n) >= abs(lowest) and (n - lowest) % 2 == 0
            )
            assert blattner_mult(sl2r, rep, (n,)) == (1 if in_ladder else 0)


def test_blattner_matches_enumeration_oracle(sl2r, sp11):
    for rep in ds_enumerate(sl2r, 25):
        for n in range(-8, 9):
            assert blattner_mult(sl2r, rep, (n,)) == oracles.blattner_by_enumeration(
                sl2r, rep.hc_param, (n,)
            )
    for rep in ds_enumerate(sp11, 64):
        for tau in itertools.product(range(9), repeat=2):
            assert blattner_mult(sp11, rep, tau) == oracles.blattner_by_enumeration(
                sp11, rep.hc_param, tau
            ), (rep.hc_param, tau)


def test_blattner_lowest_ktype_properties(sl2r, sp11):
    for datum in (sl2r, sp11):
        window = enumerate_ktypes(datum, 60)
        for rep in ds_enumerate(datum, 60):
            assert blattner_mult(datum, rep, rep.min_ktype) == 1
            low = vogan_norm(datum, rep.min_ktype)
            for tau in window:
                if vogan_norm(datum, tau) < low:
                    assert blattner_mult(datum, rep, tau) == 0


def test_tempiric_window_alignment(sl2r, so31, sp11):
    for datum, bound in ((sl2r, 16), (so31, 25), (sp11, 41)):
        window = tempiric_window(datum, bound)
        rows, reps = window.rows, window.reps
        assert len(rows) == len(reps)
        assert [rep.min_ktype for rep in reps] == rows


def test_tempiric_window_sp11_pattern(sp11):
    reps = tempiric_window(sp11, 41).reps
    for rep in reps:
        a, b = rep.min_ktype
        if abs(a - b) >= 2:
            assert rep.kind == "ds"
        elif a == b:
            assert rep.kind == "ps" and not rep.split
        else:
            assert rep.kind == "ps" and rep.split


def test_blattner_rejects_ps(sl2r):
    (sph,) = tempiric_window(sl2r, 0).reps    # the class {(0)}, minimal at (0)
    assert sph.kind == "ps"
    with pytest.raises(ValueError):
        blattner_mult(sl2r, sph, (0,))


@pytest.mark.parametrize("atoms, weyl_k, message", [
    # SU2 first: the scan meets (-5), whose SU2 coordinate is negative,
    # before any parameter reaches the Cyclic2 atom.
    ((weights.SU2, weights.CYCLIC2), (((1,),),),
     "parameter (-5,) is not dominant: coordinate -6 is not dominant for a SU2 atom"),
    # A W_K negation starts the scan at (1), whose SU2 coordinate is 2.
    ((weights.SU2, weights.CYCLIC2), (((-1,),),),
     "parameter (1,) is not dominant: group with a Cyclic2 atom has no coordinate-only labels"),
    ((weights.CYCLIC2, weights.SU2), (((1,),),),
     "parameter (-5,) is not dominant: group with a Cyclic2 atom has no coordinate-only labels"),
], ids=["su2-negative", "su2-then-cyclic2", "cyclic2-first"])
def test_ds_enumerate_refuses_a_k_with_a_cyclic2_atom(atoms, weyl_k, message):
    # The loader refuses such a K, so the datum is built by hand: SL2R's
    # roots on a K whose lattice coordinate is that of its SU2 atom.
    datum = GroupDatum(
        "hand-built", CompactGroup(atoms), CompactGroup((weights.CYCLIC2,)), "parity",
        ((Fraction(1),),), (0,), "identity", True,
        DiscreteSeriesDatum((), ((2,), (-2,)), weyl_k),
    )
    with pytest.raises(tempered.InternalInconsistencyError) as excinfo:
        ds_enumerate(datum, 9)
    assert str(excinfo.value) == "lowest K-type of " + message
