"""verify's randomized sweeps and the window restriction they read.

The sweeps are loops over the public ``dimension_identity_check`` and
``admissibility_check`` on the command's ``Window``.  Each check reads a
sum's restriction off the window (``Window.restriction``), which must
equal the restriction that ``oracles.restriction_sum_oracle`` recomputes
from the weights of each K-type.
"""

import json
from fractions import Fraction

import pytest

from tempiric import cli, cktheory, tempered
from tempiric.branching import restricted_support
from tempiric.catalog import builtin, load, serialize, weyl_image
from tempiric.cktheory import DEFAULT_SEED, random_ktype_sums
from tempiric.tempered import WindowError, tempiric_window
from tempiric.weights import enumerate_ktypes

import oracles
from conftest import half_gram_sp11


DATA = {
    "SL2R": lambda: builtin("SL2R"),
    "SO31": lambda: builtin("SO31"),
    "Sp11": lambda: builtin("Sp11"),
    "Sp11-half-gram": half_gram_sp11,
}
BOUNDS = (Fraction(0), Fraction(1, 3), Fraction(10), Fraction(41), Fraction(100))
# verify's draws: pairs and samples from the rows of norm <= min(bound, NORM_CAP).
PAIRS, SAMPLES, NORM_CAP = 200, 100, 60


def _recorded(monkeypatch, check, run):
    # The (arguments, report) of every call of a public check during run().
    calls = []
    real = getattr(cktheory, check)

    def recording(*args):
        report = real(*args)
        calls.append((args, report))
        return report

    with monkeypatch.context() as patch:
        patch.setattr(cktheory, check, recording)
        final = run()
    return final, calls


def _restricts_like_the_branching_rule(window, v):
    # The restriction of a formal sum of K-types, recomputed by the oracle.
    return window.restriction(v) == oracles.restriction_sum_oracle(window.datum, v)


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
@pytest.mark.parametrize("name", sorted(DATA))
def test_identity_sweep_equals_the_public_check(monkeypatch, name, bound):
    window = tempiric_window(DATA[name](), bound)
    reports, calls = _recorded(
        monkeypatch, "dimension_identity_check",
        lambda: cktheory.verify(window, DEFAULT_SEED),
    )
    final = reports[3]
    cap = min(bound, Fraction(NORM_CAP))
    sums = random_ktype_sums(window, 2 * PAIRS, cap, DEFAULT_SEED)
    pairs = list(zip(sums[0::2], sums[1::2]))
    assert [args for args, _ in calls] == [(window, v1, v2) for v1, v2 in pairs]
    assert all(report.passed for _, report in calls)
    assert all(_restricts_like_the_branching_rule(window, v) for v in sums)
    assert final.name == "dimension_identity"
    assert final.passed and final.data == {"pairs": PAIRS}


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
@pytest.mark.parametrize("name", sorted(DATA))
def test_admissibility_sweep_equals_the_public_check(monkeypatch, name, bound):
    window = tempiric_window(DATA[name](), bound)
    reports, calls = _recorded(
        monkeypatch, "admissibility_check",
        lambda: cktheory.verify(window, DEFAULT_SEED),
    )
    final = reports[4]
    cap = min(bound, Fraction(NORM_CAP))
    sums = random_ktype_sums(window, SAMPLES, cap, DEFAULT_SEED + 1)
    assert [args for args, _ in calls] == [(window, v) for v in sums]
    assert all(report.passed for _, report in calls)
    assert all(_restricts_like_the_branching_rule(window, v) for v in sums)
    assert final.name == "admissibility"
    assert final.passed and final.data == {"samples": SAMPLES}


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
@pytest.mark.parametrize("name", sorted(DATA))
def test_window_restriction_equals_restrict_sum(name, bound):
    window = tempiric_window(DATA[name](), bound)
    for i, tau in enumerate(window.rows):
        assert _restricts_like_the_branching_rule(window, {tau: i + 1})
    everything = {tau: 1 + i % 3 for i, tau in enumerate(window.rows)}
    assert _restricts_like_the_branching_rule(window, everything)


def test_a_ktype_outside_the_window_is_refused(sl2r, sp11):
    window = tempiric_window(sl2r, 9)
    for tau in ((4,), (1, 0), (0.5,), ("0",)):
        v = {(0,): 1, tau: 1}
        with pytest.raises(WindowError, match="is not in the window of bound 9"):
            window.restriction(v)
        with pytest.raises(WindowError):
            cktheory.dimension_identity_check(window, {(0,): 1}, v)
        with pytest.raises(WindowError):
            cktheory.admissibility_check(window, v)
    with pytest.raises(WindowError):
        cktheory.dimension_identity_check(
            tempiric_window(sp11, 10), {(-1, 0): 1}, {}
        )


@pytest.mark.parametrize("group, tau", [
    ("SL2R", (1.0,)),
    ("SL2R", (True,)),
    ("SL2R", (Fraction(1),)),
    ("Sp11", (0.0, 0)),
    ("Sp11", (0, False)),
])
def test_an_invalid_label_equal_to_a_row_is_refused(group, tau):
    # The label hashes and compares like a row, but an entry is not an
    # int (or is a bool), so every check reading Window.restriction refuses it.
    window = tempiric_window(builtin(group), 10)
    assert tau in window.row_index
    v, valid = {tau: 1}, {window.rows[0]: 1}
    for check in (
        lambda: cktheory.dimension_identity_check(window, valid, v),
        lambda: cktheory.dimension_identity_check(window, v, valid),
        lambda: cktheory.admissibility_check(window, v),
    ):
        with pytest.raises(WindowError, match="is not in the window of bound 10"):
            check()
    assert cktheory.admissibility_check(window, valid).passed


@pytest.mark.parametrize("key", [5, None, "ab", ""])
def test_a_key_that_is_not_a_tuple_is_named_by_its_repr(sl2r, key):
    window = tempiric_window(sl2r, 9)
    with pytest.raises(WindowError) as refusal:
        window.restriction({(0,): 1, key: 1})
    assert str(refusal.value) == f"K-type {key!r} is not in the window of bound 9"


@pytest.mark.parametrize("mult", [1.5, True, False, Fraction(1), None])
def test_a_multiplicity_that_is_not_an_int_is_refused(sp11, mult):
    # Window.restriction is where every sum a check reads enters.
    window = tempiric_window(sp11, 20)
    v, valid = {(0, 0): 1, (1, 1): mult}, {(1, 1): 1}
    for check in (
        lambda: window.restriction(v),
        lambda: cktheory.dimension_identity_check(window, v, valid),
        lambda: cktheory.dimension_identity_check(window, valid, v),
        lambda: cktheory.admissibility_check(window, v),
    ):
        with pytest.raises(TypeError) as refusal:
            check()
        assert str(refusal.value) == f"multiplicity {mult!r} is not an integer"


def test_a_zero_multiplicity_moves_no_verdict(sp11):
    window = tempiric_window(sp11, 100)
    v, padded = {(1, 1): 1}, {(1, 1): 1, (5, 4): 0}
    assert window.restriction(padded) == window.restriction(v)
    identity = cktheory.dimension_identity_check
    assert identity(window, padded, padded) == identity(window, v, v)
    plain, zero = (cktheory.admissibility_check(window, s) for s in (v, padded))
    assert plain.passed and zero.passed
    assert plain.data == zero.data


@pytest.mark.parametrize("group", ["SL2R", "SO31", "Sp11"])
def test_verify_sweeps_call_the_public_checks(capsys, monkeypatch, group):
    counts = {}
    for check in ("dimension_identity_check", "admissibility_check"):
        real = getattr(cktheory, check)

        def counted(*args, check=check, real=real):
            counts[check] = counts.get(check, 0) + 1
            return real(*args)

        monkeypatch.setattr(cktheory, check, counted)
    assert cli.main(["verify", "--group", group, "--bound", "41"]) == 0
    capsys.readouterr()
    assert counts == {
        "dimension_identity_check": PAIRS,
        "admissibility_check": SAMPLES,
    }


@pytest.mark.parametrize("name", sorted(DATA))
def test_window_pool_is_the_enumerated_pool(name):
    datum = DATA[name]()
    window = tempiric_window(datum, 41)
    for cap in BOUNDS[:4]:
        assert window.rows_within(cap) == enumerate_ktypes(datum, cap)
    assert window.rows_within(41) == window.rows
    with pytest.raises(ValueError, match="exceeds the window bound"):
        window.rows_within(42)


@pytest.mark.parametrize("name", sorted(DATA))
def test_class_of_maps_each_met_mtype_to_its_class(name):
    datum = DATA[name]()
    window = tempiric_window(datum, 41)
    classes = window.classes
    met = {window.duals[(c,)] for labels in window.restrictions for c in labels}
    assert met == set(window.class_of)
    for sigma, cls in window.class_of.items():
        assert cls.orbit == tuple(sorted({sigma, weyl_image(datum, sigma)}))
        assert cls.w_sigma_order == (2 if len(cls.orbit) == 1 else 1)
    assert set(classes) == set(window.class_of.values())


def test_sl2r_at_bound_zero_builds_the_orbit_its_rows_never_meet(sl2r):
    # The rows of SL2R at bound 0 meet only (0); labels_in_box adds (1),
    # whose orbit the boundary blocks build themselves.
    window = tempiric_window(sl2r, 0)
    assert [cls.orbit for cls in window.classes] == [((0,),)]
    assert (1,) not in window.class_of
    report = cktheory.verify(window, DEFAULT_SEED)[3]
    assert report.name == "dimension_identity" and report.passed
    v = {(0,): 1}
    r = window.restriction(v)
    blocks = cktheory._boundary_blocks(window, r, r, set(restricted_support(window.duals, r)))
    assert [b if isinstance(b, str) else b.orbit for b, _ in blocks] == [
        "discrete-series", ((0,),), ((1,),),
    ]
    # An orbit another reader looked up first is still not a class met.
    early = tempiric_window(sl2r, 0)
    assert early.class_of[(1,)].orbit == ((1,),)
    assert early.classes == window.classes


def _huge_window():
    # A Gram entry of 10^5000 puts the window bound past Python's 4,300-digit
    # int-to-str limit; (7) has norm 49 * 10^5000, outside the window.
    doc = serialize(builtin("SL2R"))
    doc["gram"] = ["1e5000"]
    return tempiric_window(load(json.dumps(doc)), 10**5001)


def test_restriction_refusal_names_a_huge_bound():
    with pytest.raises(WindowError) as refusal:
        _huge_window().restriction({(7,): 1})
    assert str(refusal.value) == "K-type (7) is not in the window of bound ~10^5001"


def test_rows_within_refusal_names_a_huge_bound():
    with pytest.raises(ValueError) as refusal:
        _huge_window().rows_within(10**5002)
    assert str(refusal.value) == "bound ~10^5002 exceeds the window bound ~10^5001"


def test_composite_map_refusal_names_a_huge_bound():
    with pytest.raises(WindowError) as refusal:
        cktheory.composite_map(_huge_window(), (7,))
    assert str(refusal.value) == "K-type (7) has norm above the window bound ~10^5001"


def test_restriction_refusal_names_a_tiny_bound():
    # 1/10^5000 has a denominator past the digit limit and lies below 1.
    window = tempiric_window(builtin("SL2R"), Fraction(1, 10**5000))
    with pytest.raises(WindowError) as refusal:
        window.restriction({(3,): 1})
    assert str(refusal.value) == "K-type (3) is not in the window of bound ~10^-5000"


@pytest.mark.parametrize("group", ["SL2R", "SO31", "Sp11"])
def test_both_sweeps_fail_on_a_wrong_window_restriction(monkeypatch, group):
    # Window.restriction loses one M-type and gains (999) with multiplicity
    # 5.  Both sweeps read each multiplicity-space dimension off the rows'
    # ranges, so they must see that the restriction is wrong.
    real = tempered.Window.restriction

    def wrong(self, v):
        restricted = dict(real(self, v))
        del restricted[next(iter(restricted))]
        restricted[(999,)] = 5
        return restricted

    monkeypatch.setattr(tempered.Window, "restriction", wrong)
    window = tempiric_window(builtin(group), 50)
    reports = cktheory.verify(window, DEFAULT_SEED)
    assert [(r.name, r.passed) for r in reports] == [
        ("blattner_consistency", True),
        ("vogan_bijection", True),
        ("triangularity", True),
        ("dimension_identity", False),
    ]
    samples = random_ktype_sums(window, SAMPLES, 50, DEFAULT_SEED + 1)
    assert not any(cktheory.admissibility_check(window, v).passed for v in samples)


@pytest.mark.parametrize("group, v, sigma, support", [
    ("SL2R", {(5,): 2, (0,): 1}, "(1)", ["(0)", "(999)"]),
    ("SO31", {(0,): 2, (2,): 3, (3,): 1}, "(-999)",
     ["(-999)", "(-3)", "(-2)", "(-1)", "(1)", "(2)", "(3)"]),
    ("Sp11", {(3, 2): 1}, "(1)", ["(3)", "(5)", "(999)"]),
])
def test_admissibility_names_the_first_stray_label(monkeypatch, group, v, sigma, support):
    # The same wrong restriction: the counterexample is the first label of
    # the box whose counted dimension disagrees with the support, then the
    # support, and the failing report carries no data.
    real = tempered.Window.restriction

    def wrong(self, v):
        restricted = dict(real(self, v))
        del restricted[next(iter(restricted))]
        restricted[(999,)] = 5
        return restricted

    monkeypatch.setattr(tempered.Window, "restriction", wrong)
    report = cktheory.admissibility_check(tempiric_window(builtin(group), 50), v)
    assert not report.passed and report.data == {}
    assert list(report.counterexample.items()) == [("sigma", sigma), ("support", support)]
