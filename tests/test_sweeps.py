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

from tempiric import cli, cktheory
from tempiric.catalog import builtin, load, serialize
from tempiric.cktheory import DEFAULT_SEED, random_ktype_sums
from tempiric.tempered import WindowError, make_principal_class, tempiric_window
from tempiric.weights import FormalSum, enumerate_ktypes

import oracles


def _half_gram_sp11():
    doc = serialize(builtin("Sp11"))
    doc["gram"] = [str(Fraction(v) / 2) for v in doc["gram"]]
    return load(json.dumps(doc))


DATA = {
    "SL2R": lambda: builtin("SL2R"),
    "SO31": lambda: builtin("SO31"),
    "Sp11": lambda: builtin("Sp11"),
    "Sp11-half-gram": _half_gram_sp11,
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


def restrict_sum(datum, v):
    # The restriction of a formal sum of K-types, recomputed by the oracle.
    return FormalSum(oracles.restriction_sum_oracle(datum, v))


def _restricts_like_the_branching_rule(window, v):
    return FormalSum(window.restriction(v)) == restrict_sum(window.datum, v)


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
        assert _restricts_like_the_branching_rule(window, FormalSum({tau: i + 1}))
    everything = FormalSum({tau: 1 + i % 3 for i, tau in enumerate(window.rows)})
    assert _restricts_like_the_branching_rule(window, everything)


def test_a_ktype_outside_the_window_is_refused(sl2r, sp11):
    window = tempiric_window(sl2r, 9)
    for tau in ((4,), (1, 0), (0.5,), ("0",)):
        v = FormalSum({(0,): 1, tau: 1})
        with pytest.raises(WindowError, match="is not in the window of bound 9"):
            window.restriction(v)
        with pytest.raises(WindowError):
            cktheory.dimension_identity_check(window, FormalSum({(0,): 1}), v)
        with pytest.raises(WindowError):
            cktheory.admissibility_check(window, v)
    with pytest.raises(WindowError):
        cktheory.boundary_block_dims(tempiric_window(sp11, 10), FormalSum({(-1, 0): 1}), FormalSum())


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
    v, valid = FormalSum({tau: 1}), FormalSum({window.rows[0]: 1})
    for check in (
        lambda: cktheory.dimension_identity_check(window, valid, v),
        lambda: cktheory.boundary_block_dims(window, v, valid),
        lambda: cktheory.admissibility_check(window, v),
    ):
        with pytest.raises(WindowError, match="is not in the window of bound 10"):
            check()
    assert cktheory.admissibility_check(window, valid).passed


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
        assert cls == make_principal_class(datum, sigma)
    assert set(classes) == set(window.class_of.values())


def test_sl2r_at_bound_zero_builds_the_orbit_its_rows_never_meet(sl2r):
    # The rows of SL2R at bound 0 meet only (0); labels_in_box adds (1),
    # whose orbit the boundary blocks build themselves.
    window = tempiric_window(sl2r, 0)
    assert [cls.orbit for cls in window.classes] == [((0,),)]
    assert (1,) not in window.class_of
    report = cktheory.verify(window, DEFAULT_SEED)[3]
    assert report.name == "dimension_identity" and report.passed
    v = FormalSum({(0,): 1})
    blocks = cktheory.boundary_block_dims(window, v, v)
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
        _huge_window().restriction(FormalSum({(7,): 1}))
    assert str(refusal.value) == "K-type (7) is not in the window of bound ~10^5001"


def test_rows_within_refusal_names_a_huge_bound():
    with pytest.raises(ValueError) as refusal:
        _huge_window().rows_within(10**5002)
    assert str(refusal.value) == "bound ~10^5002 exceeds the window bound ~10^5001"


def test_composite_map_refusal_names_a_huge_bound():
    with pytest.raises(WindowError) as refusal:
        cktheory.composite_map(_huge_window(), (7,))
    assert str(refusal.value) == "K-type (7) has norm above the window bound ~10^5001"
