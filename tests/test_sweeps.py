"""verify's randomized sweeps against the public checks.

The sweeps read their sums, restrictions and orbits off the command's
``Window``; every per-sum report they compute must equal the report of
the public check, which restricts its arguments itself, on the same
inputs.
"""

import json
from fractions import Fraction

import pytest

from tempiric import cli, cktheory
from tempiric.catalog import builtin, load, serialize
from tempiric.cktheory import (
    DEFAULT_SEED,
    admissibility_check,
    dimension_identity_check,
    random_ktype_sums,
)
from tempiric.tempered import principal_class_of, tempiric_window
from tempiric.weights import FormalSum, enumerate_ktypes


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


def _recorded(monkeypatch, core, run):
    # The (arguments, report) of every call of a check core during run().
    calls = []
    real = getattr(cktheory, core)

    def recording(*args):
        report = real(*args)
        calls.append((args, report))
        return report

    with monkeypatch.context() as patch:
        patch.setattr(cktheory, core, recording)
        final = run()
    return final, calls


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
@pytest.mark.parametrize("name", sorted(DATA))
def test_identity_sweep_equals_the_public_check(monkeypatch, name, bound):
    datum = DATA[name]()
    window = tempiric_window(datum, bound)
    final, calls = _recorded(
        monkeypatch, "_identity_report", lambda: cli._identity_sweep(window, DEFAULT_SEED)
    )
    cap = min(bound, Fraction(cli.VERIFY_NORM_CAP))
    sums = random_ktype_sums(datum, 2 * cli.VERIFY_PAIRS, cap, DEFAULT_SEED)
    pairs = list(zip(sums[0::2], sums[1::2]))
    assert [(FormalSum(args[1]), FormalSum(args[2])) for args, _ in calls] == pairs
    for (v1, v2), (_, report) in zip(pairs, calls):
        assert report == dimension_identity_check(datum, v1, v2)
    assert final.passed and final.data == {"pairs": cli.VERIFY_PAIRS}


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
@pytest.mark.parametrize("name", sorted(DATA))
def test_admissibility_sweep_equals_the_public_check(monkeypatch, name, bound):
    datum = DATA[name]()
    window = tempiric_window(datum, bound)
    final, calls = _recorded(
        monkeypatch, "_admissibility_report",
        lambda: cli._admissibility_sweep(window, DEFAULT_SEED),
    )
    cap = min(bound, Fraction(cli.VERIFY_NORM_CAP))
    sums = random_ktype_sums(datum, cli.VERIFY_ADMISSIBILITY, cap, DEFAULT_SEED + 1)
    assert [FormalSum(args[0]) for args, _ in calls] == sums
    for v, (_, report) in zip(sums, calls):
        assert report == admissibility_check(datum, v)
    assert final.passed and final.data == {"samples": cli.VERIFY_ADMISSIBILITY}


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
    met = {sigma for support in window.supports for sigma in support}
    assert met <= set(window.class_of)
    for sigma, cls in window.class_of.items():
        assert cls == principal_class_of(datum, sigma)
    assert set(window.classes) == set(window.class_of.values())


def test_sl2r_at_bound_zero_builds_the_orbit_its_rows_never_meet(sl2r):
    # The rows of SL2R at bound 0 meet only (0); labels_in_box adds (1),
    # whose orbit the boundary blocks build themselves.
    window = tempiric_window(sl2r, 0)
    assert (1,) not in window.class_of
    report = cli._identity_sweep(window, DEFAULT_SEED)
    assert report.passed
    v = FormalSum({(0,): 1})
    blocks = cktheory.boundary_block_dims(sl2r, v, v)
    assert [b if isinstance(b, str) else b.orbit for b, _ in blocks] == [
        "discrete-series", ((0,),), ((1,),),
    ]
