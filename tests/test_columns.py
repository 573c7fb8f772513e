"""The column kernels of the multiplicity matrix against the oracles.

Every entry of ``mult_matrix``, zeros included, is recomputed by the
brute-force oracles of ``tests/oracles.py``: Blattner's formula by direct
partition enumeration for discrete-series columns, and restriction by
characters or weights for principal-series columns.
"""

import itertools
import json
from bisect import bisect_left
from collections import Counter
from pathlib import Path

import pytest

from tempiric import cli, cktheory, tempered, weights
from tempiric.catalog import builtin, load, serialize
from tempiric.cktheory import AGGREGATE_ONLY, mult_matrix
from tempiric.tempered import (
    InternalInconsistencyError,
    TempiricRep,
    blattner_mult,
    ds_enumerate,
    format_label,
    partner_minimum,
    tempiric_window,
)
from tempiric.weights import (
    WindowTooLargeError,
    enumerate_ktypes,
    label_lattice_coords,
    scaled_norm,
)

import oracles
from conftest import half_gram_sp11

GOLDEN = Path(__file__).parent / "golden"


def _doubled_noncompact_sp11():
    doc = serialize(builtin("Sp11"))
    doc["ds"]["noncompact_roots"] = [
        [2 * c for c in beta] for beta in doc["ds"]["noncompact_roots"]
    ]
    return load(json.dumps(doc))


def _shifted_rho_sl2r():
    # With two_rho_c = (-1) and no discrete series, the class {(0)} splits
    # at (0) and (2); the split minimum at (0) takes the negative ladder.
    doc = serialize(builtin("SL2R"))
    doc.update(two_rho_c=[-1], equal_rank=False, ds=None)
    return load(json.dumps(doc))


DATA = {
    "SL2R": lambda: builtin("SL2R"),
    "SL2R-shifted-rho": _shifted_rho_sl2r,
    "SO31": lambda: builtin("SO31"),
    "Sp11": lambda: builtin("Sp11"),
    "Sp11-half-gram": half_gram_sp11,
}


def _expected_entry(window, matrix, j, tau):
    datum = window.datum
    rep = matrix.cols[j]
    if rep.kind == "ds":
        return oracles.blattner_by_enumeration(datum, rep.hc_param, tau)
    induced = oracles.mult_in_induced_oracle(datum, rep.ps_class.representative, tau)
    if not rep.split:
        return induced
    if matrix.resolution[j] == AGGREGATE_ONLY:
        if tau == rep.min_ktype:
            return 1
        if tau == partner_minimum(window, rep):
            return 0
        return induced
    # a resolved split pair divides the odd ladder by sign
    sign = 1 if rep.min_ktype[0] > 0 else -1
    return induced if tau[0] * sign > 0 else 0


@pytest.mark.parametrize("name", sorted(DATA))
def test_every_matrix_entry_matches_the_oracles(name):
    datum = DATA[name]()
    window = tempiric_window(datum, 41)
    matrix = mult_matrix(window)
    assert matrix.rows and matrix.cols
    for j in range(len(matrix.cols)):
        for i, tau in enumerate(matrix.rows):
            assert matrix.entry(i, j) == _expected_entry(window, matrix, j, tau), (
                name, tau, matrix.cols[j].describe()
            )
    assert all(v != 0 for row in matrix.nonzeros for v in row.values())


def _listed(group, roots):
    # The group with its noncompact roots replaced by roots(listed roots).
    doc = serialize(builtin(group))
    doc["ds"]["noncompact_roots"] = roots(doc["ds"]["noncompact_roots"])
    return load(json.dumps(doc))


def _every_root_twice(roots):
    return [beta for beta in roots for _ in range(2)]


def test_windows_never_share_a_column(sp11, monkeypatch):
    # Two windows of one datum build equal columns on their own: each
    # walks its own rows, and no column or totals object is shared.
    walks = _record_walks(monkeypatch)
    first, second = tempiric_window(sp11, 41), tempiric_window(sp11, 41)
    matrix = mult_matrix(first)
    assert len(walks) == len(first.series) > 0
    assert mult_matrix(second) == matrix
    for (rep, rows, totals), (rep2, rows2, totals2) in zip(
        walks[: len(first.series)], walks[len(first.series):], strict=True
    ):
        assert rep == rep2 and totals == totals2 and totals is not totals2
        assert rows is first.shifted and rows2 is second.shifted
    assert all(first.columns[rep] is not second.columns[rep] for rep in first.reps)


SERIES_DATA = {
    "SL2R": lambda: builtin("SL2R"),
    "Sp11": lambda: builtin("Sp11"),
    "Sp11-half-gram": half_gram_sp11,
    # A repeated root in the chamber: tuples are counted, not points.
    "SL2R-every-root-twice": lambda: _listed("SL2R", _every_root_twice),
    "Sp11-every-root-twice": lambda: _listed("Sp11", _every_root_twice),
}


@pytest.mark.parametrize("name", sorted(SERIES_DATA))
def test_column_equals_pointwise_multiplicities(name):
    # Every discrete-series entry, zeros included, and blattner_mult at
    # every row, against the oracle's partition enumeration.  Some rows
    # with a coordinate at the walk's box edge, Window.reach, are nonzero.
    window = tempiric_window(SERIES_DATA[name](), 60)
    datum, rows = window.datum, window.rows
    edge = [i for coords, i in window.shifted.items() if window.reach in map(abs, coords)]
    edge_nonzero = 0
    for rep in window.series:
        expected = [oracles.blattner_by_enumeration(datum, rep.hc_param, tau) for tau in rows]
        entry = window.columns[rep][1]
        assert [entry(i) for i in range(len(rows))] == expected, rep.describe()
        assert [blattner_mult(datum, rep, tau) for tau in rows] == expected, rep.describe()
        edge_nonzero += sum(1 for i in edge if expected[i])
    assert window.series and edge_nonzero


def test_column_raises_at_the_same_entry_as_the_pointwise_path():
    # With every noncompact root doubled, the first series of Sp11 has a
    # negative Blattner total inside the window.  Its column holds the
    # oracle's entries up to the first negative one, and reading that
    # entry raises with the text blattner_mult raises there; the matrix
    # raises at the first negative entry of its columns in order.
    window = tempiric_window(_doubled_noncompact_sp11(), 60)
    datum, rows = window.datum, window.rows

    def negative(rep):
        for tau in rows:
            total = oracles.blattner_by_enumeration(datum, rep.hc_param, tau)
            if total < 0:
                return f"negative multiplicity {total} for {format_label(tau)} in {rep.describe()}"

    rep = window.series[0]
    entry = window.columns[rep][1]
    good = []
    with pytest.raises(InternalInconsistencyError) as from_column:
        for i in range(len(rows)):
            good.append(entry(i))
    assert good == [
        oracles.blattner_by_enumeration(datum, rep.hc_param, tau) for tau in rows[: len(good)]
    ]
    with pytest.raises(InternalInconsistencyError) as pointwise:
        blattner_mult(datum, rep, rows[len(good)])
    assert str(from_column.value) == str(pointwise.value) == negative(rep)
    with pytest.raises(InternalInconsistencyError) as from_matrix:
        mult_matrix(window)
    texts = (negative(r) for r in window.reps if r.kind == "ds")
    assert str(from_matrix.value) == next(text for text in texts if text)


@pytest.mark.parametrize("name, roots", [
    ("SL2R", [[2], [2], [-2]]),
    ("Sp11", [[1, 1], [1, -1], [-1, 1], [-1, -1], [-1, -1], [-1, -1]]),
])
def test_series_refuse_a_root_listed_unevenly(name, roots):
    # No chamber makes half of these roots positive: the window's series
    # and verify refuse with the scan oracle's text.
    datum = _listed(name, lambda _: roots)
    with pytest.raises(oracles.InconsistentDatum) as scanned:
        oracles.ds_enumerate_by_scan(datum, 60)
    with pytest.raises(InternalInconsistencyError) as raised:
        tempiric_window(datum, 60).series
    assert str(raised.value) == str(scanned.value)
    reports = cktheory.verify(tempiric_window(datum, 60), cktheory.DEFAULT_SEED)
    assert [(r.name, r.counterexample) for r in reports] == [
        ("blattner_consistency", {"error": str(scanned.value)})
    ]


def _skew_gram_sp11():
    doc = serialize(builtin("Sp11"))
    doc["gram"] = ["1", "-5/2", "-5/2", "7"]
    return load(json.dumps(doc))


def _scan_error(datum, bound):
    with pytest.raises(oracles.InconsistentDatum) as scanned:
        oracles.ds_enumerate_by_scan(datum, bound)
    return str(scanned.value)


def _three_minima(datum, bound):
    return "class {(9)} has 3 minimal K-types; rank one allows at most two"


@pytest.mark.parametrize("check, datum, error", [
    ("blattner_consistency_check", lambda: _listed("SL2R", lambda _: [[2], [2], [-2]]), _scan_error),
    ("vogan_bijection_check", _skew_gram_sp11, _three_minima),
    ("triangularity_check", _skew_gram_sp11, _three_minima),
])
def test_a_check_called_directly_fails_on_inconsistent_data(monkeypatch, check, datum, error):
    # The inconsistency fails the check with its text as the counterexample,
    # and that is the report verify prints once the checks before it pass.
    datum = datum()
    report = getattr(cktheory, check)(tempiric_window(datum, 30))
    assert (report.passed, report.counterexample) == (False, {"error": error(datum, 30)})
    earlier = ["blattner_consistency_check", "vogan_bijection_check", "triangularity_check"]
    for name in earlier[: earlier.index(check)]:
        passed = cktheory.VerificationReport(name.removesuffix("_check"), True)
        monkeypatch.setattr(cktheory, name, lambda window, passed=passed: passed)
    assert cktheory.verify(tempiric_window(datum, 30), cktheory.DEFAULT_SEED)[-1] == report


def test_skew_gram_walk_matches_the_oracle_and_the_golden():
    # W_K does not preserve this Gram.  ds_enumerate refuses with the error
    # the verify golden pins; on every parameter of a small box that has a
    # chamber, the walk over a window's rows still equals the oracle, since
    # its box bound never reads the Gram.
    doc = serialize(builtin("Sp11"))
    doc["gram"] = ["1", "-5/2", "-5/2", "7"]
    datum = load(json.dumps(doc))
    with pytest.raises(InternalInconsistencyError) as raised:
        ds_enumerate(datum, 30)
    golden = json.loads((GOLDEN / "verify-sp11-skew-gram-30.json").read_text())
    assert golden["checks"] == [{
        "name": "blattner_consistency", "passed": False,
        "counterexample": {"error": str(raised.value)},
    }]
    window = tempiric_window(datum, 30)
    walked = 0
    for lam in itertools.product(range(-4, 5), repeat=2):
        try:
            oracles.chamber_by_pairing(datum, lam)
        except oracles.InconsistentDatum:
            continue
        rep = TempiricRep(kind="ds", min_ktype=lam, hc_param=lam)
        totals = tempered.blattner_scatter(datum, rep, window.shifted, window.reach)
        assert [totals.get(i, 0) for i in range(len(window.rows))] == [
            oracles.blattner_by_enumeration(datum, lam, tau) for tau in window.rows
        ], lam
        walked += any(totals.values())
    assert walked


def _record_walks(monkeypatch):
    # Records every blattner_scatter walk as (series, rows, totals); every
    # Blattner multiplicity comes from one, blattner_mult's included.
    walks = []
    real = tempered.blattner_scatter

    def recorded(datum, rep, rows, reach):
        totals = real(datum, rep, rows, reach)
        walks.append((rep, rows, totals))
        return totals

    monkeypatch.setattr(tempered, "blattner_scatter", recorded)
    return walks


def _plant(monkeypatch, series, tau, value):
    # blattner_scatter with value added to the total of the series at the
    # K-type tau, in every walk whose rows hold tau.
    real = tempered.blattner_scatter

    def planted(datum, rep, rows, reach):
        totals = real(datum, rep, rows, reach)
        key = rows.get(_coords(datum, tau))
        if rep == series and key is not None:
            totals[key] = totals.get(key, 0) + value
        return totals

    monkeypatch.setattr(tempered, "blattner_scatter", planted)


def _coords(datum, tau):
    return tempered._doubled_shifted(datum, label_lattice_coords(datum.k, tau))


def _refused_at_limit(monkeypatch, limit, build):
    # One entry over the limit is refused before any entry is evaluated;
    # at the limit itself the build runs.  _column is the one path to
    # the entries of both kinds of column, and blattner_scatter the one
    # path to every Blattner entry, blattner_mult's included.
    def no_entries(*args):
        raise AssertionError("an entry was evaluated")

    with monkeypatch.context() as patch:
        patch.setattr(weights, "MAX_WINDOW_ENTRIES", limit - 1)
        for name in ("blattner_scatter", "_column"):
            patch.setattr(tempered, name, no_entries)
        with pytest.raises(WindowTooLargeError, match="window entries"):
            build()
    with monkeypatch.context() as patch:
        patch.setattr(weights, "MAX_WINDOW_ENTRIES", limit)
        return build()


def test_oversize_window_is_refused_before_any_entry(sp11, monkeypatch):
    rows = len(enumerate_ktypes(sp11, 20))
    series = len(ds_enumerate(sp11, 20))
    matrix = _refused_at_limit(
        monkeypatch, rows * rows,
        lambda: cktheory.mult_matrix(tempiric_window(sp11, 20)),
    )
    assert len(matrix.rows) == len(matrix.cols) == rows
    report = _refused_at_limit(
        monkeypatch, series * rows,
        lambda: cktheory.blattner_consistency_check(tempiric_window(sp11, 20)),
    )
    assert report.passed and report.data["series"] == series


@pytest.mark.parametrize("position", [0, -1])
def test_consistency_check_reads_every_lower_ktype(sp11, monkeypatch, position):
    # A multiplicity planted at the first or the last window K-type below
    # a series' lowest K-type must be reported there.
    first = ds_enumerate(sp11, 60)[0]
    low = scaled_norm(sp11, first.min_ktype)
    lower = [tau for tau in enumerate_ktypes(sp11, 60) if scaled_norm(sp11, tau) < low]
    planted = lower[position]
    _plant(monkeypatch, first, planted, 1)
    report = cktheory.blattner_consistency_check(tempiric_window(sp11, 60))
    assert not report.passed
    assert report.counterexample == {
        "representative": first.describe(),
        "ktype": format_label(planted),
        "reason": "nonzero multiplicity below the lowest K-type",
    }


def _expected_walks(window, lowest_alone):
    # One walk over the window's rows per series, and with lowest_alone
    # one more over its lowest K-type alone (blattner_mult's).
    walks = Counter((rep, tuple(window.shifted)) for rep in window.series)
    if lowest_alone:
        walks.update((rep, (_coords(window.datum, rep.min_ktype),)) for rep in window.series)
    return walks


@pytest.mark.parametrize("name", ["SL2R", "Sp11", "Sp11-half-gram"])
def test_verify_walks_each_series_once(monkeypatch, name):
    # The matrix and blattner_consistency read each series' column from
    # one walk over the window's rows; blattner_mult walks each lowest
    # K-type once more, alone.
    datum = DATA[name]()
    walks = _record_walks(monkeypatch)
    reports = cktheory.verify(tempiric_window(datum, 60), cktheory.DEFAULT_SEED)
    assert [r.name for r in reports if r.passed] == [
        "blattner_consistency", "vogan_bijection", "triangularity",
        "dimension_identity", "admissibility",
    ]
    window = tempiric_window(datum, 60)
    assert window.series
    assert Counter((rep, tuple(rows)) for rep, rows, _ in walks) == _expected_walks(window, True)


def test_ck_matrix_evaluates_every_entry_once(capsys, monkeypatch):
    walks = _record_walks(monkeypatch)
    assert cli.main(["ck-matrix", "--group", "Sp11", "--bound", "60"]) == 0
    capsys.readouterr()
    window = tempiric_window(builtin("Sp11"), 60)
    assert window.series
    assert Counter((rep, tuple(rows)) for rep, rows, _ in walks) == _expected_walks(window, False)


@pytest.mark.parametrize("name", ["SL2R", "Sp11", "Sp11-half-gram"])
def test_each_column_is_built_once_per_window(monkeypatch, name):
    # The check, the matrix and composite_map all read Window.columns, so
    # each representative's column (and a series' walk with it) is built
    # once; blattner_mult walks each series once more.
    datum = DATA[name]()
    walks = _record_walks(monkeypatch)
    columns = Counter()
    real = tempered._column

    def counted(window, rep):
        columns[rep] += 1
        return real(window, rep)

    monkeypatch.setattr(tempered, "_column", counted)
    window = tempiric_window(datum, 60)
    assert cktheory.blattner_consistency_check(window).passed
    assert window.matrix.cols and window.series
    for tau in window.rows[::7]:
        cktheory.composite_map(window, tau)
    assert columns == Counter(window.reps)
    assert Counter((rep, tuple(rows)) for rep, rows, _ in walks) == _expected_walks(window, True)


def test_nonzero_below_the_minimum_is_reported_before_a_later_raise(
    capsys, monkeypatch, sp11
):
    # A nonzero planted at the first row below a series' lowest K-type and
    # a negative total at the last one: the check stops at the nonzero,
    # and the matrix reads the whole column, so it still raises at the
    # later entry.
    window = tempiric_window(sp11, 60)
    first = window.series[0]
    below = bisect_left(window.norms, window.norms[window.row_index[first.min_ktype]])
    lower = window.rows[:below]
    assert len(lower) >= 2
    planted, raising = lower[0], lower[-1]
    _plant(monkeypatch, first, planted, 1)
    _plant(monkeypatch, first, raising, -1)
    counterexample = {
        "representative": first.describe(),
        "ktype": format_label(planted),
        "reason": "nonzero multiplicity below the lowest K-type",
    }
    assert cli.main(["verify", "--group", "Sp11", "--bound", "60"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"blattner_consistency: FAIL {json.dumps(counterexample)}",
        "# FAILURES detected",
    ]
    report = cktheory.blattner_consistency_check(window)
    assert report.counterexample == counterexample
    with pytest.raises(InternalInconsistencyError, match="negative multiplicity -1"):
        mult_matrix(window)
