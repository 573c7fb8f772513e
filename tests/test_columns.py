"""The column kernels of the multiplicity matrix against the oracles.

Every entry of ``mult_matrix``, zeros included, is recomputed by the
brute-force oracles of ``tests/oracles.py``: Blattner's formula by direct
partition enumeration for discrete-series columns, and restriction by
characters or weights for principal-series columns.
"""

import json
from collections import Counter
from fractions import Fraction

import pytest

from tempiric import cli, cktheory, tempered, weights
from tempiric.catalog import builtin, load, serialize
from tempiric.cktheory import AGGREGATE_ONLY, mult_matrix
from tempiric.tempered import (
    InternalInconsistencyError,
    blattner_mult,
    ds_enumerate,
    format_label,
    partner_minimum,
    tempiric_window,
)
from tempiric.weights import WindowTooLargeError, enumerate_ktypes, scaled_norm

import oracles


def _half_gram_sp11():
    doc = serialize(builtin("Sp11"))
    doc["gram"] = [str(Fraction(v) / 2) for v in doc["gram"]]
    return load(json.dumps(doc))


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
    "Sp11-half-gram": _half_gram_sp11,
}


def _expected_entry(datum, matrix, j, tau):
    rep = matrix.cols[j]
    if rep.kind == "ds":
        return oracles.blattner_by_enumeration(datum, rep.hc_param, tau)
    induced = oracles.mult_in_induced_oracle(datum, rep.ps_class.representative, tau)
    if not rep.split:
        return induced
    if matrix.resolution[j] == AGGREGATE_ONLY:
        if tau == rep.min_ktype:
            return 1
        if tau == partner_minimum(rep, matrix.cols):
            return 0
        return induced
    # a resolved split pair divides the odd ladder by sign
    sign = 1 if rep.min_ktype[0] > 0 else -1
    return induced if tau[0] * sign > 0 else 0


@pytest.mark.parametrize("name", sorted(DATA))
def test_every_matrix_entry_matches_the_oracles(name):
    datum = DATA[name]()
    matrix = mult_matrix(tempiric_window(datum, 41))
    assert matrix.rows and matrix.cols
    for j in range(len(matrix.cols)):
        for i, tau in enumerate(matrix.rows):
            assert matrix.entry(i, j) == _expected_entry(datum, matrix, j, tau), (
                name, tau, matrix.cols[j].describe()
            )
    assert all(v != 0 for v in matrix.entries.values())


def test_windows_never_share_a_memo(sp11):
    # All Blattner columns of a window fill its one memo, keyed by the
    # chamber's roots; a second window of the same datum starts empty and
    # computes the same counts on its own.
    first, second = tempiric_window(sp11, 41), tempiric_window(sp11, 41)
    matrix = mult_matrix(first)
    assert 0 < len(first.memo) < len(first.series)
    assert second.memo == {}
    assert mult_matrix(second) == matrix
    assert second.memo == first.memo and second.memo is not first.memo


@pytest.mark.parametrize("name", ["SL2R", "Sp11", "Sp11-half-gram"])
def test_column_equals_pointwise_multiplicities(name):
    window = tempiric_window(DATA[name](), 60)
    for rep in window.series:
        entry = window.columns[rep][1]
        assert [entry(i) for i in range(len(window.rows))] == [
            blattner_mult(window.datum, rep, tau) for tau in window.rows
        ]


def test_column_raises_at_the_same_entry_as_the_pointwise_path():
    # With every noncompact root doubled, the first series of Sp11 has a
    # negative Blattner total inside the window.
    window = tempiric_window(_doubled_noncompact_sp11(), 60)
    datum, rows = window.datum, window.rows
    rep = window.series[0]
    entry = window.columns[rep][1]
    good = []
    with pytest.raises(InternalInconsistencyError) as from_column:
        for i in range(len(rows)):
            good.append(entry(i))
    assert good == [blattner_mult(datum, rep, tau) for tau in rows[: len(good)]]
    with pytest.raises(InternalInconsistencyError) as pointwise:
        blattner_mult(datum, rep, rows[len(good)])
    assert str(from_column.value) == str(pointwise.value)
    assert "negative multiplicity" in str(pointwise.value)


def _refused_at_limit(monkeypatch, limit, build):
    # One entry over the limit is refused before any entry is evaluated;
    # at the limit itself the build runs.  _column is the one path to
    # the entries of both kinds of column, and blattner_kernel the one
    # path to every Blattner entry, blattner_mult's included.
    def no_entries(*args):
        raise AssertionError("an entry was evaluated")

    with monkeypatch.context() as patch:
        patch.setattr(weights, "MAX_WINDOW_ENTRIES", limit - 1)
        for name in ("blattner_kernel", "_column"):
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
    real = tempered.blattner_kernel

    def planted_kernel(datum, rep, memo=None):
        entry = real(datum, rep, memo)
        return lambda shifted, tau: entry(shifted, tau) + (rep == first and tau == planted)

    monkeypatch.setattr(tempered, "blattner_kernel", planted_kernel)
    report = cktheory.blattner_consistency_check(tempiric_window(sp11, 60))
    assert not report.passed
    assert report.counterexample == {
        "representative": first.describe(),
        "ktype": format_label(planted),
        "reason": "nonzero multiplicity below the lowest K-type",
    }


def _count_kernel_entries(monkeypatch):
    # Counts every Blattner kernel built, per series, and every kernel
    # evaluation, per (series, K-type).  Every kernel is built in tempered.
    built, evaluated = Counter(), Counter()
    real = tempered.blattner_kernel

    def counted(datum, rep, memo=None):
        built[rep] += 1
        entry = real(datum, rep, memo)

        def counted_entry(shifted, tau):
            evaluated[rep, tau] += 1
            return entry(shifted, tau)

        return counted_entry

    monkeypatch.setattr(tempered, "blattner_kernel", counted)
    return built, evaluated


@pytest.mark.parametrize("name", ["SL2R", "Sp11", "Sp11-half-gram"])
def test_verify_evaluates_rows_below_each_lowest_ktype_twice(monkeypatch, name):
    # The matrix evaluates every column in full; blattner_consistency
    # evaluates each series' rows below its lowest K-type once more
    # through the same column, and blattner_mult its lowest K-type once
    # more with a kernel of its own.
    datum = DATA[name]()
    built, evaluated = _count_kernel_entries(monkeypatch)
    reports = cli._verify_reports(datum, Fraction(60), cktheory.DEFAULT_SEED)
    assert [r.name for r in reports if r.passed] == [
        "blattner_consistency", "vogan_bijection", "triangularity",
        "dimension_identity", "admissibility",
    ]
    window = tempiric_window(datum, 60)
    below = [
        (rep, tau) for rep in window.series for tau in window.rows
        if scaled_norm(datum, tau) < scaled_norm(datum, rep.min_ktype)
    ]
    assert below and all(evaluated[key] == 2 for key in below)
    expected = Counter((rep, tau) for rep in window.series for tau in window.rows)
    expected.update(below)
    expected.update((rep, rep.min_ktype) for rep in window.series)
    assert evaluated == expected
    assert built == Counter({rep: 2 for rep in window.series})


def test_ck_matrix_evaluates_every_entry_once(capsys, monkeypatch):
    built, evaluated = _count_kernel_entries(monkeypatch)
    assert cli.main(["ck-matrix", "--group", "Sp11", "--bound", "60"]) == 0
    capsys.readouterr()
    window = tempiric_window(builtin("Sp11"), 60)
    assert window.series
    assert evaluated == Counter(
        (rep, tau) for rep in window.series for tau in window.rows
    )
    assert built == Counter(window.series)


@pytest.mark.parametrize("name", ["SL2R", "Sp11", "Sp11-half-gram"])
def test_each_column_is_built_once_per_window(monkeypatch, name):
    # The check, the matrix and composite_map all read Window.columns, so
    # each representative's column (and a series' kernel with it) is
    # built once; blattner_mult builds one more kernel per series.
    datum = DATA[name]()
    built, _ = _count_kernel_entries(monkeypatch)
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
    assert built == Counter({rep: 2 for rep in window.series})


def test_nonzero_below_the_minimum_is_reported_before_a_later_raise(
    capsys, monkeypatch, sp11
):
    # A nonzero planted at the first row below a series' lowest K-type and
    # a raising entry at the last one: the check stops at the nonzero, and
    # the matrix evaluates the whole column, so it still raises at the
    # later entry.
    window = tempiric_window(sp11, 60)
    first = window.series[0]
    lower = window.rows[: window.rows_below(first.min_ktype)]
    assert len(lower) >= 2
    planted, raising = lower[0], lower[-1]
    real = tempered.blattner_kernel

    def planted_kernel(datum, rep, memo=None):
        entry = real(datum, rep, memo)

        def planted_entry(shifted, tau):
            if rep == first and tau == raising:
                raise InternalInconsistencyError(
                    f"negative multiplicity -1 for {format_label(tau)} in {rep.describe()}"
                )
            return entry(shifted, tau) + (rep == first and tau == planted)

        return planted_entry

    monkeypatch.setattr(tempered, "blattner_kernel", planted_kernel)
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
