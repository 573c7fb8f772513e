import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tempiric
from tempiric import branching, cktheory, tempered, weights
from tempiric.catalog import builtin, serialize
from tempiric.cli import main
from tempiric.tempered import tempiric_window


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert out.splitlines() == ["SL2R", "SO31", "Sp11"]


def test_catalog_json_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "--group", "Sp11", "--format", "json")
    assert code == 0
    path = tmp_path / "sp11.json"
    path.write_text(out)
    code, out2, _ = run(
        capsys, "catalog", "--group-file", str(path), "--format", "json"
    )
    assert code == 0 and out2 == out


def test_unknown_group_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--group", "SU99", "--bound", "10")
    assert code == 2
    assert "unknown group" in err


def test_missing_group_exits_2(capsys):
    code, _, err = run(capsys, "ktypes", "--bound", "10")
    assert code == 2
    assert "--group" in err


def test_bad_bound_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["ktypes", "--group", "SL2R", "--bound", "eleven"])
    assert excinfo.value.code == 2


def test_ktypes_csv(capsys):
    import csv
    import io

    code, out, _ = run(capsys, "ktypes", "--group", "SL2R", "--bound", "4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["label", "norm", "dim"]
    assert [row[0] for row in rows[1:]] == ["(0)", "(-1)", "(1)", "(-2)", "(2)"]
    assert [row[1] for row in rows[1:]] == ["0", "1", "1", "4", "4"]


@pytest.mark.parametrize("argv, message", [
    (("ktypes", "--group", "SL2R", "--bound", "-1"), "bound must be nonnegative"),
    (("figure", "--group", "SL2R", "--grid-bound", "-1"), "grid bound must be nonnegative"),
])
def test_a_negative_bound_exits_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    *(((command, "--bound", "5"), "one of --group or --group-file is required")
      for command in ("ktypes", "branch", "tempiric-table", "ck-matrix", "verify")),
    (("figure", "--grid-bound", "3"), "one of --group or --group-file is required"),
    # The format, then the bound, is refused before the missing group.
    (("ktypes", "--bound", "-1"), "bound must be nonnegative"),
    (("figure", "--grid-bound", "-1"), "grid bound must be nonnegative"),
    (("ktypes", "--bound", "5", "--format", "xml"),
     "format 'xml' not supported here; choose from csv, json"),
])
def test_a_command_without_a_group_exits_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_ktypes_json(capsys):
    code, out, err = run(capsys, "ktypes", "--group", "SL2R", "--bound", "4", "--format", "json")
    ktypes = [
        {"label": [c], "norm": str(c * c), "dim": 1} for c in (0, -1, 1, -2, 2)
    ]
    expected = {"group": "SL2R", "bound": "4", "ktypes": ktypes}
    assert (code, out, err) == (0, json.dumps(expected, indent=2) + "\n", "")


def test_ktypes_json_prints_rational_norms(capsys, tmp_path):
    doc = serialize(builtin("Sp11"))
    doc["gram"] = ["1/2", "0", "0", "1/2"]
    path = tmp_path / "sp11-half-gram.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "ktypes", "--group-file", str(path), "--bound", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["ktypes"] == [
        {"label": [0, 0], "norm": "4", "dim": 1},
        {"label": [0, 1], "norm": "13/2", "dim": 2},
        {"label": [1, 0], "norm": "13/2", "dim": 2},
        {"label": [1, 1], "norm": "9", "dim": 4},
        {"label": [0, 2], "norm": "10", "dim": 3},
        {"label": [2, 0], "norm": "10", "dim": 3},
    ]


def test_catalog_json_without_a_group_lists_the_builtins(capsys):
    expected = '{\n  "groups": [\n    "SL2R",\n    "SO31",\n    "Sp11"\n  ]\n}\n'
    assert run(capsys, "catalog", "--format", "json") == (0, expected, "")


def test_figure_text_draws_a_strip(capsys):
    code, out, err = run(capsys, "figure", "--group", "SL2R", "--grid-bound", "3", "--format", "txt")
    assert (code, err) == (0, "")
    assert out == (
        "# tempered-dual marker diagram (derived pattern), group=SL2R, grid=3\n"
        "# legend: o=discrete series, s=split principal-series pair, t=unique minimal K-type\n"
        "# counts: circles=4 squares=2 (pairs=1) triangles=1\n"
        "o o s t s o o\n"
        "-3 -2 -1 0 1 2 3\n"
    )


def test_branch_table(capsys):
    code, out, _ = run(
        capsys, "branch", "--group", "Sp11", "--bound", "18", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    entries = {
        (tuple(r["ktype"]), tuple(r["mtype"])): r["multiplicity"]
        for r in payload["branchings"]
    }
    assert entries[((1, 1), (0,))] == 1
    assert entries[((1, 1), (2,))] == 1


def test_branch_refuses_more_rows_than_the_limit_before_building_any(capsys):
    # SO31's K-type (j) restricts to the 2j + 1 M-types -j..j, so bound
    # 10^8 needs 10^8 rows; none is built.
    code, out, err = run(capsys, "branch", "--group", "SO31", "--bound", "1e8")
    assert (code, out) == (2, "")
    assert err == (
        "error: bound 100000000 needs 100000000 branching rows, above the limit of 1000000\n"
    )


def test_branch_prints_a_table_of_exactly_the_limit(capsys, monkeypatch):
    # SO31 at bound 41 has K-types (0)..(5): 36 branching rows.
    monkeypatch.setattr(weights, "MAX_WINDOW_ENTRIES", 36)
    code, out, err = run(capsys, "branch", "--group", "SO31", "--bound", "41")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 36
    monkeypatch.setattr(weights, "MAX_WINDOW_ENTRIES", 35)
    code, out, err = run(capsys, "branch", "--group", "SO31", "--bound", "41")
    assert (code, out) == (2, "")
    assert err == "error: bound 41 needs 36 branching rows, above the limit of 35\n"


def test_tempiric_table_counts(capsys):
    code, out, _ = run(capsys, "tempiric-table", "--group", "SL2R", "--bound", "9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,parameters,minimal_ktype,split,vogan_norm"
    assert len(lines) == 1 + 7
    code, out, _ = run(
        capsys, "tempiric-table", "--group", "SO31", "--bound", "16",
        "--format", "json",
    )
    payload = json.loads(out)
    assert len(payload["records"]) == 4
    assert all(r["kind"] == "principal-series" for r in payload["records"])


def test_ck_matrix_json_with_inverse(capsys):
    code, out, _ = run(
        capsys, "ck-matrix", "--group", "SO31", "--bound", "16", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert "inverse" in payload and "refusal" not in payload
    assert payload["resolution"] == ["exact"] * 4
    assert payload["entries"][0] == [0, 0, 1]


def test_ck_matrix_json_refusal(capsys):
    code, out, _ = run(
        capsys, "ck-matrix", "--group", "Sp11", "--bound", "20", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert "inverse" not in payload
    assert payload["refusal"]["reason"] == "aggregate-only columns"
    assert len(payload["refusal"]["columns"]) == 2
    assert payload["resolution"].count("aggregate-only") == 2


def test_ck_matrix_csv_sections(capsys):
    code, out, _ = run(
        capsys, "ck-matrix", "--group", "SL2R", "--bound", "9", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "section,row,col,value"
    sections = {line.split(",")[0] for line in lines[1:]}
    assert sections == {"entry", "resolution", "inverse"}


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--group", "SO31", "--bound", "25")
    assert code == 0
    assert "seed=1729" in out
    assert out.count(": pass") == 5


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--group", "Sp11", "--bound", "41", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert [c["name"] for c in payload["checks"]] == [
        "blattner_consistency",
        "vogan_bijection",
        "triangularity",
        "dimension_identity",
        "admissibility",
    ]


def test_verify_corrupted_group_file(capsys, tmp_path):
    doc = serialize(builtin("Sp11"))
    doc["two_rho_c"] = [2, 3]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--group-file", str(path), "--bound", "20")
    assert code == 1
    assert "blattner_consistency: FAIL" in out


def test_malformed_group_file_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run(capsys, "verify", "--group-file", str(path), "--bound", "20")
    assert code == 2
    assert "parse error" in err


def test_figure_text(capsys):
    code, out, _ = run(capsys, "figure", "--group", "Sp11", "--grid-bound", "6")
    assert code == 0
    assert "counts: circles=30 squares=12 (pairs=6) triangles=7" in out


def test_figure_dot_and_svg(capsys):
    code, out, _ = run(
        capsys, "figure", "--group", "Sp11", "--grid-bound", "6", "--format", "dot"
    )
    assert code == 0 and out.startswith("graph")
    code, out, _ = run(
        capsys, "figure", "--group", "SL2R", "--grid-bound", "4", "--format", "svg"
    )
    assert code == 0 and out.startswith("<svg")


def test_figure_rejects_csv(capsys):
    code, _, err = run(
        capsys, "figure", "--group", "Sp11", "--grid-bound", "6", "--format", "csv"
    )
    assert code == 2 and "format" in err


def test_outputs_are_deterministic(capsys):
    args = ("verify", "--group", "SL2R", "--bound", "16")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("ck-matrix", "--group", "Sp11", "--bound", "41", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "window.csv"
    code, out, _ = run(
        capsys, "ktypes", "--group", "SO31", "--bound", "16", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[0] == "label,norm,dim"


def test_unreadable_group_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "catalog", "--group-file", str(tmp_path))
    assert code == 2
    assert err.startswith("error: group file") and "cannot be read" in err


def test_float_gram_exits_2(capsys, tmp_path):
    doc = serialize(builtin("SL2R"))
    doc["gram"] = [0.5]
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "ktypes", "--group-file", str(path), "--bound", "4")
    assert code == 2 and err.startswith("error: gram: float entry")


def test_unwritable_out_exits_2(capsys, tmp_path):
    code, out, err = run(
        capsys, "ktypes", "--group", "SO31", "--bound", "4", "--out", str(tmp_path)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write")


def _run_subprocess(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(tempiric.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "tempiric.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )


def test_oversize_window_exits_2_quickly():
    # Sp11 at bound 10^8 has a box of about 10^8 K-type labels; it must be
    # refused before enumeration, not run for hours.
    result = _run_subprocess("ktypes", "--group", "Sp11", "--bound", "1e8")
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error: bound 100000000 needs a box of")


@pytest.mark.parametrize("command", ["ck-matrix", "verify"])
def test_oversize_window_entries_exit_2_quickly(command):
    # SL2R at bound 10^6 scans only a 2,001-label box, but its matrix has
    # about 4 * 10^6 entries and its Blattner check as many; both are
    # refused once the window is known, before any entry is evaluated.
    result = _run_subprocess(command, "--group", "SL2R", "--bound", "1e6")
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error: bound 1000000 needs ")
    assert "window entries, above the limit of 1000000" in result.stderr


@pytest.mark.parametrize("command", ["ck-matrix", "verify"])
def test_oversize_square_window_is_refused_before_the_class_pass(capsys, monkeypatch, command):
    # SO31 has no discrete series, so no parameter box refuses it early; its
    # 10^4 rows x 10^4 rows are refused before the class pass looks up a
    # single class.
    def no_classes(*args):
        raise AssertionError("the class pass ran")

    for name in ("_principal_class_of", "_constituents"):
        monkeypatch.setattr(tempered, name, no_classes)
    code, out, err = run(capsys, command, "--group", "SO31", "--bound", "1e8")
    assert (code, out) == (2, "")
    assert err == (
        "error: bound 100000000 needs 10000 x 10000 = 100000000 window entries, "
        "above the limit of 1000000\n"
    )


@pytest.mark.parametrize("command", ["tempiric-table", "ck-matrix"])
def test_oversize_parameter_box_exits_2_before_the_class_pass(command):
    # Sp11 at bound 10^6 has a 998,001-label K-type box, under the limit,
    # but a discrete-series parameter box over it; the window refuses that
    # box before its class pass over about 785,000 rows, and ck-matrix
    # reads the window's representatives before its rows.
    result = _run_subprocess(command, "--group", "Sp11", "--bound", "1e6")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "error: bound 1000000 needs a box of 4052169 labels, "
        "above the limit of 1000000\n"
    )


def test_ck_matrix_refuses_the_parameter_box_before_enumerating_rows(capsys, monkeypatch):
    def no_rows(*args):
        raise AssertionError("enumerate_ktypes called")

    monkeypatch.setattr(tempered, "enumerate_ktypes", no_rows)
    code, out, err = run(capsys, "ck-matrix", "--group", "Sp11", "--bound", "1e6")
    assert (code, out) == (2, "")
    assert err == (
        "error: bound 1000000 needs a box of 4052169 labels, "
        "above the limit of 1000000\n"
    )


def test_verify_refuses_the_parameter_box_before_enumerating_rows(capsys, monkeypatch):
    # blattner_consistency, verify's first check, refuses both label boxes
    # before it reads the window's rows.
    def no_rows(*args):
        raise AssertionError("enumerate_ktypes called")

    monkeypatch.setattr(tempered, "enumerate_ktypes", no_rows)
    code, out, err = run(capsys, "verify", "--group", "Sp11", "--bound", "1e6")
    assert (code, out) == (2, "")
    assert err == (
        "error: bound 1000000 needs a box of 4052169 labels, "
        "above the limit of 1000000\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("ktypes", "--group", "SL2R", "--bound", "1e40"),
        ("tempiric-table", "--group", "SL2R", "--bound", "1e40"),
        ("verify", "--group", "Sp11", "--bound", "1e400"),
    ],
)
def test_huge_bound_is_refused_not_overflowed(capsys, argv):
    # A box with more labels than a C ssize_t can count is refused by the
    # same limit as any other oversize box, not by an OverflowError.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: bound {Fraction(argv[-1])} needs a box of ")
    assert err.endswith(" labels, above the limit of 1000000\n")


@pytest.mark.parametrize("command", ["ktypes", "tempiric-table"])
def test_bound_past_the_int_digit_limit_is_refused(command):
    # 10^5000 has more digits than Python converts to text by default; the
    # refusal names it by its power of ten instead of failing on it.
    result = _run_subprocess(command, "--group", "SL2R", "--bound", "1e5000")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: bound ~10^5000 needs a box of ")
    assert result.stderr.endswith(" labels, above the limit of 1000000\n")


def _huge_gram_sl2r(tmp_path):
    # "1e5000" loads as a 5,001-digit integer, so the norms and bounds of
    # its windows have more digits than Python converts to text.
    doc = serialize(builtin("SL2R"))
    doc["gram"] = ["1e5000"]
    path = tmp_path / "huge-gram.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("bound", ["1e5000", "1e5001"])
@pytest.mark.parametrize(
    "command",
    [
        ("ktypes",),
        ("ktypes", "--format", "json"),
        ("branch", "--format", "json"),
        ("tempiric-table",),
        ("tempiric-table", "--format", "json"),
        ("verify",),
        ("verify", "--format", "json"),
        ("ck-matrix",),
    ],
    ids=" ".join,
)
def test_a_number_past_the_int_digit_limit_exits_2(capsys, tmp_path, command, bound):
    # A bound or norm too long to print is refused like an oversize Gram
    # entry in catalog --format json, not raised as a ValueError.
    path = _huge_gram_sl2r(tmp_path)
    code, out, err = run(capsys, *command, "--group-file", path, "--bound", bound)
    assert (code, out) == (2, "")
    assert err == (
        f"error: a number to print has more than {sys.get_int_max_str_digits()} "
        "digits and cannot be written as text\n"
    )


@pytest.mark.parametrize("command", [("branch",), ("ck-matrix", "--format", "csv")])
def test_output_without_a_long_number_prints_as_before(capsys, tmp_path, command):
    # Neither table prints a norm or the bound.  Scaling the Gram and the
    # bound by 10^5000 keeps SL2R's rows at bound 10, and its tables.
    path = _huge_gram_sl2r(tmp_path)
    code, out, err = run(capsys, *command, "--group-file", path, "--bound", "1e5001")
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *command, "--group", "SL2R", "--bound", "10")
    assert len(out.splitlines()) > 7


def test_a_window_entry_refusal_names_a_long_bound_by_its_power_of_ten(capsys, tmp_path):
    path = _huge_gram_sl2r(tmp_path)
    code, out, err = run(
        capsys, "ck-matrix", "--format", "csv", "--group-file", path, "--bound", "1e5007"
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: bound ~10^5007 needs 6325 x 6325 = 40005625 window entries, "
        "above the limit of 1000000\n"
    )


@pytest.mark.parametrize(
    "group, grid_bound, labels",
    [
        ("SL2R", "100000000000000000000000", "200000000000000000000001"),
        ("SO31", "5000000", "5000001"),
    ],
)
def test_oversize_figure_grid_exits_2_quickly(group, grid_bound, labels):
    # The diagram grid is a label box like a window's: over the limit it is
    # refused before any label is generated, not overflowed or scanned.
    result = _run_subprocess("figure", "--group", group, "--grid-bound", grid_bound)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        f"error: bound {grid_bound} needs a box of {labels} labels, "
        "above the limit of 1000000\n"
    )


def test_python_dash_m_tempiric_runs_the_cli(capsys):
    env = dict(os.environ, PYTHONPATH=str(Path(tempiric.__file__).parents[1]))
    argv = ("verify", "--group", "SO31", "--bound", "10")
    result = subprocess.run(
        [sys.executable, "-m", "tempiric", *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert (result.returncode, result.stdout, result.stderr) == run(capsys, *argv)
    result = subprocess.run(
        [sys.executable, "-m", "tempiric", "ktypes", "--group", "G2", "--bound", "1"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert result.returncode == 2 and result.stderr.startswith("error: ")


GOLDEN = Path(__file__).parent / "golden"


def _corrupt_so31_weyl(doc):
    doc["weyl_on_mhat"] = "identity"


def _corrupt_sp11_roots(doc):
    doc["ds"]["noncompact_roots"] = [
        [2 * c for c in beta] for beta in doc["ds"]["noncompact_roots"]
    ]


def _corrupt_sp11_rho(doc):
    doc["two_rho_c"] = [-1, -1]


def _corrupt_file(tmp_path, group, corrupt):
    doc = serialize(builtin(group))
    corrupt(doc)
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize(
    "group, corrupt, golden",
    [
        ("SO31", _corrupt_so31_weyl, "verify-so31-identity-weyl-41"),
        ("Sp11", _corrupt_sp11_roots, "verify-sp11-doubled-noncompact-41"),
        ("Sp11", _corrupt_sp11_rho, "verify-sp11-negative-rho-41"),
    ],
)
def test_verify_failure_attribution_is_pinned(capsys, tmp_path, group, corrupt, golden, fmt):
    # The first two corrupt groups fail at vogan_bijection and the third
    # at blattner_consistency; the pinned outputs keep the shared window
    # matrix and the class pass from moving a failure to another check.
    path = _corrupt_file(tmp_path, group, corrupt)
    code, out, _ = run(
        capsys, "verify", "--group-file", path, "--bound", "41", "--format", fmt
    )
    assert code == 1
    assert out == (GOLDEN / f"{golden}.{fmt}").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ("tempiric-table", "--bound", "20"),
        ("ck-matrix", "--bound", "20"),
        ("figure", "--grid-bound", "4"),
    ],
)
def test_class_pass_inconsistency_is_pinned(capsys, tmp_path, argv):
    # With two_rho_c = (-1, -1) the class {(1)} is first met at norm 1 by
    # four K-types; every window command reports it before any output.
    path = _corrupt_file(tmp_path, "Sp11", _corrupt_sp11_rho)
    code, out, err = run(capsys, argv[0], "--group-file", path, *argv[1:])
    assert code == 1 and out == ""
    assert err == (
        "inconsistency: class {(1)} has 4 minimal K-types; rank one allows at most two\n"
    )


def _duplicate_sl2r_root(doc):
    doc["ds"]["noncompact_roots"] = [[2], [2], [-2]]


def test_duplicated_noncompact_root_is_an_inconsistency(capsys, tmp_path):
    # No chamber makes half of [(2), (2), (-2)] positive: the first regular
    # parameter of the scan is reported, by the table and by verify.
    path = _corrupt_file(tmp_path, "SL2R", _duplicate_sl2r_root)
    wall = "parameter (-7,) lies on a noncompact root wall"
    code, out, err = run(capsys, "tempiric-table", "--group-file", path, "--bound", "20")
    assert (code, out, err) == (1, "", f"inconsistency: {wall}\n")
    code, out, _ = run(capsys, "verify", "--group-file", path, "--bound", "20")
    assert code == 1
    assert out.splitlines()[1:] == [
        f"blattner_consistency: FAIL {json.dumps({'error': wall})}",
        "# FAILURES detected",
    ]


def _skew_gram_sp11(doc):
    doc["gram"] = ["1", "-5/2", "-5/2", "7"]


@pytest.mark.parametrize("fmt", ["txt", "json"])
def test_skew_gram_verify_fails_in_the_discrete_series(capsys, tmp_path, fmt):
    # blattner_consistency reads only the window's rows and series, so the
    # non-dominant lowest K-type fails it before the class pass, whose own
    # inconsistency (below) would otherwise be reported.
    path = _corrupt_file(tmp_path, "Sp11", _skew_gram_sp11)
    code, out, _ = run(
        capsys, "verify", "--group-file", path, "--bound", "30", "--format", fmt
    )
    assert code == 1
    assert out == (GOLDEN / f"verify-sp11-skew-gram-30.{fmt}").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ("tempiric-table", "--bound", "30"),
        ("ck-matrix", "--bound", "30"),
        ("figure", "--grid-bound", "4"),
    ],
)
def test_skew_gram_window_runs_the_class_pass_first(capsys, tmp_path, argv):
    # A window's representatives run the class pass before the discrete
    # series, so its inconsistency is reported, not the series' one above.
    path = _corrupt_file(tmp_path, "Sp11", _skew_gram_sp11)
    code, out, err = run(capsys, argv[0], "--group-file", path, *argv[1:])
    assert code == 1 and out == ""
    assert err == (
        "inconsistency: class {(9)} has 3 minimal K-types; rank one allows at most two\n"
    )


def test_boundary_total_mismatch_fails_the_identity_check(capsys, monkeypatch, so31):
    # One block total off by one must fail dimension_identity with the
    # boundary counterexample, in the check and in verify.
    blocks = cktheory._boundary_blocks

    def off_by_one(*args):
        *rest, (block, d) = blocks(*args)
        return [*rest, (block, d + 1)]

    monkeypatch.setattr(cktheory, "_boundary_blocks", off_by_one)
    v1 = {(0,): 2, (2,): 3, (3,): 1}
    v2 = {(1,): 2}
    report = cktheory.dimension_identity_check(tempiric_window(so31, 25), v1, v2)
    assert not report.passed
    assert report.counterexample == {
        "v1": [((0,), 2), ((2,), 3), ((3,), 1)],
        "v2": [((1,), 2)],
        "lhs": 28,
        "boundary_total": 29,
        "reason": "boundary block total differs from the Hom dimension",
    }
    code, out, _ = run(capsys, "verify", "--group", "SO31", "--bound", "25")
    assert code == 1
    assert out.splitlines()[-2] == (
        'dimension_identity: FAIL {"v1": [[[0], 2], [[2], 3], [[3], 1]], '
        '"v2": [[[1], 2]], "lhs": 28, "boundary_total": 29, '
        '"reason": "boundary block total differs from the Hom dimension"}'
    )


def test_hom_pairing_mismatch_fails_the_identity_check(capsys, monkeypatch, so31):
    # A Hom dimension off by one must fail dimension_identity against the
    # right side, which is computed by its own route.
    pairing = cktheory.isotypic_pairing
    monkeypatch.setattr(cktheory, "isotypic_pairing", lambda *args: pairing(*args) + 1)
    v1 = {(0,): 2, (2,): 3, (3,): 1}
    v2 = {(1,): 2}
    report = cktheory.dimension_identity_check(tempiric_window(so31, 25), v1, v2)
    assert not report.passed
    assert report.counterexample == {
        "v1": [((0,), 2), ((2,), 3), ((3,), 1)],
        "v2": [((1,), 2)],
        "lhs": 29,
        "rhs": 28,
    }
    code, out, _ = run(capsys, "verify", "--group", "SO31", "--bound", "25")
    assert code == 1
    assert out.splitlines()[-2] == (
        'dimension_identity: FAIL {"v1": [[[0], 2], [[2], 3], [[3], 1]], '
        '"v2": [[[1], 2]], "lhs": 29, "rhs": 28}'
    )


def _count_matrix_builds(monkeypatch):
    # Window.matrix builds through tempered's mult_matrix.
    builds = []
    build = tempered.mult_matrix

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(tempered, "mult_matrix", counted)
    return builds


@pytest.mark.parametrize("group", ["SL2R", "SO31", "Sp11"])
def test_verify_builds_one_matrix(capsys, monkeypatch, group):
    builds = _count_matrix_builds(monkeypatch)
    code, _, _ = run(capsys, "verify", "--group", group, "--bound", "41")
    assert code == 0
    assert len(builds) == 1


def _count_calls(monkeypatch, module, name):
    # Counts the calls made through every tempiric module that holds it.
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for key, holder in list(sys.modules.items()):
        if key.startswith("tempiric") and getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, counted)
    return calls


@pytest.mark.parametrize("group", ["SL2R", "SO31", "Sp11"])
def test_verify_enumerates_the_discrete_series_once(capsys, monkeypatch, group):
    calls = _count_calls(monkeypatch, tempered, "ds_enumerate")
    code, _, _ = run(capsys, "verify", "--group", group, "--bound", "41")
    assert code == 0
    assert len(calls) == (1 if builtin(group).equal_rank else 0)


def _count_rule_calls(monkeypatch, group):
    # Counts the calls of the group's branching rule, each with the entries
    # of the K-label it restricts, whether through restricted_range or not.
    rule = builtin(group).branching_rule
    k, m, restrict = branching.BRANCHING_RULES[rule]
    calls = []

    def counted(*entries):
        calls.append(entries)
        return restrict(*entries)

    monkeypatch.setitem(branching.BRANCHING_RULES, rule, (k, m, counted))
    return calls


@pytest.mark.parametrize("group", ["SL2R", "SO31", "Sp11"])
def test_ck_matrix_restricts_each_row_once(capsys, monkeypatch, group):
    calls = _count_rule_calls(monkeypatch, group)
    code, out, _ = run(capsys, "ck-matrix", "--group", group, "--bound", "41")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert calls == [tuple(tau) for tau in rows]


@pytest.mark.parametrize("group", ["SL2R", "SO31", "Sp11"])
def test_verify_restricts_each_row_once(capsys, monkeypatch, group):
    # The sweeps read their pool and restrictions off the window: verify
    # enumerates the K-types once and restricts each row once.
    restricted = _count_rule_calls(monkeypatch, group)
    enumerated = _count_calls(monkeypatch, weights, "enumerate_ktypes")
    code, _, _ = run(capsys, "verify", "--group", group, "--bound", "41")
    assert code == 0
    assert [args[1] for args in enumerated] == [Fraction(41)]
    rows = tempiric_window(builtin(group), 41).rows
    assert restricted == rows


@pytest.mark.parametrize("group", ["SL2R", "SO31", "Sp11"])
@pytest.mark.parametrize("command", ["ck-matrix", "tempiric-table", "verify"])
def test_window_commands_validate_no_row(capsys, monkeypatch, command, group):
    # Labels are validated where a caller passes them in.  These commands
    # pass none: every label they read is a row the window enumerated.  The
    # one exception is the extra blattner_mult walk at each series' lowest
    # K-type in verify's blattner_consistency, which
    # perfbench/test_perfbench.py pins.
    expected = []
    if command == "verify":
        expected = [rep.min_ktype for rep in tempiric_window(builtin(group), 41).series]
    calls = _count_calls(monkeypatch, weights, "validate_label")
    code, _, _ = run(capsys, command, "--group", group, "--bound", "41")
    assert code == 0
    assert [args[1] for args in calls] == expected


def test_figure_validates_only_its_grid_corners(capsys, monkeypatch):
    # The window bound is the largest norm at the grid's corners, each a
    # label that build_diagram makes; the window's rows are not validated.
    calls = _count_calls(monkeypatch, weights, "validate_label")
    code, _, _ = run(capsys, "figure", "--group", "Sp11", "--grid-bound", "8")
    assert code == 0
    assert sorted(args[1] for args in calls) == [(0, 0), (0, 8), (8, 0), (8, 8)]
