"""``tools/cli_digest.py`` digests CLI runs repeatably, and its hashes are the goldens'.

``tests/golden/cli-digest-small.txt`` holds the digest lines of the
matrix's commands with a bound of -1 to 5 or with no bound, so a change
of any byte of their output fails here, not only in a two-tree diff of
the full digest.
"""

import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SMALL_BOUND = 5
EMPTY = hashlib.sha256(b"").hexdigest()


def _tool():
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_lines_repeat_and_match_the_goldens(tmp_path, monkeypatch):
    tool = _tool()
    monkeypatch.chdir(tmp_path)
    tool.write_group_files(tmp_path)
    pinned = {
        ("catalog", "--group", "Sp11", "--format", "json"): (0, "catalog-sp11.json"),
        ("catalog", "--group", "SL2R", "--format", "txt"): (0, "catalog-sl2r.txt"),
        ("verify", "--group-file", "sp11-doubled-noncompact.json", "--bound=41",
         "--format", "txt"): (1, "verify-sp11-doubled-noncompact-41.txt"),
        ("verify", "--group-file", "sp11-skew-gram.json", "--bound=30",
         "--format", "json"): (1, "verify-sp11-skew-gram-30.json"),
        ("branch", "--group", "SO31", "--bound=41", "--format", "json"): (0, "branch-so31-41.json"),
        ("branch", "--group", "Sp11", "--bound=41", "--format", "csv"): (0, "branch-sp11-41.csv"),
    }
    matrix = set(tool.command_matrix())
    for argv, (code, golden) in pinned.items():
        assert argv in matrix
        line = tool.digest_line(argv)
        assert tool.digest_line(argv) == line
        stdout = hashlib.sha256((GOLDEN / golden).read_bytes()).hexdigest()
        assert line == "\t".join([" ".join(argv), str(code), stdout, EMPTY])


def test_matrix_covers_every_command_format_group_and_bound():
    tool = _tool()
    matrix = tool.command_matrix()
    assert len(matrix) == len(set(matrix))
    groups = len(tool.BUILTINS) + len(tool.GROUP_FILES)
    bounded = sum(len(tool.FORMATS[c]) for c in tool.BOUNDED) * len(tool.BOUNDS)
    figures = len(tool.FORMATS["figure"]) * len(tool.GRID_BOUNDS)
    catalog = len(tool.FORMATS["catalog"])
    assert len(matrix) == catalog + groups * (catalog + figures + bounded)
    assert {argv[0] for argv in matrix} == set(tool.FORMATS)
    assert (tool.BOUNDS[0], tool.BOUNDS[-1]) == (-1, 100)


def small_matrix(tool) -> list[tuple[str, ...]]:
    """The matrix's commands with no bound or a bound of at most SMALL_BOUND."""
    return [
        argv for argv in tool.command_matrix()
        if all(int(a.partition("=")[2]) <= SMALL_BOUND for a in argv if a.startswith("--bound="))
    ]


def test_small_digest_matches_the_golden(tmp_path, monkeypatch):
    tool = _tool()
    monkeypatch.chdir(tmp_path)
    tool.write_group_files(tmp_path)
    lines = [tool.digest_line(argv) for argv in small_matrix(tool)]
    assert len(lines) == 548
    assert "".join(line + "\n" for line in lines) == (GOLDEN / "cli-digest-small.txt").read_text()
