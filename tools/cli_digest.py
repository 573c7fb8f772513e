"""Digest the CLI's output over a fixed command matrix, to compare two trees.

    python tools/cli_digest.py [SRC] > digest.txt   # SRC defaults to ../src

Runs ``tempiric.cli.main`` in-process, with the package imported from
SRC, on every command of the matrix and prints one tab-separated line per
command: the arguments, the exit code, and the sha256 of stdout and of
stderr.  Two trees are compared by running the script once on each SRC
and diffing the two outputs.  Standard library only.

The matrix:

- every command with every format it accepts;
- the three built-ins, and four group files written from the
  ``catalog --format json`` documents (``GROUP_FILES``): Sp11 with its
  Gram halved, with a skew Gram, and with its noncompact roots doubled,
  and SL2R with the root (2) listed twice;
- bounds -1 to 100 for the commands that take a bound, and grid bounds
  3 and 8 for ``figure``; ``catalog`` also runs without a group.

Group files are passed by bare name from a temporary working directory,
so no line names a path of the machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

FORMATS = {
    "catalog": ("txt", "json"),
    "ktypes": ("csv", "json"),
    "branch": ("csv", "json"),
    "tempiric-table": ("csv", "json"),
    "ck-matrix": ("json", "csv"),
    "verify": ("txt", "json"),
    "figure": ("txt", "dot", "svg"),
}
BOUNDED = ("ktypes", "branch", "tempiric-table", "ck-matrix", "verify")
BOUNDS = range(-1, 101)
GRID_BOUNDS = (3, 8)
BUILTINS = ("SL2R", "SO31", "Sp11")


def _half_gram(doc):
    doc["gram"] = [str(Fraction(v) / 2) for v in doc["gram"]]


def _skew_gram(doc):
    doc["gram"] = ["1", "-5/2", "-5/2", "7"]


def _doubled_noncompact(doc):
    doc["ds"]["noncompact_roots"] = [[2 * c for c in beta] for beta in doc["ds"]["noncompact_roots"]]


def _root_twice(doc):
    doc["ds"]["noncompact_roots"] = [[2], [2], [-2]]


# file name: (built-in whose catalog document is edited, the edit)
GROUP_FILES = {
    "sp11-half-gram.json": ("Sp11", _half_gram),
    "sp11-skew-gram.json": ("Sp11", _skew_gram),
    "sp11-doubled-noncompact.json": ("Sp11", _doubled_noncompact),
    "sl2r-root-twice.json": ("SL2R", _root_twice),
}


def run(argv) -> tuple[int, str, str]:
    """``tempiric.cli.main(argv)`` in-process: (exit code, stdout, stderr)."""
    from tempiric import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_group_files(directory) -> None:
    """Write ``GROUP_FILES`` into directory, each from its catalog document."""
    for name, (group, edit) in GROUP_FILES.items():
        code, out, err = run(["catalog", "--group", group, "--format", "json"])
        if code != 0:
            raise RuntimeError(f"catalog --group {group} failed: {err}")
        doc = json.loads(out)
        edit(doc)
        Path(directory, name).write_text(json.dumps(doc))


def command_matrix() -> list[tuple[str, ...]]:
    """Every command of the matrix, in a fixed order."""
    groups = [("--group", name) for name in BUILTINS]
    groups += [("--group-file", name) for name in GROUP_FILES]
    commands = [("catalog", "--format", fmt) for fmt in FORMATS["catalog"]]
    for group in groups:
        for fmt in FORMATS["catalog"]:
            commands.append(("catalog", *group, "--format", fmt))
        for fmt in FORMATS["figure"]:
            for grid in GRID_BOUNDS:
                commands.append(("figure", *group, "--grid-bound", str(grid), "--format", fmt))
        for command in BOUNDED:
            for fmt in FORMATS[command]:
                for bound in BOUNDS:
                    commands.append((command, *group, f"--bound={bound}", "--format", fmt))
    return commands


def digest_line(argv) -> str:
    """The arguments, exit code and sha256 of stdout and stderr, tab-separated."""
    code, out, err = run(argv)
    hashes = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
    return "\t".join([" ".join(argv), str(code), *hashes])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    sys.dont_write_bytecode = True
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            write_group_files(directory)
            for command in command_matrix():
                print(digest_line(command), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
