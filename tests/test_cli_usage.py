"""The CLI's help texts and usage errors, byte for byte.

Each case runs ``tempiric.cli.main`` in-process at a terminal width of
80 columns and records the exit code, stdout and stderr; the rendering
of all cases is ``tests/golden/cli-usage.txt``.  argparse ends every
case with ``SystemExit`` before any command runs, so the golden pins
the parser alone: a parser built differently (say, only the named
subparser) must print the same text.
"""

import contextlib
import io
from pathlib import Path

from tempiric.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli-usage.txt"
COMMANDS = ("catalog", "ktypes", "branch", "tempiric-table", "ck-matrix", "verify", "figure")
CASES = (
    ("--help",),
    *((command, "--help") for command in COMMANDS),
    (),
    ("nonsense",),
    ("figure", "--group", "SL2R", "--grid-bound", "2", "--bound", "3"),
    ("ktypes", "--group", "SL2R"),
    ("ktypes", "--group", "SL2R", "--bound", "x"),
    ("catalog", "--group", "SL2R", "--group-file", "sl2r.json"),
)


def _case(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(argv))
        except SystemExit as exc:
            code = exc.code
        else:
            raise AssertionError(f"{argv} reached a command")
    return (
        f"$ {' '.join(('tempiric', *argv))}\nexit {code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


def render() -> str:
    """Every case, in order, as the golden holds them."""
    return "".join(map(_case, CASES))


def test_help_and_usage_errors_match_the_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert render() == GOLDEN.read_text()
