"""List the statements of the package that no command of the digest matrix runs.

    python tools/digest_lines.py [SRC]      # SRC defaults to ../src

Runs ``cli_digest``'s command matrix in-process, with the package imported
from SRC, under ``sys.settrace``, and prints one line per module of
``SRC/tempiric`` that has a statement no command executed:

    cktheory.py: 270-282, 292

Each number is the first line of a statement; ``a-b`` is a run of
statements, in source order, none of which ran.  A statement ran when a
line event fell on one of its lines (for a compound statement, on its
header: from its first decorator to the line before its body).
Docstrings are not statements here.  The full matrix takes about two
minutes.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def executed_lines(paths, action) -> dict[str, set[int]]:
    """Call action() under ``sys.settrace``: ``{str(path): lines it ran}``.

    Only frames whose code comes from one of the paths are traced, and
    only their line events are kept.
    """
    executed = {str(path): set() for path in paths}

    def trace(frame, event, arg):
        lines = executed.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        action()
    finally:
        sys.settrace(previous)
    return executed


def statement_spans(source: str) -> dict[int, range]:
    """``{first line of a statement: the lines where it may report running}``."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, _SCOPES)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        spans[first] = range(first, max(first, last) + 1)
    return spans


def unexecuted(source: str, lines) -> list[str]:
    """The runs of statements that no line of lines touches, as ``a`` or ``a-b``."""
    runs: list[list[int]] = []
    ran = True  # whether the statement before this one ran
    for first, span in sorted(statement_spans(source).items()):
        if any(line in lines for line in span):
            ran = True
        elif ran:
            runs.append([first])
            ran = False
        else:
            runs[-1][1:] = [first]
    return ["-".join(map(str, run)) for run in runs]


def main(argv=None) -> int:
    import cli_digest  # next to this script

    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src"
    modules = sorted((src.resolve() / "tempiric").glob("*.py"))
    executed = executed_lines(modules, lambda: cli_digest.run_matrix(src, cli_digest.run))
    for path in modules:
        runs = unexecuted(path.read_text(), executed[str(path)])
        if runs:
            print(f"{path.name}: {', '.join(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
