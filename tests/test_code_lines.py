"""``tools/code_lines.py`` counts code lines, not docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring
over two lines."""

# a comment

import os  # a trailing comment


def f(x):
    """Function docstring."""
    # a comment in the body
    total = (
        x
        + 1
    )

    return total


class C:
    """Class docstring
    over two lines."""

    text = """a string
that is not a docstring"""
'''

# import os; def f; the four lines of total = (...); return total;
# class C; the two lines of text = """...""".
SAMPLE_CODE_LINES = 10


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_only_code_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert _tool().code_lines(path) == SAMPLE_CODE_LINES


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "     0  empty.py\n"
        f"{SAMPLE_CODE_LINES:6d}  sample.py\n"
        f"{SAMPLE_CODE_LINES:6d}  total\n"
    )
