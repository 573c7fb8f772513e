"""``tools/digest_lines.py`` finds the statements a run never reached."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "digest_lines.py"

SAMPLE = '''"""Module docstring."""

import functools


@functools.lru_cache
def f(x):
    """Docstring."""
    try:
        y = (
            x
            + 1
        )
    except TypeError:
        y = 0
    if x > 0:
        return y
    else:
        pass
    return -y


class C:
    """Class docstring."""

    def g(self):
        return [
            i for i in range(3)
        ]
'''

# f(1) runs neither y = 0 (line 15) nor pass and return -y (19, 20), and
# nothing calls C.g (27); the decorator line 6 starts the statement of f.
SAMPLE_UNEXECUTED = ["15", "19-20", "27"]


def _tool():
    spec = importlib.util.spec_from_file_location("digest_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _import_and_call(path):
    spec = importlib.util.spec_from_file_location("digest_lines_sample", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.f(1)


def test_statement_spans_cover_headers_and_skip_docstrings():
    spans = _tool().statement_spans(SAMPLE)
    assert spans[6] == range(6, 8)  # decorator and def, not the docstring
    assert spans[10] == range(10, 14)  # a statement over four lines
    assert 1 not in spans and 8 not in spans and 24 not in spans


def test_collects_the_lines_a_call_runs(tmp_path):
    tool = _tool()
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    executed = tool.executed_lines([path], lambda: _import_and_call(path))
    assert set(executed) == {str(path)}
    assert tool.unexecuted(SAMPLE, executed[str(path)]) == SAMPLE_UNEXECUTED


def test_a_file_outside_the_paths_is_not_traced(tmp_path):
    tool = _tool()
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    executed = tool.executed_lines([tmp_path / "other.py"], lambda: _import_and_call(path))
    assert executed == {str(tmp_path / "other.py"): set()}
