"""Where ``cktheory`` builds a ``VerificationReport``.

Every check is a search: each yields its first counterexample or returns
its data, and ``cktheory._search`` turns that, or an
``InternalInconsistencyError`` the search raises, into the report.  So a
report is built only there and in ``_sweep``, which returns a sweep's
first failing report or its pass.
"""

import ast
import inspect
from pathlib import Path

from tempiric import cktheory

CKTHEORY = Path(__file__).resolve().parent.parent / "src" / "tempiric" / "cktheory.py"

SEARCHES = {
    "vogan_bijection_check": ["window"],
    "triangularity_check": ["window"],
    "blattner_consistency_check": ["window"],
    "dimension_identity_check": ["window", "v1", "v2"],
    "admissibility_check": ["window", "v"],
}


def _report_sites(tree):
    # {top-level function name (None outside any): VerificationReport(...) calls}
    sites = {}
    for node in tree.body:
        name = node.name if isinstance(node, ast.FunctionDef) else None
        calls = sum(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "VerificationReport"
            for call in ast.walk(node)
        )
        if calls:
            sites[name] = sites.get(name, 0) + calls
    return sites


def test_reports_are_built_only_by_the_report_function_sweep_and_verify():
    sites = _report_sites(ast.parse(CKTHEORY.read_text(), filename=str(CKTHEORY)))
    assert sites == {"_search": 2, "_sweep": 1}  # the pass and the failure of every search


def test_the_sites_count_every_call():
    tree = ast.parse(
        "REPORT = VerificationReport('x', True)\n"
        "def f():\n"
        "    def g():\n"
        "        return VerificationReport('g', True)\n"
        "    return [g(), VerificationReport('f', True)]\n"
    )
    assert _report_sites(tree) == {None: 1, "f": 2}


def test_each_search_keeps_its_name_signature_and_docstring():
    for name, parameters in SEARCHES.items():
        check = getattr(cktheory, name)
        assert check.__name__ == name
        assert check.__doc__ == check.__wrapped__.__doc__ and check.__doc__
        assert list(inspect.signature(check).parameters) == parameters
        assert inspect.signature(check).return_annotation == "VerificationReport"
