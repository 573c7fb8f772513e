"""Where ``cktheory`` builds a ``VerificationReport``.

The matrix checks are searches: each yields its first counterexample or
returns its data, and ``cktheory._search`` turns that into the report.
So a report is built only there, in ``_sweep``, in ``verify``'s exception
path, and once in each check that still has a single construction site.
"""

import ast
import inspect
from pathlib import Path

from tempiric import cktheory

CKTHEORY = Path(__file__).resolve().parent.parent / "src" / "tempiric" / "cktheory.py"

SEARCHES = ("vogan_bijection_check", "triangularity_check", "blattner_consistency_check")


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
    assert sites == {
        "_search": 2,  # the pass and the failure of every search
        "_sweep": 1,
        "verify": 1,  # an InternalInconsistencyError fails the check that raised it
        "dimension_identity_check": 1,
        "admissibility_check": 1,
    }


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
    for name in SEARCHES:
        check = getattr(cktheory, name)
        assert check.__name__ == name
        assert check.__doc__ == check.__wrapped__.__doc__ and check.__doc__
        assert list(inspect.signature(check).parameters) == ["window"]
        assert inspect.signature(check).return_annotation == "VerificationReport"
