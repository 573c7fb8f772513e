"""The brute-force oracles share no code with the package.

``tests/oracles.py`` may take from ``tempiric`` only the atom-kind
constants of ``tempiric.weights``, which name the data rather than
compute anything; every other import from the package would let a fast
path and its oracle agree by sharing a defect.
"""

import ast
from pathlib import Path

from tempiric import weights

ORACLES = Path(__file__).resolve().parent / "oracles.py"
ATOM_KIND_NAMES = {
    name for name, value in vars(weights).items()
    if isinstance(value, str) and value in weights.ATOM_KINDS
}


def _package_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "tempiric":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.level == 0 and node.module.partition(".")[0] == "tempiric":
                for alias in node.names:
                    yield node.module, alias.name


def test_oracles_import_only_atom_kinds_from_the_package():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    for module, name in _package_imports(tree):
        assert module == "tempiric.weights" and name in ATOM_KIND_NAMES, (
            f"oracles.py imports {name or module} from {module}"
        )
