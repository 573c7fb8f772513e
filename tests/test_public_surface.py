"""Every public name of the package has a reader.

A public top-level function or class of ``src/tempiric`` must either be
loaded by name from another package module (``__init__`` does not count:
re-exporting a name does not use it) or be named in the import block of
README's "Library entry points".  A name only mentioned in a docstring
does not count, since only imports and attribute reads are collected.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tempiric"
README = ROOT / "README.md"


def _modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name


def _loaded_names(tree, module_names):
    # Names imported from the package, and attributes read off a package
    # module bound by name (``cktheory.invert_window``).
    modules_here = set()
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").partition(".")[0] == "tempiric"
        ):
            for alias in node.names:
                names.add(alias.name)
                if alias.name in module_names:
                    modules_here.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules_here
        ):
            names.add(node.attr)
    return names


def _readme_entry_points():
    section = README.read_text().split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    imports = [
        node for node in ast.parse(block).body
        if isinstance(node, ast.ImportFrom) and node.module == "tempiric"
    ]
    assert imports, "README's entry-point block imports nothing from tempiric"
    return {alias.name for node in imports for alias in node.names}


def test_readme_block_names_only_package_exports():
    exported = _loaded_names(_modules()["__init__"], set())
    assert _readme_entry_points() <= exported


def test_every_public_name_has_a_reader():
    modules = _modules()
    readme = _readme_entry_points()
    loaded = {
        name: _loaded_names(tree, set(modules))
        for name, tree in modules.items()
        if name != "__init__"
    }
    unread = []
    for module, tree in modules.items():
        for name in _public_definitions(tree):
            readers = [m for m, names in loaded.items() if m != module and name in names]
            if not readers and name not in readme:
                unread.append(f"{module}.{name}")
    assert unread == [], (
        "public names that no other module loads and README does not list: "
        + ", ".join(unread)
    )


def test_a_name_read_only_in_a_docstring_is_not_loaded():
    tree = ast.parse(
        'from . import cktheory\n'
        'from .weights import vogan_norm\n'
        'def f():\n'
        '    """Calls ``tempered.helper`` and ``weights.other``."""\n'
        '    return cktheory.invert_window, vogan_norm\n'
    )
    names = _loaded_names(tree, {"cktheory", "tempered", "weights"})
    assert names == {"cktheory", "vogan_norm", "invert_window"}
