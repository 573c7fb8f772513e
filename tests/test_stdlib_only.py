"""tempiric imports nothing outside the Python standard library.

The package, its CLI and ``python -m tempiric``'s entry module are
imported in a fresh interpreter run with ``-E -S -B``: no environment
variables, no ``site`` (so no site-packages) and no bytecode written into
``src/``.  Every top-level module they load must be a standard-library
module or ``tempiric`` itself, and none of the slow-to-import modules
in ``SLOW`` may be loaded: ``dataclasses`` and its ``inspect`` chain,
``typing``, ``tempfile``, ``shutil``, ``subprocess`` and ``logging``.
Every command would pay for them.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SLOW = (
    "dataclasses", "inspect", "ast", "dis", "tokenize",
    "typing", "tempfile", "shutil", "subprocess", "logging",
)

PROBE = """
import json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import tempiric, tempiric.cli, tempiric.__main__
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
slow = [name for name in sys.argv[2:] if name in sys.modules]
print(json.dumps([sorted(loaded - set(sys.stdlib_module_names)), slow]))
"""


def _probe():
    result = subprocess.run(
        [sys.executable, "-E", "-S", "-B", "-c", PROBE, str(SRC), *SLOW],
        capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_the_package_imports_only_the_standard_library():
    assert _probe()[0] == ["tempiric"]


def test_the_package_never_imports_dataclasses_or_inspect():
    assert _probe()[1] == []
