"""``tools/fresh_run.py`` hashes the stdout of a fresh run byte for byte."""

import hashlib
import subprocess
import sys
from pathlib import Path

from tempiric.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fresh_run.py"


def test_fresh_run_hashes_what_an_in_process_run_prints(capsys):
    command = ["catalog", "--group", "Sp11", "--format", "json"]
    assert main(command) == 0
    out = capsys.readouterr().out.encode()
    done = subprocess.run(
        [sys.executable, "-E", "-S", str(TOOL), "--runs", "2", *command],
        capture_output=True, text=True, check=True, timeout=60,
    )
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# fresh_run peak RSS ")
    *runs, median = [line.split("\t") for line in lines[2:]]
    assert len(runs) == 2 and median[0] == "median"
    for run in (*runs, median):
        assert run[-3:] == ["0", str(len(out)), hashlib.sha256(out).hexdigest()]
