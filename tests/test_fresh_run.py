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
    *runs, median, quartiles = [line.split("\t") for line in lines[2:]]
    assert len(runs) == 2 and median[0] == "median"
    for run in (*runs, median):
        assert run[-3:] == ["0", str(len(out)), hashlib.sha256(out).hexdigest()]
    # With two runs the quartiles are the two walls, around the median.
    walls = sorted(float(run[1]) for run in runs)
    assert quartiles[:2] == ["quartiles", median[1]] and quartiles[3] == median[2]
    assert [float(quartiles[2]), float(quartiles[4])] == walls


def test_fresh_run_counts_the_rounds_each_of_two_trees_wins():
    # Two spellings of one SRC: three rounds in alternating order, then a
    # median and a quartiles line for each, and how many rounds each won.
    src = TOOL.parent.parent / "src"
    sources = [str(src), f"{src}/."]
    done = subprocess.run(
        [sys.executable, "-E", "-S", str(TOOL), "--runs", "3",
         "--src", sources[0], "--src", sources[1], "catalog"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    rows = [line.split("\t") for line in done.stdout.splitlines()[2:]]
    runs, tail = rows[:6], rows[6:]
    assert [run[0] for run in runs] == [*sources, *sources[::-1], *sources]
    assert [row[:2] for row in tail] == [
        [kind, s] for kind in ("median", "quartiles", "wins") for s in sources
    ]
    tail = {(row[0], row[1]): row[2:] for row in tail}
    walls = {s: [float(run[1]) for run in runs if run[0] == s] for s in sources}
    for s, other in zip(sources, sources[::-1]):
        # With three runs the quartiles are the three walls, sorted.
        assert [float(q) for q in tail["quartiles", s]] == sorted(walls[s])
        # The tool compares unrounded walls: a printed tie may be a win.
        pairs = list(zip(walls[s], walls[other]))
        wins, ties = sum(a < b for a, b in pairs), sum(a == b for a, b in pairs)
        assert wins <= int(tail["wins", s][0]) <= wins + ties
