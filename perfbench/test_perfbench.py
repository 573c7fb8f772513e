"""Tests of the benchmark harness: smoke runs, trace determinism, bare tree."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-ladder", "matrix-invert", "window-figure")


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result


def _declared(kind):
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "7", "--smoke"))
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_reports_every_layer_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "7", "--smoke", "--trace", "1"))
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("per_layer")
    assert metrics["tempered.tempiric_window.calls"]["value"] > 0


def test_traced_counts_repeat_exactly():
    def counts():
        result = _result(_bench("--workload", "verify-ladder", "--seed", "3",
                                "--smoke", "--trace", "1"))
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}

    first = counts()
    assert first["tempered.blattner_mult.calls"] > 0
    assert first["cktheory.invert_window.calls"] == 0
    assert counts() == first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "verify-ladder", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
