#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the tempiric CLI.

Run from the repository root (standard library only, no build step):

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 30 --trace 0

Each workload is a list of CLI commands run one at a time (a closed loop
with one client).  Every command starts in a fresh interpreter through
perfbench/child.py: the module-level memos of ``tempiric.tempered``
would otherwise carry work from one command into the next, so the order
of commands would change the numbers.

With ``--trace 0`` the run repeats passes over the list for about
``--seconds`` (at least three passes) and reports end-to-end medians.
With ``--trace 1`` it makes one untraced and one traced pass and reports
per-layer totals of the traced pass.  Every command's stdout is checked
against the sha256 recorded in perfbench/reference.json.  The last line
of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the line before it holds the run metadata.  perfbench/README.md
lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"
# One report (and spans file) per command of the latest run.
REPORTS = WORK / "reports"

DEFAULT_SEED = 1729
MIN_PASSES = 3
# Hard cap on one run; commands still running then are killed and fail.
RUN_LIMIT_S = 170.0

SEED = "{seed}"
HALF_GRAM_FILE = ".perfbench_work/Sp11-half-gram.json"
SL2R = ("--group", "SL2R")
SO31 = ("--group", "SO31")
SP11 = ("--group", "Sp11")
# Sp11 with Gram matrix diag(1/2, 1/2): a rational, non-integral Gram
# matrix, generated at run time from the catalog (see prepare()).
HALF = ("--group-file", HALF_GRAM_FILE)
CATALOG_SP11 = ("catalog", *SP11, "--format", "json")


def verify(group, bound):
    return ("verify", *group, "--bound", str(bound), "--seed", SEED)


def ck_matrix(group, bound, fmt):
    return ("ck-matrix", *group, "--bound", str(bound), "--format", fmt)


def table(group, bound):
    return ("tempiric-table", *group, "--bound", str(bound))


def figure(group, grid, fmt):
    return ("figure", *group, "--grid-bound", str(grid), "--format", fmt)


# name -> (commands, smoke commands at tiny bounds)
WORKLOADS = {
    "verify-ladder": (
        [verify(g, b) for g in (SL2R, SO31, SP11) for b in (50, 100, 200)]
        + [verify(HALF, 50)],
        [verify(g, 10) for g in (SL2R, SO31, SP11, HALF)],
    ),
    "matrix-invert": (
        [ck_matrix(SL2R, 3200, "json"), ck_matrix(SO31, 3200, "json"),
         ck_matrix(SL2R, 1600, "csv")],
        [ck_matrix(SL2R, 100, "json"), ck_matrix(SO31, 100, "json"),
         ck_matrix(SL2R, 50, "csv")],
    ),
    "window-figure": (
        [table(SP11, 400), table(SO31, 3200), table(HALF, 100),
         figure(SP11, 16, "txt"), figure(SP11, 12, "svg"), figure(SL2R, 40, "dot")],
        [table(SP11, 20), table(SO31, 100), table(HALF, 10),
         figure(SP11, 3, "txt"), figure(SP11, 3, "svg"), figure(SL2R, 5, "dot")],
    ),
}

# Layers each workload must never reach; asserted on every traced pass.
PREDICTED_ZEROS = {
    "verify-ladder": ("cktheory.invert_window",),
    "matrix-invert": (),
    "window-figure": (
        "tempered.blattner_mult", "cktheory.mult_matrix", "cktheory.invert_window",
    ),
}


def render(command, seed) -> list[str]:
    return [str(seed) if arg == SEED else arg for arg in command]


def reference_key(command) -> str:
    return " ".join(render(command, DEFAULT_SEED))


def normalized(command, seed, stdout: bytes) -> bytes:
    """The stdout the command prints at the default seed.

    Only the header line of ``verify`` names the seed; with every check
    passing the rest of its report does not depend on it.
    """
    if command[0] != "verify":
        return stdout
    head, sep, rest = stdout.partition(b"\n")
    mark = f" seed={seed}".encode()
    if head.endswith(mark):
        head = head[: -len(mark)] + f" seed={DEFAULT_SEED}".encode()
    return head + sep + rest


class Runner:
    """Runs commands as fresh processes and gates their output.

    ``reference`` maps each command to the sha256 of its stdout at the
    default seed; None (while recording it) checks exit codes only.
    """

    def __init__(self, seed, reference, deadline):
        self.seed = seed
        self.reference = reference
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.runs = 0
        shutil.rmtree(REPORTS, ignore_errors=True)
        REPORTS.mkdir(parents=True)

    def run(self, command, trace=False) -> dict:
        self.runs += 1
        report = REPORTS / f"{self.runs}.json"
        stdout_path, stderr_path = WORK / "stdout", WORK / "stderr"
        argv = render(command, self.seed)
        args = [sys.executable, str(CHILD), str(report), "1" if trace else "0", *argv]
        env = dict(os.environ, PYTHONHASHSEED="0")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644),
        ]
        start = time.monotonic()
        pid = os.posix_spawn(
            sys.executable, args, env, file_actions=actions, setsid=True
        )
        watchdog = threading.Timer(max(self.deadline - start, 0.0), _kill_group, (pid,))
        watchdog.start()
        _, status, usage = os.wait4(pid, 0)
        end = time.monotonic()
        watchdog.cancel()
        code = os.waitstatus_to_exitcode(status)
        stdout = stdout_path.read_bytes()
        digest = hashlib.sha256(normalized(command, self.seed, stdout)).hexdigest()
        ok = code == 0 and (
            self.reference is None or digest == self.reference.get(reference_key(command))
        )
        child = json.loads(report.read_text()) if report.exists() else {}
        setup_end = child.get("setup_end")
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write(
                f"FAILED (exit {code}, sha256 {digest}): tempiric {' '.join(argv)}\n"
                + stderr_path.read_text(errors="replace")[-2000:]
            )
        return {
            "command": reference_key(command),
            "ok": ok,
            "sha256": digest,
            "wall_s": end - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
            "setup_s": None if setup_end is None else setup_end - start,
            "stdout_bytes": len(stdout),
            "child": child,
        }

    def run_pass(self, commands, trace=False) -> dict:
        start = time.monotonic()
        records = [self.run(command, trace) for command in commands]
        return {"wall_s": time.monotonic() - start, "records": records}


def _kill_group(pid) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def prepare(runner: Runner) -> dict:
    """Write the rational-Gram Sp11 document; also warms the bytecode cache."""
    record = runner.run(CATALOG_SP11)
    if not record["ok"]:
        sys.exit("error: the catalog command failed; no rational-Gram input")
    document = json.loads((WORK / "stdout").read_text())
    document["name"] = "Sp11-half-gram"
    document["gram"] = ["1/2", "0", "0", "1/2"]
    (ROOT / HALF_GRAM_FILE).write_text(json.dumps(document, indent=2) + "\n")
    return record


def end_to_end_metrics(passes) -> dict:
    records = [r for p in passes for r in p["records"]]
    setups = [r["setup_s"] for r in records if r["setup_s"] is not None]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(
            sum(r["cpu_s"] for r in p["records"]) for p in passes), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (statistics.median(
            max(r["rss_mb"] for r in p["records"]) for p in passes), "MiB"),
    }


def _layer(record, name) -> dict:
    """One command's totals for one traced function ({} if never called)."""
    return record["child"].get("layers", {}).get(name, {})


def layer_metrics(untraced, traced) -> dict:
    records = traced["records"]

    def total(name, field):
        return sum(_layer(r, name).get(field, 0) for r in records)

    def outer(group):
        return sum(r["child"].get("outer_s", {}).get(group, 0.0) for r in records)

    def ratio(a, b):
        return a / b if b else 0.0

    blattner, induced = "tempered.blattner_mult", "tempered.induced_ktype_mult"
    matrix = "cktheory.mult_matrix"
    metrics = {
        f"{blattner}.calls": (total(blattner, "calls"), "count"),
        f"{blattner}.self_s": (total(blattner, "self_s"), "s"),
        f"{blattner}.nonzero_ratio": (
            ratio(total(blattner, "nonzero"), total(blattner, "calls")), "ratio"),
        f"{matrix}.calls": (total(matrix, "calls"), "count"),
        f"{matrix}.self_s": (total(matrix, "self_s"), "s"),
        f"{matrix}.nnz": (total(matrix, "nnz"), "count"),
        f"{matrix}.rows": (total(matrix, "rows"), "count"),
        f"{matrix}.s_per_nnz": (ratio(outer(matrix), total(matrix, "nnz")), "s"),
        "cktheory.invert_window.calls": (total("cktheory.invert_window", "calls"), "count"),
        "cktheory.invert_window.self_s": (total("cktheory.invert_window", "self_s"), "s"),
        "weights.invert_rational_matrix.self_s": (
            total("weights.invert_rational_matrix", "self_s"), "s"),
        "weights.enumerate_ktypes.calls": (total("weights.enumerate_ktypes", "calls"), "count"),
        "weights.enumerate_ktypes.self_s": (total("weights.enumerate_ktypes", "self_s"), "s"),
        "weights.ktypes_enumerated": (total("weights.enumerate_ktypes", "returned"), "count"),
        "tempered.minimal_ktypes.calls": (total("tempered.minimal_ktypes", "calls"), "count"),
        "tempered.minimal_ktypes.self_s": (total("tempered.minimal_ktypes", "self_s"), "s"),
        "tempered.ds_enumerate.calls": (total("tempered.ds_enumerate", "calls"), "count"),
        "tempered.ds_enumerate.self_s": (total("tempered.ds_enumerate", "self_s"), "s"),
        f"{induced}.calls": (total(induced, "calls"), "count"),
        f"{induced}.nonzero_ratio": (
            ratio(total(induced, "nonzero"), total(induced, "calls")), "ratio"),
        "tempered.tempiric_window.calls": (total("tempered.tempiric_window", "calls"), "count"),
        "branching.restrict_sum.calls": (total("branching.restrict_sum", "calls"), "count"),
        "branching.restrict_sum.self_s": (total("branching.restrict_sum", "self_s"), "s"),
        "branching.mult_space_dim.calls": (total("branching.mult_space_dim", "calls"), "count"),
    }
    for check in ("blattner_consistency", "vogan_bijection", "triangularity",
                  "dimension_identity", "admissibility"):
        metrics[f"cktheory.{check}.s"] = (outer(f"cktheory.{check}"), "s")
    metrics.update({
        "tempered.expression_memo_entries": (
            max(r["child"].get("expression_memo_entries", 0) for r in records), "count"),
        "catalog.load.self_s": (
            total("catalog.builtin", "self_s") + total("catalog.load", "self_s"), "s"),
        "cli.self_s": (total("cli.main", "self_s"), "s"),
        "cli.stdout_bytes": (sum(r["stdout_bytes"] for r in records), "bytes"),
        "figures.build_diagram.self_s": (total("figures.build_diagram", "self_s"), "s"),
        "trace.overhead_ratio": (ratio(traced["wall_s"], untraced["wall_s"]), "ratio"),
    })
    return metrics


def growth_record(untraced, traced) -> list[dict]:
    """Rows n, nonzeros and seconds per nonzero of each matrix command."""
    growth = []
    for plain, record in zip(untraced["records"], traced["records"]):
        layer = _layer(record, "cktheory.mult_matrix")
        if not layer.get("nnz"):
            continue
        n = layer["rows"] // layer["calls"]
        nnz = layer["nnz"] // layer["calls"]
        growth.append({
            "command": record["command"], "n": n, "nnz": nnz,
            "wall_s": plain["wall_s"], "s_per_nnz": plain["wall_s"] / nnz,
        })
    return growth


def zero_violations(workload, traced) -> list[str]:
    problems = []
    for name in PREDICTED_ZEROS[workload]:
        calls = sum(_layer(r, name).get("calls", 0) for r in traced["records"])
        if calls:
            problems.append(f"{name} called {calls} times on {workload}")
    return problems


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or "unknown"


def record_reference() -> int:
    """Write the stdout sha256 of every command at the default seed."""
    runner = Runner(DEFAULT_SEED, None, time.monotonic() + 3600)
    digests = {reference_key(CATALOG_SP11): prepare(runner)["sha256"]}
    for commands, smoke in WORKLOADS.values():
        for command in commands + smoke:
            digests[reference_key(command)] = runner.run(command)["sha256"]
    if runner.failed:
        return 1
    REFERENCE.write_text(
        json.dumps({"seed": DEFAULT_SEED, "sha256": digests}, indent=2, sort_keys=True)
        + "\n"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass at tiny bounds, a few seconds")
    parser.add_argument("--record", action="store_true",
                        help="rewrite perfbench/reference.json from this tree")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tempiric" / "__init__.py").is_file():
        print(f"error: no tempiric sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # commands name the rational-Gram file relative to ROOT
    WORK.mkdir(exist_ok=True)
    if args.record:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")

    started = time.monotonic()
    reference = json.loads(REFERENCE.read_text())["sha256"]
    runner = Runner(args.seed, reference, started + RUN_LIMIT_S)
    prepare(runner)
    commands, smoke = WORKLOADS[args.workload]
    if args.smoke:
        commands = smoke
    problems = []
    extra = {}
    if args.trace:
        untraced = runner.run_pass(commands)
        traced = runner.run_pass(commands, trace=True)
        passes = [untraced]
        metrics = layer_metrics(untraced, traced)
        problems = zero_violations(args.workload, traced)
        extra["growth"] = growth_record(untraced, traced)
    else:
        passes = []
        while True:
            passes.append(runner.run_pass(commands))
            now = time.monotonic()
            estimate = statistics.median(p["wall_s"] for p in passes)
            if args.smoke or now + estimate > runner.deadline:
                break
            if len(passes) >= MIN_PASSES and now + estimate - started > args.seconds:
                break
        metrics = end_to_end_metrics(passes)
    for problem in problems:
        print(f"predicted zero violated: {problem}", file=sys.stderr)
    correct = runner.failed == 0 and not problems
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "passes": len(passes),
        # Not a gated metric: a single command's time is too noisy here.
        "slowest_cmd_s": statistics.median(
            max(r["wall_s"] for r in p["records"]) for p in passes),
        "samples": [
            {"wall_s": p["wall_s"],
             "commands": [[r["wall_s"], r["cpu_s"], r["rss_mb"], r["setup_s"]]
                          for r in p["records"]]}
            for p in passes
        ],
        **extra,
    }
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value if unit in ("count", "bytes") else float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (results / f"{name}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=2) + "\n"
    )
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
