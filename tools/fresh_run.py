"""Time one CLI command in fresh processes, to measure it or compare two trees.

    python -E -S tools/fresh_run.py [--runs N] [--src DIR]... COMMAND [ARG]...

Runs ``python -B -m tempiric COMMAND ARG...`` N times (default 5) for each
SRC directory (default: the ``src`` beside this tool), each run in a new
process with ``PYTHONPATH`` set to that SRC.  With several ``--src``
options the runs alternate between them, and each round reverses the
previous round's order.  Prints one tab-separated line per run: the SRC,
the wall time and the CPU time in seconds, the child's peak RSS in MiB
(``ru_maxrss`` from ``os.wait4``), the exit code, and the byte count and
sha256 of stdout.  Then one ``median`` line per SRC: the median times
and peak RSS, and the exit code, byte count and sha256 that every run
shares, or ``differs``.  Then one ``quartiles`` line per SRC: the SRC
and its first quartile, median and third quartile of wall time, the
quartiles being the medians of the runs below and above the median run
(of the lower and upper halves, with an even count).  With exactly two
SRC, one ``wins`` line per SRC follows: the SRC and the number of the N
rounds in which its wall time was lower than the other's; a tie counts
for neither.  The child's stderr goes to this process's stderr.

A child's peak RSS starts at the peak of the process that spawned it, so
the first line reports this tool's own peak: a floor under every child's
figure.  Run the tool with ``-E -S`` to keep that floor low.  Standard
library only.
"""

from __future__ import annotations

import hashlib
import os
import resource
import sys
import time

USAGE = "usage: fresh_run.py [--runs N] [--src DIR]... COMMAND [ARG]..."
DEFAULT_SRC = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "../src"))


def run_once(src: str, command: list[str]) -> tuple:
    """One fresh run: (wall s, CPU s, peak RSS MiB, exit code, bytes, sha256)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-B", "-m", "tempiric", *command]
    read, write = os.pipe()
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, argv, env, file_actions=[(os.POSIX_SPAWN_DUP2, write, 1)]
    )
    os.close(write)
    digest, size = hashlib.sha256(), 0
    with open(read, "rb") as out:
        while chunk := out.read(1 << 20):
            digest.update(chunk)
            size += len(chunk)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    rss = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    return wall, cpu, rss, os.waitstatus_to_exitcode(status), size, digest.hexdigest()


def _median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def _quartiles(values):
    values = sorted(values)
    half = len(values) // 2
    return _median(values[:half] or values), _median(values), _median(values[-half:] or values)


def _same(values):
    return values[0] if len(set(values)) == 1 else "differs"


def _line(src, wall, cpu, rss, code, size, sha) -> str:
    return f"{src}\t{wall:.3f}\t{cpu:.3f}\t{rss:.1f}\t{code}\t{size}\t{sha}"


def main(argv: list[str]) -> int:
    runs, sources = 5, []
    while len(argv) > 1 and argv[0] in ("--runs", "--src"):
        if argv[0] == "--runs":
            runs = int(argv[1])
        else:
            sources.append(argv[1])
        del argv[:2]
    if not argv or runs < 1:
        print(USAGE, file=sys.stderr)
        return 2
    sources = sources or [DEFAULT_SRC]
    floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"# fresh_run peak RSS {floor:.1f} MiB, a floor under each child's")
    print("src\twall_s\tcpu_s\tpeak_rss_mib\texit\tstdout_bytes\tstdout_sha256")
    results = {src: [] for src in sources}
    for round_ in range(runs):
        for src in sources if round_ % 2 == 0 else sources[::-1]:
            result = run_once(src, argv)
            results[src].append(result)
            print(_line(src, *result), flush=True)
    for src, rows in results.items():
        wall, cpu, rss, code, size, sha = zip(*rows)
        medians = map(_median, (wall, cpu, rss))
        print("median\t" + _line(src, *medians, *map(_same, (code, size, sha))))
    walls = {src: [row[0] for row in rows] for src, rows in results.items()}
    for src, wall in walls.items():
        print(f"quartiles\t{src}\t" + "\t".join(f"{q:.3f}" for q in _quartiles(wall)))
    if len(walls) == 2:
        for src, other in zip(walls, [*walls][::-1]):
            print(f"wins\t{src}\t{sum(a < b for a, b in zip(walls[src], walls[other]))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
