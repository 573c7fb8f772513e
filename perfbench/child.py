"""Run one tempiric CLI command in a fresh interpreter, for perfbench/run.py.

    python3 perfbench/child.py REPORT TRACE tempiric-arguments...

Stdout, stderr and the exit code are the command's own.  The child only
adds a report, written to REPORT (JSON) after the command:

- ``setup_end``: when the first group load (``catalog.builtin`` or
  ``catalog.load``) returned, on ``time.monotonic``.  On Linux that clock
  is CLOCK_MONOTONIC, which all processes share, so the parent can
  subtract its own spawn time from it.
- with TRACE 1, per-layer totals.  Every public function in TARGETS is
  wrapped in every tempiric module namespace that holds it (so
  ``tempered.blattner_mult`` and ``cktheory.blattner_mult`` are one
  wrapper), and each call records a span (name, start, end, parent).
  Spans stay in memory and are written to REPORT.spans.tsv at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LOADERS = (("catalog", "builtin"), ("catalog", "load"))
TARGETS = LOADERS + (
    ("weights", "enumerate_ktypes"),
    ("weights", "invert_rational_matrix"),
    ("branching", "restrict_sum"),
    ("branching", "mult_space_dim"),
    ("tempered", "tempiric_window"),
    ("tempered", "minimal_ktypes"),
    ("tempered", "ds_enumerate"),
    ("tempered", "induced_ktype_mult"),
    ("tempered", "blattner_mult"),
    ("cktheory", "mult_matrix"),
    ("cktheory", "invert_window"),
    ("cktheory", "blattner_consistency_check"),
    ("cktheory", "vogan_bijection_check"),
    ("cktheory", "triangularity_check"),
    ("cktheory", "dimension_identity_check"),
    ("cktheory", "boundary_block_dims"),
    ("cktheory", "admissibility_check"),
    ("figures", "build_diagram"),
    ("cli", "main"),
)

# Inclusive time of the outermost spans among these functions.  The
# dimension-identity check of ``verify`` is the identity check proper
# plus the boundary block sum it is cross-checked against.
OUTER_GROUPS = {
    "cktheory.mult_matrix": ("cktheory.mult_matrix",),
    "cktheory.blattner_consistency": ("cktheory.blattner_consistency_check",),
    "cktheory.vogan_bijection": ("cktheory.vogan_bijection_check",),
    "cktheory.triangularity": ("cktheory.triangularity_check",),
    "cktheory.dimension_identity": (
        "cktheory.dimension_identity_check",
        "cktheory.boundary_block_dims",
    ),
    "cktheory.admissibility": ("cktheory.admissibility_check",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack = [-1]
        self.counts: dict[str, dict[str, int]] = {}

    def install(self, targets) -> None:
        """Replace each target, in every tempiric namespace, by one wrapper."""
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "tempiric" or name.startswith("tempiric.")
        ]
        for module_name, func_name in targets:
            fn = getattr(sys.modules.get(f"tempiric.{module_name}"), func_name, None)
            if fn is None:
                continue  # absent from this tree: its counts read 0
            wrapper = self._wrap(f"{module_name}.{func_name}", fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            self._observe(name, result)
            return result

        return traced

    def _add(self, name, field, value) -> None:
        counts = self.counts.setdefault(name, {})
        counts[field] = counts.get(field, 0) + value

    def _observe(self, name, result) -> None:
        if name in ("tempered.blattner_mult", "tempered.induced_ktype_mult"):
            self._add(name, "nonzero", int(result != 0))
        elif name == "weights.enumerate_ktypes":
            self._add(name, "returned", len(result))
        elif name == "cktheory.mult_matrix":
            self._add(name, "rows", len(result.rows))
            self._add(name, "nnz", len(result.entries))

    def setup_end(self):
        loaders = {f"{m}.{f}" for m, f in LOADERS}
        return next((s[2] for s in self.spans if s[0] in loaders), None)

    def layers(self) -> dict:
        """Calls and self time (span minus child spans) per function."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, dict] = {}
        for index, (name, start, end, _) in enumerate(spans):
            entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[index]
        for name, counts in self.counts.items():
            layers.setdefault(name, {"calls": 0, "self_s": 0.0}).update(counts)
        return layers

    def outer_seconds(self, names) -> float:
        spans = self.spans
        total = 0.0
        for name, start, end, parent in spans:
            if name not in names:
                continue
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as handle:
            handle.write("index\tname\tstart\tend\tparent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _expression_memo_entries() -> int:
    memo = getattr(sys.modules.get("tempiric.tempered"), "_EXPRESSION_COUNTS", None)
    if not isinstance(memo, dict):
        return 0
    return sum(len(per_roots) for per_roots in memo.values())


def main() -> int:
    report_path, trace, *argv = sys.argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    import tempiric.cli

    tracer = Tracer()
    tracer.install(TARGETS if trace == "1" else LOADERS)
    code = tempiric.cli.main(argv)
    sys.stdout.flush()
    report = {"setup_end": tracer.setup_end()}
    if trace == "1":
        report["layers"] = tracer.layers()
        report["outer_s"] = {
            group: tracer.outer_seconds(names) for group, names in OUTER_GROUPS.items()
        }
        report["expression_memo_entries"] = _expression_memo_entries()
        tracer.write_spans(Path(report_path + ".spans.tsv"))
    Path(report_path).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
