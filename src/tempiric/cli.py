"""Command-line surface: catalog inspection, enumeration, verification,
matrix export, and lattice diagrams.

Each command formats what the library computes: ``ktypes``, ``branch``,
``tempiric-table``, ``ck-matrix`` and ``verify`` read the ``Window`` of
their group and bound, and ``verify`` prints ``cktheory.verify``'s reports.
``_COMMANDS`` declares each command once: its handler, help text, numeric
flag and formats, default first.  ``figure`` takes its formats from
``_FIGURE_WRITERS``, which declares each figure format once with its
writer.  The parser is built from ``_COMMANDS``.  ``main`` refuses a
format the command lacks before it resolves the group; it resolves the
group once, before the handler runs, and passes it in, so handlers only
compute and format.  ``ktypes``, ``branch`` and ``tempiric-table`` only
build rows; ``_table`` writes every row table, as JSON records or CSV
lines.

Exit codes: 0 all requested checks pass, 1 a mathematical check failed,
2 usage or input error.  All output is deterministic given the arguments
and seed; the seed is recorded in report headers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from . import cktheory, figures, weights
from .catalog import BUILTIN_NAMES, CatalogError, builtin, load, serialize
from .cktheory import DEFAULT_SEED, UnresolvedColumnsError
from .tempered import InternalInconsistencyError, WindowError, format_label, tempiric_window
from .weights import WindowTooLargeError, weyl_dim


class _UsageError(ValueError):
    pass


def _number(value) -> str:
    # str(value), refused like catalog.serialize refuses a Gram entry when
    # it has more digits than Python's int-to-str limit allows.
    try:
        return str(value)
    except ValueError:
        raise _UsageError(
            f"a number to print has more than {sys.get_int_max_str_digits()} digits "
            "and cannot be written as text"
        ) from None


def _fraction_arg(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempiric",
        description="Exact tempered-dual multiplicity structure for rank-one groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flag, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--group", help="built-in group name")
        group.add_argument("--group-file", help="path to a group definition JSON file")
        if flag:
            kind, flag_help = _FLAGS[flag]
            p.add_argument(flag, type=kind, required=True, help=flag_help)
        p.add_argument("--format", default=None, help="output format")
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument(
            "--seed", type=int, default=DEFAULT_SEED,
            help="seed for randomized checks (default %(default)s)",
        )
    return parser


def _resolve_datum(args):
    if getattr(args, "bound", None) is not None and args.bound < 0:
        raise _UsageError("bound must be nonnegative")
    if getattr(args, "grid_bound", None) is not None and args.grid_bound < 0:
        raise _UsageError("grid bound must be nonnegative")
    if args.group_file:
        return load(args.group_file)
    if args.group:
        return builtin(args.group)
    if args.command == "catalog":
        return None
    raise _UsageError("one of --group or --group-file is required")


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2) + "\\n"``, byte for byte, for every JSON output.

    The payload nests dicts with ``str`` keys, lists, tuples, ``str``,
    ``int``, ``bool`` and ``None``; anything else raises ``TypeError``.
    A list of exact ``int``s, or of nonempty lists of them, is written
    by ``str.join`` over ``int.__repr__``, as ``json`` writes an int; a
    ``bool`` never takes that path, since ``int.__repr__(True)`` is
    ``'1'``.  (``json.dumps`` with an indent runs its pure-Python
    encoder, one generator step per item.)
    """
    return _json(payload, "\n") + "\n"


def _json(value, newline: str) -> str:
    # value as json.dumps(indent=2) writes it on a line that newline
    # ("\n" and that line's indent) begins.
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError at a key that is not a str.
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return "[]"
    types = {*map(type, value)}
    if types == {int}:
        items = map(int.__repr__, value)
    elif types <= {list, tuple} and all(value) and {*map(type, chain.from_iterable(value))} == {int}:
        start, sep, end = "[" + inner + "  ", "," + inner + "  ", inner + "]"
        items = [start + sep.join(map(int.__repr__, row)) + end for row in value]
    else:
        items = [_json(v, inner) for v in value]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _table(fmt: str, datum, bound, key: str, header: tuple, rows) -> str:
    # A row table.  JSON: the group, the bound and one record per row under
    # key.  CSV: the header and one line per row, with labels (tuples)
    # formatted and booleans in lower case.
    if fmt == "json":
        records = [dict(zip(header, row)) for row in rows]
        return _json_text({"group": datum.name, "bound": _number(bound), key: records})
    cell = {tuple: format_label, bool: lambda flag: str(flag).lower()}
    return _csv_text(header, ([cell.get(type(v), str)(v) for v in row] for row in rows))


def _cmd_catalog(args, fmt, datum) -> tuple[int, str]:
    if datum is None:
        if fmt == "json":
            return 0, _json_text({"groups": list(BUILTIN_NAMES)})
        return 0, "\n".join(BUILTIN_NAMES) + "\n"
    if fmt == "json":
        return 0, _json_text(serialize(datum))
    lines = [
        f"name: {datum.name}",
        f"k_atoms: {', '.join(datum.k.atoms)}",
        f"m_atoms: {', '.join(datum.m.atoms)}",
        f"branching_rule: {datum.branching_rule}",
        f"two_rho_c: {format_label(datum.two_rho_c)}",
        f"weyl_on_mhat: {datum.weyl_on_mhat}",
        f"equal_rank: {datum.equal_rank}",
        "a_dim: 1",  # every catalog group has real rank one
        f"discrete_series: {'yes' if datum.ds else 'no'}",
    ]
    return 0, "\n".join(lines) + "\n"


def _cmd_ktypes(args, fmt, datum) -> tuple[int, str]:
    rows = [
        (tau, _number(Fraction(norm, datum.gram_scale)), weyl_dim(datum.k, tau))
        for norm, tau in tempiric_window(datum, args.bound).ranked
    ]
    return 0, _table(fmt, datum, args.bound, "ktypes", ("label", "norm", "dim"), rows)


def _cmd_branch(args, fmt, datum) -> tuple[int, str]:
    window = tempiric_window(datum, args.bound)
    ranges = window.restrictions
    count, limit = sum(map(len, ranges)), weights.MAX_WINDOW_ENTRIES
    if count > limit:
        raise WindowTooLargeError(
            f"bound {weights._decimal(args.bound)} needs {count} branching rows, "
            f"above the limit of {limit}"
        )
    rows = [(tau, (c,), 1) for tau, labels in zip(window.rows, ranges) for c in labels]
    header = ("ktype", "mtype", "multiplicity")
    return 0, _table(fmt, datum, args.bound, "branchings", header, rows)


def _cmd_tempiric_table(args, fmt, datum) -> tuple[int, str]:
    window = tempiric_window(datum, args.bound)
    reps = window.reps
    norms = [window.norms[window.row_index[rep.min_ktype]] for rep in reps]
    # Only the reps and their norms outlive the window, so the table is
    # built in the memory its other parts held.
    del window
    rows = [
        (
            "discrete-series" if rep.kind == "ds" else "principal-series",
            format_label(rep.hc_param) if rep.kind == "ds" else rep.ps_class.describe(),
            rep.min_ktype,
            rep.split,
            _number(Fraction(norm, datum.gram_scale)),
        )
        for rep, norm in zip(reps, norms)
    ]
    header = ("kind", "parameters", "minimal_ktype", "split", "vogan_norm")
    return 0, _table(fmt, datum, args.bound, "records", header, rows)


def _column_descriptor(rep) -> dict:
    if rep.kind == "ds":
        return {
            "kind": "ds",
            "hc_param": list(rep.hc_param),
            "min_ktype": list(rep.min_ktype),
        }
    return {
        "kind": "ps",
        "orbit": [list(s) for s in rep.ps_class.orbit],
        "w_sigma_order": rep.ps_class.w_sigma_order,
        "min_ktype": list(rep.min_ktype),
        "split": rep.split,
    }


def _cmd_ck_matrix(args, fmt, datum) -> tuple[int, str]:
    matrix = tempiric_window(datum, args.bound).matrix
    try:
        inverse, refused = cktheory.invert_window(matrix), None
    except UnresolvedColumnsError as exc:
        inverse, refused = None, list(exc.columns)
    entries = [(i, j, v) for i, row in enumerate(matrix.nonzeros) for j, v in row.items()]
    if fmt == "json":
        payload = {
            "group": datum.name,
            "bound": _number(args.bound),
            "rows": matrix.rows,
            "cols": [_column_descriptor(rep) for rep in matrix.cols],
            "entries": entries,
            "resolution": matrix.resolution,
        }
        if inverse is not None:
            payload["inverse"] = [list(map(row.get, range(len(inverse)), repeat(0))) for row in inverse]
        else:
            payload["refusal"] = {"reason": "aggregate-only columns", "columns": refused}
        return 0, _json_text(payload)
    # Each row label and column description is formatted once.
    labels = [format_label(tau) for tau in matrix.rows]
    names = [rep.describe() for rep in matrix.cols]
    rows = [("entry", labels[i], names[j], v) for i, j, v in entries]
    rows += [("resolution", "", name, flag) for name, flag in zip(names, matrix.resolution)]
    if inverse is not None:
        for name, row in zip(names, inverse):
            rows += [("inverse", name, labels[j], v) for j, v in row.items()]
    else:
        rows += [("refusal", "", column, "aggregate-only") for column in refused]
    return 0, _csv_text(("section", "row", "col", "value"), rows)


def _cmd_verify(args, fmt, datum) -> tuple[int, str]:
    reports = cktheory.verify(tempiric_window(datum, args.bound), args.seed)
    ok = all(r.passed for r in reports)
    if fmt == "json":
        payload = {
            "group": datum.name,
            "bound": _number(args.bound),
            "seed": args.seed,
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "counterexample": r.counterexample,
                }
                for r in reports
            ],
            "all_passed": ok,
        }
        return (0 if ok else 1), _json_text(payload)
    lines = [f"# verify group={datum.name} bound={_number(args.bound)} seed={args.seed}"]
    for r in reports:
        if r.passed:
            lines.append(f"{r.name}: pass")
        else:
            lines.append(f"{r.name}: FAIL {json.dumps(r.counterexample)}")
    lines.append("# all checks passed" if ok else "# FAILURES detected")
    return (0 if ok else 1), "\n".join(lines) + "\n"


def _cmd_figure(args, fmt, datum) -> tuple[int, str]:
    try:
        spec = figures.build_diagram(datum, args.grid_bound)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return 0, _FIGURE_WRITERS[fmt](spec)


# The figure formats, the default first, and the writer of each.
_FIGURE_WRITERS = {"txt": figures.render_text, "dot": figures.render_dot, "svg": figures.render_svg}


# The numeric flag each command may require: (type, help).
_FLAGS = {
    "--bound": (_fraction_arg, "Vogan norm bound of the window (rational)"),
    "--grid-bound": (int, "maximum label coordinate of the diagram grid"),
}

# name: (handler, help, numeric flag, formats with the default first)
_COMMANDS = {
    "catalog": (_cmd_catalog, "list built-ins or show one group", None, ("txt", "json")),
    "ktypes": (_cmd_ktypes, "enumerate the K-type window", "--bound", ("csv", "json")),
    "branch": (_cmd_branch, "branching table over the window", "--bound", ("csv", "json")),
    "tempiric-table": (
        _cmd_tempiric_table, "tempered representatives of the window", "--bound", ("csv", "json"),
    ),
    "ck-matrix": (_cmd_ck_matrix, "multiplicity matrix and inverse", "--bound", ("json", "csv")),
    "verify": (_cmd_verify, "run all machine checks", "--bound", ("txt", "json")),
    "figure": (
        _cmd_figure, "marker diagram of the label grid", "--grid-bound", tuple(_FIGURE_WRITERS),
    ),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _, _, formats = _COMMANDS[args.command]
    try:
        fmt = args.format or formats[0]
        if fmt not in formats:
            raise _UsageError(
                f"format {fmt!r} not supported here; choose from {', '.join(formats)}"
            )
        code, text = handler(args, fmt, _resolve_datum(args))
    except (_UsageError, CatalogError, WindowError, WindowTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(
                f"error: cannot write {args.out!r}: {exc.strerror or exc}",
                file=sys.stderr,
            )
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
