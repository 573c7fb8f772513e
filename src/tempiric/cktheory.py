"""Verification layer for the multiplicity matrix.

Certifies, on one finite ``Window``, the minimal-K-type bijection and the
unit-diagonal lower-triangularity of the induced map on representation
rings, inverts exact windows over the integers, and checks the boundary
dimension identities behind the rank-one Fourier decomposition.

On a window, the paper's K-theoretic form of Vogan's theorem is what
``verify`` and ``ck-matrix`` report from these routines: the
minimal-K-type bijection, unit lower-triangularity and the exact integer
inverse.  Nothing here computes a K-group.  The inverse is one exact
Gauss-Jordan elimination that scans the rows for each pivot and the rows
it clears, at most 1,000 by ``mult_matrix``'s entry limit.  The matrix
and its inverse share one sparse form: one ``{column: nonzero int}``
dict per row, with the keys ascending.  The elimination starts from
copies of the matrix's rows, and ``ck-matrix`` writes both as they come,
expanding only the inverse's rows to dense rows, and only for JSON.

Every check reads a ``Window``: the matrix checks its ``matrix`` (built
by ``tempered.mult_matrix``, re-exported here with ``MultMatrix``,
``EXACT``, ``AGGREGATE_ONLY`` and ``WindowError``), and the M-side
checks its restrictions, duals and orbits, with each restriction's
M-types read by ``branching.restricted_support``.  Every check is a
search: it yields its first counterexample or returns the data of its
pass, and ``_search`` alone builds the ``VerificationReport`` from that.
An ``InternalInconsistencyError`` fails the check that raised it, with
its text as the counterexample, whether ``verify`` runs the check or a
caller does.  The M-side checks compare what ``Window.restriction``
gives with multiplicity-space dimensions counted off the rows' ranges
(``Window.restrictions``), so a wrong restriction fails them.
A formal sum of K-types is a plain ``{K-type: nonzero int}`` dict, and
``Window.restriction``, which both M-side checks read first, refuses a
key that is not a row and a multiplicity that is not an ``int``.
``verify(window, seed)`` is the whole ``tempiric verify`` policy: the
check order, the stop at the first failure and the seeded draws of its
two randomized sweeps, which are loops over the public
``dimension_identity_check`` and ``admissibility_check``.

All arithmetic here is exact; there is no floating point and no
tolerance anywhere.
"""

from __future__ import annotations

import functools
import random
from bisect import bisect_left
from fractions import Fraction

from .branching import restricted_support
from .tempered import (
    AGGREGATE_ONLY,
    EXACT,
    InternalInconsistencyError,
    MultMatrix,
    PrincipalClass,
    TempiricRep,
    Window,
    WindowError,
    blattner_mult,
    format_label,
    mult_matrix,
)
from .weights import (
    CYCLIC2,
    isotypic_pairing,
    labels_in_box,
    require_entries_within_limit,
    vogan_norm,
    _decimal,
    _Value,
)

DEFAULT_SEED = 1729


class UnresolvedColumnsError(RuntimeError):
    """Inversion refused: some columns carry only aggregate multiplicities."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(
            "cannot invert: aggregate-only columns " + ", ".join(self.columns)
        )


class VerificationReport(_Value):
    """Outcome of one machine check; failures carry a counterexample."""

    def __init__(
        self, name: str, passed: bool, counterexample: dict | None = None, data: dict | None = None
    ):
        if not passed and not counterexample:
            raise ValueError("a failing report must carry a counterexample")
        self.__dict__.update(
            name=name, passed=passed, counterexample=counterexample,
            data={} if data is None else data,
        )

    def _key(self) -> tuple:
        return (self.name, self.passed, self.counterexample, self.data)


def _search(search):
    # A check written as a search over the window: the first counterexample
    # it yields fails the check, and it is never resumed; if it yields none,
    # the dict it returns is the passing report's data.  An
    # InternalInconsistencyError it raises fails the check too, with the
    # error's text as the counterexample; every other error propagates.  The
    # report is named after the check, less its "_check" suffix.
    name = search.__name__.removesuffix("_check")

    @functools.wraps(search)
    def check(*args) -> VerificationReport:
        try:
            counterexample = next(search(*args))
        except StopIteration as done:
            return VerificationReport(name, True, data=done.value)
        except InternalInconsistencyError as exc:
            counterexample = {"error": str(exc)}
        return VerificationReport(name, False, counterexample=counterexample)

    return check


@_search
def vogan_bijection_check(window: Window) -> VerificationReport:
    """Minimal K-types biject window representatives with window K-types.

    Passes when the assignment representative -> minimal K-type is
    injective, covers the whole K-type window, and each minimum occurs
    with multiplicity exactly one in ``Window.matrix``.
    """
    matrix, row_index = window.matrix, window.row_index
    seen: dict[tuple, TempiricRep] = {}
    for rep in matrix.cols:
        if rep.min_ktype in seen:
            yield {
                "ktype": format_label(rep.min_ktype),
                "representatives": [
                    seen[rep.min_ktype].describe(),
                    rep.describe(),
                ],
                "reason": "two representatives share a minimal K-type",
            }
        seen[rep.min_ktype] = rep
    missing = [tau for tau in matrix.rows if tau not in seen]
    if missing:
        yield {
            "ktype": format_label(missing[0]),
            "reason": "K-type is not minimal in any window representative",
        }
    extra = [rep for rep in matrix.cols if rep.min_ktype not in row_index]
    if extra:
        yield {
            "representative": extra[0].describe(),
            "reason": "minimal K-type escapes the window",
        }
    for j, rep in enumerate(matrix.cols):
        mult = matrix.entry(row_index[rep.min_ktype], j)
        if mult != 1:
            yield {
                "representative": rep.describe(),
                "multiplicity": mult,
                "reason": "minimal K-type multiplicity differs from 1",
            }
    return {"ktypes": len(matrix.rows), "representatives": len(matrix.cols)}


@_search
def triangularity_check(window: Window) -> VerificationReport:
    """Unit entries at minima and vanishing strictly below them in norm.

    Reads every entry of ``Window.matrix`` it asserts, zeros included:
    each column's pivot and the rows below its minimum in norm, the
    prefix of the rows whose ``Window.norms`` fall below the pivot's.
    Aggregate entries of unresolved split columns are held to the same
    vanishing requirement, which is stronger than resolving them would
    demand.
    """
    matrix, row_index = window.matrix, window.row_index
    for j, rep in enumerate(matrix.cols):
        pivot = row_index.get(rep.min_ktype)
        if pivot is None:
            yield {
                "representative": rep.describe(),
                "reason": "minimal K-type not in the window",
            }
        if matrix.entry(pivot, j) != 1:
            yield {
                "representative": rep.describe(),
                "entry": matrix.entry(pivot, j),
                "reason": "diagonal entry differs from 1",
            }
        for i in range(bisect_left(window.norms, window.norms[pivot])):
            if matrix.entry(i, j) != 0:
                yield {
                    "representative": rep.describe(),
                    "ktype": format_label(matrix.rows[i]),
                    "entry": matrix.entry(i, j),
                    "reason": "nonzero entry below the minimal norm",
                }
    return {"columns": len(matrix.cols)}


def composite_map(window: Window, tau) -> dict:
    """Image of a K-type in the free group on window representatives.

    Returned as a ``{representative: nonzero int}`` dict.  The
    coefficients are the matrix entries of the K-type's row, and only
    that row is evaluated, through the ``Window.columns`` that
    ``mult_matrix`` reads.  The window must contain the K-type;
    triangularity then guarantees every representative it meets is
    present, so nothing is silently truncated.
    """
    if vogan_norm(window.datum, tau) > window.bound:
        raise WindowError(
            f"K-type {format_label(tau)} has norm above the window bound "
            f"{_decimal(window.bound)}"
        )
    i = window.row_index[tuple(tau)]
    return {rep: m for rep in window.reps if (m := window.columns[rep][1](i))}


def _sparse_product_is_identity(a_rows, b_rows) -> bool:
    # Row i of A.B accumulates a * (row t of B) over the nonzeros a = A[i][t];
    # an entry that no nonzero product reaches is exactly 0.
    for i, a_row in enumerate(a_rows):
        acc: dict = {}
        for t, a in a_row.items():
            for j, b in b_rows[t].items():
                acc[j] = acc.get(j, 0) + a * b
        if {j: v for j, v in acc.items() if v} != {i: 1}:
            return False
    return True


def invert_window(matrix: MultMatrix):
    """Exact integer inverse of a fully resolved window matrix.

    Refuses when any column is aggregate-only, naming the culprits.  The
    inverse comes from one exact Gauss-Jordan elimination on sparse rows
    of [A | I] (a dict per row, column -> nonzero value), each a copy of
    a row of ``matrix.nonzeros`` with its identity entry added, so the
    matrix is left as it was.  The pivot of
    column col is the first row at or after col that holds it, swapped
    into place, and only the other rows that hold the pivot column are
    eliminated.  Each column finds both by scanning the rows; no
    per-column row sets are kept, since ``mult_matrix`` refuses rows x
    rows above ``MAX_WINDOW_ENTRIES``, so n is at most 1,000.  Rows
    ordered by (norm, label) make A block lower-triangular with blocks of
    equal norm, so fill-in stays at the sparsity of the inverse; nothing
    relies on that order.  Entries stay ``int`` until a non-unit pivot
    divides them into ``Fraction``.  A missing pivot or a non-integral inverse entry would
    contradict the certified triangularity and raises as an internal
    error.  The product A^-1.A is then computed exactly over its
    nonzeros, and every row is compared with the identity row; A is
    square and the arithmetic exact, so A^-1.A = I certifies A.A^-1 = I
    too.  Returns the certified rows of the inverse: row i is a dict
    mapping each column j with a nonzero entry to that entry, an ``int``,
    with the keys ascending: the form of ``matrix.nonzeros``.
    """
    aggregate = [
        matrix.cols[j].describe()
        for j, flag in enumerate(matrix.resolution)
        if flag == AGGREGATE_ONLY
    ]
    if aggregate:
        raise UnresolvedColumnsError(aggregate)
    n = len(matrix.rows)
    if len(matrix.cols) != n:
        raise InternalInconsistencyError(
            f"window is not square: {n} K-types, {len(matrix.cols)} representatives"
        )
    # Columns n.. of each augmented row hold the identity block.
    aug = [{**row, n + i: 1} for i, row in enumerate(matrix.nonzeros)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if col in aug[r]), None)
        if pivot is None:
            raise InternalInconsistencyError(
                "window matrix is singular despite certified triangularity"
            )
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pivot_row = aug[col]
        scale = pivot_row[col]
        if scale != 1:
            inv_scale = 1 / Fraction(scale)
            pivot_row = aug[col] = {k: v * inv_scale for k, v in pivot_row.items()}
        # The pivot entry is now 1, so each row it clears loses column col.
        rest = [(k, v) for k, v in pivot_row.items() if k != col]
        for row in [row for row in aug if col in row and row is not pivot_row]:
            factor = row.pop(col)
            for k, v in rest:
                value = row.get(k, 0) - factor * v
                if value:
                    row[k] = value
                else:
                    del row[k]
    # Elimination leaves each row's keys out of column order.
    inverse = [dict(sorted((k - n, v) for k, v in row.items() if k >= n)) for row in aug]
    if any(v.denominator != 1 for row in inverse for v in row.values()):
        raise InternalInconsistencyError(
            "window inverse is not integral despite unit diagonal"
        )
    inverse = [{j: int(v) for j, v in row.items()} for row in inverse]
    if not _sparse_product_is_identity(inverse, matrix.nonzeros):
        raise InternalInconsistencyError("inverse verification failed")
    return inverse


@_search
def dimension_identity_check(window: Window, v1: dict, v2: dict) -> VerificationReport:
    """Boundary dimension count against the M-isotypic pairing.

    Left side: invariant Hom dimension of one ``Window.restriction`` of
    each sum (``weights.isotypic_pairing``).  Right side: sum over the
    M-types of their supports (``branching.restricted_support``) of the
    product of multiplicity-space dimensions, each read off the sums'
    rows' ranges (``Window.restrictions``) at the dual M-type, not off
    the restrictions.  The two must agree exactly; the total of the
    boundary blocks (``_boundary_blocks``), read off the same two
    restrictions and their supports, must then equal the left side too.
    Each sum is a ``{K-type: nonzero int}`` dict, and
    ``Window.restriction`` refuses it first: ``WindowError`` at a K-type
    outside the window, ``TypeError`` at a multiplicity that is not an
    ``int``.
    """
    r1, r2 = window.restriction(v1), window.restriction(v2)
    duals = window.duals
    lhs = isotypic_pairing(r1, r2)
    sigmas = {*restricted_support(duals, r1), *restricted_support(duals, r2)}
    labels = [duals[s] for s in sigmas]
    dims1, dims2 = _mult_space_dims(window, v1, labels), _mult_space_dims(window, v2, labels)
    rhs = sum(dims1[c] * dims2[c] for c, in labels)
    total = sum(d for _, d in _boundary_blocks(window, r1, r2, sigmas))
    if lhs != rhs or total != lhs:
        yield {
            "v1": sorted(v1.items()), "v2": sorted(v2.items()), "lhs": lhs,
            **({"rhs": rhs} if lhs != rhs else {
                "boundary_total": total,
                "reason": "boundary block total differs from the Hom dimension",
            }),
        }
    return {"lhs": lhs, "rhs": rhs}


def _boundary_blocks(window: Window, r1: dict, r2: dict, sigmas):
    # Boundary morphism-space dimension per tempered block, read off the two
    # restrictions and the union of their supports: one discrete-series
    # block of 0 for equal rank, then per class (Window.class_of) of the
    # supports' M-types the products of its orbit's multiplicity-space
    # dimensions, summed.  A finite M-dual lists every class.
    datum, duals, class_of = window.datum, window.duals, window.class_of
    blocks: list[tuple[PrincipalClass | str, int]] = []
    if datum.equal_rank:
        blocks.append(("discrete-series", 0))
    if all(kind == CYCLIC2 for kind in datum.m.atoms):
        sigmas = sigmas | set(labels_in_box(datum.m, 0))
    for cls in sorted({class_of[s] for s in sigmas}, key=lambda c: c.representative):
        d = sum(r1.get(duals[s], 0) * r2.get(duals[s], 0) for s in cls.orbit)
        blocks.append((cls, d))
    return blocks


def _mult_space_dims(window: Window, v: dict, labels) -> dict:
    # {c: the multiplicity of the M-label (c,) in v's restriction} for the
    # given labels, counted off the range of each row of v
    # (Window.restrictions), not read off Window.restriction.
    dims = dict.fromkeys([c for c, in labels], 0)
    for tau, mult in v.items():
        for c in window.restrictions[window.row_index[tau]]:
            if c in dims:
                dims[c] += mult
    return dims


@_search
def admissibility_check(window: Window, v: dict) -> VerificationReport:
    """The computed support is finite and exhaustive under a brute sweep.

    Sweeps every M-label within a coordinate box extending well past the
    support and the K-types of nonzero multiplicity, and confirms that a
    multiplicity space survives exactly at the support.  The support is
    read off one ``Window.restriction`` of v; each label's dimension is read off v's rows' ranges
    (``Window.restrictions``) at its dual, with the box's labels from
    ``labels_in_box`` and their duals from ``Window.duals``.  The sum v
    is a ``{K-type: nonzero int}`` dict, and ``Window.restriction``
    refuses it first: ``WindowError`` at a K-type outside the window,
    ``TypeError`` at a multiplicity that is not an ``int``.
    """
    support = restricted_support(window.duals, window.restriction(v))
    nonzero = [tau for tau, mult in v.items() if mult]
    cap = 8 + max((abs(c) for label in (*support, *nonzero) for c in label), default=0)
    members = set(support)
    box = [(sigma, window.duals[sigma]) for sigma in labels_in_box(window.datum.m, cap)]
    dims = _mult_space_dims(window, v, [dual for _, dual in box])
    shown = [format_label(s) for s in support]
    strays = (sigma for sigma, dual in box if (dims[dual[0]] > 0) != (sigma in members))
    yield from ({"sigma": format_label(sigma), "support": shown} for sigma in strays)
    return {"support": shown, "sweep_cap": cap}


@_search
def blattner_consistency_check(window: Window) -> VerificationReport:
    """Root-data and lowest-K-type consistency for the discrete series.

    Recomputes two_rho_c from the positive compact roots, then checks
    that every series of the window has multiplicity one at its lowest
    K-type and zero at every window K-type of strictly smaller norm.
    Those rows are a prefix of the window's rows, counted off
    ``Window.norms`` at the lowest K-type's row.  The check reads them
    in row order from the series' ``Window.columns`` column, the one the
    matrix reads, and stops at the first nonzero.  It reads only the
    window's rows, with their coordinates and norms, and its series,
    never the class pass.
    Vacuous for unequal-rank groups.  Raises ``WindowTooLargeError``
    before evaluating any multiplicity when series x window K-types
    exceeds ``MAX_WINDOW_ENTRIES``, and before reading the rows when
    ``Window.refuse_oversize_boxes`` refuses a label box.
    """
    datum = window.datum
    if not datum.equal_rank:
        return {"note": "no discrete series"}
    dim = datum.k.lattice_dim
    recomputed = tuple(
        sum(alpha[i] for alpha in datum.ds.compact_pos_roots) for i in range(dim)
    )
    if recomputed != tuple(datum.two_rho_c):
        yield {
            "stored_two_rho_c": list(datum.two_rho_c),
            "sum_of_compact_roots": list(recomputed),
            "reason": "two_rho_c differs from the sum of positive compact roots",
        }
    window.refuse_oversize_boxes()
    rows, series = window.rows, window.series
    require_entries_within_limit(len(series), len(rows), window.bound)
    for rep in series:
        # The column holds this entry too; perfbench/test_perfbench.py asserts
        # that verify calls blattner_mult, so the lowest K-type walks once more.
        if blattner_mult(datum, rep, rep.min_ktype) != 1:
            yield {
                "representative": rep.describe(),
                "reason": "lowest K-type multiplicity differs from 1",
            }
        entry = window.columns[rep][1]
        below = bisect_left(window.norms, window.norms[window.row_index[rep.min_ktype]])
        for i in range(below):
            if entry(i) != 0:
                yield {
                    "representative": rep.describe(),
                    "ktype": format_label(rows[i]),
                    "reason": "nonzero multiplicity below the lowest K-type",
                }
    return {"series": len(series)}


def random_ktype_sums(window: Window, count: int, norm_cap, seed: int) -> list[dict]:
    """Deterministic pseudo-random formal sums of the rows of norm <= norm_cap.

    The pool is ``Window.rows_within(norm_cap)``; an empty pool yields an
    empty list.  Each draw is a dict from distinct rows to multiplicities
    1 to 3.
    """
    pool = window.rows_within(norm_cap)
    if not pool:
        return []
    rng = random.Random(seed)
    sums = []
    for _ in range(count):
        size = rng.randint(1, min(3, len(pool)))
        labels = rng.sample(pool, size)
        sums.append({tau: rng.randint(1, 3) for tau in labels})
    return sums


def verify(window: Window, seed: int) -> list[VerificationReport]:
    """The reports ``tempiric verify`` prints, up to the first failure.

    The checks run in this order and stop at the first failing report:
    ``blattner_consistency_check``, ``vogan_bijection_check``,
    ``triangularity_check``, then ``dimension_identity_check`` on 200
    consecutive pairs of ``random_ktype_sums`` drawn with seed, and
    ``admissibility_check`` on 100 sums drawn with seed + 1, both from the
    rows of norm at most min(bound, 60); each sweep reports its first
    failure, or a pass.  An ``InternalInconsistencyError`` fails the check
    that raised it (``_search``).  ``blattner_consistency`` reads only the
    window's rows and series, so the class pass and the matrix first run
    in ``vogan_bijection``, which their errors fail.  Each check is looked
    up here by name when it runs.
    """
    cap = min(window.bound, Fraction(60))

    def identity():
        sums = iter(random_ktype_sums(window, 400, cap, seed))
        reports = (dimension_identity_check(window, v1, v2) for v1, v2 in zip(sums, sums))
        return _sweep("dimension_identity", {"pairs": 200}, reports)

    def admissibility():
        sums = random_ktype_sums(window, 100, cap, seed + 1)
        reports = (admissibility_check(window, v) for v in sums)
        return _sweep("admissibility", {"samples": 100}, reports)

    checks = (
        lambda: blattner_consistency_check(window),
        lambda: vogan_bijection_check(window),
        lambda: triangularity_check(window),
        identity,
        admissibility,
    )
    reports = []
    for check in checks:
        reports.append(check())
        if not reports[-1].passed:
            break
    return reports


def _sweep(name: str, data: dict, reports) -> VerificationReport:
    # The first failing report of a sweep, or its pass.
    failure = next((report for report in reports if not report.passed), None)
    return failure or VerificationReport(name, True, data=data)
