"""Verification layer for the multiplicity matrix.

Certifies, on one finite ``Window``, the minimal-K-type bijection and the
unit-diagonal lower-triangularity of the induced map on representation
rings, inverts exact windows over the integers, and checks the boundary
dimension identities behind the rank-one Fourier decomposition.

On a window, the paper's K-theoretic form of Vogan's theorem is what
``verify`` and ``ck-matrix`` report from these routines: the
minimal-K-type bijection, unit lower-triangularity and the exact integer
inverse.  Nothing here computes a K-group.

Every check reads a ``Window``: the matrix checks its ``matrix`` (built
by ``tempered.mult_matrix``, re-exported here with ``MultMatrix``,
``EXACT``, ``AGGREGATE_ONLY`` and ``WindowError``), and the M-side
checks its restrictions, duals and orbits, with each restriction's
M-types read by ``branching.restricted_support``.  ``verify(window,
seed)`` is the whole ``tempiric verify`` policy: the check order, the
stop at the first failure, the check an inconsistency fails and the
seeded draws of its two randomized sweeps, which are loops over the
public ``dimension_identity_check`` and ``admissibility_check``.

All arithmetic here is exact; there is no floating point and no
tolerance anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import repeat

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
    FormalSum,
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


def vogan_bijection_check(window: Window) -> VerificationReport:
    """Minimal K-types biject window representatives with window K-types.

    Passes when the assignment representative -> minimal K-type is
    injective, covers the whole K-type window, and each minimum occurs
    with multiplicity exactly one in ``Window.matrix``.
    """
    name = "vogan_bijection"
    matrix, row_index = window.matrix, window.row_index
    seen: dict[tuple, TempiricRep] = {}
    for rep in matrix.cols:
        if rep.min_ktype in seen:
            return VerificationReport(
                name,
                False,
                counterexample={
                    "ktype": format_label(rep.min_ktype),
                    "representatives": [
                        seen[rep.min_ktype].describe(),
                        rep.describe(),
                    ],
                    "reason": "two representatives share a minimal K-type",
                },
            )
        seen[rep.min_ktype] = rep
    missing = [tau for tau in matrix.rows if tau not in seen]
    if missing:
        return VerificationReport(
            name,
            False,
            counterexample={
                "ktype": format_label(missing[0]),
                "reason": "K-type is not minimal in any window representative",
            },
        )
    extra = [rep for rep in matrix.cols if rep.min_ktype not in row_index]
    if extra:
        return VerificationReport(
            name,
            False,
            counterexample={
                "representative": extra[0].describe(),
                "reason": "minimal K-type escapes the window",
            },
        )
    for j, rep in enumerate(matrix.cols):
        mult = matrix.entry(row_index[rep.min_ktype], j)
        if mult != 1:
            return VerificationReport(
                name,
                False,
                counterexample={
                    "representative": rep.describe(),
                    "multiplicity": mult,
                    "reason": "minimal K-type multiplicity differs from 1",
                },
            )
    return VerificationReport(
        name, True, data={"ktypes": len(matrix.rows), "representatives": len(matrix.cols)}
    )


def triangularity_check(window: Window) -> VerificationReport:
    """Unit entries at minima and vanishing strictly below them in norm.

    Reads every entry of ``Window.matrix`` it asserts, zeros included:
    each column's pivot and the rows below its minimum in norm, a prefix
    of the rows (``Window.rows_below``).  Aggregate entries of unresolved
    split columns are held to the same vanishing requirement, which is
    stronger than resolving them would demand.
    """
    name = "triangularity"
    matrix, row_index = window.matrix, window.row_index
    for j, rep in enumerate(matrix.cols):
        pivot = row_index.get(rep.min_ktype)
        if pivot is None:
            return VerificationReport(
                name,
                False,
                counterexample={
                    "representative": rep.describe(),
                    "reason": "minimal K-type not in the window",
                },
            )
        if matrix.entry(pivot, j) != 1:
            return VerificationReport(
                name,
                False,
                counterexample={
                    "representative": rep.describe(),
                    "entry": matrix.entry(pivot, j),
                    "reason": "diagonal entry differs from 1",
                },
            )
        for i in range(window.rows_below(rep.min_ktype)):
            if matrix.entry(i, j) != 0:
                return VerificationReport(
                    name,
                    False,
                    counterexample={
                        "representative": rep.describe(),
                        "ktype": format_label(matrix.rows[i]),
                        "entry": matrix.entry(i, j),
                        "reason": "nonzero entry below the minimal norm",
                    },
                )
    return VerificationReport(name, True, data={"columns": len(matrix.cols)})


def composite_map(window: Window, tau) -> FormalSum:
    """Image of a K-type in the free group on window representatives.

    The coefficients are the matrix entries of the K-type's row, and only
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
    return FormalSum({rep: window.columns[rep][1](i) for rep in window.reps})


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
    of [A | I] (a dict per row, column -> nonzero value).  The pivot of
    column col is the first row at or after col that holds it, and only
    the rows that hold the pivot column are eliminated: ``holders[k]`` is
    the set of rows with a nonzero in column k < n, updated as fill-in
    appears and disappears and as rows swap.  Rows ordered by (norm,
    label) make A block lower-triangular with blocks of equal norm, so
    fill-in stays at the sparsity of the inverse; nothing relies on that
    order.  Entries stay ``int`` until a non-unit pivot divides them into
    ``Fraction``.  A missing pivot or a non-integral inverse entry would
    contradict the certified triangularity and raises as an internal
    error.  Both products A.A^-1 and A^-1.A are then computed exactly
    over their nonzeros, and every row of each is compared with the
    identity row.  Returns the inverse as a dense list of integer rows.
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
    forward: list[dict] = [{} for _ in range(n)]
    holders: list[set] = [set() for _ in range(n)]
    for (i, j), v in matrix.entries.items():
        if v:
            forward[i][j] = v
            holders[j].add(i)
    # Columns n.. of each augmented row hold the identity block.
    aug = [{**row, n + i: 1} for i, row in enumerate(forward)]
    for col in range(n):
        pivot = min((r for r in holders[col] if r >= col), default=None)
        if pivot is None:
            raise InternalInconsistencyError(
                "window matrix is singular despite certified triangularity"
            )
        if pivot != col:
            for k in aug[col].keys() ^ aug[pivot].keys():
                if k < n:
                    holders[k] ^= {col, pivot}
            aug[col], aug[pivot] = aug[pivot], aug[col]
        pivot_row = aug[col]
        scale = pivot_row[col]
        if scale != 1:
            inv_scale = 1 / Fraction(scale)
            pivot_row = aug[col] = {k: v * inv_scale for k, v in pivot_row.items()}
        # The pivot entry is now 1, so each row it clears loses column col.
        rest = [(k, v) for k, v in pivot_row.items() if k != col]
        for r in holders[col] - {col}:
            row = aug[r]
            factor = row.pop(col)
            for k, v in rest:
                value = row.get(k, 0) - factor * v
                if value:
                    if k < n and k not in row:
                        holders[k].add(r)
                    row[k] = value
                else:
                    del row[k]
                    if k < n:
                        holders[k].discard(r)
        holders[col] = {col}
    inverse: list[dict] = []
    for row in aug:
        int_row = {}
        for k, v in row.items():
            if k < n:
                continue
            if v.denominator != 1:
                raise InternalInconsistencyError(
                    "window inverse is not integral despite unit diagonal"
                )
            int_row[k - n] = int(v)
        inverse.append(int_row)
    if not (
        _sparse_product_is_identity(forward, inverse)
        and _sparse_product_is_identity(inverse, forward)
    ):
        raise InternalInconsistencyError("inverse verification failed")
    return [list(map(row.get, range(n), repeat(0))) for row in inverse]


def dimension_identity_check(window: Window, v1: FormalSum, v2: FormalSum) -> VerificationReport:
    """Boundary dimension count against the M-isotypic pairing.

    Left side: invariant Hom dimension of the two restrictions over M
    (``weights.isotypic_pairing``).  Right side: sum over the M-types of
    their supports (``branching.restricted_support``) of the product of
    multiplicity-space dimensions, each read off the restriction at the
    dual M-type.  The two are computed by independent routes from one
    ``Window.restriction`` of each sum and must agree exactly; the total
    of ``boundary_block_dims``, read off the same two restrictions and
    their supports, must then equal the left side too.  Raises
    ``WindowError`` at a K-type outside the window.
    """
    r1, r2 = window.restriction(v1), window.restriction(v2)
    duals = window.duals
    lhs = isotypic_pairing(r1, r2)
    sigmas = {*restricted_support(duals, r1), *restricted_support(duals, r2)}
    rhs = sum(r1.get(duals[s], 0) * r2.get(duals[s], 0) for s in sigmas)
    payload = {"lhs": lhs, "rhs": rhs}
    failure = payload if lhs != rhs else None
    total = sum(d for _, d in _boundary_blocks(window, r1, r2, sigmas))
    if failure is None and total != lhs:
        failure = {
            "lhs": lhs,
            "boundary_total": total,
            "reason": "boundary block total differs from the Hom dimension",
        }
    return VerificationReport(
        "dimension_identity",
        failure is None,
        counterexample=None if failure is None else {
            "v1": sorted(v1.items()),
            "v2": sorted(v2.items()),
            **failure,
        },
        data=payload,
    )


def boundary_block_dims(window: Window, v1: FormalSum, v2: FormalSum):
    """Boundary morphism-space dimension per tempered block.

    Discrete-series blocks have no boundary and contribute 0 (reported as
    one aggregated block).  A principal class contributes the product of
    its multiplicity-space dimensions, summed over the orbit: one term
    when the stabilizer has order two, two when the orbit has two
    members.  Blocks are listed for every orbit meeting the support of
    either argument; when the M-dual is finite all orbits are listed.
    Each argument is restricted once, by ``Window.restriction``.
    """
    r1, r2 = window.restriction(v1), window.restriction(v2)
    sigmas = {*restricted_support(window.duals, r1), *restricted_support(window.duals, r2)}
    return _boundary_blocks(window, r1, r2, sigmas)


def _boundary_blocks(window: Window, r1: dict, r2: dict, sigmas):
    # boundary_block_dims read off the two restrictions and the union of
    # their supports, with each M-type's orbit from Window.class_of.
    datum, duals, class_of = window.datum, window.duals, window.class_of
    blocks = []
    if datum.equal_rank:
        blocks.append(("discrete-series", 0))
    if all(kind == CYCLIC2 for kind in datum.m.atoms):
        sigmas = sigmas | set(labels_in_box(datum.m, 0))
    orbits: dict[tuple, PrincipalClass] = {}
    for sigma in sigmas:
        cls = class_of[sigma]
        orbits[cls.orbit] = cls
    for orbit in sorted(orbits, key=lambda o: o[-1]):
        d = sum(r1.get(duals[s], 0) * r2.get(duals[s], 0) for s in orbit)
        blocks.append((orbits[orbit], d))
    return blocks


def admissibility_check(window: Window, v: FormalSum) -> VerificationReport:
    """The computed support is finite and exhaustive under a brute sweep.

    Sweeps every M-label within a coordinate box extending well past the
    support and confirms no multiplicity space survives outside it.  The
    dimensions are read from one ``Window.restriction`` of v and the box's
    labels with their duals from ``Window.boxes``, so the sweep costs one
    lookup per label.  Raises ``WindowError`` at a K-type outside the
    window.
    """
    restricted = window.restriction(v)
    support = restricted_support(window.duals, restricted)
    cap = 8 + max((abs(c) for label in (*support, *v) for c in label), default=0)
    members = set(support)
    stray = [
        sigma for sigma, dual in window.boxes[cap]
        if (restricted.get(dual, 0) > 0) != (sigma in members)
    ]
    passed = not stray
    return VerificationReport(
        "admissibility",
        passed,
        counterexample=None if passed else {
            "sigma": format_label(stray[0]),
            "support": [format_label(s) for s in support],
        },
        data={"support": [format_label(s) for s in support], "sweep_cap": cap},
    )


def blattner_consistency_check(window: Window) -> VerificationReport:
    """Root-data and lowest-K-type consistency for the discrete series.

    Recomputes two_rho_c from the positive compact roots, then checks
    that every series of the window has multiplicity one at its lowest
    K-type and zero at every window K-type of strictly smaller norm.
    Those rows are a prefix of the window's rows.  The check reads them
    in row order from the series' ``Window.columns`` column, the one the
    matrix reads, and stops at the first nonzero.  It reads only the
    window's rows, with their coordinates and norms, and its series,
    never the class pass.
    Vacuous for unequal-rank groups.  Raises ``WindowTooLargeError``
    before evaluating any multiplicity when series x window K-types
    exceeds ``MAX_WINDOW_ENTRIES``.
    """
    name = "blattner_consistency"
    datum = window.datum
    if not datum.equal_rank:
        return VerificationReport(name, True, data={"note": "no discrete series"})
    dim = datum.k.lattice_dim
    recomputed = tuple(
        sum(alpha[i] for alpha in datum.ds.compact_pos_roots) for i in range(dim)
    )
    if recomputed != tuple(datum.two_rho_c):
        return VerificationReport(
            name,
            False,
            counterexample={
                "stored_two_rho_c": list(datum.two_rho_c),
                "sum_of_compact_roots": list(recomputed),
                "reason": "two_rho_c differs from the sum of positive compact roots",
            },
        )
    rows, series = window.rows, window.series
    require_entries_within_limit(len(series), len(rows), window.bound)
    for rep in series:
        # The column holds this entry too; perfbench/test_perfbench.py asserts
        # that verify calls blattner_mult, so the lowest K-type walks once more.
        if blattner_mult(datum, rep, rep.min_ktype) != 1:
            return VerificationReport(
                name,
                False,
                counterexample={
                    "representative": rep.describe(),
                    "reason": "lowest K-type multiplicity differs from 1",
                },
            )
        entry = window.columns[rep][1]
        for i in range(window.rows_below(rep.min_ktype)):
            if entry(i) != 0:
                return VerificationReport(
                    name,
                    False,
                    counterexample={
                        "representative": rep.describe(),
                        "ktype": format_label(rows[i]),
                        "reason": "nonzero multiplicity below the lowest K-type",
                    },
                )
    return VerificationReport(name, True, data={"series": len(series)})


def random_ktype_sums(window: Window, count: int, norm_cap, seed: int) -> list[FormalSum]:
    """Deterministic pseudo-random formal sums of the rows of norm <= norm_cap.

    The pool is ``Window.rows_within(norm_cap)``; an empty pool yields an
    empty list.  Each draw maps distinct rows to multiplicities 1 to 3,
    so its sum is built without revalidation.
    """
    pool = window.rows_within(norm_cap)
    if not pool:
        return []
    rng = random.Random(seed)
    sums = []
    for _ in range(count):
        size = rng.randint(1, min(3, len(pool)))
        labels = rng.sample(pool, size)
        sums.append(FormalSum._unchecked({tau: rng.randint(1, 3) for tau in labels}))
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
    that raised it, with its text as the counterexample.
    ``blattner_consistency`` reads only the window's rows and series, so
    the class pass and the matrix first run in ``vogan_bijection``, which
    their errors fail.  Each check is looked up here by name when it runs.
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
        ("blattner_consistency", lambda: blattner_consistency_check(window)),
        ("vogan_bijection", lambda: vogan_bijection_check(window)),
        ("triangularity", lambda: triangularity_check(window)),
        ("dimension_identity", identity),
        ("admissibility", admissibility),
    )
    reports = []
    for name, check in checks:
        try:
            report = check()
        except InternalInconsistencyError as exc:
            report = VerificationReport(name, False, counterexample={"error": str(exc)})
        reports.append(report)
        if not report.passed:
            break
    return reports


def _sweep(name: str, data: dict, reports) -> VerificationReport:
    # The first failing report of a sweep, or its pass.
    failure = next((report for report in reports if not report.passed), None)
    return failure or VerificationReport(name, True, data=data)
