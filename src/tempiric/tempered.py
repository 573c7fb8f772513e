"""Tempered-dual bookkeeping at continuous parameter zero.

Principal-series blocks are orbits of M-types under the restricted Weyl
action; their constituents are identified with minimal K-types, and the
constituent count is defined as the number of minimal K-types (one or
two in rank one).  Equal-rank groups also carry discrete series,
enumerated by regular lattice parameters up to the compact Weyl group,
with K-type multiplicities from the alternating partition-count formula.

Everything derived from one (datum, bound) is computed once, on first
read, in the ``Window`` that every consumer reads: the rows with their
doubled, rho_c-shifted coordinates and scaled norms, their restrictions
and supports, the class of every M-type they meet, the classes, the
series, each representative's matrix column and the multiplicity
matrix.  One column kernel, ``blattner_kernel``, evaluates every
Blattner multiplicity from a row's coordinates; ``blattner_column`` and
``blattner_mult`` are its lazy wrappers over K-type labels.

Every matrix entry comes from one per-column code path, ``_column``,
built once per representative as ``Window.columns`` and read by
``mult_matrix`` over all rows, by ``cktheory.composite_map`` at one and
by ``cktheory.blattner_consistency_check`` below each lowest K-type.
Its discrete-series columns run ``blattner_kernel`` on the window's row
coordinates.

All enumeration is deterministic and exhaustive below explicit bounds.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from operator import mul

from .branching import mult_space_dim, restrict_sum, restricted_support, witness_ktype
from .catalog import GroupDatum, weyl_image
from .weights import (
    TORUS1,
    FormalSum,
    dual_rule,
    enumerate_ktypes,
    is_label_entry,
    ktype_axes,
    label_lattice_coords,
    lattice_coords_to_label,
    require_box_within_limit,
    require_entries_within_limit,
    scaled_bound,
    scaled_norm,
    scaled_pairing,
    validate_label,
    vogan_norm,
    _coordinate_caps,
)

EXACT = "exact"
AGGREGATE_ONLY = "aggregate-only"


class InternalInconsistencyError(RuntimeError):
    """A structural expectation failed; signals corrupt catalog data."""


class WindowError(ValueError):
    """The requested computation depends on data outside the window."""


@dataclass(frozen=True)
class PrincipalClass:
    """An orbit {sigma, w.sigma} of M-types, with its stabilizer order.

    The stabilizer of the class in the rank-one restricted Weyl group
    (which is Z/2) has order 2 exactly when the orbit is a singleton.
    """

    orbit: tuple[tuple[int, ...], ...]
    w_sigma_order: int

    @property
    def representative(self) -> tuple[int, ...]:
        return self.orbit[-1]

    def describe(self) -> str:
        members = "|".join(format_label(s) for s in self.orbit)
        return f"{{{members}}}"


@dataclass(frozen=True)
class TempiricRep:
    """A tempered representative with real infinitesimal character.

    Either a discrete series (``kind == "ds"``, classified by its lattice
    parameter, with ``min_ktype`` the lowest K-type) or a constituent of a
    parameter-zero principal series (``kind == "ps"``, pinned down by its
    minimal K-type; ``split`` marks the two-constituent case).
    """

    kind: str
    min_ktype: tuple[int, ...]
    hc_param: tuple[int, ...] | None = None
    ps_class: PrincipalClass | None = None
    split: bool = False

    def describe(self) -> str:
        if self.kind == "ds":
            return (
                f"DS(lambda={format_label(self.hc_param)},"
                f"Lambda={format_label(self.min_ktype)})"
            )
        tag = ",split" if self.split else ""
        return (
            f"PS(sigma={self.ps_class.describe()},"
            f"min={format_label(self.min_ktype)}{tag})"
        )

    def sort_key(self):
        if self.kind == "ds":
            return (self.min_ktype, 0, self.hc_param)
        return (self.min_ktype, 1, self.ps_class.orbit)


def format_label(label) -> str:
    return "(" + ",".join(str(v) for v in label) + ")"


def make_principal_class(datum: GroupDatum, sigma) -> PrincipalClass:
    return principal_class_of(datum, validate_label(datum.m, sigma))


def principal_class_of(datum: GroupDatum, sigma) -> PrincipalClass:
    """``make_principal_class`` of a label already known to be valid."""
    orbit = tuple(sorted({sigma, weyl_image(datum, sigma)}))
    return PrincipalClass(orbit=orbit, w_sigma_order=2 if len(orbit) == 1 else 1)


def induced_ktype_mult(datum: GroupDatum, cls: PrincipalClass, tau) -> int:
    """Multiplicity of tau in the parameter-zero principal series of the class.

    By Frobenius reciprocity this is the multiplicity-space dimension
    against the fixed orbit representative, independent of the continuous
    parameter.
    """
    return mult_space_dim(datum, cls.representative, FormalSum.single(tau))


def _certified_minima(datum: GroupDatum, cls: PrincipalClass):
    # The witness K-type occurs in the class, so the class's minima lie
    # at or below its norm, in the one window complete up to that norm.
    witness = witness_ktype(datum, cls.representative)
    minima = Window(datum, vogan_norm(datum, witness)).classes.get(cls)
    if not minima:
        raise InternalInconsistencyError(
            f"class {cls.describe()} does not occur in the window of its "
            f"witness K-type {format_label(witness)}"
        )
    return minima


def minimal_ktypes(datum: GroupDatum, cls: PrincipalClass) -> tuple[tuple[int, ...], ...]:
    """The K-types of minimal Vogan norm occurring in the class.

    Read off one window, at the norm of the class's witness K-type
    (``branching.witness_ktype``), which occurs in the class.  The window
    is complete below its bound, so it holds every K-type of smaller
    norm and the minimum is certified rather than heuristic.
    """
    return tuple(tau for tau, _ in _certified_minima(datum, cls))


def _constituents(cls: PrincipalClass, minima) -> list[TempiricRep]:
    # One constituent per minimal K-type, after the rank-one checks.
    if len(minima) > 2:
        raise InternalInconsistencyError(
            f"class {cls.describe()} has {len(minima)} minimal K-types; "
            "rank one allows at most two"
        )
    for tau, mult in minima:
        if mult != 1:
            raise InternalInconsistencyError(
                f"minimal K-type {format_label(tau)} of class {cls.describe()} "
                f"has multiplicity {mult}, expected 1"
            )
    split = len(minima) == 2
    return [
        TempiricRep(kind="ps", min_ktype=tau, ps_class=cls, split=split)
        for tau, _ in minima
    ]


def constituents(datum: GroupDatum, cls: PrincipalClass) -> list[TempiricRep]:
    """One constituent per minimal K-type of the class (one or two)."""
    return _constituents(cls, _certified_minima(datum, cls))


def partner_minimum(rep: TempiricRep, reps) -> tuple[int, ...]:
    """Minimal K-type of the other constituent of a split class among reps."""
    for other in reps:
        if (
            other.kind == "ps"
            and other.ps_class == rep.ps_class
            and other.min_ktype != rep.min_ktype
        ):
            return other.min_ktype
    raise InternalInconsistencyError(
        f"split constituent {rep.describe()} has no partner in the window"
    )


def _require_ds(datum: GroupDatum):
    if not datum.equal_rank or datum.ds is None:
        raise ValueError(f"group {datum.name} has no discrete series (unequal rank)")
    return datum.ds


def is_regular(datum: GroupDatum, lam) -> bool:
    """No compact or noncompact root vanishes on the parameter."""
    ds = _require_ds(datum)
    roots = list(ds.compact_pos_roots) + list(ds.noncompact_roots)
    return all(scaled_pairing(datum, alpha, lam) != 0 for alpha in roots)


def positive_noncompact_roots(datum: GroupDatum, lam) -> tuple[tuple[int, ...], ...]:
    """The noncompact roots positive on the parameter's chamber."""
    ds = _require_ds(datum)
    pos = tuple(
        sorted(
            beta
            for beta in ds.noncompact_roots
            if scaled_pairing(datum, beta, lam) > 0
        )
    )
    return _require_half(ds, lam, pos)


def _require_half(ds, lam, pos):
    # A chamber makes exactly half the noncompact roots positive; anything
    # else (a wall, or a root listed twice) is inconsistent catalog data.
    if 2 * len(pos) != len(ds.noncompact_roots):
        raise InternalInconsistencyError(
            f"parameter {lam} lies on a noncompact root wall"
        )
    return pos


def blattner_parameter(datum: GroupDatum, lam) -> tuple[int, ...]:
    """Lowest K-type label of the discrete series with the given parameter.

    Computed per chamber as lambda + rho_n - rho_c; the result must be a
    dominant label, which is checked.
    """
    return _lowest_ktype(datum, lam, positive_noncompact_roots(datum, lam))


def _lowest_ktype(datum: GroupDatum, lam, pos) -> tuple[int, ...]:
    # blattner_parameter, given the chamber's positive noncompact roots
    dim = datum.k.lattice_dim
    # doubled coordinates keep everything integral
    two_rho_n = tuple(sum(beta[i] for beta in pos) for i in range(dim))
    doubled = tuple(
        2 * lam[i] + two_rho_n[i] - datum.two_rho_c[i] for i in range(dim)
    )
    if any(c % 2 for c in doubled):
        raise InternalInconsistencyError(
            f"lowest K-type of parameter {lam} is not integral"
        )
    try:
        return lattice_coords_to_label(datum.k, tuple(c // 2 for c in doubled))
    except ValueError as exc:
        raise InternalInconsistencyError(
            f"lowest K-type of parameter {lam} is not dominant: {exc}"
        ) from None


def _signed_image(perm, signs, vec) -> tuple[int, ...]:
    # w . vec for the signed permutation matrix w = (perm, signs)
    return tuple(s * vec[c] for c, s in zip(perm, signs))


def parameter_box(datum: GroupDatum, bound: Fraction) -> list[range]:
    """The parameter box ``ds_enumerate`` scans at a nonnegative bound.

    Wide enough that any parameter mapping into the window lies inside:
    |Lambda_i| <= cap_i + |2rho_c_i|, and the chamber shift is bounded by
    half the total coordinate mass of the noncompact roots.  Raises
    ``WindowTooLargeError`` when it exceeds ``MAX_BOX_LABELS``.
    """
    dim = datum.k.lattice_dim
    caps = _coordinate_caps(datum, bound)
    half_shift = [
        (sum(abs(beta[i]) for beta in datum.ds.noncompact_roots) + 1) // 2
        for i in range(dim)
    ]
    radii = [
        caps[i] + 2 * abs(datum.two_rho_c[i]) + half_shift[i] for i in range(dim)
    ]
    box = [range(-r, r + 1) for r in radii]
    require_box_within_limit(box, bound)
    return box


def ds_enumerate(datum: GroupDatum, bound) -> list[TempiricRep]:
    """Discrete series with lowest K-type norm <= bound, one per Weyl orbit.

    Deterministic order: by (norm of lowest K-type, lowest K-type,
    parameter).  Raises ``WindowTooLargeError`` before scanning when the
    ``parameter_box`` exceeds ``MAX_BOX_LABELS``.
    """
    ds = _require_ds(datum)
    bound = Fraction(bound)
    if bound < 0:
        return []
    dim = datum.k.lattice_dim
    box = parameter_box(datum, bound)
    limit = scaled_bound(datum, bound)
    # A root's wall functional w with w . lambda = D <alpha, lambda>, so
    # regularity (``is_regular``) is one dot product per root, and the
    # signs of the noncompact ones give the chamber's positive roots.
    walls = [
        tuple(sum(a * row[j] for a, row in zip(alpha, datum.int_gram)) for j in range(dim))
        for alpha in (*ds.compact_pos_roots, *ds.noncompact_roots)
    ]
    compact = len(ds.compact_pos_roots)
    moves = [(perm, signs) for perm, signs, _ in ds.signed_weyl_k]
    found: dict[tuple[int, ...], TempiricRep] = {}
    order = []
    for lam in itertools.product(*box):
        # One parameter per compact Weyl orbit: the largest image.  The
        # identity is among the images, so that is lam >= every image.
        if not all(lam >= _signed_image(perm, signs, lam) for perm, signs in moves):
            continue
        pairings = [sum(map(mul, wall, lam)) for wall in walls]
        if not all(pairings):
            continue
        pos = [beta for beta, p in zip(ds.noncompact_roots, pairings[compact:]) if p > 0]
        lowest = _lowest_ktype(datum, lam, _require_half(ds, lam, pos))
        norm = scaled_norm(datum, lowest)
        if norm > limit:
            continue
        rep = TempiricRep(kind="ds", min_ktype=lowest, hc_param=lam)
        if lowest in found:
            raise InternalInconsistencyError(
                f"parameters {found[lowest].hc_param} and {lam} share lowest K-type "
                f"{format_label(lowest)}"
            )
        found[lowest] = rep
        order.append((norm, lowest, lam))
    order.sort()
    return [found[lowest] for _, lowest, _ in order]


def _count_expressions(roots, target, pairings, budget, memo) -> int:
    """Number of ways to write target as a nonnegative combination of roots.

    ``pairings`` are strictly positive values of a linear functional on the
    roots and ``budget`` its value on the target; they only bound the
    search and do not affect the count.  ``memo`` holds the counts for
    these roots, which depend only on (roots, target).
    """

    def rec(idx: int, vec, value: int) -> int:
        if value < 0:
            return 0
        if idx == len(roots):
            return 1 if all(c == 0 for c in vec) else 0
        key = (idx, vec)
        cached = memo.get(key)
        if cached is not None:
            return cached
        beta = roots[idx]
        step = pairings[idx]
        total = 0
        k = 0
        current = vec
        remaining = value
        while remaining >= 0:
            total += rec(idx + 1, current, remaining)
            k += 1
            current = tuple(c - b for c, b in zip(current, beta))
            remaining = value - k * step
        memo[key] = total
        return total

    return rec(0, target, budget)


def _chamber_data(datum: GroupDatum, lam):
    # Per-parameter data reused across every K-type of a column: doubled
    # positive noncompact roots, the bounding functional (D G).lambda
    # evaluated on them, the shifted base point, and the functional itself.
    # The functional is integral and positive on the chamber's roots.
    pos = positive_noncompact_roots(datum, lam)
    dim = datum.k.lattice_dim
    doubled_roots = tuple(tuple(2 * c for c in beta) for beta in pos)
    functional = tuple(
        sum(g * l for g, l in zip(row, lam)) for row in datum.int_gram
    )
    pairings = tuple(
        sum(b * f for b, f in zip(beta, functional)) for beta in doubled_roots
    )
    two_rho_n = tuple(sum(beta[i] for beta in pos) for i in range(dim))
    base = tuple(2 * lam[i] + two_rho_n[i] for i in range(dim))
    return doubled_roots, pairings, base, functional


def doubled_shifted(datum: GroupDatum, mu) -> tuple[int, ...]:
    """2 mu + 2 rho_c: lattice coordinates mu, doubled and rho_c-shifted."""
    return tuple(2 * m + r for m, r in zip(mu, datum.two_rho_c))


def blattner_kernel(datum: GroupDatum, ds_rep: TempiricRep, memo=None):
    """The Blattner column kernel of one discrete series.

    Returns ``entry(shifted, tau)``: the multiplicity of the K-type
    ``tau``, whose ``doubled_shifted`` coordinates are ``shifted``, in the
    series.  The chamber data and each compact Weyl element's signed
    permutation are read once, here; each entry is then the alternating
    sum over the compact Weyl group of partition counts over the
    chamber's positive noncompact roots, in doubled coordinates so that
    all arithmetic stays integral.  A negative total signals inconsistent
    catalog data and raises at that K-type.  ``memo`` is a ``Window.memo``,
    shared by the window's columns; by default a new one.
    """
    if ds_rep.kind != "ds":
        raise ValueError("Blattner's formula needs a discrete-series representative")
    ds = _require_ds(datum)
    doubled_roots, pairings, base, functional = _chamber_data(datum, ds_rep.hc_param)
    counts = {} if memo is None else memo.setdefault(doubled_roots, {})
    # The budget functional . (w shifted - base) is read as
    # (w^T functional) . shifted - functional . base.  A negative budget
    # admits no expression (every root pairs positively with the
    # functional), so that term is 0 without building its target.
    offset = sum(f * b for f, b in zip(functional, base))
    moves = []
    for perm, signs, det in ds.signed_weyl_k:
        pulled = [0] * len(perm)
        for c, sign, f in zip(perm, signs, functional):
            pulled[c] = sign * f
        moves.append((perm, signs, det, pulled))

    def entry(shifted, tau) -> int:
        total = 0
        for perm, signs, det, pulled in moves:
            budget = sum(map(mul, pulled, shifted)) - offset
            if budget < 0:
                continue
            target = tuple(
                s * shifted[c] - b for c, s, b in zip(perm, signs, base)
            )
            total += det * _count_expressions(
                doubled_roots, target, pairings, budget, counts
            )
        if total < 0:
            raise InternalInconsistencyError(
                f"negative multiplicity {total} for {format_label(tau)} in "
                f"{ds_rep.describe()}"
            )
        return total

    return entry


def blattner_column(datum: GroupDatum, ds_rep: TempiricRep, ktypes, memo=None):
    """K-type multiplicities in a discrete series, one per K-type, in order.

    A generator over ``blattner_kernel``: each K-type's multiplicity is
    yielded as it is reached, so a raise happens at that K-type.
    """
    entry = blattner_kernel(datum, ds_rep, memo)
    for tau in ktypes:
        yield entry(doubled_shifted(datum, label_lattice_coords(datum.k, tau)), tau)


def blattner_mult(datum: GroupDatum, ds_rep: TempiricRep, tau, memo=None) -> int:
    """K-type multiplicity in a discrete series: ``blattner_column`` at tau."""
    return next(blattner_column(datum, ds_rep, (tau,), memo))


@dataclass
class MultMatrix:
    """Sparse integer matrix over (K-type window) x (tempered window).

    Rows are ordered by (norm, label); columns align with rows through
    the minimal-K-type bijection.  Aggregate-only columns belong to
    unresolved split pairs: away from the two minimal K-types they carry
    the full induced multiplicity shared by the pair, and at the minima
    they are exact (1 at the column's own minimum, 0 at the partner's).
    """

    rows: tuple
    cols: tuple
    entries: dict
    resolution: tuple

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def dense(self):
        return [
            [self.entry(i, j) for j in range(len(self.cols))]
            for i in range(len(self.rows))
        ]


def _column(window: Window, rep: TempiricRep):
    """One matrix column as ``(resolution flag, entry)``, ``entry(i)`` at row i.

    Read through ``Window.columns``, which builds it once per
    representative.  Discrete-series columns run ``blattner_kernel``
    with the window's memo on the row's ``Window.shifted`` coordinates.
    Principal-series columns read the window's restriction of the row at
    the dual of the class representative (which is
    ``induced_ktype_mult``), then apply the split rules.
    """
    datum, rows = window.datum, window.rows
    if rep.kind == "ds":
        kernel = blattner_kernel(datum, rep, window.memo)
        shifted = window.shifted
        return EXACT, lambda i: kernel(shifted[i], rows[i])
    sdual = window.duals[rep.ps_class.representative]
    restrictions = window.restrictions
    if rep.split and datum.k.atoms == (TORUS1,):
        # The two split constituents partition the odd character
        # ladder by sign exactly when K is a single circle.
        sign = 1 if rep.min_ktype[0] > 0 else -1
        return EXACT, lambda i: restrictions[i][sdual] if rows[i][0] * sign > 0 else 0
    if rep.split:
        # Unresolved: 0 only at the partner's minimum; the class pass
        # certified the entry at the column's own minimum to be 1.
        partner = partner_minimum(rep, window.reps)
        return AGGREGATE_ONLY, lambda i: 0 if rows[i] == partner else restrictions[i][sdual]
    return EXACT, lambda i: restrictions[i][sdual]


def mult_matrix(window: Window) -> MultMatrix:
    """Multiplicity matrix of the window; ``Window.matrix`` is it, built once.

    Read one ``Window.columns`` column at a time, and every (row,
    column) entry is evaluated, in row order.  Raises
    ``WindowTooLargeError`` before evaluating any entry when rows x
    columns exceeds ``MAX_WINDOW_ENTRIES``.
    """
    rows, reps = window.rows, window.reps
    require_entries_within_limit(len(rows), len(reps), window.bound)
    entries: dict = {}
    resolution = []
    for j, rep in enumerate(reps):
        flag, entry = window.columns[rep]
        resolution.append(flag)
        for i in range(len(rows)):
            v = entry(i)
            if v:
                entries[(i, j)] = v
    return MultMatrix(
        rows=tuple(rows),
        cols=tuple(reps),
        entries=entries,
        resolution=tuple(resolution),
    )


class _Memo(dict):
    """``fn`` as a mapping: ``memo[x]`` is ``fn(x)``, computed once per x."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


@dataclass(frozen=True, eq=False)
class Window:
    """Everything derived from one ``(datum, bound)``, each part computed once.

    Each part is computed on first read and shared by every reader.
    ``memo`` holds the partition counts of this window's Blattner columns.
    """

    datum: GroupDatum
    bound: Fraction
    memo: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def rows(self) -> list[tuple[int, ...]]:
        """The K-types of norm <= bound, sorted by (norm, label)."""
        return enumerate_ktypes(self.datum, self.bound)

    @cached_property
    def shifted(self) -> list[tuple[int, ...]]:
        """Each row's ``doubled_shifted`` coordinates, read by the Blattner kernel."""
        datum = self.datum
        return [
            doubled_shifted(datum, label_lattice_coords(datum.k, tau))
            for tau in self.rows
        ]

    @cached_property
    def norms(self) -> list[int]:
        """Each row's ``scaled_norm``; nondecreasing, like the rows."""
        return [scaled_norm(self.datum, tau) for tau in self.rows]

    @cached_property
    def row_index(self) -> dict[tuple[int, ...], int]:
        """``{K-type: its position in rows}``."""
        return {tau: i for i, tau in enumerate(self.rows)}

    def rows_below(self, tau) -> int:
        """How many rows have norm strictly below that of the K-type tau."""
        return bisect_left(self.norms, scaled_norm(self.datum, tau))

    def rows_within(self, bound) -> list[tuple[int, ...]]:
        """The rows of norm <= bound: ``enumerate_ktypes(datum, bound)``.

        A prefix of ``rows``, in the same order; the bound must not exceed
        the window's.
        """
        if Fraction(bound) > self.bound:
            raise ValueError(f"bound {bound} exceeds the window bound {self.bound}")
        return self.rows[: bisect_right(self.norms, scaled_bound(self.datum, bound))]

    @cached_property
    def restrictions(self) -> list[FormalSum]:
        """One restriction to M per row."""
        return [restrict_sum(self.datum, FormalSum.single(tau)) for tau in self.rows]

    def restriction(self, v) -> dict:
        """``restrict_sum(datum, v)`` of a sum of rows, as ``{M-label: multiplicity}``.

        The multiplicity-weighted sum of its rows' ``restrictions``.
        Raises ``WindowError`` at a K-type that is not a row, an invalid
        label included: a key equal to a row must also pass
        ``is_label_entry`` at every entry, so ``(1.0,)`` and ``(True,)``
        are refused although they hash like the row ``(1,)``.
        """
        index, restrictions = self.row_index, self.restrictions
        restricted: dict = {}
        for tau, mult in v.items():
            i = index.get(tau)
            if i is None or not all(map(is_label_entry, tau)):
                raise WindowError(
                    f"K-type {format_label(tau)} is not in the window of bound {self.bound}"
                )
            for sigma, m in restrictions[i].items():
                restricted[sigma] = restricted.get(sigma, 0) + mult * m
        return restricted

    @cached_property
    def duals(self) -> _Memo:
        """``{M-label: its dual}`` (``dual_rule``), each computed once, on first read."""
        return _Memo(dual_rule(self.datum.m))

    @cached_property
    def supports(self) -> list[tuple[tuple[int, ...], ...]]:
        """Each row's ``restricted_support``: the M-types the row meets."""
        return [restricted_support(self.datum, r) for r in self.restrictions]

    @cached_property
    def class_of(self) -> dict[tuple[int, ...], PrincipalClass]:
        """``{M-type: principal class}`` for every M-type the rows meet.

        Each orbit is built once, from the first of its M-types met, and
        every member of the orbit maps to it.
        """
        class_of: dict[tuple, PrincipalClass] = {}
        for support in self.supports:
            for sigma in support:
                if sigma not in class_of:
                    cls = principal_class_of(self.datum, sigma)
                    class_of.update((s, cls) for s in cls.orbit)
        return class_of

    @cached_property
    def classes(self) -> dict[PrincipalClass, tuple]:
        """``{class: ((minimal K-type, multiplicity), ...)}`` per class met.

        One pass over the rows' supports.  A row meets the classes of
        the M-types in its support, and occurs in a class (with multiplicity
        ``induced_ktype_mult``) exactly when the representative is one of
        them; the minima are the rows at the first norm where it does,
        which on a complete window are global.  Representative order.
        """
        duals, class_of = self.duals, self.class_of
        first_norm: dict[tuple, int] = {}
        minima: dict[tuple, list] = {}
        rows = zip(self.rows, self.norms, self.restrictions, self.supports)
        for tau, norm, restricted, support in rows:
            for sigma in support:
                cls = class_of[sigma]
                if sigma != cls.representative:
                    continue
                if first_norm.setdefault(cls.orbit, norm) == norm:
                    minima.setdefault(cls.orbit, []).append((tau, restricted[duals[sigma]]))
        classes = {cls.orbit: cls for cls in class_of.values()}
        return {
            classes[orbit]: tuple(minima.get(orbit, ()))
            for orbit in sorted(classes, key=lambda o: o[-1])
        }

    @cached_property
    def series(self) -> list[TempiricRep]:
        """The discrete series of the window; none for unequal rank."""
        return ds_enumerate(self.datum, self.bound) if self.datum.equal_rank else []

    @cached_property
    def reps(self) -> list[TempiricRep]:
        """The representatives minimal in the window, aligned with its rows.

        For equal rank, an oversize label box is refused before the class
        pass runs: first the rows' ``ktype_axes`` (so the refusal names
        the box the rows would have been refused for), then the series'
        ``parameter_box``.
        """
        if self.datum.equal_rank and self.bound >= 0:
            ktype_axes(self.datum, self.bound)
            parameter_box(self.datum, self.bound)
        reps: list[TempiricRep] = []
        for cls, minima in self.classes.items():
            reps.extend(_constituents(cls, minima))
        reps.extend(self.series)
        norm_of = dict(zip(self.rows, self.norms))
        reps.sort(key=lambda r: (norm_of[r.min_ktype],) + r.sort_key())
        return reps

    @cached_property
    def columns(self) -> _Memo:
        """``{representative: its _column}``, each built once, on first read."""
        return _Memo(lambda rep: _column(self, rep))

    @cached_property
    def matrix(self) -> MultMatrix:
        """``mult_matrix`` of the window, which every check and consumer reads."""
        return mult_matrix(self)


def tempiric_window(datum: GroupDatum, bound) -> Window:
    """The ``Window`` of the datum at the given norm bound."""
    return Window(datum, Fraction(bound))
