"""Tempered-dual bookkeeping at continuous parameter zero.

Principal-series blocks are orbits of M-types under the restricted Weyl
action; their constituents are identified with minimal K-types, and the
constituent count is defined as the number of minimal K-types (one or
two in rank one).  Equal-rank groups also carry discrete series,
enumerated by regular lattice parameters up to the compact Weyl group,
with K-type multiplicities from the alternating partition-count formula.

A parameter's chamber is decided in one place, ``_chamber``: a root
alpha pairs with lambda as alpha . (int_gram . lambda), the chamber's
positive noncompact roots are those pairing positively, and exactly half
of the listed noncompact roots must be positive.  ``_base`` turns them
into 2 lambda + 2 rho_n, which ``ds_enumerate`` reads less 2 rho_c as the
doubled lowest K-type and ``blattner_scatter`` reads as the apex of the
series' cone.

Everything derived from one (datum, bound) is computed once, on first
read, in the ``Window`` that every consumer reads: the rows with their
doubled, rho_c-shifted coordinates and scaled norms, their restrictions
and supports, the class of every M-type they meet, the classes, the
series, each representative's matrix column and the multiplicity
matrix.  One function, ``blattner_scatter``, computes every Blattner
multiplicity: it walks a series' cone once and adds each point's
alternating contributions at the rows it lands on.  ``blattner_mult``
is that walk over one K-type.

Every matrix entry comes from one per-column code path, ``_column``,
built once per representative as ``Window.columns`` and read by
``mult_matrix`` over all rows, by ``cktheory.composite_map`` at one and
by ``cktheory.blattner_consistency_check`` below each lowest K-type.
Its discrete-series columns are one ``blattner_scatter`` walk each over
the window's rows.

All enumeration is deterministic and exhaustive below explicit bounds.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul

from .branching import restrict_sum, restricted_support, witness_ktype
from .catalog import GroupDatum, weyl_image
from .weights import (
    TORUS1,
    FormalSum,
    dual_rule,
    enumerate_ktypes,
    is_label_entry,
    ktype_axes,
    label_lattice_coords,
    labels_in_box,
    lattice_coords_to_label,
    require_box_within_limit,
    require_entries_within_limit,
    scaled_bound,
    scaled_norm,
    validate_label,
    vogan_norm,
    _coordinate_caps,
    _decimal,
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


def _functional(datum: GroupDatum, lam) -> list[int]:
    # int_gram . lambda: alpha . functional is D <alpha, lambda> for any root.
    return [sum(map(mul, row, lam)) for row in datum.int_gram]


def _chamber(datum: GroupDatum, lam, functional) -> tuple[tuple[int, ...], ...]:
    # The noncompact roots positive on lambda, sorted; functional is
    # _functional(datum, lam).  A chamber makes exactly half of them
    # positive; anything else (a wall, or a root listed twice) is
    # inconsistent catalog data.
    noncompact = datum.ds.noncompact_roots
    pos = tuple(sorted([beta for beta in noncompact if sum(map(mul, beta, functional)) > 0]))
    if 2 * len(pos) != len(noncompact):
        raise InternalInconsistencyError(
            f"parameter {lam} lies on a noncompact root wall"
        )
    return pos


def _base(lam, pos) -> tuple[int, ...]:
    # 2 lambda + 2 rho_n, for the chamber's positive noncompact roots pos
    # (pos is never empty: the loader asks for noncompact roots, and half
    # of them are positive.)
    return tuple(2 * c + r for c, r in zip(lam, map(sum, zip(*pos))))


def _lowest_ktype(datum: GroupDatum, lam, base) -> tuple[int, ...]:
    # lambda + rho_n - rho_c, read doubled off the chamber's _base so that
    # everything stays integral; it must be an integral dominant label.
    doubled = tuple(b - r for b, r in zip(base, datum.two_rho_c))
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


def _parameter_box(datum: GroupDatum, bound: Fraction) -> list[range]:
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
    ``_parameter_box`` exceeds ``MAX_BOX_LABELS``.
    """
    ds = _require_ds(datum)
    bound = Fraction(bound)
    if bound < 0:
        return []
    box = _parameter_box(datum, bound)
    limit = scaled_bound(datum, bound)
    roots = (*ds.compact_pos_roots, *ds.noncompact_roots)
    moves = [(perm, signs) for perm, signs, _ in ds.signed_weyl_k]
    found: dict[tuple[int, ...], TempiricRep] = {}
    order = []
    for lam in itertools.product(*box):
        # One parameter per compact Weyl orbit: the largest image.  The
        # identity is among the images w . lam of the signed permutations
        # w = (perm, signs), so that is lam >= every image.
        if not all(
            lam >= tuple(s * lam[c] for c, s in zip(perm, signs)) for perm, signs in moves
        ):
            continue
        # A singular parameter (some root vanishes on it) is skipped.
        functional = _functional(datum, lam)
        if 0 in [sum(map(mul, alpha, functional)) for alpha in roots]:
            continue
        lowest = _lowest_ktype(datum, lam, _base(lam, _chamber(datum, lam, functional)))
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


def _doubled_shifted(datum: GroupDatum, mu) -> tuple[int, ...]:
    """2 mu + 2 rho_c: lattice coordinates mu, doubled and rho_c-shifted."""
    return tuple(2 * m + r for m, r in zip(mu, datum.two_rho_c))


def blattner_scatter(datum: GroupDatum, ds_rep: TempiricRep, rows, reach) -> dict:
    """Blattner's alternating partition-count formula, walked once per series.

    ``rows`` maps the ``_doubled_shifted`` coordinates of each K-type
    wanted to a key, and no coordinate of them exceeds ``reach`` in
    absolute value.  Returns ``{key: total}`` for the keys the walk
    reaches; a key it misses has multiplicity 0.  A negative total is
    returned as it is, and signals inconsistent catalog data to the
    reader.

    The multiplicity at coordinates s is the sum over w in W_K of
    det(w) P(w s - base), where P counts the tuples (n_beta) with
    sum n_beta 2 beta = x over the chamber's positive noncompact roots
    beta and base is ``_base``.  So each tuple is walked once: at its
    cone point p = base + sum n_beta 2 beta, every w adds det(w) at the
    row with coordinates w^-1 p.  Tuples are counted, not points, so a
    root listed twice counts twice.  The loader certifies every W_K
    element a signed permutation (``DiscreteSeriesDatum.signed_weyl_k``),
    so w^-1 p has the coordinates of p up to order and sign, and only a
    point with every coordinate within ``reach`` can land on a row.  The
    functional f = int_gram . lambda is positive on every chamber root,
    and f . p <= reach * sum |f_i| on such a point: that bounds the
    multiples of all roots but the last, whose multiple runs over the
    range that keeps the point in the box.
    """
    if ds_rep.kind != "ds":
        raise ValueError("Blattner's formula needs a discrete-series representative")
    ds = _require_ds(datum)
    lam = ds_rep.hc_param
    functional = _functional(datum, lam)
    pos = _chamber(datum, lam, functional)
    base = _base(lam, pos)
    *outer, last = [tuple(2 * c for c in beta) for beta in pos]
    steps = [sum(map(mul, beta, functional)) for beta in outer]
    # w^-1 p, for the signed permutation w = (perm, signs), has the
    # coordinate signs[r] * p[r] at position perm[r].
    pulls = [
        (tuple((r, signs[r]) for r in sorted(range(len(perm)), key=perm.__getitem__)), det)
        for perm, signs, det in ds.signed_weyl_k
    ]
    totals: dict = {}

    def walk(k, point, budget):
        if k < len(outer):
            beta, step = outer[k], steps[k]
            for n in range(budget // step + 1):
                walk(k + 1, tuple(c + n * b for c, b in zip(point, beta)), budget - n * step)
            return
        lows, highs = [0], []
        for c, b in zip(point, last):
            if b < 0:
                c, b = -c, -b
            if b:
                lows.append(-((reach + c) // b))
                highs.append((reach - c) // b)
            elif abs(c) > reach:
                return
        for t in range(max(lows), min(highs) + 1):
            p = [c + t * b for c, b in zip(point, last)]
            for pull, det in pulls:
                key = rows.get(tuple([s * p[r] for r, s in pull]))
                if key is not None:
                    totals[key] = totals.get(key, 0) + det

    walk(0, base, reach * sum(map(abs, functional)) - sum(map(mul, functional, base)))
    return totals


def _blattner_entry(totals: dict, key, tau, ds_rep: TempiricRep) -> int:
    # The multiplicity of tau, read from blattner_scatter's totals at its key.
    total = totals.get(key, 0)
    if total < 0:
        raise InternalInconsistencyError(
            f"negative multiplicity {total} for {format_label(tau)} in {ds_rep.describe()}"
        )
    return total


def blattner_mult(datum: GroupDatum, ds_rep: TempiricRep, tau) -> int:
    """K-type multiplicity in a discrete series: ``blattner_scatter`` over tau alone."""
    shifted = _doubled_shifted(datum, label_lattice_coords(datum.k, tau))
    reach = max(map(abs, shifted), default=0)
    return _blattner_entry(blattner_scatter(datum, ds_rep, {shifted: 0}, reach), 0, tau, ds_rep)


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
    representative.  A discrete-series column is one ``blattner_scatter``
    walk over the window's ``shifted`` rows, and ``entry(i)`` reads its
    totals, raising at a negative one.
    Principal-series columns read the window's restriction of the row at
    the dual of the class representative (the row's multiplicity in the
    class's principal series, by Frobenius reciprocity), then apply the
    split rules.
    """
    datum, rows = window.datum, window.rows
    if rep.kind == "ds":
        totals = blattner_scatter(datum, rep, window.shifted, window.reach)
        return EXACT, lambda i: _blattner_entry(totals, i, rows[i], rep)
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
    # reps first: it refuses an oversize label box before the rows exist.
    reps = window.reps
    rows = window.rows
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
    """

    datum: GroupDatum
    bound: Fraction

    @cached_property
    def rows(self) -> list[tuple[int, ...]]:
        """The K-types of norm <= bound, sorted by (norm, label)."""
        return enumerate_ktypes(self.datum, self.bound)

    @cached_property
    def shifted(self) -> dict[tuple[int, ...], int]:
        """``{a row's _doubled_shifted coordinates: its position}``, in row order.

        Read by ``blattner_scatter``.  Coordinates determine the row when
        K has no Cyclic2 atom, as for every datum with discrete series.
        """
        datum = self.datum
        return {
            _doubled_shifted(datum, label_lattice_coords(datum.k, tau)): i
            for i, tau in enumerate(self.rows)
        }

    @cached_property
    def reach(self) -> int:
        """The largest absolute coordinate in ``shifted``; 0 without rows."""
        return max((abs(c) for s in self.shifted for c in s), default=0)

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
            raise ValueError(
                f"bound {_decimal(bound)} exceeds the window bound {_decimal(self.bound)}"
            )
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
                    f"K-type {format_label(tau)} is not in the window of bound "
                    f"{_decimal(self.bound)}"
                )
            for sigma, m in restrictions[i].items():
                restricted[sigma] = restricted.get(sigma, 0) + mult * m
        return restricted

    @cached_property
    def duals(self) -> _Memo:
        """``{M-label: its dual}`` (``dual_rule``), each computed once, on first read."""
        return _Memo(dual_rule(self.datum.m))

    @cached_property
    def boxes(self) -> _Memo:
        """``{cap: ((M-label, its dual), ...)}`` in ``labels_in_box`` order, each built once."""
        m, duals = self.datum.m, self.duals
        return _Memo(lambda cap: tuple((sigma, duals[sigma]) for sigma in labels_in_box(m, cap)))

    @cached_property
    def supports(self) -> list[tuple[tuple[int, ...], ...]]:
        """Each row's ``restricted_support``: the M-types the row meets."""
        return [restricted_support(self.duals, r) for r in self.restrictions]

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
        the M-types in its support, and occurs in a class (with its
        multiplicity in the class's principal series) exactly when the
        representative is one of them; the minima are the rows at the first norm where it does,
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
        ``_parameter_box``.
        """
        if self.datum.equal_rank and self.bound >= 0:
            ktype_axes(self.datum, self.bound)
            _parameter_box(self.datum, self.bound)
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
