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
into 2 lambda + 2 rho_n, which ``blattner_scatter`` reads as the apex of
the series' cone.  The chamber depends on lambda only through the signs
of the noncompact pairings, so ``ds_enumerate`` decides it once per sign
pattern, with its shift 2 rho_n - 2 rho_c; 2 lambda plus that shift is
the doubled lowest K-type, which ``_lowest_ktype`` checks and halves.

Everything derived from one (datum, bound) is computed once, on first
read, in the ``Window`` that every consumer reads: the rows with their
doubled, rho_c-shifted coordinates and scaled norms, their restrictions
(one ``range`` of M-coordinates per row, from the branching rule), the
classes (one sweep over the rows by norm level), the series, each
representative's matrix column and the multiplicity matrix, stored as
one ``{column: nonzero int}`` dict per row, the sparse-row form in which
``cktheory.invert_window`` returns its inverse.  Each
M-type's dual and principal class are computed once per window, on
first lookup.  One function,
``blattner_scatter``, computes every Blattner multiplicity: it walks a
series' cone once and adds each point's alternating contributions at the
rows it lands on.  ``blattner_mult`` is that walk over one K-type.

Every matrix entry comes from one per-column code path, ``_column``,
built once per representative as ``Window.columns`` and read by
``mult_matrix`` at the column's support, by ``cktheory.composite_map``
at one row and by ``cktheory.blattner_consistency_check`` below each
lowest K-type.  Its discrete-series columns are one ``blattner_scatter``
walk each over the window's rows, and its principal-series columns are
supported on the rows ``Window.holders`` lists for the class's dual.

Labels are validated where a caller passes them in: by
``restricted_range``, ``label_lattice_coords``, ``scaled_norm``,
``vogan_norm`` and ``weyl_dim`` below this module, and by
``blattner_mult``, ``cktheory.composite_map`` and ``Window.restriction``.
The window's rows are labels that ``enumerate_ktypes`` generated, each
valid, so the Window's parts (``shifted``, ``restrictions``, ``reps``)
compute on them and validate none again.

All enumeration is deterministic and exhaustive below explicit bounds.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import defaultdict
from functools import cached_property
from fractions import Fraction
from operator import mul

from .branching import _rule
from .catalog import GroupDatum, weyl_image
from .weights import (
    CYCLIC2,
    SO3,
    SU2,
    TORUS1,
    dual_rule,
    enumerate_ktypes,
    is_label_entry,
    ktype_axes,
    label_lattice_coords,
    require_box_within_limit,
    require_entries_within_limit,
    scaled_bound,
    _coordinate_caps,
    _decimal,
    _scaled_pairing,
    _Record,
    _Value,
)

EXACT = "exact"
AGGREGATE_ONLY = "aggregate-only"


class InternalInconsistencyError(RuntimeError):
    """A structural expectation failed; signals corrupt catalog data."""


class WindowError(ValueError):
    """The requested computation depends on data outside the window."""


class PrincipalClass(_Value):
    """An orbit {sigma, w.sigma} of M-types, with its stabilizer order.

    The stabilizer of the class in the rank-one restricted Weyl group
    (which is Z/2) has order 2 exactly when the orbit is a singleton.
    """

    def __init__(self, orbit: tuple[tuple[int, ...], ...], w_sigma_order: int):
        self.__dict__.update(orbit=orbit, w_sigma_order=w_sigma_order)

    def _key(self) -> tuple:
        return (self.orbit, self.w_sigma_order)

    @property
    def representative(self) -> tuple[int, ...]:
        return self.orbit[-1]

    def describe(self) -> str:
        members = "|".join(format_label(s) for s in self.orbit)
        return f"{{{members}}}"


class TempiricRep(_Value):
    """A tempered representative with real infinitesimal character.

    Either a discrete series (``kind == "ds"``, classified by its lattice
    parameter, with ``min_ktype`` the lowest K-type) or a constituent of a
    parameter-zero principal series (``kind == "ps"``, pinned down by its
    minimal K-type; ``split`` marks the two-constituent case).
    """

    def __init__(
        self,
        kind: str,
        min_ktype: tuple[int, ...],
        hc_param: tuple[int, ...] | None = None,
        ps_class: PrincipalClass | None = None,
        split: bool = False,
    ):
        self.__dict__.update(
            kind=kind, min_ktype=min_ktype, hc_param=hc_param, ps_class=ps_class, split=split
        )

    def _key(self) -> tuple:
        return (self.kind, self.min_ktype, self.hc_param, self.ps_class, self.split)

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
        """The order of representatives that share a minimal K-type.

        Discrete series first, by parameter, then principal series, by
        orbit; ``Window.reps`` puts the minimal K-type's row first.
        """
        return (0, self.hc_param) if self.kind == "ds" else (1, self.ps_class.orbit)


def format_label(label) -> str:
    return "(" + ",".join(str(v) for v in label) + ")"


def _principal_class_of(datum: GroupDatum, sigma) -> PrincipalClass:
    """The class of an M-type whose label is already known to be valid."""
    orbit = tuple(sorted({sigma, weyl_image(datum, sigma)}))
    return PrincipalClass(orbit=orbit, w_sigma_order=2 if len(orbit) == 1 else 1)


def _constituents(cls: PrincipalClass, minima) -> list[TempiricRep]:
    # One constituent per minimal K-type, after the rank-one check; each
    # minimum occurs once, which vogan_bijection_check asserts on the matrix.
    if len(minima) > 2:
        raise InternalInconsistencyError(
            f"class {cls.describe()} has {len(minima)} minimal K-types; "
            "rank one allows at most two"
        )
    split = len(minima) == 2
    return [
        TempiricRep(kind="ps", min_ktype=tau, ps_class=cls, split=split)
        for tau in minima
    ]


def partner_minimum(window: Window, rep: TempiricRep) -> tuple[int, ...]:
    """Minimal K-type of the other constituent of a split class of the window.

    The other of the two minimal K-types that ``Window.classes`` holds for
    the class.
    """
    first, second = window.classes[rep.ps_class]
    return second if first == rep.min_ktype else first


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


def _lowest_ktype(datum: GroupDatum, lam, doubled) -> tuple[int, ...]:
    # lambda + rho_n - rho_c from its doubled coordinates, 2 lambda + 2 rho_n
    # - 2 rho_c, so that everything stays integral; it must be an integral
    # dominant label, and only a K without a Cyclic2 atom has labels that
    # its coordinates determine.
    if any(c % 2 for c in doubled):
        raise InternalInconsistencyError(
            f"lowest K-type of parameter {lam} is not integral"
        )
    coords = iter(doubled)  # one per atom but a Cyclic2 one, in atom order
    for kind in datum.k.atoms:
        if kind == CYCLIC2:
            reason = "group with a Cyclic2 atom has no coordinate-only labels"
        elif (c := next(coords) // 2) < 0 and kind in (SU2, SO3):
            reason = f"coordinate {c} is not dominant for a {kind} atom"
        else:
            continue
        raise InternalInconsistencyError(
            f"lowest K-type of parameter {lam} is not dominant: {reason}"
        )
    return tuple([c // 2 for c in doubled])


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

    The box is scanned in product order.  A parameter is kept when it is
    the largest of its compact Weyl images and no root vanishes on it.
    A W_K element that negates exactly coordinate i and fixes the others
    moves lambda only at i, to a larger image when lambda_i < 0; so that
    axis is scanned from 0 and the element is not tested.  This drops
    only parameters the largest-image test rejects and keeps the order
    of the rest, so every raise comes at the parameter, and with the
    text, of the full scan: ``_chamber`` runs at the first parameter of
    each sign pattern of the noncompact pairings, and ``_lowest_ktype``
    at every parameter kept, on the doubled lowest K-type that the scan
    reads off the pattern's shift.  The norm is read off that doubled
    K-type too, and only parameters within the bound are recorded.
    """
    ds = _require_ds(datum)
    bound = Fraction(bound)
    if bound < 0:
        return []
    box = _parameter_box(datum, bound)
    limit = scaled_bound(datum, bound)
    two_rho_c = datum.two_rho_c
    # (int_gram^T alpha) . lam is alpha . (int_gram lam), D <alpha, lam>.
    columns = list(zip(*datum.int_gram))
    compact, noncompact = (
        [[sum(map(mul, column, alpha)) for column in columns] for alpha in roots]
        for roots in (ds.compact_pos_roots, ds.noncompact_roots)
    )
    fixed = tuple(range(len(box)))
    moves = []
    for perm, signs, _ in ds.signed_weyl_k:
        negated = [i for i, s in enumerate(signs) if s < 0]
        if perm == fixed and len(negated) == 1:
            box[negated[0]] = range(0, box[negated[0]].stop)
        elif perm != fixed or negated:
            moves.append((perm, signs))
    chambers: dict = {}
    found: dict[tuple[int, ...], TempiricRep] = {}
    order = []
    for lam in itertools.product(*box):
        # One parameter per compact Weyl orbit: the largest image w . lam
        # of the signed permutations w = (perm, signs).
        if any(lam < tuple(s * lam[c] for c, s in zip(perm, signs)) for perm, signs in moves):
            continue
        # A singular parameter (some root vanishes on it) is skipped.
        pairings = [sum(map(mul, f, lam)) for f in noncompact]
        if 0 in pairings or 0 in [sum(map(mul, f, lam)) for f in compact]:
            continue
        pattern = tuple([p > 0 for p in pairings])
        if pattern not in chambers:
            pos = _chamber(datum, lam, _functional(datum, lam))
            # The shift 2 rho_n - 2 rho_c: the doubled lowest K-type is 2 lambda + shift.
            chambers[pattern] = [r - t for r, t in zip(map(sum, zip(*pos)), two_rho_c)]
        doubled = [2 * c + r for c, r in zip(lam, chambers[pattern])]
        lowest = _lowest_ktype(datum, lam, doubled)
        x = [c // 2 + t for c, t in zip(doubled, two_rho_c)]
        norm = _scaled_pairing(datum, x, x)
        if norm > limit:
            continue
        if lowest in found:
            raise InternalInconsistencyError(
                f"parameters {found[lowest].hc_param} and {lam} share lowest K-type "
                f"{format_label(lowest)}"
            )
        found[lowest] = TempiricRep(kind="ds", min_ktype=lowest, hc_param=lam)
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


class MultMatrix(_Record):
    """Sparse integer matrix over (K-type window) x (tempered window).

    Rows are ordered by (norm, label); columns align with rows through
    the minimal-K-type bijection.  ``nonzeros[i]`` is row i as a
    ``{column: nonzero int}`` dict with the keys ascending, the form in
    which ``cktheory.invert_window`` returns the inverse; every reader in
    ``src`` reads these rows.  Aggregate-only columns belong to
    unresolved split pairs: away from the two minimal K-types they carry
    the full induced multiplicity shared by the pair, and at the minima
    they are exact (1 at the column's own minimum, 0 at the partner's).
    """

    def __init__(self, rows: tuple, cols: tuple, nonzeros: list, resolution: tuple):
        self.rows, self.cols, self.nonzeros, self.resolution = rows, cols, nonzeros, resolution

    def _key(self) -> tuple:
        return (self.rows, self.cols, self.nonzeros, self.resolution)

    def entry(self, i: int, j: int) -> int:
        return self.nonzeros[i].get(j, 0)

    @property
    def entries(self) -> dict:
        """A read-only ``{(i, j): v}`` view of ``nonzeros``, built on each read.

        Its one reader is ``perfbench/child.py``, which counts
        ``len(entries)`` as the benchmark's ``cktheory.mult_matrix.nnz``;
        it goes when that count reads the rows.  No ``src`` path reads it.
        """
        return {(i, j): v for i, row in enumerate(self.nonzeros) for j, v in row.items()}


def _column(window: Window, rep: TempiricRep):
    """One matrix column as ``(resolution flag, entry, support)``.

    ``entry(i)`` is the entry at row i, and it can be nonzero only at
    the rows of ``support``, in row order.  Read through
    ``Window.columns``, which builds it once per representative.  A
    discrete-series column is one ``blattner_scatter`` walk over the
    window's ``shifted`` rows: ``entry(i)`` reads its totals, raising at
    a negative one, and ``support`` is the sorted rows the walk reached.
    Principal-series columns test whether the dual c of the class
    representative lies in the row's restriction (the row's multiplicity
    in the class's principal series, 0 or 1, by Frobenius reciprocity),
    then apply the split rules, at any row; their support is the rows
    whose restriction holds c, read off ``Window.holders``.
    """
    datum, rows = window.datum, window.rows
    if rep.kind == "ds":
        totals = blattner_scatter(datum, rep, window.shifted, window.reach)
        return EXACT, lambda i: _blattner_entry(totals, i, rows[i], rep), sorted(totals)
    (c,) = window.duals[rep.ps_class.representative]
    restrictions, held = window.restrictions, window.holders.get(c, [])
    if rep.split and datum.k.atoms == (TORUS1,):
        # The two split constituents partition the odd character
        # ladder by sign exactly when K is a single circle.
        sign = 1 if rep.min_ktype[0] > 0 else -1
        return EXACT, lambda i: int(c in restrictions[i]) if rows[i][0] * sign > 0 else 0, held
    if rep.split:
        # Unresolved: 0 only at the partner's minimum; the class pass
        # certified the entry at the column's own minimum to be 1.
        partner = partner_minimum(window, rep)
        return AGGREGATE_ONLY, lambda i: 0 if rows[i] == partner else int(c in restrictions[i]), held
    return EXACT, lambda i: int(c in restrictions[i]), held


def mult_matrix(window: Window) -> MultMatrix:
    """Multiplicity matrix of the window; ``Window.matrix`` is it, built once.

    Read one ``Window.columns`` column at a time, at the rows of its
    support in row order, so a discrete-series column raises at its
    first negative entry and the work follows the nonzeros: a series'
    rows its walk reached, a class's rows that hold its dual.  Each
    nonzero goes into its row's dict, and the columns are read in order,
    so each row's keys ascend with no sort.  Raises
    ``WindowTooLargeError`` before evaluating any entry when rows x
    columns exceeds ``MAX_WINDOW_ENTRIES``: first rows x rows, before the
    class pass, then rows x columns.
    """
    # The label boxes are refused before the rows exist, and a consistent
    # window is square, so rows x rows is refused before the class pass.
    window.refuse_oversize_boxes()
    rows = window.rows
    require_entries_within_limit(len(rows), len(rows), window.bound)
    reps = window.reps
    require_entries_within_limit(len(rows), len(reps), window.bound)
    nonzeros: list[dict] = [{} for _ in rows]
    resolution = []
    for j, rep in enumerate(reps):
        flag, entry, support = window.columns[rep]
        resolution.append(flag)
        for i in support:
            v = entry(i)
            if v:
                nonzeros[i][j] = v
    return MultMatrix(
        rows=tuple(rows),
        cols=tuple(reps),
        nonzeros=nonzeros,
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


def _lattice(labels: range) -> tuple[int, int]:
    # The step and residue of a restriction's progression.  Each rule
    # restricts every K-type to a nonempty range of one step, so ranges of
    # one window with equal keys lie on one progression and ranges with
    # different keys share no label.
    return labels.step, labels.start % labels.step


def _uncovered(bounds, labels: range):
    # The parts of the nonempty range labels, as ranges, that lie outside
    # the covered intervals: bounds is a flat ascending list of start and
    # stop of each, half-open and on the range's progression.
    step, a, stop = labels.step, labels.start, labels[-1] + labels.step
    i = bisect_right(bounds, a)
    if i % 2:  # a is covered: go on where its interval stops
        a, i = bounds[i], i + 1
    while a < stop:
        if i == len(bounds):
            yield range(a, stop, step)
            return
        yield range(a, min(bounds[i], stop), step)
        a, i = bounds[i + 1], i + 2


def _cover(bounds: list, labels: range) -> None:
    # Add the nonempty range labels to the covered intervals bounds (see
    # _uncovered), merging the intervals it overlaps or touches.
    a, stop = labels.start, labels[-1] + labels.step
    lo, hi = bisect_left(bounds, a), bisect_right(bounds, stop)
    bounds[lo:hi] = ([] if lo % 2 else [a]) + ([] if hi % 2 else [stop])


class Window(_Value):
    """Everything derived from one ``(datum, bound)``, each part computed once.

    Each part is computed on first read and shared by every reader.
    Windows compare and hash by identity: each holds its own parts.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, datum: GroupDatum, bound: Fraction):
        self.__dict__.update(datum=datum, bound=bound)

    def _key(self) -> tuple:
        return (self.datum, self.bound)

    @cached_property
    def ranked(self) -> list[tuple[int, tuple[int, ...]]]:
        """The ``(scaled_norm, K-type)`` pairs of norm <= bound, sorted."""
        return enumerate_ktypes(self.datum, self.bound, True)  # ranked=True

    @cached_property
    def rows(self) -> list[tuple[int, ...]]:
        """The K-types of norm <= bound, sorted by (norm, label)."""
        return [tau for _, tau in self.ranked]

    @cached_property
    def shifted(self) -> dict[tuple[int, ...], int]:
        """``{a row's _doubled_shifted coordinates: its position}``, in row order.

        Read by ``blattner_scatter``, for discrete-series columns only.
        Each row is read as its own lattice coordinates, unvalidated: the
        rows are the window's own labels, and the loader refuses a K with
        a Cyclic2 atom (whose labels are not their coordinates) when there
        are discrete series.
        """
        return {_doubled_shifted(self.datum, tau): i for i, tau in enumerate(self.rows)}

    @cached_property
    def reach(self) -> int:
        """The largest absolute coordinate in ``shifted``; 0 without rows."""
        return max((abs(c) for s in self.shifted for c in s), default=0)

    @cached_property
    def norms(self) -> list[int]:
        """Each row's ``scaled_norm``; nondecreasing, like the rows."""
        return [norm for norm, _ in self.ranked]

    @cached_property
    def row_index(self) -> dict[tuple[int, ...], int]:
        """``{K-type: its position in rows}``."""
        return {tau: i for i, tau in enumerate(self.rows)}

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
    def restrictions(self) -> list[range]:
        """Each row's ``restricted_range``: the c whose M-label ``(c,)`` it meets.

        The branching rule is looked up once and applied to each row as it
        is; the rows are the window's own labels, so none is validated.
        """
        return list(itertools.starmap(_rule(self.datum)[2], self.rows))

    @cached_property
    def holders(self) -> dict[int, list[int]]:
        """``{c: the rows whose restriction holds c, ascending}``.

        Built on first read, which only a principal-series column makes,
        in one pass over the ``restrictions``.
        """
        holders = defaultdict(list)
        for i, labels in enumerate(self.restrictions):
            for c in labels:
                holders[c].append(i)
        return dict(holders)

    def restriction(self, v) -> dict:
        """The restriction to M of a formal sum v, as ``{(c,): multiplicity}``.

        v is a ``{K-type: nonzero int}`` dict, and its restriction is the
        multiplicity-weighted sum of its rows' ``restrictions``.  A key of
        zero multiplicity is checked like any other but writes nothing.
        Every sum a check reads enters here, so this is where it is
        refused:

        - ``TypeError`` at a multiplicity that is not an ``int``, or is a
          ``bool``;
        - ``WindowError`` at a K-type that is not a row.  A key that is
          not a tuple is named by its ``repr``.  A key equal to a row must
          also pass ``is_label_entry`` at every entry, so ``(1.0,)`` and
          ``(True,)`` are refused although they hash like the row ``(1,)``.
        """
        index, restrictions = self.row_index, self.restrictions
        restricted: dict = {}
        for tau, mult in v.items():
            if not is_label_entry(mult):
                raise TypeError(f"multiplicity {mult!r} is not an integer")
            i = index.get(tau)
            if i is None or not all(map(is_label_entry, tau)):
                shown = format_label(tau) if isinstance(tau, tuple) else repr(tau)
                raise WindowError(
                    f"K-type {shown} is not in the window of bound {_decimal(self.bound)}"
                )
            if mult:
                for c in restrictions[i]:
                    restricted[(c,)] = restricted.get((c,), 0) + mult
        return restricted

    @cached_property
    def duals(self) -> _Memo:
        """``{M-label: its dual}`` (``dual_rule``), each computed once, on first read."""
        return _Memo(dual_rule(self.datum.m))

    @cached_property
    def class_of(self) -> _Memo:
        """``{M-type: its principal class}``, each computed once, on first read."""
        datum = self.datum
        return _Memo(lambda sigma: _principal_class_of(datum, sigma))

    @cached_property
    def classes(self) -> dict[PrincipalClass, tuple]:
        """``{class: (minimal K-type, ...)}`` per class met.

        One sweep over the rows, one norm level at a time.  A row meets
        the classes of the duals of its M-labels, and occurs in a class's
        principal series exactly when the representative is one of them,
        and then once, as its range holds each label once.  The minima are
        the rows at the first norm where it does, which on a complete
        window are global.  So each row reads only the part of its range
        that no row of a lower norm covered: the covered labels are kept
        as disjoint intervals per step and residue (``_uncovered``,
        ``_cover``), and a level is covered after all its rows are read,
        so two rows of one norm can share a new label (a split class).
        Each label met is looked up once, and once more per further row
        of its first level.  The classes met are collected here, not read
        off ``class_of``, which other readers also fill.  Representative
        order.
        """
        duals, class_of = self.duals, self.class_of
        rows, norms, restrictions = self.rows, self.norms, self.restrictions
        met: dict[tuple, PrincipalClass] = {}
        minima: dict[tuple, list] = {}
        covered: dict[tuple[int, int], list[int]] = {}
        start = 0
        while start < len(rows):
            level = range(start, bisect_right(norms, norms[start], start))
            for i in level:
                labels = restrictions[i]
                for gap in _uncovered(covered.get(_lattice(labels), ()), labels):
                    for c in gap:
                        sigma = duals[(c,)]
                        cls = met[sigma] = class_of[sigma]
                        if sigma == cls.representative:
                            minima.setdefault(sigma, []).append(rows[i])
            for i in level:
                _cover(covered.setdefault(_lattice(restrictions[i]), []), restrictions[i])
            start = level.stop
        return {
            cls: tuple(minima.get(cls.representative, ()))
            for cls in sorted({*met.values()}, key=lambda cls: cls.representative)
        }

    @cached_property
    def series(self) -> list[TempiricRep]:
        """The discrete series of the window; none for unequal rank."""
        return ds_enumerate(self.datum, self.bound) if self.datum.equal_rank else []

    def refuse_oversize_boxes(self) -> None:
        """Refuse an oversize label box before any row or series is built.

        For equal rank at a nonnegative bound: first the rows'
        ``ktype_axes`` (so the refusal names the box the rows would have
        been refused for), then the series' ``_parameter_box``.
        """
        if self.datum.equal_rank and self.bound >= 0:
            ktype_axes(self.datum, self.bound)
            _parameter_box(self.datum, self.bound)

    @cached_property
    def reps(self) -> list[TempiricRep]:
        """The representatives minimal in the window, aligned with its rows.

        ``refuse_oversize_boxes`` runs before the class pass.
        """
        self.refuse_oversize_boxes()
        reps: list[TempiricRep] = []
        for cls, minima in self.classes.items():
            reps.extend(_constituents(cls, minima))
        # Built between the class pass and the series: of the places tried,
        # the one with the lowest measured peak memory on large windows.
        index = self.row_index
        reps.extend(self.series)
        # Rows are sorted by (norm, label), so a minimal K-type's row orders
        # the reps as (norm, minimal K-type) would.
        reps.sort(key=lambda r: (index[r.min_ktype],) + r.sort_key())
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
