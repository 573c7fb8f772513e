"""Exact combinatorics for the compact groups used as K and M.

Groups are finite products of four atom kinds: the circle group
(``Torus1``), the two-element group (``Cyclic2``), ``SU2`` and ``SO3``.
An irreducible representation is labeled by one integer per atom: a
character exponent for ``Torus1``, a bit for ``Cyclic2``, and a
nonnegative highest weight for ``SU2`` (dimension a+1) or ``SO3``
(dimension 2j+1).

Everything is a pure function of immutable data, computed in exact
arithmetic.  Vogan norms and Gram pairings are integers on the group's
integer Gram matrix ``D * gram`` (``GroupDatum.int_gram``); a norm
becomes a ``Fraction`` only at the API boundary, in ``vogan_norm``.
Results never depend on caching or call order, so concurrent use needs
no coordination.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, log10, prod
from operator import mul

TORUS1 = "Torus1"
CYCLIC2 = "Cyclic2"
SU2 = "SU2"
SO3 = "SO3"

ATOM_KINDS = (TORUS1, CYCLIC2, SU2, SO3)


@dataclass(frozen=True)
class CompactGroup:
    """An ordered product of atom kinds.

    Cyclic2 atoms carry a parity bit instead of a weight-lattice
    coordinate, so the lattice dimension counts the other atoms only.
    """

    atoms: tuple[str, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("atom list must be nonempty")
        for kind in self.atoms:
            if kind not in ATOM_KINDS:
                raise ValueError(f"unknown atom kind {kind!r}")

    @property
    def lattice_dim(self) -> int:
        return sum(1 for kind in self.atoms if kind != CYCLIC2)


def is_label_entry(v) -> bool:
    """``validate_label``'s entry rule: an ``int`` that is not a ``bool``."""
    return isinstance(v, int) and not isinstance(v, bool)


def validate_label(group: CompactGroup, label) -> tuple[int, ...]:
    """Check that ``label`` is a valid irreducible label for ``group``."""
    label = tuple(label)
    if len(label) != len(group.atoms):
        raise ValueError(
            f"label {label!r} has {len(label)} entries, group has {len(group.atoms)} atoms"
        )
    for kind, v in zip(group.atoms, label):
        if not is_label_entry(v):
            raise ValueError(f"label entry {v!r} for {kind} atom is not an integer")
        if kind == CYCLIC2 and v not in (0, 1):
            raise ValueError(f"Cyclic2 label must be 0 or 1, got {v}")
        if kind in (SU2, SO3) and v < 0:
            raise ValueError(f"{kind} label must be nonnegative, got {v}")
    return label


def _atom_dim(kind: str, v: int) -> int:
    if kind == SU2:
        return v + 1
    if kind == SO3:
        return 2 * v + 1
    return 1


def _atom_weights(kind: str, v: int):
    # Weight values in the atom's own coordinate; for Cyclic2 the "weight"
    # is the parity bit itself, constant across the (1-dimensional) irrep.
    if kind == SU2:
        return range(-v, v + 1, 2)
    if kind == SO3:
        return range(-v, v + 1)
    return (v,)


def _atom_tensor(kind: str, a: int, b: int) -> dict[int, int]:
    if kind == TORUS1:
        return {a + b: 1}
    if kind == CYCLIC2:
        return {(a + b) % 2: 1}
    if kind == SU2:
        return {c: 1 for c in range(abs(a - b), a + b + 1, 2)}
    return {j: 1 for j in range(abs(a - b), a + b + 1)}


class FormalSum:
    """A finite integer combination of labels.

    Keys are arbitrary hashable labels (tuples, tempered-representation
    records, ...); values are nonzero integers.  Lookup of an absent key
    yields 0.  Addition and integer scaling act componentwise.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        data = terms.items() if isinstance(terms, (dict, FormalSum)) else terms
        acc: dict = {}
        for key, mult in data:
            if not isinstance(mult, int) or isinstance(mult, bool):
                raise TypeError(f"multiplicity {mult!r} is not an integer")
            acc[key] = acc.get(key, 0) + mult
        self._terms = {k: v for k, v in acc.items() if v != 0}

    @classmethod
    def single(cls, key, mult: int = 1) -> "FormalSum":
        return cls([(key, mult)])

    def items(self):
        return self._terms.items()

    def support(self):
        return self._terms.keys()

    def __getitem__(self, key) -> int:
        return self._terms.get(key, 0)

    def __iter__(self):
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __contains__(self, key) -> bool:
        return key in self._terms

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = dict(self._terms)
        for k, v in other.items():
            out[k] = out.get(k, 0) + v
        return FormalSum(out)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-1) * other

    def __mul__(self, n: int) -> "FormalSum":
        if not isinstance(n, int):
            return NotImplemented
        return FormalSum({k: n * v for k, v in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, FormalSum):
            return self._terms == other._terms
        if isinstance(other, dict):
            return self._terms == {k: v for k, v in other.items() if v != 0}
        return NotImplemented

    def __repr__(self) -> str:
        try:
            body = ", ".join(f"{k!r}: {v}" for k, v in sorted(self._terms.items()))
        except TypeError:
            body = ", ".join(f"{k!r}: {v}" for k, v in self._terms.items())
        return f"FormalSum({{{body}}})"


def weyl_dim(group: CompactGroup, tau) -> int:
    """Dimension of the irreducible with label ``tau``."""
    tau = validate_label(group, tau)
    d = 1
    for kind, v in zip(group.atoms, tau):
        d *= _atom_dim(kind, v)
    return d


def weights_of(group: CompactGroup, tau) -> Counter:
    """Full weight multiset of ``tau`` as a Counter of per-atom tuples.

    Cyclic2 entries carry the parity bit, constant across the irrep; the
    total count equals ``weyl_dim``.
    """
    tau = validate_label(group, tau)
    axes = [_atom_weights(kind, v) for kind, v in zip(group.atoms, tau)]
    return Counter(itertools.product(*axes))


def tensor_decompose(group: CompactGroup, tau1, tau2) -> FormalSum:
    """Decomposition of the tensor product of two irreducibles."""
    tau1 = validate_label(group, tau1)
    tau2 = validate_label(group, tau2)
    factors = [
        _atom_tensor(kind, a, b) for kind, a, b in zip(group.atoms, tau1, tau2)
    ]
    out: dict[tuple[int, ...], int] = {}
    for combo in itertools.product(*(f.items() for f in factors)):
        label = tuple(k for k, _ in combo)
        mult = 1
        for _, m in combo:
            mult *= m
        out[label] = out.get(label, 0) + mult
    return FormalSum(out)


def dual_rule(group: CompactGroup):
    """The dual as a function on labels already known to be valid.

    Circle characters dualize by negating the exponent; the other atom
    kinds are self-dual.  One sign per atom is fixed here, so a sweep
    over many labels applies it without revalidating each one.
    """
    signs = tuple(-1 if kind == TORUS1 else 1 for kind in group.atoms)
    return lambda label: tuple(map(mul, signs, label))


def dual_label(group: CompactGroup, tau) -> tuple[int, ...]:
    """Label of the dual irreducible: ``dual_rule`` after validation."""
    return dual_rule(group)(validate_label(group, tau))


def hom_invariant_dim(group: CompactGroup, v1: FormalSum, v2: FormalSum) -> int:
    """dim Hom(V1, V2)^G for two nonnegative formal sums of irreducibles.

    By Schur's lemma this is the pairing of isotypic multiplicities.  It
    equals the invariant dimension of dual(V1) (x) V2, with the circle
    duality n -> -n applied to the first argument.  Every label is
    validated, then the two are paired by ``isotypic_pairing``.
    """
    for v in (v1, v2):
        for tau in v:
            validate_label(group, tau)
    return isotypic_pairing(dict(v1.items()), dict(v2.items()))


def isotypic_pairing(m1: dict, m2: dict) -> int:
    """``hom_invariant_dim`` of two ``{label: multiplicity}`` dicts.

    For labels known to be valid, such as those the branching rules
    produce, so none is revalidated; negative multiplicities are still
    refused.
    """
    if min(m1.values(), default=0) < 0 or min(m2.values(), default=0) < 0:
        raise ValueError("hom_invariant_dim requires nonnegative multiplicities")
    return sum(m * m2.get(label, 0) for label, m in m1.items())


def label_lattice_coords(group: CompactGroup, tau) -> tuple[int, ...]:
    """Highest weight of ``tau`` in the group's lattice coordinates."""
    tau = validate_label(group, tau)
    return tuple(v for kind, v in zip(group.atoms, tau) if kind != CYCLIC2)


def lattice_coords_to_label(group: CompactGroup, coords) -> tuple[int, ...]:
    """Dominant label with the given lattice coordinates.

    Fails if the group has parity atoms (the coordinates do not determine
    the bit) or if a coordinate is negative on an SU2/SO3 atom.
    """
    coords = list(coords)
    if len(coords) != group.lattice_dim:
        raise ValueError("coordinate length does not match lattice dimension")
    label = []
    it = iter(coords)
    for kind in group.atoms:
        if kind == CYCLIC2:
            raise ValueError("group with a Cyclic2 atom has no coordinate-only labels")
        c = next(it)
        if kind in (SU2, SO3) and c < 0:
            raise ValueError(f"coordinate {c} is not dominant for a {kind} atom")
        label.append(c)
    return validate_label(group, label)


def scaled_pairing(datum, x, y) -> int:
    """D * <x, y>: the bilinear form on the datum's integer Gram matrix."""
    return sum(
        xi * sum(g * yj for g, yj in zip(row, y))
        for xi, row in zip(x, datum.int_gram)
        if xi
    )


def scaled_norm(datum, tau) -> int:
    """D * (Vogan norm of ``tau``), an integer; see ``vogan_norm``."""
    mu = label_lattice_coords(datum.k, tau)
    x = tuple(m + r for m, r in zip(mu, datum.two_rho_c))
    return scaled_pairing(datum, x, x)


def scaled_bound(datum, bound) -> int:
    """floor(D * bound): an integer n satisfies n <= D * bound iff n <= this."""
    bound = Fraction(bound)
    return bound.numerator * datum.gram_scale // bound.denominator


def vogan_norm(datum, tau) -> Fraction:
    """Squared length of (highest weight + sum of positive compact roots).

    The quadratic form is the catalog's Gram matrix; the shift is the
    catalog's ``two_rho_c`` vector.
    """
    return Fraction(scaled_norm(datum, tau), datum.gram_scale)


def integer_det(rows) -> int:
    """Determinant of a square integer matrix, by fraction-free elimination.

    Bareiss (1968): after step k every remaining entry is a (k+1) x (k+1)
    minor of the input, so each division by the previous pivot is exact
    and all arithmetic stays on ``int``.  The empty matrix has
    determinant 1.
    """
    m = [list(row) for row in rows]
    n = len(m)
    sign, previous = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return sign * previous


# Largest label box a window enumeration may scan; a larger request is
# refused before any label is generated.  Among the built-ins, a window at
# norm 40,000 scans at most 170,569 labels (the Sp11 discrete-series
# parameter box), while Sp11 at bound 10^8 would scan about 10^8 K-type
# labels.
MAX_BOX_LABELS = 10**6


# Largest number of (row, column) entries a window computation may
# evaluate; a larger request is refused once the window is known and
# before any entry is evaluated.  Sp11 at bound 400 has 257 x 257 = 66,049
# multiplicity-matrix entries, while SL2R at bound 10^6 would need
# 2,001 x 2,001, about 4 * 10^6.
MAX_WINDOW_ENTRIES = 10**6


class WindowTooLargeError(ValueError):
    """A window's label box or entry count exceeds its limit."""


def _axis_size(axis) -> int:
    # len() of a range must fit a C ssize_t; its endpoints need not.
    if isinstance(axis, range):
        return max(0, -((axis.start - axis.stop) // axis.step))
    return len(axis)


def _decimal(value) -> str:
    # str(value), or "~10^e" for a number past Python's limit on
    # int-to-str digits, so a refusal never fails on the number it refuses.
    try:
        return str(value)
    except ValueError:
        n = int(value)
        e = int(log10(n))  # floor(log10(n)), up to rounding; corrected below
        if 10**e > n:
            e -= 1
        elif 10 ** (e + 1) <= n:
            e += 1
        return f"~10^{e}"


def require_box_within_limit(axes, bound) -> None:
    """Refuse a label box, given as one range per coordinate, over the limit.

    The box's size is computed from each range's endpoints, so a box of
    any size is refused rather than overflowing.
    """
    size = prod(_axis_size(axis) for axis in axes)
    if size > MAX_BOX_LABELS:
        raise WindowTooLargeError(
            f"bound {_decimal(bound)} needs a box of {_decimal(size)} labels, "
            f"above the limit of {MAX_BOX_LABELS}"
        )


def require_entries_within_limit(rows: int, cols: int, bound) -> None:
    """Refuse a rows x cols window computation over ``MAX_WINDOW_ENTRIES``."""
    if rows * cols > MAX_WINDOW_ENTRIES:
        raise WindowTooLargeError(
            f"bound {bound} needs {rows} x {cols} = {rows * cols} window entries, "
            f"above the limit of {MAX_WINDOW_ENTRIES}"
        )


def _coordinate_caps(datum, bound: Fraction) -> list[int]:
    # max of x_i^2 subject to <x,x> <= B is B * (gram^-1)_ii, so |x_i| is
    # capped by the integer square root of its floor.  With M = D * gram,
    # (gram^-1)_ii = D * det(M without row and column i) / det(M).
    m = datum.int_gram
    numerator = bound.numerator * datum.gram_scale
    denominator = bound.denominator * integer_det(m)
    minors = (
        [row[:i] + row[i + 1 :] for r, row in enumerate(m) if r != i]
        for i in range(len(m))
    )
    return [isqrt(numerator * integer_det(minor) // denominator) for minor in minors]


def enumerate_ktypes(datum, bound) -> list[tuple[int, ...]]:
    """All K-types of ``datum`` with Vogan norm <= bound.

    Sorted by (norm, lexicographic label); deterministic and duplicate
    free.  A negative bound yields the empty window.  Raises
    ``WindowTooLargeError`` before enumerating when the label box the
    coordinate caps allow exceeds ``MAX_BOX_LABELS``.
    """
    bound = Fraction(bound)
    group = datum.k
    if bound < 0:
        return []
    limit = scaled_bound(datum, bound)
    axes = ktype_axes(datum, bound)
    positions = [p for p, kind in enumerate(group.atoms) if kind != CYCLIC2]
    lattice = list(zip(positions, datum.two_rho_c))
    window = []
    for label in itertools.product(*axes):
        x = tuple(label[p] + shift for p, shift in lattice)
        norm = scaled_pairing(datum, x, x)
        if norm <= limit:
            window.append((norm, label))
    window.sort()
    return [label for _, label in window]


def ktype_axes(datum, bound: Fraction) -> list:
    """The label axes ``enumerate_ktypes`` scans at a nonnegative bound.

    Raises ``WindowTooLargeError`` when their box exceeds ``MAX_BOX_LABELS``.
    """
    return _label_axes(datum.k, _coordinate_caps(datum, bound), datum.two_rho_c, bound)


def _label_axes(group: CompactGroup, caps, shifts, bound) -> list:
    # One axis per atom, for the labels with |x_i + shifts[i]| <= caps[i]
    # on the i-th lattice coordinate (and x_i >= 0 on SU2 and SO3), and
    # both bits on Cyclic2.  Refused over MAX_BOX_LABELS before any label
    # is generated.
    lattice = iter(zip(caps, shifts))
    axes = []
    for kind in group.atoms:
        if kind == CYCLIC2:
            axes.append((0, 1))
            continue
        cap, shift = next(lattice)
        low = -cap - shift
        axes.append(range(max(low, 0) if kind in (SU2, SO3) else low, cap - shift + 1))
    require_box_within_limit(axes, bound)
    return axes


def labels_in_box(group: CompactGroup, cap: int):
    """All labels with every coordinate bounded by ``cap`` in magnitude.

    Raises ``WindowTooLargeError`` before generating any label when the
    box exceeds ``MAX_BOX_LABELS``.
    """
    dim = group.lattice_dim
    return itertools.product(*_label_axes(group, [cap] * dim, [0] * dim, cap))
