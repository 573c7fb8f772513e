"""Exact combinatorics for the compact groups used as K and M.

Groups are finite products of four atom kinds: the circle group
(``Torus1``), the two-element group (``Cyclic2``), ``SU2`` and ``SO3``.
An irreducible representation is labeled by one integer per atom: a
character exponent for ``Torus1``, a bit for ``Cyclic2``, and a
nonnegative highest weight for ``SU2`` (dimension a+1) or ``SO3``
(dimension 2j+1).  A formal sum of labels is a plain dict from label to
nonzero ``int`` multiplicity.

Everything is a pure function of immutable data, computed in exact
arithmetic.  Vogan norms and Gram pairings are integers on the group's
integer Gram matrix ``D * gram`` (``GroupDatum.int_gram``); a norm
becomes a ``Fraction`` only at the API boundary, in ``vogan_norm``.
Results never depend on caching or call order, so concurrent use needs
no coordination.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import floor, isqrt, log10, prod
from operator import mul

TORUS1 = "Torus1"
CYCLIC2 = "Cyclic2"
SU2 = "SU2"
SO3 = "SO3"

ATOM_KINDS = (TORUS1, CYCLIC2, SU2, SO3)


class _Record:
    """A dataclass's ``==``: instances of one class compare by ``_key()``.

    ``_key()`` is the tuple of the compared fields.  Defining ``__eq__``
    leaves the class unhashable, as a mutable dataclass is.
    """

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._key()!r}"


class _Value(_Record):
    """A frozen ``_Record``: it hashes as its key and refuses assignment.

    So ``hash`` is a frozen dataclass's ``hash(tuple of compared
    fields)``.  ``__init__`` sets the fields through ``__dict__``, where
    ``functools.cached_property`` also writes.
    """

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CompactGroup(_Value):
    """An ordered product of atom kinds.

    Cyclic2 atoms carry a parity bit instead of a weight-lattice
    coordinate, so the lattice dimension counts the other atoms only.
    """

    def __init__(self, atoms: tuple[str, ...]):
        if not atoms:
            raise ValueError("atom list must be nonempty")
        for kind in atoms:
            if kind not in ATOM_KINDS:
                raise ValueError(f"unknown atom kind {kind!r}")
        self.__dict__["atoms"] = atoms

    def _key(self) -> tuple:
        return (self.atoms,)

    @property
    def lattice_dim(self) -> int:
        return sum(1 for kind in self.atoms if kind != CYCLIC2)


def is_label_entry(v) -> bool:
    """An ``int`` that is not a ``bool``: a label entry or a multiplicity.

    ``validate_label`` holds each label entry to it, and
    ``Window.restriction`` each multiplicity of a formal sum.
    """
    return isinstance(v, int) and not isinstance(v, bool)


def validate_label(group: CompactGroup, label) -> tuple[int, ...]:
    """Check that ``label`` is a valid irreducible label for ``group``.

    Raises ``ValueError`` for a label that is not a sequence of valid
    entries, one per atom.
    """
    try:
        label = tuple(label)
    except TypeError:
        raise ValueError(f"label {label!r} is not a sequence") from None
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


def weyl_dim(group: CompactGroup, tau) -> int:
    """Dimension of the irreducible with label ``tau``."""
    tau = validate_label(group, tau)
    d = 1
    for kind, v in zip(group.atoms, tau):
        d *= _atom_dim(kind, v)
    return d


def dual_rule(group: CompactGroup):
    """The dual as a function on labels already known to be valid.

    Circle characters dualize by negating the exponent; the other atom
    kinds are self-dual.  One sign per atom is fixed here, so a sweep
    over many labels applies it without revalidating each one.
    """
    signs = tuple(-1 if kind == TORUS1 else 1 for kind in group.atoms)
    return lambda label: tuple(map(mul, signs, label))


def isotypic_pairing(m1: dict, m2: dict) -> int:
    """dim Hom(V1, V2)^G for two ``{label: multiplicity}`` dicts.

    By Schur's lemma this is the pairing of isotypic multiplicities.  The
    labels are taken as valid, such as those the branching rules produce,
    so none is revalidated; negative multiplicities are refused.
    """
    if min(m1.values(), default=0) < 0 or min(m2.values(), default=0) < 0:
        raise ValueError("isotypic_pairing requires nonnegative multiplicities")
    return sum(m * m2.get(label, 0) for label, m in m1.items())


def label_lattice_coords(group: CompactGroup, tau) -> tuple[int, ...]:
    """Highest weight of ``tau`` in the group's lattice coordinates."""
    tau = validate_label(group, tau)
    return tuple(v for kind, v in zip(group.atoms, tau) if kind != CYCLIC2)


def _scaled_pairing(datum, x, y) -> int:
    """D * <x, y>: the bilinear form on the datum's integer Gram matrix."""
    return sum(map(mul, x, [sum(map(mul, row, y)) for row in datum.int_gram]))


def scaled_norm(datum, tau) -> int:
    """D * (Vogan norm of ``tau``), an integer; see ``vogan_norm``."""
    mu = label_lattice_coords(datum.k, tau)
    x = tuple(m + r for m, r in zip(mu, datum.two_rho_c))
    return _scaled_pairing(datum, x, x)


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
    # str(value), or "~10^e" with the sign of value, 10^e <= |value| <
    # 10^(e+1), for a number past Python's limit on int-to-str digits, so a
    # refusal never fails on the number it refuses.
    try:
        return str(value)
    except ValueError:
        size = abs(Fraction(value))
        # floor(log10(size)), up to rounding; corrected below
        e = floor(log10(size.numerator) - log10(size.denominator))
        while Fraction(10) ** e > size:
            e -= 1
        while Fraction(10) ** (e + 1) <= size:
            e += 1
        return f"{'-' if value < 0 else ''}~10^{e}"


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
            f"bound {_decimal(bound)} needs {rows} x {cols} = {rows * cols} window entries, "
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


def enumerate_ktypes(datum, bound, ranked: bool = False) -> list:
    """All K-types of ``datum`` with Vogan norm <= bound.

    Sorted by (norm, lexicographic label); deterministic and duplicate
    free.  A negative bound yields the empty window.  Raises
    ``WindowTooLargeError`` before enumerating when the label box the
    coordinate caps allow exceeds ``MAX_BOX_LABELS``.  With ``ranked``,
    returns the sorted ``(scaled_norm, label)`` pairs of the same pass.
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
        norm = _scaled_pairing(datum, x, x)
        if norm <= limit:
            window.append((norm, label))
    window.sort()
    return window if ranked else [label for _, label in window]


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
