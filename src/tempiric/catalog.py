"""Catalog of rank-one group data and the JSON group-definition loader.

The structure constants (identification of M, two_rho_c, root data, the
restricted Weyl action on the M-dual) are shipped as data.  Each built-in
is stored as the document ``catalog --group NAME --format json`` prints
(the JSON schema that ``serialize`` emits) and is read by the same loader
as a ``--group-file``, which checks every field and invariant eagerly.
Everything in the format is exact (integers and "p/q" rational strings;
floats are refused).

The loader raises ``CatalogError`` at the first defect it meets, so the
check order decides which of several defects a document reports.
``_from_document`` reads, in order: ``name``, ``k_atoms``, ``m_atoms``,
``gram``, ``two_rho_c``, ``equal_rank``, ``ds`` (its compact roots,
noncompact roots and W_K matrices, then each matrix's shape),
``branching_rule`` and ``weyl_on_mhat``.  ``_validate`` then checks, in
order: the branching rule against the atoms; ``gram`` symmetric, then
positive-definite; the length of ``two_rho_c``; the Weyl rule;
``equal_rank`` against ``ds``; the ``ds`` invariants.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from .branching import BRANCHING_RULES
from .weights import CYCLIC2, TORUS1, CompactGroup, integer_det, _Value

WEYL_RULES = ("identity", "negate-torus")


class CatalogError(ValueError):
    """Raised for unknown groups, malformed documents, or invariant violations."""


class DiscreteSeriesDatum(_Value):
    """Root and Weyl data for the equal-rank (discrete series) case.

    ``compact_pos_roots`` lists the positive compact roots only; their sum
    must equal the group's two_rho_c.  ``noncompact_roots`` lists the full
    set, closed under negation; the positive system, and with it rho_n and
    the lowest-K-type map, is recovered per parameter from root signs.
    Parameters live in the integer lattice and are regular when no listed
    root (compact or noncompact) vanishes on them.
    """

    def __init__(
        self,
        compact_pos_roots: tuple[tuple[int, ...], ...],
        noncompact_roots: tuple[tuple[int, ...], ...],
        weyl_k: tuple[tuple[tuple[int, ...], ...], ...],
    ):
        self.__dict__.update(
            compact_pos_roots=compact_pos_roots, noncompact_roots=noncompact_roots, weyl_k=weyl_k
        )

    def _key(self) -> tuple:
        return (self.compact_pos_roots, self.noncompact_roots, self.weyl_k)

    @cached_property
    def signed_weyl_k(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
        """``(perm, signs, det)`` of each ``weyl_k`` element, in order.

        The loader certifies every element a signed permutation matrix
        (``_signed_permutation``); this is that certificate, read once, with
        the element's ``integer_det``.
        """
        return tuple((*_signed_permutation(w), integer_det(w)) for w in self.weyl_k)


class GroupDatum(_Value):
    """Everything needed to compute with one rank-one group.

    ``gram_scale`` (D, the lcm of the Gram denominators) and ``int_gram``
    (the integer matrix D * gram) are derived from ``gram`` on
    construction and take no part in equality or hashing.  Norms and
    pairings are computed on ``int_gram``; scaling by D > 0 keeps every
    sign and order.
    """

    def __init__(
        self,
        name: str,
        k: CompactGroup,
        m: CompactGroup,
        branching_rule: str,
        gram: tuple[tuple[Fraction, ...], ...],
        two_rho_c: tuple[int, ...],
        weyl_on_mhat: str,
        equal_rank: bool,
        ds: DiscreteSeriesDatum | None,
    ):
        scale = math.lcm(*(Fraction(v).denominator for row in gram for v in row))
        self.__dict__.update(
            name=name, k=k, m=m, branching_rule=branching_rule, gram=gram,
            two_rho_c=two_rho_c, weyl_on_mhat=weyl_on_mhat, equal_rank=equal_rank,
            ds=ds, gram_scale=scale,
            int_gram=tuple(tuple(int(v * scale) for v in row) for row in gram),
        )

    def _key(self) -> tuple:
        return (
            self.name, self.k, self.m, self.branching_rule, self.gram, self.two_rho_c,
            self.weyl_on_mhat, self.equal_rank, self.ds,
        )


def weyl_image(datum: GroupDatum, sigma) -> tuple[int, ...]:
    """Image of an M-label under the restricted Weyl action on the M-dual."""
    sigma = tuple(sigma)
    if datum.weyl_on_mhat == "identity":
        return sigma
    # negate-torus: flip every circle coordinate, fix the rest
    return tuple(
        -v if kind == TORUS1 else v for kind, v in zip(datum.m.atoms, sigma)
    )


def _signed_permutation(matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(perm, signs)`` of a signed permutation matrix.

    Row r holds ``signs[r]`` in column ``perm[r]`` and zeros elsewhere, so
    the matrix maps a vector v to ``(signs[r] * v[perm[r]])_r``.
    """
    perm = []
    signs = []
    for row in matrix:
        nonzero = [(j, v) for j, v in enumerate(row) if v != 0]
        if len(nonzero) != 1 or nonzero[0][1] not in (1, -1):
            raise CatalogError("wk_elements: entry is not a signed permutation matrix")
        j, v = nonzero[0]
        perm.append(j)
        signs.append(v)
    if sorted(perm) != list(range(len(matrix))):
        raise CatalogError("wk_elements: entry is not a signed permutation matrix")
    return tuple(perm), tuple(signs)


def _validate(datum: GroupDatum) -> GroupDatum:
    dim = datum.k.lattice_dim
    rule = BRANCHING_RULES.get(datum.branching_rule)
    if rule is None:
        raise CatalogError(f"branching_rule: unknown rule {datum.branching_rule!r}")
    if rule[:2] != (datum.k.atoms, datum.m.atoms):
        raise CatalogError(
            f"branching_rule: {datum.branching_rule!r} expects K={rule[0]}, M={rule[1]}, "
            f"got K={datum.k.atoms}, M={datum.m.atoms}"
        )
    for i in range(dim):
        for j in range(i, dim):
            if datum.gram[i][j] != datum.gram[j][i]:
                raise CatalogError("gram: matrix is not symmetric")
    for size in range(1, dim + 1):
        if integer_det(row[:size] for row in datum.int_gram[:size]) <= 0:
            raise CatalogError("gram: matrix is not positive-definite")
    if len(datum.two_rho_c) != dim:
        raise CatalogError("two_rho_c: length does not match the lattice dimension")
    if datum.weyl_on_mhat not in WEYL_RULES:
        raise CatalogError(
            f"weyl_on_mhat: unknown rule {datum.weyl_on_mhat!r}; "
            f"expected one of {WEYL_RULES}"
        )
    if datum.equal_rank != (datum.ds is not None):
        raise CatalogError("equal_rank: must hold exactly when ds data is present")
    if datum.ds is not None:
        _validate_ds(datum, dim)
    return datum


def _validate_ds(datum: GroupDatum, dim: int):
    ds = datum.ds
    if CYCLIC2 in datum.k.atoms:
        raise CatalogError("ds: K with a Cyclic2 atom cannot carry discrete-series data")
    for name, roots in (
        ("compact_roots", ds.compact_pos_roots),
        ("noncompact_roots", ds.noncompact_roots),
    ):
        for root in roots:
            if len(root) != dim:
                raise CatalogError(f"ds.{name}: root {root} has wrong length")
    if not ds.noncompact_roots:
        raise CatalogError("ds.noncompact_roots: must be nonempty")
    noncompact = set(ds.noncompact_roots)
    for root in noncompact:
        if tuple(-c for c in root) not in noncompact:
            raise CatalogError(f"ds.noncompact_roots: set is not closed under negation ({root})")
    identity = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    if identity not in ds.weyl_k:
        raise CatalogError("ds.wk_elements: the identity matrix is missing")
    compact_set = set(ds.compact_pos_roots) | {
        tuple(-c for c in r) for r in ds.compact_pos_roots
    }
    elements = set(ds.weyl_k)
    for w in ds.weyl_k:
        perm, signs = _signed_permutation(w)
        for alpha in compact_set:
            if tuple(s * alpha[p] for p, s in zip(perm, signs)) not in compact_set:
                raise CatalogError("ds.wk_elements: element does not permute the compact roots")
        for v in ds.weyl_k:
            # Row r of w.v is row perm[r] of v, times signs[r].
            prod = tuple(tuple(s * x for x in v[p]) for p, s in zip(perm, signs))
            if prod not in elements:
                raise CatalogError("ds.wk_elements: set is not closed under composition")


# Each built-in is the document ``catalog --group NAME --format json``
# prints, read by the same loader as a group file.
_BUILTINS = {
    "SL2R": {
        "name": "SL2R", "k_atoms": ["Torus1"], "m_atoms": ["Cyclic2"],
        "branching_rule": "parity", "gram": ["1"], "two_rho_c": [0],
        "weyl_on_mhat": "identity", "equal_rank": True,
        "ds": {"compact_roots": [], "noncompact_roots": [[2], [-2]], "wk_elements": [[[1]]]},
    },
    "SO31": {
        "name": "SO31", "k_atoms": ["SO3"], "m_atoms": ["Torus1"],
        "branching_rule": "torus-restriction", "gram": ["1"], "two_rho_c": [1],
        "weyl_on_mhat": "negate-torus", "equal_rank": False, "ds": None,
    },
    "Sp11": {
        "name": "Sp11", "k_atoms": ["SU2", "SU2"], "m_atoms": ["SU2"],
        "branching_rule": "clebsch-diagonal", "gram": ["1", "0", "0", "1"],
        "two_rho_c": [2, 2], "weyl_on_mhat": "identity", "equal_rank": True,
        "ds": {
            "compact_roots": [[2, 0], [0, 2]],
            "noncompact_roots": [[1, 1], [1, -1], [-1, 1], [-1, -1]],
            "wk_elements": [
                [[1, 0], [0, 1]], [[1, 0], [0, -1]], [[-1, 0], [0, 1]], [[-1, 0], [0, -1]],
            ],
        },
    },
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str) -> GroupDatum:
    """The catalog datum for one of the built-in groups."""
    document = _BUILTINS.get(name)
    if document is None:
        raise CatalogError(
            f"unknown group {name!r}; built-ins are {', '.join(BUILTIN_NAMES)}"
        )
    return _from_document(document)


def serialize(datum: GroupDatum) -> dict:
    """JSON-ready document describing the datum (round-trips through load).

    Raises ``CatalogError`` for a Gram entry too long for Python to write
    as text (more than 4,300 digits).
    """
    try:
        gram = [str(v) for row in datum.gram for v in row]
    except ValueError:
        raise CatalogError(
            f"gram: an entry has more than {sys.get_int_max_str_digits()} digits "
            "and cannot be written as text"
        ) from None
    doc = {
        "name": datum.name,
        "k_atoms": list(datum.k.atoms),
        "m_atoms": list(datum.m.atoms),
        "branching_rule": datum.branching_rule,
        "gram": gram,
        "two_rho_c": list(datum.two_rho_c),
        "weyl_on_mhat": datum.weyl_on_mhat,
        "equal_rank": datum.equal_rank,
        "ds": None,
    }
    if datum.ds is not None:
        doc["ds"] = {
            "compact_roots": [list(r) for r in datum.ds.compact_pos_roots],
            "noncompact_roots": [list(r) for r in datum.ds.noncompact_roots],
            "wk_elements": [[list(row) for row in w] for w in datum.ds.weyl_k],
        }
    return doc


def _require(doc: dict, key: str):
    if key not in doc:
        raise CatalogError(f"{key}: missing required key")
    return doc[key]


def _list_field(value, key: str) -> list:
    if not isinstance(value, list):
        raise CatalogError(f"{key}: expected a list, got {type(value).__name__}")
    return value


def _str_field(value, key: str) -> str:
    if not isinstance(value, str):
        raise CatalogError(f"{key}: expected a string, got {type(value).__name__}")
    return value


def _int_vector(value, key: str) -> tuple[int, ...]:
    for v in _list_field(value, key):
        if not isinstance(v, int) or isinstance(v, bool):
            raise CatalogError(f"{key}: {v!r} is not an integer")
    return tuple(value)


def _int_rows(value, key: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_int_vector(row, key) for row in _list_field(value, key))


def _gram_entry(value) -> Fraction:
    if isinstance(value, float):
        raise CatalogError(
            f"gram: float entry {value!r} refused; write it as an integer "
            "or a 'p/q' string"
        )
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise CatalogError("gram: entries must be rationals like '3' or '1/2'")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise CatalogError("gram: entries must be rationals like '3' or '1/2'") from None


def _compact_group(doc: dict, key: str) -> CompactGroup:
    atoms = tuple(_list_field(_require(doc, key), key))
    try:
        return CompactGroup(atoms)
    except ValueError as exc:
        raise CatalogError(f"{key}: {exc}") from None


def _from_document(doc) -> GroupDatum:
    if not isinstance(doc, dict):
        raise CatalogError("document: expected a JSON object")
    name = _str_field(_require(doc, "name"), "name")
    k = _compact_group(doc, "k_atoms")
    m = _compact_group(doc, "m_atoms")
    gram_flat = _list_field(_require(doc, "gram"), "gram")
    dim = k.lattice_dim
    if len(gram_flat) != dim * dim:
        raise CatalogError(f"gram: expected {dim * dim} row-major entries")
    values = [_gram_entry(v) for v in gram_flat]
    gram = tuple(tuple(values[i * dim : (i + 1) * dim]) for i in range(dim))
    two_rho_c = _int_vector(_require(doc, "two_rho_c"), "two_rho_c")
    equal_rank = _require(doc, "equal_rank")
    if not isinstance(equal_rank, bool):
        raise CatalogError("equal_rank: expected a boolean")
    ds_doc = doc.get("ds")
    ds = None
    if ds_doc is not None:
        if not isinstance(ds_doc, dict):
            raise CatalogError("ds: expected an object or null")
        compact = _int_rows(_require(ds_doc, "compact_roots"), "ds.compact_roots")
        noncompact = _int_rows(_require(ds_doc, "noncompact_roots"), "ds.noncompact_roots")
        wk_elements = _list_field(_require(ds_doc, "wk_elements"), "ds.wk_elements")
        wk = tuple(_int_rows(w, "ds.wk_elements") for w in wk_elements)
        for w in wk:
            if len(w) != dim or any(len(row) != dim for row in w):
                raise CatalogError(f"ds.wk_elements: expected {dim}x{dim} matrices")
        ds = DiscreteSeriesDatum(compact, noncompact, wk)
    datum = GroupDatum(
        name=name,
        k=k,
        m=m,
        branching_rule=_str_field(_require(doc, "branching_rule"), "branching_rule"),
        gram=gram,
        two_rho_c=two_rho_c,
        weyl_on_mhat=_str_field(_require(doc, "weyl_on_mhat"), "weyl_on_mhat"),
        equal_rank=equal_rank,
        ds=ds,
    )
    return _validate(datum)


def load(source) -> GroupDatum:
    """Load a group definition from a JSON document.

    ``source`` may be a path, or the JSON text itself (detected by a
    leading brace).  All structural invariants are checked eagerly.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    elif isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text()
        except FileNotFoundError:
            raise CatalogError(f"group file {str(source)!r} does not exist") from None
        except OSError as exc:
            raise CatalogError(
                f"group file {str(source)!r} cannot be read: {exc.strerror or exc}"
            ) from None
        except UnicodeDecodeError:
            raise CatalogError(f"group file {str(source)!r} is not UTF-8 text") from None
    else:
        raise CatalogError("load expects a path or JSON text")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer literal past Python's digit limit,
        # or arrays nested past the recursion limit.
        raise CatalogError(f"parse error: {exc}") from None
    return _from_document(doc)
