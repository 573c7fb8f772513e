"""Restriction from K to M for the catalog pairs.

Branching is template based: each catalog entry names one of three rules,
and the rule fixes how a K-label decomposes over M and which K-label
witnesses each M-type (``witness_ktype``).  The multiplicity-space
dimension of an M-type sigma against V is the multiplicity of the dual
of sigma in V's restriction, under the dual convention of the weights
module (circle characters dualize by sign flip).
"""

from __future__ import annotations

from .weights import (
    CYCLIC2,
    SO3,
    SU2,
    TORUS1,
    validate_label,
)

PARITY = "parity"
TORUS_RESTRICTION = "torus-restriction"
CLEBSCH_DIAGONAL = "clebsch-diagonal"

# rule id -> (K atom shape, M atom shape)
BRANCHING_RULES = {
    PARITY: ((TORUS1,), (CYCLIC2,)),
    TORUS_RESTRICTION: ((SO3,), (TORUS1,)),
    CLEBSCH_DIAGONAL: ((SU2, SU2), (SU2,)),
}


def restricted_range(datum, tau) -> range:
    """The c whose M-label ``(c,)`` occurs in tau's restriction to M, each once.

    Every rule is multiplicity-free with M a single atom, and restricts
    to an arithmetic progression: ``parity`` to tau's parity bit,
    ``torus-restriction`` to -j..j and ``clebsch-diagonal`` to
    |a-b|..a+b in steps of 2.  The range ascends, as labels sort.
    """
    tau = validate_label(datum.k, tau)
    rule = datum.branching_rule
    if rule == PARITY:
        (n,) = tau
        return range(n % 2, n % 2 + 1)
    if rule == TORUS_RESTRICTION:
        (j,) = tau
        return range(-j, j + 1)
    if rule == CLEBSCH_DIAGONAL:
        a, b = tau
        return range(abs(a - b), a + b + 1, 2)
    raise ValueError(f"no branching rule {rule!r} for this group pair")


def witness_ktype(datum, sigma) -> tuple[int, ...]:
    """A K-type whose restriction to M contains the dual of sigma.

    Its Vogan norm bounds the minimal norm of sigma's class from above.
    """
    sigma = validate_label(datum.m, sigma)
    rule = datum.branching_rule
    if rule == PARITY:
        return sigma
    if rule == TORUS_RESTRICTION:
        (n,) = sigma
        return (abs(n),)
    if rule == CLEBSCH_DIAGONAL:
        (c,) = sigma
        return (c, 0)
    raise ValueError(f"no branching rule {rule!r} for this group pair")


def restricted_support(duals, restricted) -> tuple[tuple[int, ...], ...]:
    """The M-types whose duals occur with positive multiplicity, sorted.

    ``restricted`` is a restriction to M as a ``{(c,): multiplicity}``
    dict, the sum of its rows' ``restricted_range`` that
    ``Window.restriction`` builds, and ``duals`` maps each of its labels
    to the dual label (``Window.duals``); the result is the M-types with
    a nonzero multiplicity space against the restricted sum.  The
    branching rules produced its labels, so they are not revalidated.
    """
    return tuple(sorted({duals[w] for w, mult in restricted.items() if mult > 0}))
