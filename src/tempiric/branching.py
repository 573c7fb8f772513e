"""Restriction from K to M for the catalog pairs.

Branching is template based: each catalog entry names one of three rules,
and ``BRANCHING_RULES`` declares each rule once, as one row: the K and M
atom shapes it joins and how a K-label restricts to M
(``restricted_range``).  The multiplicity-space dimension of an M-type sigma
against V is the multiplicity of the dual of sigma in V's restriction,
under the dual convention of the weights module (circle characters
dualize by sign flip).
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

# rule id -> (K atom shape, M atom shape, restriction).  The restriction
# maps a K-label's entries to the range of c whose M-label (c,) occurs,
# each once.
BRANCHING_RULES = {
    PARITY: ((TORUS1,), (CYCLIC2,), lambda n: range(n % 2, n % 2 + 1)),
    TORUS_RESTRICTION: ((SO3,), (TORUS1,), lambda j: range(-j, j + 1)),
    CLEBSCH_DIAGONAL: ((SU2, SU2), (SU2,), lambda a, b: range(abs(a - b), a + b + 1, 2)),
}


def _rule(datum) -> tuple:
    try:
        return BRANCHING_RULES[datum.branching_rule]
    except KeyError:
        raise ValueError(f"no branching rule {datum.branching_rule!r} for this group pair") from None


def restricted_range(datum, tau) -> range:
    """The c whose M-label ``(c,)`` occurs in tau's restriction to M, each once.

    Every rule is multiplicity-free with M a single atom, and restricts
    to an arithmetic progression: ``parity`` to tau's parity bit,
    ``torus-restriction`` to -j..j and ``clebsch-diagonal`` to
    |a-b|..a+b in steps of 2.  The range ascends, as labels sort.
    """
    tau = validate_label(datum.k, tau)
    return _rule(datum)[2](*tau)


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
