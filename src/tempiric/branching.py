"""Restriction from K to M for the catalog pairs.

Branching is template based: each catalog entry names one of three rules,
and the rule fixes how a K-label decomposes over M.  Multiplicity-space
dimensions come from the restriction via the dual convention of the
weights module (circle characters dualize by sign flip).
"""

from __future__ import annotations

from .weights import (
    CYCLIC2,
    SO3,
    SU2,
    TORUS1,
    FormalSum,
    dual_label,
    dual_rule,
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


def _restricted_labels(datum, tau):
    # The M-labels of tau's restriction, each with multiplicity one.
    tau = validate_label(datum.k, tau)
    rule = datum.branching_rule
    if rule == PARITY:
        (n,) = tau
        return ((n % 2,),)
    if rule == TORUS_RESTRICTION:
        (j,) = tau
        return [(n,) for n in range(-j, j + 1)]
    if rule == CLEBSCH_DIAGONAL:
        a, b = tau
        return [(c,) for c in range(abs(a - b), a + b + 1, 2)]
    raise ValueError(f"no branching rule {rule!r} for this group pair")


def restrict_decompose(datum, tau) -> FormalSum:
    """Decomposition of tau restricted to M, as a formal sum of M-labels."""
    return FormalSum({sigma: 1 for sigma in _restricted_labels(datum, tau)})


def restrict_sum(datum, v: FormalSum) -> FormalSum:
    """Restriction of a formal sum of K-labels to M, multiplicities combined."""
    acc: dict = {}
    for tau, mult in v.items():
        for sigma in _restricted_labels(datum, tau):
            acc[sigma] = acc.get(sigma, 0) + mult
    return FormalSum(acc)


def mult_space_dim(datum, sigma, v: FormalSum) -> int:
    """dim of the M-invariants of L_sigma (x) V.

    Equals the multiplicity of the dual of sigma in the restriction of V.
    """
    sigma = validate_label(datum.m, sigma)
    sdual = dual_label(datum.m, sigma)
    return restrict_sum(datum, v)[sdual]


def support_sigmas(datum, v: FormalSum) -> tuple[tuple[int, ...], ...]:
    """The finitely many M-types with a nonzero multiplicity space against V.

    Returned sorted for determinism.
    """
    return restricted_support(datum, restrict_sum(datum, v))


def restricted_support(datum, restricted: FormalSum) -> tuple[tuple[int, ...], ...]:
    """``support_sigmas`` read off a restriction already computed.

    The M-types whose duals occur with positive multiplicity, sorted.
    The branching rules produced its labels, so they are not revalidated.
    """
    dual = dual_rule(datum.m)
    return tuple(sorted({dual(w) for w, mult in restricted.items() if mult > 0}))
