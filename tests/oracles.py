"""Independent brute-force reimplementations used as test oracles.

Nothing here calls into the package: only its atom-kind constants are
imported, which ``tests/test_oracles_independent.py`` enforces.
Everything is recomputed from first principles (weight multisets,
character sums, exhaustive sweeps, direct enumeration of partitions) so
that agreement is evidence and not tautology.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import isqrt

from tempiric.weights import CYCLIC2, SO3, SU2, TORUS1


def atom_weight_list(kind, v):
    if kind == SU2:
        return list(range(-v, v + 1, 2))
    if kind == SO3:
        return list(range(-v, v + 1))
    return [v]


def weight_multiset(atoms, label):
    axes = [atom_weight_list(kind, v) for kind, v in zip(atoms, label)]
    return Counter(itertools.product(*axes))


def tensor_by_peeling(atoms, label1, label2):
    """Tensor decomposition by peeling highest weights off the product multiset.

    The product multiset is the pairwise sum of the factors' weights
    (parity bits add mod 2).  The lexicographically largest remaining
    weight is always the label of a present irreducible; subtract its
    weight multiset and repeat.
    """
    m1 = weight_multiset(atoms, label1)
    m2 = weight_multiset(atoms, label2)
    product = Counter()
    for w1, c1 in m1.items():
        for w2, c2 in m2.items():
            combined = tuple(
                (a + b) % 2 if kind == CYCLIC2 else a + b
                for kind, a, b in zip(atoms, w1, w2)
            )
            product[combined] += c1 * c2
    out = {}
    while product:
        top = max(w for w, c in product.items() if c > 0)
        out[top] = out.get(top, 0) + 1
        product.subtract(weight_multiset(atoms, top))
        product = +product
    return out


def su2_peel(multiset):
    """Decompose a one-dimensional weight multiset over SU(2) labels."""
    counts = Counter(multiset)
    out = {}
    while counts:
        top = max(w for w, c in counts.items() if c > 0)
        out[top] = out.get(top, 0) + 1
        counts.subtract(range(-top, top + 1, 2))
        counts = +counts
    return out


def restrict_parity_by_characters(n):
    """Restriction of a circle character to the two-element subgroup.

    Computed by character inner products over the subgroup {1, -1}:
    the character value at -1 is (-1)^n.
    """
    at_identity = 1
    at_minus = (-1) ** (n % 2)
    trivial = (at_identity + at_minus) // 2
    sign = (at_identity - at_minus) // 2
    return {k: v for k, v in {(0,): trivial, (1,): sign}.items() if v}


def restrict_so3_by_weights(j):
    return {(n,): 1 for n in range(-j, j + 1)}


def restrict_clebsch_by_weights(a, b):
    """Diagonal restriction of an SU(2) x SU(2) label by torus weights."""
    sums = [
        w1 + w2
        for w1 in atom_weight_list(SU2, a)
        for w2 in atom_weight_list(SU2, b)
    ]
    return {(c,): m for c, m in su2_peel(sums).items()}


def restriction_oracle(datum, tau):
    rule = datum.branching_rule
    if rule == "parity":
        return restrict_parity_by_characters(tau[0])
    if rule == "torus-restriction":
        return restrict_so3_by_weights(tau[0])
    return restrict_clebsch_by_weights(*tau)


def restriction_sum_oracle(datum, v):
    """Restriction of a formal sum of K-labels: its terms' oracles, summed."""
    acc = {}
    for tau, mult in v.items():
        for sigma, m in restriction_oracle(datum, tau).items():
            acc[sigma] = acc.get(sigma, 0) + mult * m
    return acc


def mult_in_induced_oracle(datum, sigma_rep, tau):
    """Multiplicity of tau in the class of sigma_rep, recomputed directly."""
    dual = tuple(
        -v if kind == TORUS1 else v
        for kind, v in zip(datum.m.atoms, sigma_rep)
    )
    return restriction_oracle(datum, tau).get(dual, 0)


def norm_oracle(datum, label):
    coords = [
        v for kind, v in zip(datum.k.atoms, label) if kind != CYCLIC2
    ]
    x = [c + r for c, r in zip(coords, datum.two_rho_c)]
    return sum(
        Fraction(x[i]) * datum.gram[i][j] * x[j]
        for i in range(len(x))
        for j in range(len(x))
    )


def all_klabels_up_to(datum, coord_cap):
    axes = []
    for kind in datum.k.atoms:
        if kind == CYCLIC2:
            axes.append([0, 1])
        elif kind == TORUS1:
            axes.append(list(range(-coord_cap, coord_cap + 1)))
        else:
            axes.append(list(range(0, coord_cap + 1)))
    return [tuple(label) for label in itertools.product(*axes)]


def minimal_ktypes_by_sweep(datum, sigma_rep, coord_cap=30):
    """Exhaustive minimum of the Vogan norm over supported K-types."""
    hits = [
        (norm_oracle(datum, tau), tau)
        for tau in all_klabels_up_to(datum, coord_cap)
        if mult_in_induced_oracle(datum, sigma_rep, tau) > 0
    ]
    best = min(norm for norm, _ in hits)
    return tuple(sorted(tau for norm, tau in hits if norm == best))


def _pairing(gram, x, y):
    return sum(
        Fraction(x[i]) * gram[i][j] * y[j]
        for i in range(len(x))
        for j in range(len(x))
    )


def _partition_count(roots, target, gram, direction):
    """Count nonnegative-integer expressions of target over roots by DFS."""
    if not roots:
        return 1 if all(c == 0 for c in target) else 0
    beta = roots[0]
    step = _pairing(gram, beta, direction)
    assert step > 0
    total = 0
    k = 0
    while _pairing(gram, target, direction) - k * step >= 0:
        reduced = tuple(t - k * b for t, b in zip(target, beta))
        total += _partition_count(roots[1:], reduced, gram, direction)
        k += 1
    return total


def blattner_by_enumeration(datum, lam, tau):
    """Alternating Weyl sum with direct partition enumeration, no caching."""
    ds = datum.ds
    gram = datum.gram
    dim = len(lam)
    pos = [
        beta
        for beta in ds.noncompact_roots
        if _pairing(gram, beta, lam) > 0
    ]
    doubled = [tuple(2 * c for c in beta) for beta in pos]
    base = tuple(
        2 * lam[i] + sum(beta[i] for beta in pos) for i in range(dim)
    )
    coords = [v for kind, v in zip(datum.k.atoms, tau) if kind != CYCLIC2]
    shifted = tuple(2 * coords[i] + datum.two_rho_c[i] for i in range(dim))
    total = 0
    for w in ds.weyl_k:
        moved = tuple(
            sum(w[i][j] * shifted[j] for j in range(dim)) for i in range(dim)
        )
        det = _signed_perm_det(w)
        target = tuple(m - b for m, b in zip(moved, base))
        total += det * _partition_count(doubled, target, gram, lam)
    return total


class InconsistentDatum(Exception):
    """The datum breaks a discrete-series invariant at the named parameter."""


def chamber_by_pairing(datum, lam):
    """The noncompact roots positive on lam under the Fraction Gram, sorted.

    Raises ``InconsistentDatum`` unless exactly half of the listed roots
    are positive (a wall, or a root listed twice).
    """
    roots = datum.ds.noncompact_roots
    pos = sorted(beta for beta in roots if _pairing(datum.gram, beta, lam) > 0)
    if 2 * len(pos) != len(roots):
        raise InconsistentDatum(f"parameter {lam} lies on a noncompact root wall")
    return pos


def half_spin_weights(datum, lam):
    """The weights of S+ minus those of S-, as ``{weight: +-count}``.

    S+ and S- are the half-spin modules of p over the chamber of lam:
    their weights are the signed half-sums of the chamber's positive
    noncompact roots, in S+ when the number of minus signs is even and in
    S- when it is odd.
    """
    pos = chamber_by_pairing(datum, lam)
    weights = Counter()
    for signs in itertools.product((1, -1), repeat=len(pos)):
        doubled = [sum(s * beta[i] for s, beta in zip(signs, pos)) for i in range(len(lam))]
        assert all(c % 2 == 0 for c in doubled), f"half-sum {doubled} / 2 is not integral"
        weights[tuple(c // 2 for c in doubled)] += -1 if signs.count(-1) % 2 else 1
    return weights


def spin_tensor(atoms, module, weights):
    """``module`` tensored with a virtual module of the given weights.

    ``module`` is ``{K-type: multiplicity}`` and ``weights`` is
    ``{weight: multiplicity}``.  Each weight acts on its own: a Torus1
    atom shifts the character, and an SU2 atom takes
    V_a (x) V_1 = V_{a+1} + V_{a-1} (V_{-1} = 0) one weight of V_1 at a
    time, so every SU2 coordinate of a weight must lie in {-1, 0, 1}.
    Returns the nonzero multiplicities.
    """
    for weight in weights:
        for kind, c in zip(atoms, weight):
            assert kind == TORUS1 or (kind == SU2 and abs(c) <= 1), (kind, weight)
    out = Counter()
    for tau, mult in module.items():
        for weight, count in weights.items():
            sigma = tuple(a + b for a, b in zip(tau, weight))
            if all(kind == TORUS1 or c >= 0 for kind, c in zip(atoms, sigma)):
                out[sigma] += mult * count
    return {sigma: v for sigma, v in out.items() if v}


def _parameter_radii(datum, bound):
    # max x_i^2 subject to <x, x> <= bound is bound * (gram^-1)_ii, for
    # x = Lambda + 2 rho_c.  For lambda = Lambda - rho_n + rho_c the radius
    # adds 2 |2 rho_c_i|, which covers 2 rho_c and rho_c, and half the
    # noncompact roots' coordinate mass for rho_n.  This is the package's
    # box: it raises at the first inconsistent parameter scanned, whatever
    # its norm, so the scan visits the same parameters in the same order.
    inverse = invert_rational_matrix(datum.gram)
    return [
        isqrt(int(bound * inverse[i][i]))
        + 2 * abs(datum.two_rho_c[i])
        + (sum(abs(beta[i]) for beta in datum.ds.noncompact_roots) + 1) // 2
        for i in range(len(inverse))
    ]


def ds_enumerate_by_scan(datum, bound):
    """Discrete series by a pointwise scan, as ``[(parameter, lowest K-type)]``.

    Each parameter of the box is tested on its own: it is kept when no
    root pairs to zero with it under the Fraction Gram and it is the
    largest of its compact Weyl images (matrix products).  Its lowest
    K-type is lambda + rho_n - rho_c over ``chamber_by_pairing``, with
    the norm of ``norm_oracle``.  Sorted by (norm, lowest K-type,
    parameter); for groups whose K has no Cyclic2 atom and a bound >= 0.
    Raises ``InconsistentDatum`` at the first inconsistent parameter.
    """
    ds = datum.ds
    bound = Fraction(bound)
    dim = len(datum.gram)
    roots = ds.compact_pos_roots + ds.noncompact_roots
    found, order = {}, []
    boxes = [range(-r, r + 1) for r in _parameter_radii(datum, bound)]
    for lam in itertools.product(*boxes):
        if any(_pairing(datum.gram, alpha, lam) == 0 for alpha in roots):
            continue
        images = [
            tuple(sum(w[i][j] * lam[j] for j in range(dim)) for i in range(dim))
            for w in ds.weyl_k
        ]
        if lam != max(images):
            continue
        pos = chamber_by_pairing(datum, lam)
        doubled = [
            2 * lam[i] + sum(beta[i] for beta in pos) - datum.two_rho_c[i]
            for i in range(dim)
        ]
        if any(c % 2 for c in doubled):
            raise InconsistentDatum(f"lowest K-type of parameter {lam} is not integral")
        lowest = tuple(c // 2 for c in doubled)
        for kind, c in zip(datum.k.atoms, lowest):
            if kind in (SU2, SO3) and c < 0:
                raise InconsistentDatum(
                    f"lowest K-type of parameter {lam} is not dominant: "
                    f"coordinate {c} is not dominant for a {kind} atom"
                )
        norm = norm_oracle(datum, lowest)
        if norm > bound:
            continue
        if lowest in found:
            raise InconsistentDatum(
                f"parameters {found[lowest]} and {lam} share lowest K-type "
                f"({','.join(map(str, lowest))})"
            )
        found[lowest] = lam
        order.append((norm, lowest, lam))
    return [(lam, lowest) for _, lowest, lam in sorted(order)]


def _signed_perm_det(matrix):
    n = len(matrix)
    perm = []
    prod = 1
    for row in matrix:
        ((j, v),) = [(j, v) for j, v in enumerate(row) if v != 0]
        perm.append(j)
        prod *= v
    sign = 1
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign * prod


def invert_rational_matrix(rows):
    """Exact inverse of a square matrix with Fraction entries.

    Raises ZeroDivisionError on a singular matrix.
    """
    n = len(rows)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def dense(matrix):
    """The ``MultMatrix`` as a list of rows, zeros included."""
    return [
        [matrix.entry(i, j) for j in range(len(matrix.cols))]
        for i in range(len(matrix.rows))
    ]


def expand(rows, n):
    """Sparse ``{column: value}`` rows as n-column dense rows, zeros included."""
    return [[row.get(j, 0) for j in range(n)] for row in rows]
