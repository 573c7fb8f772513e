"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run pytest
with -s to see them).  Every check is exact integer arithmetic, zero
tolerance; the two timed criteria assert their wall-clock budgets.
"""

import time

import pytest

from tempiric import (
    BUILTIN_NAMES,
    DEFAULT_SEED,
    blattner_mult,
    builtin,
    admissibility_check,
    dimension_identity_check,
    ds_enumerate,
    enumerate_ktypes,
    invert_window,
    mult_matrix,
    random_ktype_sums,
    tempiric_window,
    triangularity_check,
    vogan_bijection_check,
    vogan_norm,
)
from tempiric.branching import restricted_range
from tempiric.figures import CIRCLE, SQUARE, TRIANGLE, build_diagram

import oracles

GRID_BOUNDS = (10, 50, 100, 200)


def _report(name, passed, detail=""):
    line = f"{name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_vogan_bijection():
    start = time.monotonic()
    ok = True
    for name in BUILTIN_NAMES:
        datum = builtin(name)
        for bound in GRID_BOUNDS:
            ok = ok and vogan_bijection_check(tempiric_window(datum, bound)).passed
    elapsed = time.monotonic() - start
    _report(
        "criterion 1 (minimal-K-type bijection, bounds 10/50/100/200)",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_triangularity_and_inverse():
    ok = True
    for name in BUILTIN_NAMES:
        datum = builtin(name)
        for bound in GRID_BOUNDS:
            ok = ok and triangularity_check(tempiric_window(datum, bound)).passed
    for name in ("SO31", "SL2R"):
        datum = builtin(name)
        for bound in GRID_BOUNDS:
            matrix = mult_matrix(tempiric_window(datum, bound))
            dense = oracles.dense(matrix)
            n = len(dense)
            inverse = oracles.expand(invert_window(matrix), n)
            for i in range(n):
                for j in range(n):
                    left = sum(dense[i][t] * inverse[t][j] for t in range(n))
                    right = sum(inverse[i][t] * dense[t][j] for t in range(n))
                    ok = ok and left == right == int(i == j)
    _report("criterion 2 (unit lower-triangularity and integer inverse)", ok)


def test_criterion_3_dimension_identity():
    start = time.monotonic()
    ok = True
    for name in BUILTIN_NAMES:
        datum = builtin(name)
        window = tempiric_window(datum, 60)
        pairs = random_ktype_sums(window, 400, 60, DEFAULT_SEED)
        for v1, v2 in zip(pairs[0::2], pairs[1::2]):
            ok = ok and dimension_identity_check(window, v1, v2).passed
    elapsed = time.monotonic() - start
    _report(
        "criterion 3 (boundary dimension identity, 200 seeded pairs per group)",
        ok and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_4_uniform_admissibility():
    ok = True
    for name in BUILTIN_NAMES:
        datum = builtin(name)
        window = tempiric_window(datum, 60)
        for v in random_ktype_sums(window, 100, 60, DEFAULT_SEED + 1):
            ok = ok and admissibility_check(window, v).passed
    _report("criterion 4 (uniform admissibility, 100 seeded sums per group)", ok)


def test_criterion_5_blattner_consistency():
    ok = True
    for name in ("SL2R", "Sp11"):
        datum = builtin(name)
        window = enumerate_ktypes(datum, 100)
        norms = {tau: vogan_norm(datum, tau) for tau in window}
        for rep in ds_enumerate(datum, 100):
            ok = ok and blattner_mult(datum, rep, rep.min_ktype) == 1
            low = norms[rep.min_ktype]
            for tau in window:
                if norms[tau] < low:
                    ok = ok and blattner_mult(datum, rep, tau) == 0
    sl2r = builtin("SL2R")
    for rep in ds_enumerate(sl2r, 100):
        lowest = rep.min_ktype[0]
        for n in range(-12, 13):
            ladder = (
                n * lowest > 0 and abs(n) >= abs(lowest) and (n - lowest) % 2 == 0
            )
            ok = ok and blattner_mult(sl2r, rep, (n,)) == (1 if ladder else 0)
    _report("criterion 5 (lowest K-type one, vanishing below, exact ladder)", ok)


def test_criterion_6_figure_reproduction():
    datum = builtin("Sp11")
    spec = build_diagram(datum, 6)
    counts = spec.counts()
    ok = counts == {TRIANGLE: 7, SQUARE: 12, CIRCLE: 30}
    ok = ok and len(spec.partners) == 12
    for node, partner in spec.partners.items():
        ok = ok and partner != node and spec.partners[partner] == node
    circles = {n for n, m in spec.markers.items() if m == CIRCLE}
    bound = max(vogan_norm(datum, node) for node in spec.nodes)
    on_grid = {
        rep.min_ktype
        for rep in ds_enumerate(datum, bound)
        if max(rep.min_ktype) <= 6
    }
    ok = ok and circles == on_grid
    _report(
        "criterion 6 (7x7 grid: 7 triangles, 6 square pairs, 30 circles)", ok
    )


def test_criterion_7_oracle_equivalence():
    ok = True
    for name in BUILTIN_NAMES:
        datum = builtin(name)
        for tau in oracles.all_klabels_up_to(datum, 8):
            expected = oracles.restriction_oracle(datum, tau)
            got = {(c,): 1 for c in restricted_range(datum, tau)}
            ok = ok and repr(sorted(got.items())) == repr(sorted(expected.items()))
    for name, sigmas in (
        ("SL2R", [(0,), (1,)]),
        ("SO31", [(n,) for n in range(9)]),
        ("Sp11", [(c,) for c in range(9)]),
    ):
        datum = builtin(name)
        window = tempiric_window(datum, 100)   # each class's minima have norm <= 81
        for sigma in sigmas:
            cls = window.class_of[sigma]
            got = window.classes[cls]
            expected = oracles.minimal_ktypes_by_sweep(datum, cls.representative)
            ok = ok and repr(got) == repr(expected)
    for name in ("SL2R", "Sp11"):
        datum = builtin(name)
        for rep in ds_enumerate(datum, 64):
            for tau in oracles.all_klabels_up_to(datum, 8):
                direct = blattner_mult(datum, rep, tau)
                brute = oracles.blattner_by_enumeration(datum, rep.hc_param, tau)
                ok = ok and direct == brute
    _report("criterion 7 (brute-force oracle equivalence, labels <= 8)", ok)
