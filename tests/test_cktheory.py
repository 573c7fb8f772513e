from bisect import bisect_left
from types import SimpleNamespace

import pytest

from tempiric import builtin, cktheory, tempered
from tempiric.branching import restricted_support
from tempiric.cktheory import (
    AGGREGATE_ONLY,
    EXACT,
    DEFAULT_SEED,
    MultMatrix,
    UnresolvedColumnsError,
    admissibility_check,
    blattner_consistency_check,
    composite_map,
    dimension_identity_check,
    invert_window,
    mult_matrix,
    random_ktype_sums,
    triangularity_check,
    vogan_bijection_check,
    WindowError,
)
from tempiric.tempered import (
    InternalInconsistencyError,
    TempiricRep,
    format_label,
    tempiric_window,
)

import oracles
from conftest import half_gram_sp11


def test_mult_matrix_so31_all_ones_triangle(so31):
    matrix = mult_matrix(tempiric_window(so31, 16))
    assert matrix.rows == ((0,), (1,), (2,), (3,))
    assert all(flag == EXACT for flag in matrix.resolution)
    for i, tau in enumerate(matrix.rows):
        for j, rep in enumerate(matrix.cols):
            n = rep.ps_class.representative[0]
            assert matrix.entry(i, j) == (1 if tau[0] >= n else 0)


def test_mult_matrix_sl2r_sign_resolution(sl2r):
    matrix = mult_matrix(tempiric_window(sl2r, 9))
    assert all(flag == EXACT for flag in matrix.resolution)
    by_desc = {rep.describe(): j for j, rep in enumerate(matrix.cols)}
    plus = by_desc["PS(sigma={(1)},min=(1),split)"]
    minus = by_desc["PS(sigma={(1)},min=(-1),split)"]
    row = {tau: i for i, tau in enumerate(matrix.rows)}
    for n in range(-3, 4):
        expected_plus = 1 if n > 0 and n % 2 else 0
        expected_minus = 1 if n < 0 and n % 2 else 0
        assert matrix.entry(row[(n,)], plus) == expected_plus
        assert matrix.entry(row[(n,)], minus) == expected_minus


def test_mult_matrix_split_columns_sum_to_aggregate(sl2r):
    window = tempiric_window(sl2r, 100)
    matrix = mult_matrix(window)
    sign_class = window.class_of[(1,)]
    split = [
        j for j, rep in enumerate(matrix.cols)
        if rep.kind == "ps" and rep.split
    ]
    assert len(split) == 2
    sigma = sign_class.representative
    for i, tau in enumerate(matrix.rows):
        total = sum(matrix.entry(i, j) for j in split)
        assert total == oracles.mult_in_induced_oracle(sl2r, sigma, tau)


def test_mult_matrix_sp11_aggregate_columns(sp11):
    window = tempiric_window(sp11, 20)
    matrix = mult_matrix(window)
    row = {tau: i for i, tau in enumerate(matrix.rows)}
    split = {
        rep.min_ktype: j
        for j, rep in enumerate(matrix.cols)
        if rep.kind == "ps" and rep.split
    }
    assert set(split) == {(0, 1), (1, 0)}
    for min_ktype, j in split.items():
        assert matrix.resolution[j] == AGGREGATE_ONLY
        partner = (min_ktype[1], min_ktype[0])
        assert matrix.entry(row[min_ktype], j) == 1
        assert matrix.entry(row[partner], j) == 0
    # away from the minima the split columns carry the class aggregate
    sigma = window.class_of[(1,)].representative
    for tau in matrix.rows:
        if tau in split or (tau[1], tau[0]) in split:
            continue
        for j in split.values():
            expected = oracles.mult_in_induced_oracle(sp11, sigma, tau)
            assert matrix.entry(row[tau], j) == expected


def test_bijection_examples(sl2r, so31, sp11):
    assert vogan_bijection_check(tempiric_window(sl2r, 16)).passed
    assert vogan_bijection_check(tempiric_window(so31, 25)).passed
    report = vogan_bijection_check(tempiric_window(sp11, 41))
    assert report.passed
    assert report.data["ktypes"] == report.data["representatives"] == 17


def test_triangularity_examples(sl2r, so31, sp11):
    assert triangularity_check(tempiric_window(so31, 16)).passed
    assert triangularity_check(tempiric_window(sl2r, 9)).passed
    assert triangularity_check(tempiric_window(sp11, 20)).passed


@pytest.mark.parametrize("name", ["SL2R", "SO31", "Sp11", "Sp11-half-gram"])
def test_window_matrix_is_unit_lower_triangular(name):
    # Stricter than triangularity_check, which leaves the entries above the
    # diagonal within a block of equal norm unchecked: in row order, every
    # entry lies on or below the diagonal and every diagonal entry is 1.
    datum = half_gram_sp11() if name == "Sp11-half-gram" else builtin(name)
    for bound in range(101):
        matrix = tempiric_window(datum, bound).matrix
        assert len(matrix.rows) == len(matrix.cols), bound
        assert all(i >= j for i, row in enumerate(matrix.nonzeros) for j in row), bound
        assert all(matrix.entry(j, j) == 1 for j in range(len(matrix.cols))), bound


@pytest.mark.parametrize("position", ["first", "last"])
def test_triangularity_reports_a_nonzero_below_the_minimum(sp11, position):
    # Plant a nonzero in the last column at the first or last row below
    # its minimal K-type's norm; every earlier entry is consistent.
    window = tempiric_window(sp11, 20)
    matrix = window.matrix
    j = len(matrix.cols) - 1
    rep = matrix.cols[j]
    below = bisect_left(window.norms, window.norms[window.row_index[rep.min_ktype]])
    assert below > 1
    i = 0 if position == "first" else below - 1
    matrix.nonzeros[i][j] = 5
    report = triangularity_check(window)
    assert not report.passed
    assert report.counterexample == {
        "representative": rep.describe(),
        "ktype": format_label(matrix.rows[i]),
        "entry": 5,
        "reason": "nonzero entry below the minimal norm",
    }


def test_sp11_blattner_vanishing_rows(sp11):
    matrix = mult_matrix(tempiric_window(sp11, 20))
    row = {tau: i for i, tau in enumerate(matrix.rows)}
    (j20,) = [
        j for j, rep in enumerate(matrix.cols)
        if rep.kind == "ds" and rep.min_ktype == (2, 0)
    ]
    for tau in ((0, 0), (1, 0), (0, 1), (1, 1)):
        assert matrix.entry(row[tau], j20) == 0


def test_composite_map_examples(sl2r, sp11):
    image = composite_map(tempiric_window(sl2r, 9), (0,))
    assert {rep.describe(): v for rep, v in image.items()} == {
        "PS(sigma={(0)},min=(0))": 1
    }
    image = composite_map(tempiric_window(sl2r, 9), (2,))
    assert {rep.describe(): v for rep, v in image.items()} == {
        "PS(sigma={(0)},min=(0))": 1,
        "DS(lambda=(1),Lambda=(2))": 1,
    }
    image = composite_map(tempiric_window(sp11, 20), (0, 0))
    assert {rep.describe(): v for rep, v in image.items()} == {
        "PS(sigma={(0)},min=(0,0))": 1
    }


def test_composite_map_matches_matrix():
    # Sp11 carries unresolved split pairs, SL2R a pair resolved by sign,
    # and SO31 two-member orbits with no split.
    for name in ("SL2R", "SO31", "Sp11"):
        datum = builtin(name)
        matrix = mult_matrix(tempiric_window(datum, 41))
        assert (AGGREGATE_ONLY in matrix.resolution) == (name == "Sp11")
        for i, tau in enumerate(matrix.rows):
            image = composite_map(tempiric_window(datum, 41), tau)
            assert 0 not in image.values()
            for j, rep in enumerate(matrix.cols):
                assert image.get(rep, 0) == matrix.entry(i, j), (name, tau, rep.describe())


def test_composite_map_reads_one_row(monkeypatch, sp11):
    def whole_matrix(*args):
        raise AssertionError("composite_map built the whole matrix")

    # Window.matrix resolves mult_matrix in tempered; cktheory re-exports it.
    for module in (tempered, cktheory):
        monkeypatch.setattr(module, "mult_matrix", whole_matrix)
    window = tempiric_window(sp11, 400)
    image = composite_map(window, (0, 0))
    assert {rep.describe(): v for rep, v in image.items()} == {
        "PS(sigma={(0)},min=(0,0))": 1
    }


def test_composite_map_window_error(sl2r):
    with pytest.raises(WindowError):
        composite_map(tempiric_window(sl2r, 9), (10,))


def test_composite_map_refuses_a_label_that_is_not_a_sequence(sl2r):
    with pytest.raises(ValueError) as refusal:
        composite_map(tempiric_window(sl2r, 9), 5)
    assert str(refusal.value) == "label 5 is not a sequence"


def test_invert_so31_bidiagonal(so31):
    # inverse of the all-ones lower triangle: unit diagonal, -1 one step below
    sparse = invert_window(mult_matrix(tempiric_window(so31, 16)))
    n = len(sparse)
    inverse = oracles.expand(sparse, n)
    for i in range(n):
        for j in range(n):
            if i == j:
                assert inverse[i][j] == 1
            elif i == j + 1:
                assert inverse[i][j] == -1
            else:
                assert inverse[i][j] == 0


def test_invert_sl2r_exact(sl2r):
    matrix = mult_matrix(tempiric_window(sl2r, 9))
    dense = oracles.dense(matrix)
    n = len(dense)
    inverse = oracles.expand(invert_window(matrix), n)
    for i in range(n):
        for j in range(n):
            left = sum(dense[i][t] * inverse[t][j] for t in range(n))
            right = sum(inverse[i][t] * dense[t][j] for t in range(n))
            assert left == right == int(i == j)


def test_invert_sp11_refuses(sp11):
    with pytest.raises(UnresolvedColumnsError) as excinfo:
        invert_window(mult_matrix(tempiric_window(sp11, 20)))
    assert all("split" in column for column in excinfo.value.columns)
    assert len(excinfo.value.columns) == 2


def test_dimension_identity_examples(sl2r, sp11):
    v11 = {(1, 1): 1}
    sp11_window = tempiric_window(sp11, 20)
    report = dimension_identity_check(sp11_window, v11, v11)
    assert report.passed and report.data == {"lhs": 2, "rhs": 2}
    report = dimension_identity_check(
        sp11_window, {(1, 0): 1}, {(0, 1): 1}
    )
    assert report.passed and report.data == {"lhs": 1, "rhs": 1}
    report = dimension_identity_check(
        tempiric_window(sl2r, 9), {(0,): 1}, {(0,): 1}
    )
    assert report.passed and report.data == {"lhs": 1, "rhs": 1}


def _self_blocks(window, v):
    # The boundary blocks of v against itself, read off its restriction
    # and support as dimension_identity_check reads them.
    r = window.restriction(v)
    return cktheory._boundary_blocks(window, r, r, set(restricted_support(window.duals, r)))


def test_boundary_blocks_so31(so31):
    v = {(1,): 1}
    blocks = _self_blocks(tempiric_window(so31, 16), v)
    rendered = {
        (block if isinstance(block, str) else block.orbit): d
        for block, d in blocks
    }
    assert rendered == {((0,),): 1, ((-1,), (1,)): 2}
    assert sum(rendered.values()) == 3


def test_boundary_blocks_sl2r(sl2r):
    v = {(1,): 1}
    blocks = _self_blocks(tempiric_window(sl2r, 9), v)
    rendered = {
        (block if isinstance(block, str) else block.orbit): d
        for block, d in blocks
    }
    assert rendered == {"discrete-series": 0, ((0,),): 0, ((1,),): 1}


def test_boundary_total_matches_identity(sl2r, so31, sp11):
    for datum in (sl2r, so31, sp11):
        window = tempiric_window(datum, 40)
        for v1, v2 in zip(
            random_ktype_sums(window, 20, 40, DEFAULT_SEED),
            random_ktype_sums(window, 20, 40, DEFAULT_SEED + 7),
        ):
            assert dimension_identity_check(window, v1, v2).passed


def test_admissibility_examples(sl2r, so31, sp11):
    report = admissibility_check(tempiric_window(sp11, 60), {(3, 2): 1})
    assert report.passed
    assert report.data["support"] == ["(1)", "(3)", "(5)"]
    assert admissibility_check(tempiric_window(so31, 1), {(0,): 1}).passed
    window = tempiric_window(sl2r, 36)
    assert admissibility_check(window, {(5,): 2, (0,): 1}).passed


def test_blattner_consistency(sl2r, so31, sp11):
    for datum in (sl2r, so31, sp11):
        assert blattner_consistency_check(tempiric_window(datum, 60)).passed


def test_checks_on_sampled_grid(sl2r, so31, sp11):
    for datum in (sl2r, so31, sp11):
        for bound in (0, 9, 35, 80, 143, 200):
            window = tempiric_window(datum, bound)
            assert vogan_bijection_check(window).passed, (datum.name, bound)
            assert triangularity_check(window).passed, (datum.name, bound)


def test_failing_report_requires_counterexample():
    from tempiric.cktheory import VerificationReport

    with pytest.raises(ValueError):
        VerificationReport("broken", False)
    report = VerificationReport("ok", True)
    assert report.counterexample is None


def test_random_ktype_sums_keep_their_draws(so31, sp11):
    # The first draws for two seeds, term order included.  The same RNG
    # calls in the same order give the same sums, so verify checks the same
    # pairs.
    pinned = {
        (so31, 100, 60, 1729): [
            [((0,), 2), ((3,), 1), ((4,), 3)],
            [((1,), 2)],
            [((2,), 1), ((6,), 3), ((1,), 3)],
            [((0,), 2), ((4,), 2)],
        ],
        (sp11, 41, 41, 1730): [
            [((2, 2), 1)],
            [((3, 1), 3), ((1, 1), 3), ((0, 1), 1)],
            [((2, 1), 1), ((1, 3), 1)],
            [((1, 0), 2)],
        ],
    }
    for (datum, bound, cap, seed), expected in pinned.items():
        sums = random_ktype_sums(tempiric_window(datum, bound), 4, cap, seed)
        assert [list(v.items()) for v in sums] == expected
        for v, terms in zip(sums, expected):
            assert type(v) is dict and v == dict(terms)


# Failures that no built-in window reaches: a hand-built window (the
# ``matrix`` and ``row_index`` the two matrix checks read) or a real window
# whose columns are monkeypatched.

def _hand_built(rows, cols, nonzeros):
    matrix = MultMatrix(tuple(rows), tuple(cols), nonzeros, (EXACT,) * len(cols))
    return SimpleNamespace(matrix=matrix, row_index={tau: i for i, tau in enumerate(rows)})


ZERO, FIVE = TempiricRep("ds", (0,), hc_param=(1,)), TempiricRep("ds", (5,), hc_param=(4,))


def test_vogan_bijection_fails_when_a_minimum_escapes_the_window():
    report = vogan_bijection_check(_hand_built([(0,)], [ZERO, FIVE], [{0: 1}]))
    assert not report.passed
    assert report.counterexample == {
        "representative": FIVE.describe(),
        "reason": "minimal K-type escapes the window",
    }


def test_triangularity_fails_when_a_minimum_is_not_in_the_window():
    report = triangularity_check(_hand_built([(0,)], [FIVE], [{}]))
    assert not report.passed
    assert report.counterexample == {
        "representative": FIVE.describe(),
        "reason": "minimal K-type not in the window",
    }


def _doubled_at_minima(monkeypatch):
    # Every column reads twice its entry at its own minimal K-type.
    real = tempered._column

    def doubled(window, rep):
        flag, entry, support = real(window, rep)
        pivot = window.row_index[rep.min_ktype]
        return flag, lambda i: 2 * entry(i) if i == pivot else entry(i), support

    monkeypatch.setattr(tempered, "_column", doubled)


def test_vogan_bijection_fails_at_a_minimal_multiplicity_other_than_1(monkeypatch, sl2r):
    _doubled_at_minima(monkeypatch)
    window = tempiric_window(sl2r, 9)
    report = vogan_bijection_check(window)
    assert not report.passed
    assert report.counterexample == {
        "representative": window.reps[0].describe(),
        "multiplicity": 2,
        "reason": "minimal K-type multiplicity differs from 1",
    }


def test_triangularity_fails_at_a_diagonal_entry_other_than_1(monkeypatch, sl2r):
    _doubled_at_minima(monkeypatch)
    window = tempiric_window(sl2r, 9)
    report = triangularity_check(window)
    assert not report.passed
    assert report.counterexample == {
        "representative": window.reps[0].describe(),
        "entry": 2,
        "reason": "diagonal entry differs from 1",
    }


def test_invert_window_raises_when_the_product_check_fails(monkeypatch, sl2r):
    matrix = tempiric_window(sl2r, 9).matrix
    monkeypatch.setattr(cktheory, "_sparse_product_is_identity", lambda a, b: False)
    with pytest.raises(InternalInconsistencyError, match="inverse verification failed"):
        invert_window(matrix)
