"""Sparse exact window inverse.

Hand-built matrices exercise the pivot search, equal-norm blocks,
non-unit pivots and every refusal; the built-in windows are checked
against the dense ``Fraction`` Gauss-Jordan of
``oracles.invert_rational_matrix``, which shares no code with the sparse
elimination.
"""

import copy
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempiric.cktheory import (
    EXACT,
    MultMatrix,
    UnresolvedColumnsError,
    _sparse_product_is_identity,
    invert_window,
    mult_matrix,
)
from tempiric.catalog import builtin, serialize
from tempiric.cli import main
from tempiric.tempered import InternalInconsistencyError, tempiric_window

import oracles
from conftest import half_gram_sp11

GRID_BOUNDS = (10, 50, 100, 200)


@pytest.fixture(scope="module")
def sp11_half_gram():
    return half_gram_sp11()


def _matrix(dense, cols=None):
    n = len(dense)
    m = len(dense[0]) if dense else 0 if cols is None else cols
    nonzeros = [{j: v for j, v in enumerate(row) if v} for row in dense]
    return MultMatrix(
        rows=tuple((i,) for i in range(n)),
        cols=tuple(f"c{j}" for j in range(m)),
        nonzeros=nonzeros,
        resolution=(EXACT,) * m,
    )


def _oracle(dense):
    inverse = oracles.invert_rational_matrix(
        [[Fraction(v) for v in row] for row in dense]
    )
    assert all(v.denominator == 1 for row in inverse for v in row)
    return [[int(v) for v in row] for row in inverse]


def test_equal_norm_block_with_entry_above_diagonal():
    # rows 1 and 2 share a norm; the block [[1, 3], [0, 1]] is upper triangular
    dense = [
        [1, 0, 0],
        [2, 1, 3],
        [1, 0, 1],
    ]
    inverse = oracles.expand(invert_window(_matrix(dense)), 3)
    assert inverse == [[1, 0, 0], [1, 1, -3], [-1, 0, 1]]
    assert inverse == _oracle(dense)


def test_non_triangular_needs_pivot_search():
    dense = [[0, 1], [1, 0]]
    assert oracles.expand(invert_window(_matrix(dense)), 2) == [[0, 1], [1, 0]]


def test_non_unit_pivot_with_integral_inverse():
    # det 1, but the first pivot is 2: intermediate rows hold fractions
    dense = [[2, 1, 0], [1, 1, 0], [0, 3, 1]]
    inverse = oracles.expand(invert_window(_matrix(dense)), 3)
    assert inverse == [[1, -1, 0], [-1, 2, 0], [3, -6, 1]]
    assert inverse == _oracle(dense)


def test_singular_raises():
    with pytest.raises(InternalInconsistencyError, match="singular"):
        invert_window(_matrix([[1, 1, 0], [1, 1, 0], [0, 2, 1]]))


def test_zero_column_raises():
    with pytest.raises(InternalInconsistencyError, match="singular"):
        invert_window(_matrix([[1, 0], [1, 0]]))


def test_non_integral_inverse_raises():
    with pytest.raises(InternalInconsistencyError, match="not integral"):
        invert_window(_matrix([[1, 0], [0, 2]]))


def test_empty_window_inverts_to_empty():
    assert invert_window(_matrix([])) == []


def test_non_square_raises():
    with pytest.raises(InternalInconsistencyError, match="not square"):
        invert_window(_matrix([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(InternalInconsistencyError, match="not square"):
        invert_window(_matrix([], cols=1))


def test_sparse_product_check_sees_every_entry():
    a = [{0: 1}, {0: 1, 1: 1}]
    assert _sparse_product_is_identity(a, [{0: 1}, {0: -1, 1: 1}])
    # a stray off-diagonal entry
    assert not _sparse_product_is_identity(a, [{0: 1}, {1: 1}])
    # a missing diagonal entry
    assert not _sparse_product_is_identity(a, [{0: 1}, {0: -1}])
    # a wrong diagonal value
    assert not _sparse_product_is_identity(a, [{0: 2}, {0: -1, 1: 1}])


@pytest.mark.parametrize("name", ["sl2r", "so31"])
@pytest.mark.parametrize("bound", GRID_BOUNDS)
def test_builtin_windows_match_dense_oracle(request, name, bound):
    matrix = mult_matrix(tempiric_window(request.getfixturevalue(name), bound))
    inverse = oracles.expand(invert_window(matrix), len(matrix.rows))
    assert inverse == _oracle(oracles.dense(matrix))


def _assert_sparse_int_rows(rows):
    # Fraction(3) == 3, so only the type test sees a Fraction that a
    # non-unit pivot left in the inverse.
    for row in rows:
        assert list(row) == sorted(row)
        assert all(type(v) is int and v for v in row.values())


@pytest.mark.parametrize("name", ["sl2r", "so31", "sp11", "sp11_half_gram"])
@pytest.mark.parametrize("bound", GRID_BOUNDS)
def test_builtin_window_inverse_rows_are_ascending_nonzero_ints(request, name, bound):
    # The matrix and its inverse share one row form.  Sp11's windows but
    # the smallest hold aggregate-only columns, so only their matrix rows
    # count there.
    matrix = mult_matrix(tempiric_window(request.getfixturevalue(name), bound))
    before = copy.deepcopy(matrix)
    _assert_sparse_int_rows(matrix.nonzeros)
    # perfbench/child.py counts len(matrix.entries) as the matrix's nonzeros.
    dense = oracles.dense(matrix)
    nonzero = {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}
    assert len(matrix.entries) == sum(map(len, matrix.nonzeros)) == len(nonzero)
    assert matrix.entries == nonzero
    try:
        _assert_sparse_int_rows(invert_window(matrix))
    except UnresolvedColumnsError:
        assert name.startswith("sp11")
    assert matrix == before


def test_non_unit_pivot_inverse_rows_are_ints():
    _assert_sparse_int_rows(invert_window(_matrix([[2, 1, 0], [1, 1, 0], [0, 3, 1]])))


def _unimodular(draw_lower, draw_upper, perm):
    # P . L . U with unit-diagonal L (lower) and U (upper): determinant +-1
    n = len(perm)
    lower = [
        [draw_lower[i][j] if j < i else int(i == j) for j in range(n)]
        for i in range(n)
    ]
    upper = [
        [draw_upper[i][j] if j > i else int(i == j) for j in range(n)]
        for i in range(n)
    ]
    product = [
        [sum(lower[i][t] * upper[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return [product[p] for p in perm]


@st.composite
def unimodular_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    entries = st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
    return _unimodular(draw(entries), draw(entries), draw(st.permutations(range(n))))


@settings(max_examples=60, deadline=None)
@given(unimodular_matrices())
def test_random_unimodular_matches_dense_oracle(dense):
    assert oracles.expand(invert_window(_matrix(dense)), len(dense)) == _oracle(dense)


@settings(max_examples=60, deadline=None)
@given(unimodular_matrices())
def test_random_unimodular_rows_are_ascending_nonzero_ints(dense):
    _assert_sparse_int_rows(invert_window(_matrix(dense)))


# SO31 with two_rho_c set to [-1] is a group file that verify rejects, yet
# ck-matrix prints an inverse for it: its elimination clears entries of the
# matrix part (a cancellation in invert_window), which no command of
# tools/cli_digest.py reaches.  Hashes recorded from the tree before the
# branching rules became table rows; a change to what invert_window owes
# such a file shows here as changed bytes.
WRONG_RHO_C_PINS = {
    "10": "6a6f57b51b99f89324e5feb3674915fae25b76ae7158a036a88410af7242dd4d",
    "20": "7cf23a28624515fc050afbe29aec9d1ff98e52d639703cdda1446eaa22082422",
    "40": "6dc50c1173caa55395d468a9d5def1e32d0a8f5117ffe6ccb380fc9e1a2808c9",
    "60": "3d8ea3eab2b88314a228abdd6e174592b7dccead16be969520a63a2a7a036784",
}

# The same windows as CSV, recorded from the tree before invert_window
# returned sparse rows.  Elimination leaves most of these inverse rows out
# of column order (3 of 5 rows at bound 10, 7 of 9 at 60), and the CSV
# writer prints each row's entries in column order.
WRONG_RHO_C_CSV_PINS = {
    "10": "e8a81c621c2fca649281572dc45f477481a0fba4bd6c51b4ca852d92c6233988",
    "20": "363a0ec09d30a4441bc12deed1f90743069a1f0101bbcc2b0d0ef262d5e1bff7",
    "40": "f474299f1a7e4a226f77a329727ae566ff9c9db0fbaf9fdf2e1c9294adfc7fb5",
    "60": "90dbe4cb1fecf48c72e82ca66127f6800f053c36d5c512b1a7ebd534d290c51c",
}


@pytest.fixture
def wrong_rho_c_file(tmp_path):
    document = serialize(builtin("SO31"))
    document["two_rho_c"] = [-1]
    path = tmp_path / "SO31-wrong-rho-c.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    return str(path)


@pytest.mark.parametrize("bound", sorted(WRONG_RHO_C_PINS, key=int))
def test_ck_matrix_inverts_a_window_that_verify_rejects(capsys, wrong_rho_c_file, bound):
    assert main(["ck-matrix", "--group-file", wrong_rho_c_file, "--bound", bound]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == WRONG_RHO_C_PINS[bound]


@pytest.mark.parametrize("bound", sorted(WRONG_RHO_C_CSV_PINS, key=int))
def test_ck_matrix_csv_of_a_window_that_verify_rejects(capsys, wrong_rho_c_file, bound):
    args = ["ck-matrix", "--group-file", wrong_rho_c_file, "--bound", bound, "--format", "csv"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == WRONG_RHO_C_CSV_PINS[bound]


def test_verify_rejects_the_wrong_two_rho_c(capsys, wrong_rho_c_file):
    assert main(["verify", "--group-file", wrong_rho_c_file, "--bound", "40"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "# verify group=SO31 bound=40 seed=1729",
        "blattner_consistency: pass",
        'vogan_bijection: FAIL {"ktype": "(1)", "representatives": '
        '["PS(sigma={(-1)|(1)},min=(1))", "PS(sigma={(0)},min=(1))"], '
        '"reason": "two representatives share a minimal K-type"}',
        "# FAILURES detected",
    ]
