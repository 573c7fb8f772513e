"""Sparse exact window inverse.

Hand-built matrices exercise the pivot search, equal-norm blocks,
non-unit pivots and every refusal; the built-in windows are checked
against the dense ``Fraction`` Gauss-Jordan of
``oracles.invert_rational_matrix``, which shares no code with the sparse
elimination.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempiric.cktheory import (
    EXACT,
    MultMatrix,
    _sparse_product_is_identity,
    invert_window,
    mult_matrix,
)
from tempiric.tempered import InternalInconsistencyError, tempiric_window

import oracles

GRID_BOUNDS = (10, 50, 100, 200)


def _matrix(dense, cols=None):
    n = len(dense)
    m = len(dense[0]) if dense else 0 if cols is None else cols
    entries = {
        (i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v
    }
    return MultMatrix(
        rows=tuple((i,) for i in range(n)),
        cols=tuple(f"c{j}" for j in range(m)),
        entries=entries,
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
    inverse = invert_window(_matrix(dense))
    assert inverse == [[1, 0, 0], [1, 1, -3], [-1, 0, 1]]
    assert inverse == _oracle(dense)


def test_non_triangular_needs_pivot_search():
    dense = [[0, 1], [1, 0]]
    assert invert_window(_matrix(dense)) == [[0, 1], [1, 0]]


def test_non_unit_pivot_with_integral_inverse():
    # det 1, but the first pivot is 2: intermediate rows hold fractions
    dense = [[2, 1, 0], [1, 1, 0], [0, 3, 1]]
    inverse = invert_window(_matrix(dense))
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
    assert invert_window(matrix) == _oracle(oracles.dense(matrix))


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
    assert invert_window(_matrix(dense)) == _oracle(dense)
