import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sieveval import (
    conj_transpose,
    diagonal_matrix,
    gaussian,
    identity_matrix,
    mat_mul,
    matrix_from_rows,
    zero_matrix,
)
from sieveval.errors import DimensionMismatch
from sieveval.linalg import integer_kernel, integer_rref, inverse, rational_row
from test_exact_core import examples

small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
entries = st.builds(gaussian, small, small)


def small_matrix(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(matrix_from_rows)


def rref(m):
    """The reduced row echelon form read off `integer_rref`: its canonical
    rows divided by `rational_row`, then zero rows; rank = #pivots."""
    reduced, pivots = integer_rref(m.numerators, m.cols)
    zero_rows = [[0] * m.cols] * (m.rows - len(pivots))
    return matrix_from_rows([rational_row(row) for row in reduced] + zero_rows), pivots


def kernel_basis(m):
    """`integer_kernel`, each vector divided by its first nonzero entry."""
    return [rational_row(v) for v in integer_kernel(m.numerators, m.cols)]


def test_rref_identity():
    reduced, pivots = rref(identity_matrix(2))
    assert reduced == identity_matrix(2)
    assert pivots == (0, 1)


def test_rref_rank_one():
    m = matrix_from_rows([[1, 1], [1, 1]])
    reduced, pivots = rref(m)
    assert reduced == matrix_from_rows([[1, 1], [0, 0]])
    assert pivots == (0,)


def test_rref_shifted_pivot():
    m = matrix_from_rows([[0, 1, 1], [0, 2, 2]])
    reduced, pivots = rref(m)
    assert reduced == matrix_from_rows([[0, 1, 1], [0, 0, 0]])
    assert pivots == (1,)


def test_kernel_identity_empty():
    assert kernel_basis(identity_matrix(3)) == []


def test_kernel_zero_matrix_full():
    basis = kernel_basis(zero_matrix(2, 2))
    assert len(basis) == 2


def test_kernel_single_relation():
    (v,) = kernel_basis(matrix_from_rows([[1, 1]]))
    assert v == (gaussian(1), gaussian(-1))


def test_mat_mul_examples():
    m = matrix_from_rows([[1, 2], [3, 4]])
    assert mat_mul(identity_matrix(2), m) == m
    p1 = diagonal_matrix([1, 0])
    p2 = diagonal_matrix([0, 1])
    assert mat_mul(p1, p2) == zero_matrix(2, 2)
    assert mat_mul(diagonal_matrix([2, 3]), diagonal_matrix([5, 7])) == diagonal_matrix([10, 21])


def test_mat_mul_shape_error():
    with pytest.raises(DimensionMismatch):
        mat_mul(identity_matrix(2), identity_matrix(3))


def test_conj_transpose_examples():
    sym = matrix_from_rows([[1, 2], [2, 5]])
    assert conj_transpose(sym) == sym
    ii = matrix_from_rows([[gaussian(0, 1)]])
    assert conj_transpose(ii) == matrix_from_rows([[gaussian(0, -1)]])
    nil = matrix_from_rows([[0, 1], [0, 0]])
    assert conj_transpose(nil) == matrix_from_rows([[0, 0], [1, 0]])


def test_inverse_round_trip():
    m = matrix_from_rows([[1, 1], [0, 1]])
    assert mat_mul(m, inverse(m)) == identity_matrix(2)


@settings(max_examples=examples(60))
@given(small_matrix(3, 3))
def test_rref_idempotent(m):
    reduced, _ = rref(m)
    again, _ = rref(reduced)
    assert again == reduced


@settings(max_examples=examples(60))
@given(small_matrix(2, 4))
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert all(sum((e * x for e, x in zip(row, v)), gaussian(0)).is_zero for row in m.entries)
    reduced, pivots = rref(m)
    assert len(kernel_basis(m)) == m.cols - len(pivots)


@settings(max_examples=examples(40))
@given(small_matrix(2, 2), small_matrix(2, 2), small_matrix(2, 2))
def test_mat_mul_associative(a, b, c):
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@settings(max_examples=examples(60))
@given(small_matrix(2, 3))
def test_conj_transpose_involution(m):
    assert conj_transpose(conj_transpose(m)) == m
