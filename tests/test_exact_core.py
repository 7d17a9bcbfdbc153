"""The exact core against independent oracles.

`sympy.Matrix` (test-only) checks `rref`, `rank`, `kernel_basis` and the
lattice operations; `fraction_rref` below, plain Gauss-Jordan elimination
over Gaussian rationals, is the reference the fraction-free `rref` must
match entry for entry.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sieveval import (
    ExactMatrix,
    gaussian,
    join,
    kernel_basis,
    matrix_from_rows,
    meet,
    ortho,
    rref,
    subspace_from_vectors,
)
from sieveval.linalg import rank
from sieveval.rationals import ZERO

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
entries = st.builds(gaussian, small, small)
coefficients = st.builds(gaussian, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def matrices(draw, max_rows=4, max_cols=4):
    """Rows that are random, zero, or combinations of earlier rows."""
    cols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "zero":
            rows.append([ZERO] * cols)
        elif kind == "combination" and rows:
            a, b = draw(coefficients), draw(coefficients)
            first, second = rows[draw(st.integers(0, len(rows) - 1))], rows[-1]
            rows.append([a * x + b * y for x, y in zip(first, second)])
        else:
            rows.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
    return matrix_from_rows(rows)


def fraction_rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reference: Gauss-Jordan elimination with Gaussian-rational division."""
    work = [list(row) for row in m.entries]
    pivots: list[int] = []
    pivot_row = 0
    for col in range(m.cols):
        target = next((r for r in range(pivot_row, m.rows) if not work[r][col].is_zero), None)
        if target is None:
            continue
        work[pivot_row], work[target] = work[target], work[pivot_row]
        inv = work[pivot_row][col].inverse()
        work[pivot_row] = [e * inv for e in work[pivot_row]]
        for r in range(m.rows):
            if r != pivot_row and not work[r][col].is_zero:
                factor = work[r][col]
                work[r] = [e - factor * p for e, p in zip(work[r], work[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == m.rows:
            break
    return ExactMatrix(m.rows, m.cols, tuple(tuple(row) for row in work)), tuple(pivots)


def to_sympy(z):
    return sympy.Rational(z.re.numerator, z.re.denominator) + sympy.I * sympy.Rational(
        z.im.numerator, z.im.denominator
    )


def from_sympy(x):
    x = sympy.expand_complex(x)
    real, imag = sympy.re(x), sympy.im(x)
    return gaussian(Fraction(int(real.p), int(real.q)), Fraction(int(imag.p), int(imag.q)))


def sympy_rows(vectors, cols):
    return sympy.Matrix(len(vectors), cols, [to_sympy(e) for v in vectors for e in v])


def sympy_matrix(m: ExactMatrix):
    return sympy_rows(m.entries, m.cols)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rref_rank_kernel_agree_with_sympy(m):
    reduced, pivots = rref(m)
    expected, expected_pivots = sympy_matrix(m).rref()
    assert pivots == tuple(expected_pivots)
    assert reduced.entries == tuple(
        tuple(from_sympy(expected[i, j]) for j in range(m.cols)) for i in range(m.rows)
    )
    assert rank(m) == sympy_matrix(m).rank()
    kernel = kernel_basis(m)
    expected_kernel = sympy_matrix(m).nullspace()
    assert len(kernel) == len(expected_kernel)
    if kernel:
        ours = sympy_rows(kernel, m.cols).T
        assert (sympy_matrix(m) * ours).expand().is_zero_matrix
        assert sympy.Matrix.hstack(ours, *expected_kernel).rank() == len(kernel)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_matches_fraction_elimination(m):
    assert rref(m) == fraction_rref(m)


def subspaces(ambient):
    return st.lists(st.lists(entries, min_size=ambient, max_size=ambient), max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), subspaces(n), subspaces(n))))
def test_meet_join_ortho_agree_with_sympy_spans(case):
    n, p_vectors, q_vectors = case
    p, q = subspace_from_vectors(n, p_vectors), subspace_from_vectors(n, q_vectors)

    def span(vectors):
        return sympy_rows(vectors, n) if vectors else sympy.zeros(0, n)

    def within(vectors, spanning):
        return sympy.Matrix.vstack(span(vectors), spanning).rank() == spanning.rank()

    p_span, q_span = span(p_vectors), span(q_vectors)
    both = sympy.Matrix.vstack(p_span, q_span)
    j = join(p, q).vectors()
    assert within(j, both) and len(j) == span(j).rank() == both.rank()

    m = meet(p, q).vectors()
    assert within(m, p_span) and within(m, q_span)
    assert len(m) == span(m).rank() == p_span.rank() + q_span.rank() - both.rank()

    o = ortho(p).vectors()
    assert len(o) == span(o).rank() == n - p_span.rank()
    if o and p_vectors:
        assert (p_span * span(o).H).expand().is_zero_matrix
