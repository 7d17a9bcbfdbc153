"""The exact core against independent oracles.

`sympy.Matrix` (test-only) checks `integer_rref`, `integer_kernel`, the
canonical integer rows of a subspace and the lattice operations;
`fraction_rref` below, plain Gauss-Jordan elimination over Gaussian
rationals, is the reference the integer elimination must match entry for
entry.  The `fraction_*` lattice operations are the Gaussian-rational join,
meet, ortho, leq and operator image the integer subspace core replaced, and
`fraction_mat_mul` the Gaussian-rational product the integer operators
replaced, kept here as their reference.
"""

from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sieveval import (
    ExactMatrix,
    apply_operator,
    close_monoid,
    conj_transpose,
    diagonal_matrix,
    gaussian,
    identity_matrix,
    join,
    leq,
    mat_mul,
    matrix_from_rows,
    meet,
    ortho,
    projector_matrix,
    subspace_from_vectors,
    zero_matrix,
)
from sieveval.errors import SingularMatrixError
from sieveval.linalg import integer_kernel, integer_rref, inverse, rational_row
from sieveval.rationals import ONE, ZERO, GaussianRational
from sieveval.subspaces import generate_sublattice

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
entries = st.builds(gaussian, small, small)
real_entries = st.builds(gaussian, st.integers(-3, 3))
coefficients = st.builds(gaussian, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def row_lists(draw, cols, min_rows=1, max_rows=4):
    """Rows that are random, real integer (so pivots can be negative reals),
    zero, or combinations of earlier rows."""
    rows = []
    for _ in range(draw(st.integers(min_rows, max_rows))):
        kind = draw(st.sampled_from(["random", "real", "zero", "combination"]))
        if kind == "real":
            rows.append(draw(st.lists(real_entries, min_size=cols, max_size=cols)))
        elif kind == "zero":
            rows.append([ZERO] * cols)
        elif kind == "combination" and rows:
            a, b = draw(coefficients), draw(coefficients)
            first, second = rows[draw(st.integers(0, len(rows) - 1))], rows[-1]
            rows.append([a * x + b * y for x, y in zip(first, second)])
        else:
            rows.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
    return rows


@st.composite
def matrices(draw, max_rows=4, max_cols=4):
    return matrix_from_rows(draw(row_lists(draw(st.integers(1, max_cols)), 1, max_rows)))


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
    return matrix_from_rows(work), tuple(pivots)


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """The reduced row echelon form read off `integer_rref`: its canonical
    rows divided by `rational_row`, then zero rows."""
    reduced, pivots = integer_rref(m.numerators, m.cols)
    zero_rows = [[ZERO] * m.cols] * (m.rows - len(pivots))
    return matrix_from_rows([rational_row(row) for row in reduced] + zero_rows), pivots


def rank(m: ExactMatrix) -> int:
    return len(integer_rref(m.numerators, m.cols)[1])


def kernel_basis(m: ExactMatrix):
    """`integer_kernel`, each vector divided by its first nonzero entry."""
    return [rational_row(v) for v in integer_kernel(m.numerators, m.cols)]


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


def fraction_mat_mul(a: ExactMatrix, b: ExactMatrix):
    """Reference: the Gaussian-rational product the integer `mat_mul` replaced."""
    left, right = a.entries, b.entries
    return tuple(
        tuple(sum((left[i][k] * right[k][j] for k in range(a.cols)), ZERO) for j in range(b.cols))
        for i in range(a.rows)
    )


def in_lowest_terms(m: ExactMatrix) -> bool:
    parts = (x for row in m.numerators for pair in row for x in pair)
    return m.denominator > 0 and gcd(m.denominator, *parts) == 1


mixed = st.fractions(min_value=-3, max_value=3, max_denominator=12)
mixed_entries = st.builds(gaussian, mixed, mixed)


@st.composite
def factor_pairs(draw):
    """An r x k and a k x c matrix (r, k, c in 1-4) with mixed denominators,
    each a zero matrix a quarter of the time."""
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))

    def factor(rows, cols):
        if draw(st.integers(0, 3)) == 0:
            return zero_matrix(rows, cols)
        grid = st.lists(st.lists(mixed_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
        return matrix_from_rows(draw(grid))

    return factor(r, k), factor(k, c)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(factor_pairs())
def test_integer_mat_mul_matches_the_fraction_product(pair):
    a, b = pair
    product, expected = mat_mul(a, b), fraction_mat_mul(a, b)
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert product.entries == expected
    assert product == matrix_from_rows(expected) and in_lowest_terms(product)
    conjugated = tuple(tuple(a.entries[i][j].conjugate() for i in range(a.rows)) for j in range(a.cols))
    assert conj_transpose(a).entries == conjugated and in_lowest_terms(conj_transpose(a))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: row_lists(n, n, n)).map(matrix_from_rows))
def test_integer_inverse_is_two_sided_or_the_matrix_is_singular(m):
    if rank(m) < m.rows:
        with pytest.raises(SingularMatrixError):
            inverse(m)
        return
    m_inv = inverse(m)
    assert mat_mul(m, m_inv) == identity_matrix(m.rows) == mat_mul(m_inv, m)
    assert inverse(m_inv) == m and in_lowest_terms(m_inv)


RECTANGLE = [
    [Fraction(1, 2), Fraction(-2, 3), 0],
    [5, gaussian(Fraction(1, 7), 2), gaussian(0, Fraction(-3, 4))],
]


def test_one_matrix_reached_two_ways_has_equal_fields():
    rect = matrix_from_rows(RECTANGLE)
    cases = [
        (mat_mul(diagonal_matrix([Fraction(1, 2)] * 3), diagonal_matrix([2, 2, 2])), identity_matrix(3)),
        (
            mat_mul(
                matrix_from_rows([[Fraction(1, 2), Fraction(1, 3)], [gaussian(0, 1), 0]]),
                diagonal_matrix([2, 3]),
            ),
            matrix_from_rows([[1, 1], [gaussian(0, 2), 0]]),
        ),
        (
            ExactMatrix(2, 2, (((2, 0), (4, 0)), ((0, 6), (0, 0))), 6),
            matrix_from_rows([[Fraction(1, 3), Fraction(2, 3)], [gaussian(0, 1), 0]]),
        ),
        (mat_mul(zero_matrix(2, 3), conj_transpose(rect)), zero_matrix(2, 2)),
        (inverse(diagonal_matrix([2, Fraction(1, 3)])), diagonal_matrix([Fraction(1, 2), 3])),
        (conj_transpose(conj_transpose(rect)), rect),
    ]
    for reached, literal in cases:
        fields = (reached.rows, reached.cols, reached.numerators, reached.denominator)
        assert fields == (literal.rows, literal.cols, literal.numerators, literal.denominator)
        assert reached == literal and hash(reached) == hash(literal) and in_lowest_terms(reached)
    assert identity_matrix(2).numerators == (((1, 0), (0, 0)), ((0, 0), (1, 0)))
    assert identity_matrix(2).denominator == zero_matrix(2, 2).denominator == 1
    # Equal numerators over different denominators are different matrices.
    assert diagonal_matrix([Fraction(1, 2)] * 2) != identity_matrix(2)


def test_matrix_hash_is_the_structural_hash():
    # The values hash((rows, cols, entries)) gave when the Gaussian-rational
    # table was the stored form (64-bit build); `Subspace`'s hash is built
    # from it.
    c, s = Fraction(3, 5), gaussian(0, Fraction(4, 5))
    pinned = [
        (identity_matrix(3), 3286220043835226495),
        (matrix_from_rows([[c, s], [s, c]]), -5847727650461001955),
        (matrix_from_rows(RECTANGLE), -7188810414124942913),
    ]
    for m, value in pinned:
        assert hash(m) == hash((m.rows, m.cols, m.entries)) == value


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


def fraction_span(n, vectors):
    """The canonical basis the Gaussian-rational core stored: the nonzero
    RREF rows of the spanning set."""
    if not vectors:
        return []
    reduced, pivots = fraction_rref(matrix_from_rows([list(v) for v in vectors], expected_cols=n))
    return list(reduced.entries[: len(pivots)])


def fraction_kernel(m: ExactMatrix):
    reduced, pivots = fraction_rref(m)
    basis = []
    for free in (j for j in range(m.cols) if j not in pivots):
        v = [ZERO] * m.cols
        v[free] = ONE
        for k, pivot_col in enumerate(pivots):
            v[pivot_col] = -reduced.entries[k][free]
        basis.append(tuple(v))
    return basis


def fraction_join(n, p, q):
    return fraction_span(n, p + q)


def fraction_meet(n, p, q):
    if not p or not q:
        return []
    stacked = matrix_from_rows([[v[i] for v in p] + [-w[i] for w in q] for i in range(n)])
    members = [
        tuple(sum((kv[j] * v[i] for j, v in enumerate(p)), ZERO) for i in range(n))
        for kv in fraction_kernel(stacked)
    ]
    return fraction_span(n, members)


def fraction_ortho(n, p):
    if not p:
        return fraction_span(n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])
    return fraction_span(n, fraction_kernel(matrix_from_rows([[e.conjugate() for e in v] for v in p])))


def fraction_leq(n, p, q):
    return len(fraction_span(n, q + p)) == len(q)


def fraction_apply(f: ExactMatrix, p):
    return fraction_span(f.rows, [f.apply(v) for v in p])


def dimension_and(*parts):
    """A dimension n in 1-4 and, for it, one draw of each part(n)."""
    return st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), *(part(n) for part in parts)))


def spanning_set(n):
    return row_lists(n, 0, 3)


def operator(n):
    return row_lists(n, n, n).map(matrix_from_rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dimension_and(spanning_set, spanning_set, operator))
def test_integer_core_matches_the_fraction_path(case):
    n, p_vectors, q_vectors, f = case
    p, q = subspace_from_vectors(n, p_vectors), subspace_from_vectors(n, q_vectors)
    p_basis, q_basis = fraction_span(n, p_vectors), fraction_span(n, q_vectors)
    assert p.vectors() == p_basis and q.vectors() == q_basis
    assert join(p, q).vectors() == fraction_join(n, p_basis, q_basis)
    assert meet(p, q).vectors() == fraction_meet(n, p_basis, q_basis)
    assert ortho(p).vectors() == fraction_ortho(n, p_basis)
    assert leq(p, q) == fraction_leq(n, p_basis, q_basis)
    assert leq(meet(p, q), q) and fraction_leq(n, fraction_meet(n, p_basis, q_basis), q_basis)
    assert apply_operator(f, p).vectors() == fraction_apply(f, p_basis)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dimension_and(spanning_set))
def test_canonical_rows_are_primitive_sympy_rref_rows(case):
    n, vectors = case
    space = subspace_from_vectors(n, vectors)
    expected = sympy_rows(vectors, n).rref()[0] if vectors else sympy.zeros(0, n)
    assert space.dim == (expected.rank() if vectors else 0)
    for k, row in enumerate(space.rows):
        assert len(row) == n and all(isinstance(x, int) for pair in row for x in pair)
        pivot_re, pivot_im = next(pair for pair in row if pair != (0, 0))
        assert pivot_im == 0 and pivot_re > 0
        assert gcd(*(x for pair in row for x in pair)) == 1
        divided = tuple(gaussian(Fraction(a, pivot_re), Fraction(b, pivot_re)) for a, b in row)
        assert divided == tuple(from_sympy(expected[k, j]) for j in range(n))


def test_lattice_operations_do_no_gaussian_rational_arithmetic(monkeypatch):
    """A dim-4 MO2 x MO2 sublattice, built like the benchmark's `lattice`
    scenario: two generic rays (1, z) in each of the planes <e1, e2> and
    <e3, e4>.  Join, meet, ortho, leq and apply_operator run on integer
    rows, and projectors, operator products, conjugate transposes and
    inverses on integer matrices, so no `GaussianRational` is multiplied or
    added on the way."""
    a_rays = (gaussian(Fraction(2, 3), Fraction(1, 5)), gaussian(Fraction(-3, 7), 4))
    b_rays = (gaussian(Fraction(-1, 2), Fraction(5, 3)), gaussian(Fraction(7, 4), Fraction(-2, 9)))
    seeds = [subspace_from_vectors(4, [[ONE, z, ZERO, ZERO]]) for z in a_rays]
    seeds += [subspace_from_vectors(4, [[ZERO, ZERO, ONE, z]]) for z in b_rays]
    operators = [
        diagonal_matrix([1, 1, 0, 0]),
        diagonal_matrix([0, 0, 1, 1]),
        matrix_from_rows(
            [[1, gaussian(0, Fraction(1, 2)), 0, 0], [0, 1, 0, Fraction(2, 3)], [0, 0, 0, 0], [3, 0, 0, 1]]
        ),
    ]
    invertible = matrix_from_rows(
        [
            [1, gaussian(0, Fraction(1, 2)), 0, 0],
            [0, 1, 0, Fraction(2, 3)],
            [0, 0, Fraction(5, 7), 0],
            [3, 0, 0, 1],
        ]
    )
    phase = diagonal_matrix([1, 1, gaussian(0, 1), gaussian(0, 1)])
    calls = Counter()
    for name in ("__mul__", "__add__"):
        original = getattr(GaussianRational, name)

        def counted(self, other, original=original, name=name):
            calls[name] += 1
            return original(self, other)

        monkeypatch.setattr(GaussianRational, name, counted)
    misses = meet.cache_info().misses
    lattice = generate_sublattice(seeds, cap=36)
    order = [leq(p, q) for p in lattice for q in lattice]
    images = [apply_operator(f, p) for f in operators for p in lattice]
    assert len(lattice) == 36 and any(order) and not all(order) and len(images) == 3 * 36
    assert meet.cache_info().misses > misses
    # Commuting projectors P, P' (on the two planes) and Q = I - P, and a
    # phase D = i on <e3, e4>: the idempotents I, P, P', Q, 0, each times
    # the powers D^k that it does not absorb, 4 + 1 + 4 + 4 + 1 elements.
    projectors = [projector_matrix(p) for p in (seeds[0], seeds[2], ortho(seeds[0]))]
    monoid = close_monoid(projectors + [phase], cap=64)
    assert len(monoid.elements) == 14
    assert all(mat_mul(p, p) == p == conj_transpose(p) for p in projectors)
    assert mat_mul(invertible, inverse(invertible)) == identity_matrix(4)
    assert calls == Counter()
    assert ONE * ONE + ONE == gaussian(2) and calls == Counter({"__mul__": 1, "__add__": 1})
