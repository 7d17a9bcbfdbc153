"""The exact core against independent oracles.

`sympy.Matrix` (test-only) checks `integer_rref`, `integer_kernel`, the
canonical integer rows of a subspace, their pivots and the lattice
operations; `insert_rows` is checked against one elimination of all rows
and against `fraction_rref`;
`fraction_rref` below, plain Gauss-Jordan elimination over Gaussian
rationals, is the reference the integer elimination must match entry for
entry.  The `fraction_*` lattice operations are the Gaussian-rational join,
meet, ortho, leq and operator image the integer subspace core replaced, and
`fraction_mat_mul` the Gaussian-rational product the integer operators
replaced, kept here as their reference.  `naive_sublattice` is the closure
under join, meet and ortho that `generate_sublattice` replaced, the
reference for the members it reaches and the caps it meets.
"""

import copy
import pickle
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
from sieveval.errors import LatticeCapExceeded, SingularMatrixError
from sieveval.linalg import insert_rows, integer_kernel, integer_row, integer_rref, inverse, rational_row
from sieveval.rationals import ZERO, GaussianRational
from sieveval.subspaces import generate_sublattice

ONE = gaussian(1)


def examples(n: int) -> int:
    """A property test's budget of n examples, scaled as the loaded
    Hypothesis profile scales the default 100 (ten times under `deep`)."""
    return n * settings.default.max_examples // 100


# Gaussian-rational operations the fraction oracles need and the package no
# longer has: negation, conjugation, inversion and a matrix acting on a vector.
def neg(z: GaussianRational) -> GaussianRational:
    return GaussianRational(-z.re, -z.im)


def conjugate(z: GaussianRational) -> GaussianRational:
    return GaussianRational(z.re, -z.im)


def reciprocal(z: GaussianRational) -> GaussianRational:
    norm = z.re * z.re + z.im * z.im
    return GaussianRational(z.re / norm, -z.im / norm)


def apply(f: ExactMatrix, v) -> tuple:
    return tuple(sum((e * x for e, x in zip(row, v)), ZERO) for row in f.entries)

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
        inv = reciprocal(work[pivot_row][col])
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


@settings(max_examples=examples(80), deadline=None)
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


@settings(max_examples=examples(150), deadline=None)
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


FACTOR_KINDS = ("dense", "dense", "zero", "zero rows", "projector", "permutation")
SQUARE_KINDS = ("projector", "permutation")


@st.composite
def factor_pairs(draw):
    """An r x k and a k x c matrix (r, k, c in 1-4), each dense with mixed
    denominators, a zero matrix, dense with some rows zero, or, square, a
    0/1 diagonal projector or a permutation: the sparse factors whose zero
    entries `mat_mul` skips."""
    left, right = draw(st.sampled_from(FACTOR_KINDS)), draw(st.sampled_from(FACTOR_KINDS))
    k = draw(st.integers(1, 4))
    r = k if left in SQUARE_KINDS else draw(st.integers(1, 4))
    c = k if right in SQUARE_KINDS else draw(st.integers(1, 4))

    def factor(kind, rows, cols):
        if kind == "zero":
            return zero_matrix(rows, cols)
        if kind == "projector":
            return diagonal_matrix(draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)))
        if kind == "permutation":
            image = draw(st.permutations(range(rows)))
            return matrix_from_rows([[int(j == image[i]) for j in range(cols)] for i in range(rows)])
        grid = draw(st.lists(st.lists(mixed_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        if kind == "zero rows":
            kept = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
            grid = [row if keep else [0] * cols for row, keep in zip(grid, kept)]
        return matrix_from_rows(grid)

    return factor(left, r, k), factor(right, k, c)


@settings(max_examples=examples(200), deadline=None, derandomize=True)
@given(factor_pairs())
def test_integer_mat_mul_matches_the_fraction_product(pair):
    a, b = pair
    product, expected = mat_mul(a, b), fraction_mat_mul(a, b)
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert product.entries == expected
    assert product == matrix_from_rows(expected) and in_lowest_terms(product)
    conjugated = tuple(tuple(conjugate(a.entries[i][j]) for i in range(a.rows)) for j in range(a.cols))
    assert conj_transpose(a).entries == conjugated and in_lowest_terms(conj_transpose(a))


@settings(max_examples=examples(100), deadline=None, derandomize=True)
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


def subspaces(ambient):
    return st.lists(st.lists(entries, min_size=ambient, max_size=ambient), max_size=3)


@settings(max_examples=examples(60), deadline=None)
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
            v[pivot_col] = neg(reduced.entries[k][free])
        basis.append(tuple(v))
    return basis


def fraction_join(n, p, q):
    return fraction_span(n, p + q)


def fraction_meet(n, p, q):
    if not p or not q:
        return []
    stacked = matrix_from_rows([[v[i] for v in p] + [neg(w[i]) for w in q] for i in range(n)])
    members = [
        tuple(sum((kv[j] * v[i] for j, v in enumerate(p)), ZERO) for i in range(n))
        for kv in fraction_kernel(stacked)
    ]
    return fraction_span(n, members)


def fraction_ortho(n, p):
    if not p:
        return fraction_span(n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])
    return fraction_span(n, fraction_kernel(matrix_from_rows([[conjugate(e) for e in v] for v in p])))


def fraction_leq(n, p, q):
    return len(fraction_span(n, q + p)) == len(q)


def fraction_apply(f: ExactMatrix, p):
    return fraction_span(f.rows, [apply(f, v) for v in p])


def dimension_and(*parts):
    """A dimension n in 1-4 and, for it, one draw of each part(n)."""
    return st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), *(part(n) for part in parts)))


def spanning_set(n):
    return row_lists(n, 0, 3)


def operator(n):
    return row_lists(n, n, n).map(matrix_from_rows)


@settings(max_examples=examples(150), deadline=None, derandomize=True)
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


@st.composite
def related_pairs(draw, max_dim=4):
    """(n, kind, p, q) spanning sets that random draws rarely give.  q is
    m <= n random vectors; p is Gaussian-integer combinations of them
    ("nested", often a proper subspace) or m other random vectors ("equal",
    generically a distinct space of the same dimension)."""
    n = draw(st.integers(1, max_dim))
    kind = draw(st.sampled_from(["nested", "equal"]))
    m = draw(st.integers(1, n))
    vectors = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)
    q = draw(vectors)
    if kind == "nested":
        combo = st.lists(coefficients.filter(lambda c: not c.is_zero), min_size=m, max_size=m)
        combos = draw(st.lists(combo, min_size=1, max_size=m))
        p = [[sum((c * row[i] for c, row in zip(combo, q)), ZERO) for i in range(n)] for combo in combos]
    else:
        p = draw(vectors)
    return n, kind, p, q


@settings(max_examples=examples(200), deadline=None, derandomize=True)
@given(related_pairs())
def test_leq_and_meet_match_the_fraction_path_on_nested_and_equal_dimension_pairs(case):
    n, kind, p_vectors, q_vectors = case
    p, q = subspace_from_vectors(n, p_vectors), subspace_from_vectors(n, q_vectors)
    p_basis, q_basis = fraction_span(n, p_vectors), fraction_span(n, q_vectors)
    assert leq(p, q) == fraction_leq(n, p_basis, q_basis)
    assert leq(q, p) == fraction_leq(n, q_basis, p_basis)
    assert meet(p, q).vectors() == fraction_meet(n, p_basis, q_basis)
    assert meet(q, p).vectors() == fraction_meet(n, q_basis, p_basis)
    if kind == "nested":
        assert leq(p, q) and meet(p, q) is p
    if p.dim == q.dim:
        assert leq(p, q) == (p is q) == leq(q, p)


def test_related_pairs_reach_every_leq_branch():
    """The draws above include proper subspaces, equal spaces of positive
    dimension and distinct spaces of equal dimension."""
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(related_pairs())
    def collect(case):
        n, kind, p_vectors, q_vectors = case
        p, q = subspace_from_vectors(n, p_vectors), subspace_from_vectors(n, q_vectors)
        if p.dim < q.dim and leq(p, q) and not p.is_zero:
            seen.add("proper")
        if p.dim == q.dim > 0:
            seen.add("same" if p is q else "distinct")

    collect()
    assert seen == {"proper", "same", "distinct"}


@settings(max_examples=examples(100), deadline=None, derandomize=True)
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


@st.composite
def split_rows(draw):
    """(n, a, b) for n in 1-5: Gaussian-rational rows a, and rows b to
    insert after them, among them zero rows, repeats of rows of a and
    combinations of rows of a, which lie in its span."""
    n = draw(st.integers(1, 5))
    a = draw(row_lists(n, 0, 4))
    b = draw(row_lists(n, 0, 3))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "span"]))
        if kind == "zero" or not a:
            row = [ZERO] * n
        elif kind == "repeat":
            row = draw(st.sampled_from(a))
        else:
            x, y = draw(coefficients), draw(coefficients)
            first, second = draw(st.sampled_from(a)), draw(st.sampled_from(a))
            row = [x * u + y * v for u, v in zip(first, second)]
        b.insert(draw(st.integers(0, len(b))), row)
    return n, a, b


@settings(max_examples=examples(200), deadline=None, derandomize=True)
@given(split_rows())
def test_inserting_rows_gives_the_elimination_of_all_rows(case):
    """Against one elimination of all the rows, and against `fraction_rref`
    with each row scaled to integers, which is its canonical primitive
    form: a row with a 1 in it, times the lcm of its denominators."""
    n, a, b = case
    reduced, pivots = integer_rref([integer_row(row) for row in a], n)
    inserted = insert_rows(reduced, pivots, [integer_row(row) for row in b], n)
    assert inserted == integer_rref([integer_row(row) for row in a + b], n)
    expected, expected_pivots = fraction_rref(matrix_from_rows(a + b, n))
    assert inserted == (tuple(integer_row(row) for row in expected.entries[: len(expected_pivots)]), expected_pivots)
    assert insert_rows(reduced, pivots, (), n) == (reduced, pivots)


@settings(max_examples=examples(100), deadline=None, derandomize=True)
@given(related_pairs(max_dim=5))
def test_join_of_a_nested_or_equal_pair_is_the_larger_operand(case):
    n, kind, p_vectors, q_vectors = case
    p, q = subspace_from_vectors(n, p_vectors), subspace_from_vectors(n, q_vectors)
    p_basis, q_basis = fraction_span(n, p_vectors), fraction_span(n, q_vectors)
    for small, large, small_basis, large_basis in ((p, q, p_basis, q_basis), (q, p, q_basis, p_basis)):
        if fraction_leq(n, small_basis, large_basis):
            assert join(small, large) is large and join(large, small) is large
    # the meet lies below both, most often properly
    both = meet(p, q)
    for large in (p, q):
        assert join(both, large) is large and join(large, both) is large


@settings(max_examples=examples(100), deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), spanning_set(n), spanning_set(n))))
def test_stored_pivots_are_sympy_rref_pivots(case):
    n, p_vectors, q_vectors = case
    p, q = subspace_from_vectors(n, p_vectors), subspace_from_vectors(n, q_vectors)
    spanned = ((p, p_vectors), (join(p, q), p_vectors + q_vectors), (ortho(p), ortho(p).vectors()))
    for space, vectors in spanned:
        expected = sympy_rows(vectors, n).rref()[1] if vectors else ()
        assert space.pivots == tuple(expected)


@settings(max_examples=examples(50), deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), spanning_set(n))))
def test_copies_and_pickles_are_the_interned_instance(case):
    n, vectors = case
    space = subspace_from_vectors(n, vectors)
    pivots = tuple(next(j for j, pair in enumerate(row) if pair != (0, 0)) for row in space.rows)
    for copied in (copy.copy(space), copy.deepcopy(space), pickle.loads(pickle.dumps(space))):
        assert copied is space and copied.pivots == pivots


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
    meets = [meet(p, q) for p in lattice for q in lattice]
    images = [apply_operator(f, p) for f in operators for p in lattice]
    assert len(lattice) == 36 and any(order) and not all(order) and len(images) == 3 * 36
    assert set(meets) == set(lattice)
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


def naive_sublattice(seeds, cap, operations=(join, meet)):
    """The closure `generate_sublattice` ran before it was semi-naive, and
    before it dropped meet: each round takes ortho of every element and
    applies each of the binary `operations` to every pair, in order."""
    elements, seen = [], set()

    def add(s):
        if s not in seen:
            if len(elements) >= cap:
                raise LatticeCapExceeded(cap)
            seen.add(s)
            elements.append(s)

    for s in seeds:
        add(s)
    changed = bool(elements)
    while changed:
        snapshot = list(elements)
        for p in snapshot:
            add(ortho(p))
        for i, p in enumerate(snapshot):
            for q in snapshot[i:]:
                for operation in operations:
                    add(operation(p, q))
        changed = len(elements) != len(snapshot)
    return elements


def entry(table, i, j):
    """A `Sublattice` table's entry for members i and j, in either order."""
    return table[i][j - i] if i <= j else table[j][i - j]


def tables_hold(lattice) -> bool:
    """Every row i of the join and meet tables holds the entries for j >= i,
    each the position of the `join` or `meet` of members i and j, read in
    either order, and each ortho entry is the position of the member's
    `ortho`."""
    members, n = lattice.members, len(lattice)
    return (
        all(len(lattice.joins[i]) == len(lattice.meets[i]) == n - i for i in range(n))
        and all(
            members[entry(lattice.joins, i, j)] is join(p, q) and members[entry(lattice.meets, i, j)] is meet(p, q)
            for i, p in enumerate(members)
            for j, q in enumerate(members)
        )
        and all(members[c] is ortho(p) for p, c in zip(members, lattice.orthos))
    )


# Small seeds of C^2 and C^3 generate sublattices of 2 to 12 members, or an
# infinite one, which every cap up to this one stops.
LATTICE_CAP = 16


@st.composite
def sublattice_seeds(draw):
    """One to three rays or planes of C^n, n = 2 or 3, each spanned by
    vectors with real and imaginary parts in {-1, 0, 1}: zero and repeated
    seeds, nested and orthogonal pairs are all likely."""
    n = draw(st.integers(2, 3))
    box = st.builds(gaussian, st.integers(-1, 1), st.integers(-1, 1))
    vectors = st.lists(st.lists(box, min_size=n, max_size=n), min_size=1, max_size=n - 1)
    return [subspace_from_vectors(n, draw(vectors)) for _ in range(draw(st.integers(1, 3)))]


def closure_or_cap(close, seeds, cap):
    """The members `close` reaches from the seeds, as a set, or None where it
    meets the cap."""
    try:
        return set(close(seeds, cap))
    except LatticeCapExceeded:
        return None


@settings(max_examples=examples(100), deadline=None, derandomize=True)
@given(sublattice_seeds())
def test_join_and_ortho_reach_the_members_and_caps_of_the_meet_closure(seeds):
    """At every cap up to `LATTICE_CAP`, `generate_sublattice` reaches the
    member set of the closure under join, meet and ortho, or meets the cap
    where that closure does; its tables hold wherever it closes."""
    for cap in range(1, LATTICE_CAP + 1):
        members = closure_or_cap(generate_sublattice, seeds, cap)
        assert members == closure_or_cap(naive_sublattice, seeds, cap), cap
    if members is not None:
        assert tables_hold(generate_sublattice(seeds, LATTICE_CAP))


def test_sublattice_seeds_reach_large_closures_and_the_cap():
    """The draws above include closures of 8 or more members and closures
    that meet the cap."""
    sizes = set()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(sublattice_seeds())
    def collect(seeds):
        members = closure_or_cap(generate_sublattice, seeds, LATTICE_CAP)
        sizes.add(None if members is None else len(members))

    collect()
    assert None in sizes and max(size for size in sizes if size is not None) >= 8
