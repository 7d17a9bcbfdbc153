"""Dense exact matrices: Gaussian-integer numerators over one denominator.

Scenario dimensions are tiny, so everything is dense and immutable.  An
`ExactMatrix` stores its entries as (re, im) int pairs over one positive
integer denominator, in lowest terms, so equal matrices have equal fields
and compare as ints.  Products, conjugate transposes and inverses are
computed on these integers; Gaussian rationals are read (`entries`) and
written (`matrix_from_rows`, `matrix_from_cols`, `diagonal_matrix`) only at
the boundary.

There is one elimination, `integer_rref`: fraction-free Gauss-Jordan on
Gaussian-integer rows, returning each row of the reduced row echelon form
in a canonical primitive form (pivot a positive integer).  `integer_kernel`
reads the null space off it, and `inverse` reads the inverse off the
reduced form of [N | d I].  `rational_row` divides a row by its first
nonzero entry, the one exact division.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, SingularMatrixError
from .rationals import ZERO, GaussianRational, gaussian

Vector = tuple[GaussianRational, ...]
IntegerRow = tuple[tuple[int, int], ...]


class ExactMatrix:
    """Immutable dense matrix: entry (i, j) is numerators[i][j] / denominator.

    The constructor brings the fraction to lowest terms: the denominator is
    positive and no integer above 1 divides it and every part of every
    numerator.  The hash is the structural hash of (rows, cols, entries),
    computed once, on first use.
    """

    __slots__ = ("rows", "cols", "numerators", "denominator", "_hash")

    def __init__(self, rows: int, cols: int, numerators: tuple[IntegerRow, ...], denominator: int = 1):
        common = gcd(denominator, *(x for row in numerators for pair in row for x in pair))
        if common != 1:
            numerators = tuple(tuple((a // common, b // common) for a, b in row) for row in numerators)
            denominator //= common
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.rows, self.cols, self.entries)))
        return self._hash

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}, {self.cols}, {self.numerators!r}, {self.denominator})"

    @property
    def entries(self) -> tuple[Vector, ...]:
        """The Gaussian-rational entries, row by row (built on each read)."""
        d = self.denominator
        return tuple(
            tuple(GaussianRational(Fraction(a, d), Fraction(b, d)) for a, b in row) for row in self.numerators
        )

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(f"matrix is {self.rows}x{self.cols}, vector has {len(v)}")
        return tuple(sum((e * x for e, x in zip(row, v)), ZERO) for row in self.entries)

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.entries) + "]"


def _from_scalars(rows: int, cols: int, entries: Sequence[Sequence[GaussianRational]]) -> ExactMatrix:
    """The matrix of Gaussian-rational entries, scaled once to integers."""
    scale = _scale(e for row in entries for e in row)
    return ExactMatrix(rows, cols, tuple(tuple(_scaled(e, scale) for e in row) for row in entries), scale)


def matrix_from_rows(rows: Sequence[Sequence], expected_cols: int | None = None) -> ExactMatrix:
    coerced = [[gaussian(e) if not isinstance(e, GaussianRational) else e for e in row] for row in rows]
    n_rows = len(coerced)
    n_cols = len(coerced[0]) if n_rows else (expected_cols or 0)
    if any(len(row) != n_cols for row in coerced):
        raise DimensionMismatch("ragged rows")
    if expected_cols is not None and n_rows and n_cols != expected_cols:
        raise DimensionMismatch(f"expected {expected_cols} columns, got {n_cols}")
    return _from_scalars(n_rows, n_cols, coerced)


def matrix_from_cols(cols: Sequence[Vector], n_rows: int) -> ExactMatrix:
    if any(len(c) != n_rows for c in cols):
        raise DimensionMismatch("column length mismatch")
    return _from_scalars(n_rows, len(cols), [[c[i] for c in cols] for i in range(n_rows)])


def identity_matrix(n: int) -> ExactMatrix:
    return ExactMatrix(n, n, tuple(tuple((int(i == j), 0) for j in range(n)) for i in range(n)))


def zero_matrix(rows: int, cols: int) -> ExactMatrix:
    return ExactMatrix(rows, cols, tuple(((0, 0),) * cols for _ in range(rows)))


def diagonal_matrix(values: Sequence) -> ExactMatrix:
    vals = [gaussian(v) if not isinstance(v, GaussianRational) else v for v in values]
    n = len(vals)
    return _from_scalars(n, n, [[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])


def _dot(u: Sequence[tuple[int, int]], v: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Σ u_j v_j over the Gaussian integers (no conjugation)."""
    re = im = 0
    for (a, b), (c, d) in zip(u, v):
        re += a * c - b * d
        im += a * d + b * c
    return re, im


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    b_cols = tuple(zip(*b.numerators)) or ((),) * b.cols
    return ExactMatrix(
        a.rows,
        b.cols,
        tuple(tuple(_dot(row, col) for col in b_cols) for row in a.numerators),
        a.denominator * b.denominator,
    )


def conj_transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(
        m.cols,
        m.rows,
        tuple(tuple((a, -b) for a, b in col) for col in zip(*m.numerators)) or ((),) * m.cols,
        m.denominator,
    )


def _scale(entries: Iterable[GaussianRational]) -> int:
    """The lcm of the denominators of the entries' parts (1 when empty)."""
    return lcm(*(x.denominator for e in entries for x in (e.re, e.im)))


def _scaled(e: GaussianRational, scale: int) -> tuple[int, int]:
    return (e.re.numerator * (scale // e.re.denominator), e.im.numerator * (scale // e.im.denominator))


def integer_row(row: Sequence[GaussianRational]) -> IntegerRow:
    """The row scaled by the lcm of its denominators, as (re, im) int pairs."""
    scale = _scale(row)
    return tuple(_scaled(e, scale) for e in row)


def rational_row(row: Sequence[tuple[int, int]]) -> Vector:
    """A Gaussian-integer row divided by its first nonzero entry.

    This is the one exact division of the package's elimination: a
    canonical row divided by its pivot is its reduced-row-echelon row.  A
    zero row stays zero.
    """
    # e / d = e * conj(d) / |d|^2
    dr, di = next((e for e in row if e != (0, 0)), (1, 0))
    norm = dr * dr + di * di
    return tuple(
        GaussianRational(Fraction(a * dr + b * di, norm), Fraction(b * dr - a * di, norm))
        for a, b in row
    )


def _over_pivots(rows: Sequence[IntegerRow]) -> tuple[list[IntegerRow], int]:
    """Canonical rows each divided by its pivot (its first nonzero entry, a
    positive integer), as numerators over the lcm of the pivots."""
    pivots = [next(a for a, _ in row if a) for row in rows]
    scale = lcm(*pivots)
    scaled = [tuple((a * (scale // p), b * (scale // p)) for a, b in row) for row, p in zip(rows, pivots)]
    return scaled, scale


def _primitive(row: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The row divided by the integer gcd of all its parts."""
    content = gcd(*[x for pair in row for x in pair])
    if content > 1:
        return [(a // content, b // content) for a, b in row]
    return row


def integer_rref(
    rows: Iterable[Sequence[tuple[int, int]]], cols: int
) -> tuple[tuple[IntegerRow, ...], tuple[int, ...]]:
    """Fraction-free Gauss-Jordan elimination over Gaussian integers.

    Returns the nonzero rows of the reduced row echelon form and their
    pivot columns.  Each row is in its canonical primitive form: a positive
    integer multiple of its RREF row whose (re, im) parts have no common
    factor, so its pivot is a positive integer.  The RREF is unique, so
    this form is too, and no division other than by an integer gcd occurs.

    A new pivot row is multiplied by the conjugate of its pivot (making the
    pivot real and positive) and made primitive; every other row with a
    nonzero entry f in the pivot column is replaced by p * row - f * pivot_row
    and made primitive.  Earlier pivot rows stay canonical: their pivot
    entries are only ever multiplied by positive integers.
    """
    work = list(rows)
    n_rows = len(work)
    pivots: list[int] = []
    for col in range(cols):
        k = len(pivots)
        for target in range(k, n_rows):
            if work[target][col] != (0, 0):
                break
        else:
            continue
        prow = work[target]
        work[target] = work[k]
        pr, pi = prow[col]
        if pi or pr < 0:
            prow = [(a * pr + b * pi, b * pr - a * pi) for a, b in prow]
        prow = _primitive(prow)
        work[k] = prow
        p = prow[col][0]
        for r in range(n_rows):
            row = work[r]
            fr, fi = row[col]
            if r == k or not (fr or fi):
                continue
            work[r] = _primitive(
                [(p * a - fr * c + fi * d, p * b - fr * d - fi * c) for (a, b), (c, d) in zip(row, prow)]
            )
        pivots.append(col)
        if k + 1 == n_rows:
            break
    return tuple(tuple(row) for row in work[: len(pivots)]), tuple(pivots)


def integer_kernel(rows: Iterable[Sequence[tuple[int, int]]], cols: int) -> list[IntegerRow]:
    """Basis of the null space over the Gaussian integers, one vector per
    free column of the RREF; the vector of free column j has a positive
    integer at j and zeros at the other free columns."""
    reduced, pivots = integer_rref(rows, cols)
    scale = lcm(*(row[c][0] for row, c in zip(reduced, pivots)))
    pivot_set = set(pivots)
    basis: list[IntegerRow] = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [(0, 0)] * cols
        v[free] = (scale, 0)
        for row, c in zip(reduced, pivots):
            factor = scale // row[c][0]
            a, b = row[free]
            v[c] = (-a * factor, -b * factor)
        basis.append(tuple(v))
    return basis


def inverse(m: ExactMatrix) -> ExactMatrix:
    """M^-1 for M = N / d: the reduced form of [N | d I] is [I | M^-1], its
    canonical row k being p_k times RREF row k."""
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n, d = m.rows, m.denominator
    augmented = [
        row + tuple((d if i == j else 0, 0) for j in range(n)) for i, row in enumerate(m.numerators)
    ]
    reduced, pivots = integer_rref(augmented, 2 * n)
    if pivots != tuple(range(n)):
        raise SingularMatrixError("matrix is singular")
    numerators, scale = _over_pivots(reduced)
    return ExactMatrix(n, n, tuple(row[n:] for row in numerators), scale)
