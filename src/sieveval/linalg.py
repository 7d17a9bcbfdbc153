"""Dense exact matrices over Gaussian rationals, reduced over Gaussian integers.

Scenario dimensions are tiny, so everything is dense and immutable.
`ExactMatrix` holds Gaussian-rational entries; `integer_rows()` is the
same map scaled to Gaussian integers, as (re, im) int pairs.

There is one elimination, `integer_rref`: fraction-free Gauss-Jordan on
Gaussian-integer rows, returning each row of the reduced row echelon form
in a canonical primitive form (pivot a positive integer).  `integer_kernel`
reads the null space off it.  `rref`, `rank`, `kernel_basis` and `inverse`
are their `GaussianRational` views: `rational_row` divides a row by its
first nonzero entry, the one exact division.  Basis vectors emitted by
`kernel_basis` are so scaled that their first nonzero coordinate is 1,
which makes downstream canonical forms deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, SingularMatrixError
from .rationals import ONE, ZERO, GaussianRational, gaussian

Vector = tuple[GaussianRational, ...]
IntegerRow = tuple[tuple[int, int], ...]


class ExactMatrix:
    """Immutable dense matrix; the hash and the integer form are computed
    once, on first use, and reused."""

    __slots__ = ("rows", "cols", "entries", "_hash", "_integer")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[GaussianRational, ...], ...]):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_integer", None)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.rows, self.cols, self.entries)))
        return self._hash

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}, {self.cols}, {self.entries!r})"

    def integer_rows(self) -> tuple[IntegerRow, ...]:
        """The entries times the lcm of all their denominators, as (re, im)
        int pairs: the same linear map up to one positive integer factor."""
        if self._integer is None:
            scale = _scale(e for row in self.entries for e in row)
            object.__setattr__(
                self, "_integer", tuple(tuple(_scaled(e, scale) for e in row) for row in self.entries)
            )
        return self._integer

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(self.entries[i][j] for i in range(self.rows))

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(f"matrix is {self.rows}x{self.cols}, vector has {len(v)}")
        return tuple(
            sum((self.entries[i][j] * v[j] for j in range(self.cols)), ZERO)
            for i in range(self.rows)
        )

    def sort_key(self) -> tuple:
        return tuple(e.sort_key() for row in self.entries for e in row)

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.entries) + "]"


def matrix_from_rows(rows: Sequence[Sequence], expected_cols: int | None = None) -> ExactMatrix:
    coerced = tuple(tuple(gaussian(e) if not isinstance(e, GaussianRational) else e for e in row) for row in rows)
    n_rows = len(coerced)
    n_cols = len(coerced[0]) if n_rows else (expected_cols or 0)
    if any(len(row) != n_cols for row in coerced):
        raise DimensionMismatch("ragged rows")
    if expected_cols is not None and n_rows and n_cols != expected_cols:
        raise DimensionMismatch(f"expected {expected_cols} columns, got {n_cols}")
    return ExactMatrix(n_rows, n_cols, coerced)


def matrix_from_cols(cols: Sequence[Vector], n_rows: int) -> ExactMatrix:
    if not cols:
        return ExactMatrix(n_rows, 0, tuple(() for _ in range(n_rows)))
    if any(len(c) != n_rows for c in cols):
        raise DimensionMismatch("column length mismatch")
    return ExactMatrix(
        n_rows, len(cols), tuple(tuple(c[i] for c in cols) for i in range(n_rows))
    )


def identity_matrix(n: int) -> ExactMatrix:
    return ExactMatrix(
        n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
    )


def zero_matrix(rows: int, cols: int) -> ExactMatrix:
    return ExactMatrix(rows, cols, tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows)))


def diagonal_matrix(values: Sequence) -> ExactMatrix:
    vals = [gaussian(v) if not isinstance(v, GaussianRational) else v for v in values]
    n = len(vals)
    return ExactMatrix(
        n, n, tuple(tuple(vals[i] if i == j else ZERO for j in range(n)) for i in range(n))
    )


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return ExactMatrix(
        a.rows,
        b.cols,
        tuple(
            tuple(
                sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), ZERO)
                for j in range(b.cols)
            )
            for i in range(a.rows)
        ),
    )


def conj_transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(
        m.cols,
        m.rows,
        tuple(tuple(m.entries[i][j].conjugate() for i in range(m.rows)) for j in range(m.cols)),
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


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns (rank = #pivots):
    `integer_rref` with each canonical row divided by its pivot."""
    reduced, pivots = integer_rref(m.integer_rows(), m.cols)
    zero_row = tuple(ZERO for _ in range(m.cols))
    entries = tuple(rational_row(row) for row in reduced) + (zero_row,) * (m.rows - len(pivots))
    return ExactMatrix(m.rows, m.cols, entries), pivots


def rank(m: ExactMatrix) -> int:
    return len(integer_rref(m.integer_rows(), m.cols)[1])


def kernel_basis(m: ExactMatrix) -> list[Vector]:
    """Basis of the exact null space, one vector per free column."""
    return [rational_row(v) for v in integer_kernel(m.integer_rows(), m.cols)]


def inverse(m: ExactMatrix) -> ExactMatrix:
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    augmented = [
        integer_row(row + tuple(ONE if i == j else ZERO for j in range(n)))
        for i, row in enumerate(m.entries)
    ]
    reduced, pivots = integer_rref(augmented, 2 * n)
    if pivots != tuple(range(n)):
        raise SingularMatrixError("matrix is singular")
    return ExactMatrix(n, n, tuple(rational_row(row)[n:] for row in reduced))
