"""Dense exact matrices over Gaussian rationals.

Scenario dimensions are tiny, so everything is dense and immutable.  Basis
vectors emitted by `kernel_basis` are scaled so their first nonzero
coordinate is 1, which makes downstream canonical forms deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, SingularMatrixError
from .rationals import ONE, ZERO, GaussianRational, gaussian

Vector = tuple[GaussianRational, ...]


class ExactMatrix:
    """Immutable dense matrix; the hash is computed once and reused."""

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[GaussianRational, ...], ...]):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", None)

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

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.entries[i][j]

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


def _gaussian_integer_row(row: Sequence[GaussianRational]) -> list[tuple[int, int]]:
    """The row scaled by the lcm of its denominators, as (re, im) int pairs."""
    scale = lcm(*(x.denominator for e in row for x in (e.re, e.im)))
    return [
        (e.re.numerator * (scale // e.re.denominator), e.im.numerator * (scale // e.im.denominator))
        for e in row
    ]


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns (rank = #pivots).

    Elimination is fraction-free over Gaussian integers: each row is scaled
    to integer (re, im) pairs, a row is reduced against a pivot row by
    cross-multiplication (row <- p*row - f*pivot_row) and divided by the
    integer gcd of its parts, and each pivot row is divided by its pivot
    once at the end.  The RREF is unique, so the result is the same as
    elimination over Gaussian rationals.
    """
    work = [_gaussian_integer_row(row) for row in m.entries]
    pivots: list[int] = []
    pivot_row = 0
    for col in range(m.cols):
        target = None
        for r in range(pivot_row, m.rows):
            if work[r][col] != (0, 0):
                target = r
                break
        if target is None:
            continue
        work[pivot_row], work[target] = work[target], work[pivot_row]
        prow = work[pivot_row]
        pr, pi = prow[col]
        for r in range(m.rows):
            fr, fi = work[r][col]
            if r == pivot_row or not (fr or fi):
                continue
            reduced = [
                (pr * a - pi * b - fr * c + fi * d, pr * b + pi * a - fr * d - fi * c)
                for (a, b), (c, d) in zip(work[r], prow)
            ]
            content = gcd(*(x for pair in reduced for x in pair))
            if content > 1:
                reduced = [(a // content, b // content) for a, b in reduced]
            work[r] = reduced
        pivots.append(col)
        pivot_row += 1
        if pivot_row == m.rows:
            break
    entries = []
    for k, row in enumerate(work):
        if k < len(pivots):
            # e / p = e * conj(p) / |p|^2
            pr, pi = row[pivots[k]]
            norm = pr * pr + pi * pi
            row = tuple(
                GaussianRational(Fraction(a * pr + b * pi, norm), Fraction(b * pr - a * pi, norm))
                for a, b in row
            )
        else:
            row = tuple(ZERO for _ in row)
        entries.append(row)
    return ExactMatrix(m.rows, m.cols, tuple(entries)), tuple(pivots)


def rank(m: ExactMatrix) -> int:
    return len(rref(m)[1])


def scale_to_leading_one(v: Vector) -> Vector:
    for e in v:
        if not e.is_zero:
            inv = e.inverse()
            return tuple(x * inv for x in v)
    return v


def kernel_basis(m: ExactMatrix) -> list[Vector]:
    """Basis of the exact null space, one vector per free column."""
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [ZERO] * m.cols
        v[free] = ONE
        for k, pivot_col in enumerate(pivots):
            v[pivot_col] = -reduced.entries[k][free]
        basis.append(scale_to_leading_one(tuple(v)))
    return basis


def inverse(m: ExactMatrix) -> ExactMatrix:
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    augmented = matrix_from_rows(
        [list(m.entries[i]) + list(identity_matrix(n).entries[i]) for i in range(n)]
    )
    reduced, pivots = rref(augmented)
    if tuple(pivots) != tuple(range(n)):
        raise SingularMatrixError("matrix is singular")
    return ExactMatrix(n, n, tuple(tuple(reduced.entries[i][n:]) for i in range(n)))


def hstack(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.rows != b.rows:
        raise DimensionMismatch("row count mismatch in hstack")
    return ExactMatrix(
        a.rows, a.cols + b.cols, tuple(ra + rb for ra, rb in zip(a.entries, b.entries))
    )


def vectors_equal(a: Iterable[GaussianRational], b: Iterable[GaussianRational]) -> bool:
    return tuple(a) == tuple(b)
