"""Dense exact matrices: Gaussian-integer numerators over one denominator.

Scenario dimensions are tiny, so everything is dense and immutable.  An
`ExactMatrix` stores its entries as (re, im) int pairs over one positive
integer denominator, in lowest terms, so equal matrices have equal fields.
Matrices are hash-consed on those fields, as subspaces are on theirs
(`_interned`): equal matrices are one object, and equality and hash are
identity.  Products, conjugate transposes and inverses are computed on these
integers; Gaussian rationals are read (`entries`) and written
(`matrix_from_rows`, `diagonal_matrix`) only at the boundary.  A product
row sums the scaled rows of the right factor for the nonzero entries of
the left factor's row alone: the monoids' generators are diagonal
projectors and signs, so most entries are zero.

There is one elimination, `insert_rows`: fraction-free (Bareiss, Math.
Comp. 22, 1968) and incremental, it inserts Gaussian-integer rows one at a
time into a reduced row echelon form held as canonical primitive rows
(pivot a positive integer) and their pivot columns.  A row is reduced by
the pivot rows; a nonzero remainder is made canonical, its pivot column is
cleared from the other rows, and it joins them in pivot order.
`integer_rref` inserts rows into the empty form, `integer_kernel` reads the
null space off that, and `inverse` reads the inverse off the reduced form
of [N | d I]; `subspaces.join` inserts one subspace's rows into the
other's.  `rational_row` divides a row by its first nonzero entry, the one
exact division.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, SingularMatrixError
from .rationals import ZERO, GaussianRational, gaussian

Vector = tuple[GaussianRational, ...]
IntegerRow = tuple[tuple[int, int], ...]


# One lock for every intern table: a lookup that misses looks again and
# stores under it, so two threads never store two equal values.
_INTERN_LOCK = threading.Lock()


def _interned(table: weakref.WeakValueDictionary, cls: type, fields: tuple):
    """The one instance of `cls` whose slots hold `fields`, in slot order.

    `fields` is a canonical form, so equal values have equal fields; it is
    the key of `table`, which is weak-valued and so keeps nothing alive.
    The hash-consing of both exact value types: `ExactMatrix` and
    `subspaces.Subspace`, whose equality and hash are identity.
    """
    value = table.get(fields)
    if value is None:
        with _INTERN_LOCK:
            value = table.get(fields)
            if value is None:
                value = object.__new__(cls)
                for name, field in zip(cls.__slots__, fields):
                    object.__setattr__(value, name, field)
                table[fields] = value
    return value


class ExactMatrix:
    """Immutable and hash-consed dense matrix: entry (i, j) is
    numerators[i][j] / denominator.

    The constructor brings the fraction to lowest terms: the denominator is
    positive and no integer above 1 divides it and every part of every
    numerator.  These stored fields are the matrix's canonical form, and the
    constructor returns the one instance with them, so equal matrices are
    one object and compare and hash by identity.
    """

    __slots__ = ("rows", "cols", "numerators", "denominator", "__weakref__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, rows: int, cols: int, numerators: tuple[IntegerRow, ...], denominator: int = 1):
        common = gcd(denominator, *(x for row in numerators for pair in row for x in pair))
        if common != 1:
            numerators = tuple(tuple((a // common, b // common) for a, b in row) for row in numerators)
            denominator //= common
        return _interned(_MATRICES, cls, (rows, cols, numerators, denominator))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):  # copy and pickle through the constructor: the interned instance
        return ExactMatrix, (self.rows, self.cols, self.numerators, self.denominator)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}, {self.cols}, {self.numerators!r}, {self.denominator})"

    @property
    def entries(self) -> tuple[Vector, ...]:
        """The Gaussian-rational entries, row by row (built on each read)."""
        d = self.denominator
        return tuple(
            tuple(GaussianRational(Fraction(a, d), Fraction(b, d)) for a, b in row) for row in self.numerators
        )

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.entries) + "]"


# (rows, cols, numerators, denominator) -> the one ExactMatrix with them.
_MATRICES: "weakref.WeakValueDictionary[tuple, ExactMatrix]" = weakref.WeakValueDictionary()


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
    """A B, row by row: row i of the product is the sum, over the nonzero
    entries a_ik of row i of A, of a_ik times row k of B, so zero entries
    (most of a projector's or a permutation's) cost nothing."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    rows = []
    for row in a.numerators:
        re = [0] * b.cols
        im = [0] * b.cols
        for (x, y), b_row in zip(row, b.numerators):
            if x or y:
                for k, (u, v) in enumerate(b_row):
                    re[k] += x * u - y * v
                    im[k] += x * v + y * u
        rows.append(tuple(zip(re, im)))
    return ExactMatrix(a.rows, b.cols, tuple(rows), a.denominator * b.denominator)


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


def insert_rows(
    reduced: Sequence[IntegerRow],
    pivots: Sequence[int],
    rows: Iterable[Sequence[tuple[int, int]]],
    cols: int,
) -> tuple[tuple[IntegerRow, ...], tuple[int, ...]]:
    """Insert rows, one at a time, into a canonical primitive RREF.

    `reduced` and `pivots` are the nonzero rows of a reduced row echelon
    form, each in its canonical primitive form (a positive integer multiple
    of its RREF row whose (re, im) parts have no common factor, so its pivot
    is a positive integer), and their pivot columns, in increasing order.
    Returns the same form of the span of `reduced` and `rows`.  The RREF is
    unique, so this form is too, and no division other than by an integer
    gcd occurs.

    Each new row v is reduced by the pivot rows: a row with pivot p at
    column c turns v into p v - v_c row.  The pivot rows vanish at each
    other's pivot columns, so one pass clears them all.  A row that
    reduces to zero lies in the span already and changes nothing.  Any
    other remainder is multiplied by the conjugate of its first nonzero
    entry (making that pivot real and positive) and made primitive; every
    pivot row with a nonzero entry f in the new pivot column is replaced by
    p' row - f v and made primitive, and v is inserted in pivot order.  The
    old pivots are only ever multiplied by positive integers, so those rows
    stay canonical.
    """
    work = list(reduced)
    pivots = list(pivots)
    for v in rows:
        if len(pivots) == cols:
            break
        for prow, c in zip(work, pivots):
            fr, fi = v[c]
            if fr or fi:
                p = prow[c][0]
                v = [(p * a - fr * x + fi * y, p * b - fr * y - fi * x) for (a, b), (x, y) in zip(v, prow)]
        for col, (vr, vi) in enumerate(v):
            if vr or vi:
                break
        else:
            continue
        if vi or vr < 0:
            v = [(a * vr + b * vi, b * vr - a * vi) for a, b in v]
        v = tuple(_primitive(v))
        p = v[col][0]
        for k, prow in enumerate(work):
            fr, fi = prow[col]
            if fr or fi:
                combined = [(p * a - fr * c + fi * d, p * b - fr * d - fi * c) for (a, b), (c, d) in zip(prow, v)]
                work[k] = tuple(_primitive(combined))
        at = bisect_left(pivots, col)
        work.insert(at, v)
        pivots.insert(at, col)
    return tuple(work), tuple(pivots)


def integer_rref(
    rows: Iterable[Sequence[tuple[int, int]]], cols: int
) -> tuple[tuple[IntegerRow, ...], tuple[int, ...]]:
    """Fraction-free Gauss-Jordan elimination over Gaussian integers: the
    rows inserted into the empty form (`insert_rows`).  Returns the nonzero
    rows of the reduced row echelon form, each canonical and primitive, and
    their pivot columns."""
    return insert_rows((), (), rows, cols)


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
