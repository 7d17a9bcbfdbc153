"""The lattice of subspaces of complex n-space, over Gaussian integers.

A subspace is stored as the nonzero rows of the reduced row echelon form
of any spanning set, each in the canonical primitive Gaussian-integer form
of `linalg.integer_rref` ((re, im) int pairs, pivot a positive integer).
That form is unique, so subspaces are hash-consed on it: equal subspaces
are one object, equality is identity, and the hash is structural.  Join,
meet, ortho, leq and the image under an operator are integer eliminations
on these rows, and `projector_matrix` is computed on the integer
`ExactMatrix` of the basis.  Gaussian rationals appear only at the
boundary: the input of `subspace_from_vectors`, the basis that `vectors`,
`serialize` and `__str__` read, and the structural hash, computed once per
interned subspace.  The zero space ({0}, dim 0) and the whole space (the
unit proposition) are first-class values.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from .errors import AmbientMismatch, DimensionMismatch, LatticeCapExceeded, ValidationError
from .linalg import (
    ExactMatrix,
    IntegerRow,
    Vector,
    _dot,
    _over_pivots,
    conj_transpose,
    identity_matrix,
    integer_kernel,
    integer_row,
    integer_rref,
    inverse,
    mat_mul,
    rational_row,
    zero_matrix,
)
from .rationals import GaussianRational, format_scalar, gaussian


class Subspace:
    """Immutable and hash-consed: one instance per (ambient_dim, rows).

    Build subspaces only through `subspace_from_vectors`, `zero_space` and
    `full_space`.  They take their instance from a process-wide weak-valued
    intern table, so equal subspaces are the same object and equality is
    identity.  `rows` are the canonical Gaussian-integer RREF rows, one per
    basis vector.  The hash is the structural hash of (ambient_dim, basis),
    the basis being the rows divided by their pivots as Gaussian-rational
    columns; it is computed once, when the subspace is interned, so set and
    dict iteration orders do not depend on interning or on the row form.
    """

    __slots__ = ("ambient_dim", "rows", "_hash", "__weakref__")

    def __init__(self, ambient_dim: int, rows: tuple[IntegerRow, ...]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", hash((ambient_dim, self._basis())))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __eq__(self, other) -> bool:
        return self is other

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace({self.ambient_dim}, dim={self.dim})"

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def is_full(self) -> bool:
        return len(self.rows) == self.ambient_dim

    def vectors(self) -> list[Vector]:
        """The basis: each canonical row divided by its pivot."""
        return [rational_row(row) for row in self.rows]

    def _basis(self) -> ExactMatrix:
        """The basis vectors as the columns of a matrix."""
        numerators, scale = _over_pivots(self.rows)
        n = self.ambient_dim
        return ExactMatrix(n, self.dim, tuple(zip(*numerators)) or ((),) * n, scale)

    def sort_key(self) -> tuple:
        """(dim, the basis entries coordinate by coordinate): entry
        (a + b i) / d of the basis matrix is keyed (a/g, d/g, b/h, d/h) with
        g = gcd(a, d), h = gcd(b, d), its parts in lowest terms like a
        Fraction's (numerator, denominator)."""
        basis = self._basis()
        d = basis.denominator
        key = []
        for row in basis.numerators:
            for a, b in row:
                g, h = gcd(a, d), gcd(b, d)
                key.append((a // g, d // g, b // h, d // h))
        return (self.dim, tuple(key))

    def serialize(self) -> list[list[str]]:
        return [[format_scalar(e) for e in v] for v in self.vectors()]

    def __str__(self) -> str:
        if self.is_zero:
            return "{0}"
        return "span(" + "; ".join(
            "(" + ", ".join(format_scalar(e) for e in v) + ")" for v in self.vectors()
        ) + ")"


# (ambient_dim, rows) -> the one Subspace with those canonical rows.
# Process-wide, so that subspaces from different builds are comparable by
# identity; weak-valued, so it keeps nothing alive.
_INTERNED: "weakref.WeakValueDictionary[tuple, Subspace]" = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


def _interned(ambient_dim: int, rows: tuple[IntegerRow, ...]) -> Subspace:
    key = (ambient_dim, rows)
    space = _INTERNED.get(key)
    if space is None:
        with _INTERN_LOCK:
            space = _INTERNED.get(key)
            if space is None:
                space = Subspace(ambient_dim, rows)
                _INTERNED[key] = space
    return space


def _span(ambient_dim: int, rows: Iterable[Sequence[tuple[int, int]]]) -> Subspace:
    """The subspace spanned by Gaussian-integer rows."""
    return _interned(ambient_dim, integer_rref(rows, ambient_dim)[0])


def subspace_from_vectors(ambient_dim: int, vectors: Sequence[Sequence]) -> Subspace:
    """Canonicalize a spanning set: RREF its rows, keep the nonzero ones."""
    rows = []
    for v in vectors:
        row = tuple(e if isinstance(e, GaussianRational) else gaussian(e) for e in v)
        if len(row) != ambient_dim:
            raise DimensionMismatch(f"vector of length {len(row)} in ambient {ambient_dim}")
        rows.append(integer_row(row))
    return _span(ambient_dim, rows)


def zero_space(ambient_dim: int) -> Subspace:
    return _interned(ambient_dim, ())


def full_space(ambient_dim: int) -> Subspace:
    return _interned(ambient_dim, identity_matrix(ambient_dim).numerators)


@dataclass(frozen=True, slots=True)
class Ray:
    """A one-dimensional subspace; the carrier of a pure state."""

    space: Subspace

    def __post_init__(self):
        if self.space.dim != 1:
            raise ValidationError("ray", f"expected dim 1, got {self.space.dim}")

    @property
    def ambient_dim(self) -> int:
        return self.space.ambient_dim


def ray_from_vector(vector: Sequence) -> Ray:
    return Ray(subspace_from_vectors(len(vector), [vector]))


def _require_same_ambient(p: Subspace, q: Subspace) -> None:
    if p.ambient_dim != q.ambient_dim:
        raise AmbientMismatch(f"ambient {p.ambient_dim} vs {q.ambient_dim}")


@lru_cache(maxsize=None)
def join(p: Subspace, q: Subspace) -> Subspace:
    _require_same_ambient(p, q)
    return _span(p.ambient_dim, p.rows + q.rows)


@lru_cache(maxsize=None)
def meet(p: Subspace, q: Subspace) -> Subspace:
    _require_same_ambient(p, q)
    if p.is_zero or q.is_zero:
        return zero_space(p.ambient_dim)
    if p.is_full:
        return q
    if q.is_full:
        return p
    # x in p∩q iff x = Σ a_j p_j = Σ b_k q_k: solve [Pᵀ | −Qᵀ] (a, b) = 0.
    p_columns = list(zip(*p.rows))
    system = [
        pc + tuple((-a, -b) for a, b in qc) for pc, qc in zip(p_columns, zip(*q.rows))
    ]
    members = [
        tuple(_dot(kv[: p.dim], pc) for pc in p_columns)
        for kv in integer_kernel(system, p.dim + q.dim)
    ]
    return _span(p.ambient_dim, members)


@lru_cache(maxsize=None)
def ortho(p: Subspace) -> Subspace:
    """Orthocomplement for the standard Hermitian inner product: the null
    space of the conjugated rows."""
    if p.is_zero:
        return full_space(p.ambient_dim)
    conjugated = [tuple((a, -b) for a, b in row) for row in p.rows]
    return _span(p.ambient_dim, integer_kernel(conjugated, p.ambient_dim))


@lru_cache(maxsize=None)
def leq(p: Subspace, q: Subspace) -> bool:
    _require_same_ambient(p, q)
    if p.is_zero or q.is_full:
        return True
    if p.dim > q.dim:
        return False
    return len(integer_rref(q.rows + p.rows, q.ambient_dim)[1]) == q.dim


@lru_cache(maxsize=None)
def apply_operator(f: ExactMatrix, p: Subspace) -> Subspace:
    """Image subspace F(P); drops to {0} when F annihilates P."""
    if f.rows != f.cols or f.rows != p.ambient_dim:
        raise DimensionMismatch(
            f"operator {f.rows}x{f.cols} on ambient {p.ambient_dim}"
        )
    return _span(p.ambient_dim, [tuple(_dot(frow, v) for frow in f.numerators) for v in p.rows])


@lru_cache(maxsize=None)
def projector_matrix(p: Subspace) -> ExactMatrix:
    """Exact orthogonal projector onto p: B (B*B)^-1 B*."""
    if p.is_zero:
        return zero_matrix(p.ambient_dim, p.ambient_dim)
    b = p._basis()
    b_star = conj_transpose(b)
    gram_inv = inverse(mat_mul(b_star, b))
    return mat_mul(b, mat_mul(gram_inv, b_star))


@lru_cache(maxsize=None)
def project_onto_eigenspace(e: Ray, r: Subspace) -> Subspace:
    """The atom (e ∨ r^⊥) ∧ r, always of dim 0 or 1."""
    space = e.space if isinstance(e, Ray) else e
    _require_same_ambient(space, r)
    result = meet(join(space, ortho(r)), r)
    if result.dim > 1:
        raise AmbientMismatch("projection of a ray produced dim > 1")  # pragma: no cover
    return result


def generate_sublattice(seeds: Iterable[Subspace], cap: int) -> list[Subspace]:
    """Close a seed set under meet, join, and ortho; reject at the cap.

    Deterministic: elements are visited in insertion order, so repeated runs
    yield the same list.
    """
    elements: list[Subspace] = []
    seen: set[Subspace] = set()

    def add(s: Subspace) -> None:
        if s not in seen:
            if len(elements) >= cap:
                raise LatticeCapExceeded(cap)
            seen.add(s)
            elements.append(s)

    for s in seeds:
        add(s)
    if not elements:
        return []
    changed = True
    while changed:
        changed = False
        snapshot = list(elements)
        before = len(elements)
        for p in snapshot:
            add(ortho(p))
        for i, p in enumerate(snapshot):
            for q in snapshot[i:]:
                add(join(p, q))
                add(meet(p, q))
        changed = len(elements) != before
    return elements
