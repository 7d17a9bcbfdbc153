"""The lattice of subspaces of complex n-space, with exact canonical bases.

A subspace is stored as the reduced row echelon form of any spanning set,
read back as basis columns.  That form is unique, so subspaces are
hash-consed on it: equal subspaces are one object, equality is identity,
and the hash is structural.  The zero space ({0}, dim 0) and the whole
space (the unit proposition) are first-class values.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import AmbientMismatch, DimensionMismatch, LatticeCapExceeded, ValidationError
from .linalg import (
    ExactMatrix,
    Vector,
    conj_transpose,
    hstack,
    identity_matrix,
    inverse,
    kernel_basis,
    mat_mul,
    matrix_from_cols,
    matrix_from_rows,
    rref,
    zero_matrix,
)
from .rationals import GaussianRational, format_scalar, gaussian


class Subspace:
    """Immutable and hash-consed: one instance per (ambient_dim, basis).

    Build subspaces only through `subspace_from_vectors`, `zero_space` and
    `full_space`.  They take their instance from a process-wide weak-valued
    intern table, so equal subspaces are the same object and equality is
    identity.  The hash is the structural hash of (ambient_dim, basis),
    computed once when the subspace is interned, so set and dict iteration
    orders do not depend on interning.
    """

    __slots__ = ("ambient_dim", "basis", "_hash", "__weakref__")

    def __init__(self, ambient_dim: int, basis: ExactMatrix):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_hash", hash((ambient_dim, basis)))

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
        return self.basis.cols

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def vectors(self) -> list[Vector]:
        return [self.basis.col(j) for j in range(self.dim)]

    def sort_key(self) -> tuple:
        return (self.dim, self.basis.sort_key())

    def serialize(self) -> list[list[str]]:
        return [[format_scalar(e) for e in v] for v in self.vectors()]

    def __str__(self) -> str:
        if self.is_zero:
            return "{0}"
        return "span(" + "; ".join(
            "(" + ", ".join(format_scalar(e) for e in v) + ")" for v in self.vectors()
        ) + ")"


# (ambient_dim, basis.entries) -> the one Subspace with that canonical basis.
# Process-wide, so that subspaces from different builds are comparable by
# identity; weak-valued, so it keeps nothing alive.
_INTERNED: "weakref.WeakValueDictionary[tuple, Subspace]" = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


def _interned(ambient_dim: int, basis: ExactMatrix) -> Subspace:
    key = (ambient_dim, basis.entries)
    space = _INTERNED.get(key)
    if space is None:
        with _INTERN_LOCK:
            space = _INTERNED.get(key)
            if space is None:
                space = Subspace(ambient_dim, basis)
                _INTERNED[key] = space
    return space


def subspace_from_vectors(ambient_dim: int, vectors: Sequence[Sequence]) -> Subspace:
    """Canonicalize a spanning set: RREF its rows, keep the nonzero ones."""
    coerced = []
    for v in vectors:
        row = tuple(e if isinstance(e, GaussianRational) else gaussian(e) for e in v)
        if len(row) != ambient_dim:
            raise DimensionMismatch(f"vector of length {len(row)} in ambient {ambient_dim}")
        coerced.append(row)
    if not coerced:
        return zero_space(ambient_dim)
    reduced, pivots = rref(matrix_from_rows(coerced, expected_cols=ambient_dim))
    basis_rows = [reduced.row(i) for i in range(len(pivots))]
    return _interned(ambient_dim, matrix_from_cols(basis_rows, ambient_dim))


def zero_space(ambient_dim: int) -> Subspace:
    return _interned(ambient_dim, zero_matrix(ambient_dim, 0))


def full_space(ambient_dim: int) -> Subspace:
    return _interned(ambient_dim, identity_matrix(ambient_dim))


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
    return subspace_from_vectors(p.ambient_dim, p.vectors() + q.vectors())


@lru_cache(maxsize=None)
def meet(p: Subspace, q: Subspace) -> Subspace:
    _require_same_ambient(p, q)
    if p.is_zero or q.is_zero:
        return zero_space(p.ambient_dim)
    if p.is_full:
        return q
    if q.is_full:
        return p
    # x in p∩q iff x = P a = Q b; solve the stacked system [P | -Q] once.
    negated = matrix_from_cols([tuple(-e for e in v) for v in q.vectors()], q.ambient_dim)
    stacked = hstack(p.basis, negated)
    members = []
    for kv in kernel_basis(stacked):
        members.append(p.basis.apply(kv[: p.dim]))
    return subspace_from_vectors(p.ambient_dim, members)


@lru_cache(maxsize=None)
def ortho(p: Subspace) -> Subspace:
    """Orthocomplement for the standard Hermitian inner product."""
    if p.is_zero:
        return full_space(p.ambient_dim)
    return subspace_from_vectors(p.ambient_dim, kernel_basis(conj_transpose(p.basis)))


@lru_cache(maxsize=None)
def leq(p: Subspace, q: Subspace) -> bool:
    _require_same_ambient(p, q)
    if p.is_zero or q.is_full:
        return True
    if p.dim > q.dim:
        return False
    stacked = matrix_from_rows([list(v) for v in q.vectors() + p.vectors()])
    return len(rref(stacked)[1]) == q.dim


@lru_cache(maxsize=None)
def apply_operator(f: ExactMatrix, p: Subspace) -> Subspace:
    """Image subspace F(P); drops to {0} when F annihilates P."""
    if f.rows != f.cols or f.rows != p.ambient_dim:
        raise DimensionMismatch(
            f"operator {f.rows}x{f.cols} on ambient {p.ambient_dim}"
        )
    return subspace_from_vectors(p.ambient_dim, [f.apply(v) for v in p.vectors()])


@lru_cache(maxsize=None)
def projector_matrix(p: Subspace) -> ExactMatrix:
    """Exact orthogonal projector onto p: B (B*B)^-1 B*."""
    if p.is_zero:
        return zero_matrix(p.ambient_dim, p.ambient_dim)
    b = p.basis
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
