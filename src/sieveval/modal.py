"""Observables, projected atoms, determinate sublattices, two-valued valuations.

An observable is its eigenspace decomposition; that decomposition is a
complete invariant of the equivalence class it represents (same eigenspaces
means same commutant), so no operator matrix is ever stored.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import AmbientMismatch, OrthogonalityViolation, ValidationError
from .linalg import ExactMatrix, _dot
from .subspaces import (
    Ray,
    Sublattice,
    Subspace,
    apply_operator,
    full_space,
    generate_sublattice,
    join,
    leq,
    ortho,
    project_onto_eigenspace,
    zero_space,
)


class Observable:
    """An orthogonal eigenspace decomposition of complex n-space, validated
    on construction.  Immutable; equal to an observable of the same name,
    eigenspaces and labels.

    `answers` is the table of the questions this observable has answered,
    each computed once for its lifetime: `observable_leq(self, other)` keyed
    on ("leq", other.eigenspaces), `zero_augmented_atom_set(ray, self)` on
    ("atoms", ray) and `non_invariant_eigenspace(f, self)`, which
    `in_commutant` reads, on ("commutant", f), each key being what its
    answer reads besides the eigenspaces.  The table belongs to this
    instance alone: it is not part of equality or the hash, and an equal
    observable keeps its own.  No key refers to an observable, so the table
    makes no reference cycle.

    A decomposition that is not valid raises `ValidationError` whose field
    is the observable's own: "eigenspaces" or "labels"."""

    __slots__ = ("name", "eigenspaces", "labels", "answers")

    def __init__(
        self, name: str, eigenspaces: tuple[Subspace, ...], labels: tuple[Fraction, ...] | None = None
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "eigenspaces", eigenspaces)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "answers", {})
        if not self.eigenspaces:
            raise ValidationError("eigenspaces", "no eigenspaces")
        n = self.eigenspaces[0].ambient_dim
        if any(r.ambient_dim != n for r in self.eigenspaces):
            raise ValidationError("eigenspaces", "eigenspaces in different ambient spaces")
        for i, r in enumerate(self.eigenspaces):
            if r.is_zero:
                raise OrthogonalityViolation("eigenspaces", f"eigenspace {i} is the zero space")
        for i, r in enumerate(self.eigenspaces):
            for j in range(i + 1, len(self.eigenspaces)):
                if not leq(r, ortho(self.eigenspaces[j])):
                    raise OrthogonalityViolation("eigenspaces", f"eigenspaces {i} and {j} are not orthogonal")
        total = zero_space(n)
        for r in self.eigenspaces:
            total = join(total, r)
        if not total.is_full:
            raise OrthogonalityViolation("eigenspaces", "eigenspaces do not span the space")
        if self.labels is not None:
            if len(self.labels) != len(self.eigenspaces):
                raise ValidationError(
                    "labels", f"{len(self.labels)} labels for {len(self.eigenspaces)} eigenspaces"
                )
            if len(set(self.labels)) != len(self.labels):
                raise ValidationError("labels", "labels are not distinct")

    def __setattr__(self, name, value):
        raise AttributeError("Observable is immutable")

    def __reduce__(self):  # copy and pickle by field; the answer table is not carried
        return Observable, self._key()

    def _key(self) -> tuple:
        return self.name, self.eigenspaces, self.labels

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Observable({self.name!r}, {self.eigenspaces!r}, {self.labels!r})"

    @property
    def ambient_dim(self) -> int:
        return self.eigenspaces[0].ambient_dim


def validate_matrix_decomposition(matrix: ExactMatrix, observable: Observable) -> None:
    """Check that a matrix is scalar (with its declared label) on each
    eigenspace: with M = N/d and the label p/q, q·(N v) = p·d·v on each of
    the eigenspace's canonical integer rows v.  A failure raises
    `ValidationError` at the observable's own field "matrix"."""
    if observable.labels is None:
        raise ValidationError("matrix", "labels required to validate a matrix")
    n = observable.ambient_dim
    if matrix.rows != n or matrix.cols != n:
        raise ValidationError("matrix", "matrix shape does not match ambient")
    for i, (r, label) in enumerate(zip(observable.eigenspaces, observable.labels)):
        q, pd = label.denominator, label.numerator * matrix.denominator
        for v in r.rows:
            image = [_dot(row, v) for row in matrix.numerators]
            if [(q * a, q * b) for a, b in image] != [(pd * a, pd * b) for a, b in v]:
                raise ValidationError("matrix", f"matrix is not scalar {label} on eigenspace {i}")


class TrueAtomSet(NamedTuple):
    """The nonzero projections of a state onto an observable's eigenspaces."""

    state: Ray
    observable: Observable
    atoms: tuple[Subspace, ...]
    eigenspace_indices: tuple[int, ...] = ()

    @property
    def zero_augmented(self) -> tuple[Subspace, ...]:
        return self.atoms + (zero_space(self.state.ambient_dim),)

    def atom_for_eigenspace(self, index: int) -> Subspace:
        """The projection onto eigenspace #index, the zero space when it vanishes."""
        for atom, ei in zip(self.atoms, self.eigenspace_indices):
            if ei == index:
                return atom
        return zero_space(self.state.ambient_dim)


def compute_atoms(e: Ray, observable: Observable) -> TrueAtomSet:
    if e.ambient_dim != observable.ambient_dim:
        raise AmbientMismatch(
            f"state ambient {e.ambient_dim} vs observable {observable.ambient_dim}"
        )
    atoms: list[Subspace] = []
    indices: list[int] = []
    for i, r in enumerate(observable.eigenspaces):
        projected = project_onto_eigenspace(e.space, r)
        if not projected.is_zero:
            atoms.append(projected)
            indices.append(i)
    return TrueAtomSet(e, observable, tuple(atoms), tuple(indices))


def zero_augmented_atom_set(e: Subspace, observable: Observable) -> frozenset[Subspace]:
    """The atom set of a ray (given as its subspace), zero space included;
    computed once per ray in the observable's `answers`."""
    key = ("atoms", e)
    answer = observable.answers.get(key)
    if answer is None:
        answer = observable.answers[key] = frozenset(compute_atoms(Ray(e), observable).zero_augmented)
    return answer


def in_determinate_sublattice(p: Subspace, atoms: TrueAtomSet) -> bool:
    """Membership predicate: each atom sits below p or below its complement."""
    if p.ambient_dim != atoms.state.ambient_dim:
        raise AmbientMismatch("proposition ambient mismatch")
    complement = ortho(p)
    return all(leq(a, p) or leq(a, complement) for a in atoms.atoms)


def orthogonal_remainder(atoms: TrueAtomSet) -> Subspace:
    """The orthocomplement of the join of the true atoms."""
    spanned = zero_space(atoms.state.ambient_dim)
    for a in atoms.atoms:
        spanned = join(spanned, a)
    return ortho(spanned)


def enumerate_determinate_sublattice(
    atoms: TrueAtomSet, cap: int, extra_rays: tuple[Subspace, ...] = ()
) -> Sublattice:
    """The finitely generated part of the determinate sublattice, with the
    position tables of its joins, meets and orthos (`generate_sublattice`).

    Generators are the atoms plus the orthogonal remainder of their join,
    treated as one block; callers may name extra rays inside that remainder.
    """
    remainder = orthogonal_remainder(atoms)
    generators: list[Subspace] = list(atoms.atoms)
    if not remainder.is_zero:
        generators.append(remainder)
    for ray in extra_rays:
        if ray.dim != 1 or not leq(ray, remainder):
            raise ValidationError(
                "extra_rays", "declared ray is not a ray inside the orthogonal remainder"
            )
        generators.append(ray)
    elements = generate_sublattice(generators, cap)
    for p in elements:
        if not in_determinate_sublattice(p, atoms):  # pragma: no cover - structural
            raise ValidationError("determinate sublattice", f"{p} escaped the predicate")
    return elements


def bub_valuation(e_r: Subspace, p: Subspace) -> int:
    """1 when the true atom lies below the proposition, else 0."""
    return 1 if leq(e_r, p) else 0


def non_invariant_eigenspace(f: ExactMatrix, observable: Observable) -> int | None:
    """The index of the first eigenspace R_i with f(R_i) not inside R_i, else
    None.  Computed once per operator in the observable's `answers`."""
    key = ("commutant", f)
    if key not in observable.answers:
        observable.answers[key] = _first_non_invariant(f, observable)
    return observable.answers[key]


def _first_non_invariant(f: ExactMatrix, observable: Observable) -> int | None:
    n = observable.ambient_dim
    if f.rows != n or f.cols != n:
        raise AmbientMismatch(f"operator {f.rows}x{f.cols} vs ambient {n}")
    for i, r in enumerate(observable.eigenspaces):
        if not leq(apply_operator(f, r), r):
            return i
    return None


def in_commutant(f: ExactMatrix, observable: Observable) -> bool:
    """Exact commutation with every eigenprojector P_i, checked on eigenspaces:
    f P_i = P_i f for all i iff f(R_i) ⊆ R_i for all i.  (⇒) f(R_i) = f P_i(ℂⁿ)
    = P_i f(ℂⁿ) ⊆ R_i; (⇐) with v = Σ v_j, v_j in R_j, P_i f v = f v_i = f P_i v."""
    return non_invariant_eigenspace(f, observable) is None


def observable_leq(rho: Observable, rho_prime: Observable) -> bool:
    """Refinement order: every eigenspace of rho is a join of rho_prime's.
    Computed once per eigenspace tuple of rho_prime in rho's `answers`."""
    key = ("leq", rho_prime.eigenspaces)
    answer = rho.answers.get(key)
    if answer is None:
        answer = rho.answers[key] = _refines(rho, rho_prime)
    return answer


def _refines(rho: Observable, rho_prime: Observable) -> bool:
    if rho.ambient_dim != rho_prime.ambient_dim:
        raise AmbientMismatch("observables in different ambient spaces")
    for r in rho.eigenspaces:
        parts = [rp for rp in rho_prime.eigenspaces if leq(rp, r)]
        total = zero_space(rho.ambient_dim)
        for rp in parts:
            total = join(total, rp)
        if total != r:
            return False
    return True


def trivial_observable(name: str, ambient_dim: int) -> Observable:
    return Observable(name, (full_space(ambient_dim),))
