"""The lattice of subspaces of complex n-space, over Gaussian integers.

A subspace is stored as the nonzero rows of the reduced row echelon form
of any spanning set, each in the canonical primitive Gaussian-integer form
of `linalg.insert_rows` ((re, im) int pairs, pivot a positive integer),
with their pivot columns.  That form is unique, so subspaces are
hash-consed on it, as matrices are (`linalg._interned`): equal subspaces
are one object, and equality and hash are identity.  Ortho and the image
under an operator eliminate their spanning rows (`integer_rref`); join
inserts the rows of the operand of smaller dimension into the other's
canonical rows, so a nested pair costs one reduction of the smaller rows
and returns the larger operand.  Meet is (P^⊥ ∨ Q^⊥)^⊥ by De Morgan.  Leq has
its own reduction of the rows of one subspace against the pivot rows of
the other, so the order that certifies join shares no code with it.
`projector_matrix` is computed on the integer `ExactMatrix` of the basis.
Gaussian rationals appear only at the boundary: the input of
`subspace_from_vectors` and the basis that `vectors`, `serialize` and
`__str__` read.  The zero space ({0}, dim 0) and the whole space (the unit
proposition) are first-class values.  `operator_closure` is the one walk
that closes subspaces under operator images; a finite `Universe` of
subspaces tabulates its order, meets and operator action by position, once
(`close_universe`).  Join and meet commute, so each unordered pair is
eliminated once: the argument order whose first operand has the larger
rows calls the other, and both orders return the one interned result.
Which order eliminates, and so every count of calls and cache entries, is
a function of the two values, not of which one the process met first or
where it lives in memory.  `generate_sublattice` closes seeds under join,
meet and ortho into a `Sublattice` that keeps, as position tables, the
join and meet of each unordered pair and the ortho of each member, as the
closure computed them, so its readers ask no lattice operation again.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import AmbientMismatch, DimensionMismatch, LatticeCapExceeded, ValidationError
from .linalg import (
    ExactMatrix,
    IntegerRow,
    Vector,
    _dot,
    _interned,
    _over_pivots,
    conj_transpose,
    identity_matrix,
    insert_rows,
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

    `rows` are the canonical Gaussian-integer RREF rows, one per basis
    vector, and `pivots` their pivot columns, a function of the rows; with
    `ambient_dim` they are the subspace's one key: the constructor returns
    the one instance with them, from a process-wide weak-valued intern
    table, so equal subspaces are the same object and equality and hash
    are identity.  Build subspaces only through `subspace_from_vectors`,
    `zero_space` and `full_space`, which bring the rows to their canonical
    form.
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "__weakref__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, ambient_dim: int, rows: tuple[IntegerRow, ...], pivots: tuple[int, ...]):
        return _interned(_INTERNED, cls, (ambient_dim, rows, pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __reduce__(self):  # copy and pickle through the constructor: the interned instance
        return Subspace, (self.ambient_dim, self.rows, self.pivots)

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

    def serialize(self) -> list[list[str]]:
        return [[format_scalar(e) for e in v] for v in self.vectors()]

    def __str__(self) -> str:
        if self.is_zero:
            return "{0}"
        return "span(" + "; ".join(
            "(" + ", ".join(format_scalar(e) for e in v) + ")" for v in self.vectors()
        ) + ")"


# (ambient_dim, rows, pivots) -> the one Subspace with those canonical rows.
# Process-wide, so that subspaces from different builds are comparable by
# identity.
_INTERNED: "weakref.WeakValueDictionary[tuple, Subspace]" = weakref.WeakValueDictionary()


def _span(ambient_dim: int, rows: Iterable[Sequence[tuple[int, int]]]) -> Subspace:
    """The subspace spanned by Gaussian-integer rows."""
    return Subspace(ambient_dim, *integer_rref(rows, ambient_dim))


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
    return Subspace(ambient_dim, (), ())


def full_space(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, identity_matrix(ambient_dim).numerators, tuple(range(ambient_dim)))


class Ray:
    """A one-dimensional subspace; the carrier of a pure state.  Immutable;
    equal to a ray of the same space."""

    __slots__ = ("space",)

    def __init__(self, space: Subspace):
        if space.dim != 1:
            raise ValidationError("ray", f"expected dim 1, got {space.dim}")
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError("Ray is immutable")

    def __reduce__(self):  # copy and pickle by field, not by slot assignment
        return Ray, (self.space,)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.space is other.space  # subspaces are interned

    def __hash__(self) -> int:
        return hash((self.space,))

    def __repr__(self) -> str:
        return f"Ray({self.space!r})"

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
    """P ∨ Q, once per unordered pair: the order whose first operand has the
    larger rows defers.  Equal operands, {0} and the whole space need no
    elimination.  Otherwise the rows of the operand of smaller dimension
    are inserted into the other's canonical rows and pivots
    (`insert_rows`): when the operands are nested, each reduces to zero,
    nothing is inserted, and the larger operand is the join."""
    _require_same_ambient(p, q)
    if q.rows < p.rows:
        return join(q, p)
    if p is q or q.is_zero or p.is_full:
        return p
    if p.is_zero or q.is_full:
        return q
    big, small = (q, p) if q.dim > p.dim else (p, q)
    return Subspace(p.ambient_dim, *insert_rows(big.rows, big.pivots, small.rows, p.ambient_dim))


@lru_cache(maxsize=None)
def meet(p: Subspace, q: Subspace) -> Subspace:
    """P ∧ Q = (P^⊥ ∨ Q^⊥)^⊥, the orthocomplement being an involution that
    reverses the order (De Morgan); once per unordered pair, as `join`."""
    _require_same_ambient(p, q)
    if q.rows < p.rows:
        return meet(q, p)
    if p.is_zero or q.is_zero:
        return zero_space(p.ambient_dim)
    if p.is_full:
        return q
    if q.is_full:
        return p
    return ortho(join(ortho(p), ortho(q)))


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
    """Whether every canonical row of p reduces to zero against q's.

    Interning makes equality identity, so with dim p >= dim q, p <= q iff p
    is q.  Otherwise each row v of p is reduced by q's canonical RREF rows:
    a row with positive integer pivot c at its stored pivot column j turns
    v into c v - v_j row.  q's rows vanish at each other's pivot columns,
    so one pass clears them all, and v lies in q iff nothing is left.  This
    reduction is written out here, apart from `insert_rows`, so that the
    order that certifies `join` shares no code with it.
    """
    _require_same_ambient(p, q)
    if p.dim >= q.dim:
        return p is q
    for v in p.rows:
        for row, j in zip(q.rows, q.pivots):
            fr, fi = v[j]
            if fr or fi:
                c = row[j][0]
                v = [
                    (c * a - fr * x + fi * y, c * b - fr * y - fi * x)
                    for (a, b), (x, y) in zip(v, row)
                ]
        if any(a or b for a, b in v):
            return False
    return True


@lru_cache(maxsize=None)
def apply_operator(f: ExactMatrix, p: Subspace) -> Subspace:
    """Image subspace F(P); drops to {0} when F annihilates P."""
    if f.rows != f.cols or f.rows != p.ambient_dim:
        raise DimensionMismatch(
            f"operator {f.rows}x{f.cols} on ambient {p.ambient_dim}"
        )
    return _span(p.ambient_dim, [tuple(_dot(frow, v) for frow in f.numerators) for v in p.rows])


class Universe:
    """A finite list of distinct subspaces, read by position, with its order,
    meets and operator action tabulated once: bit j of `above[i]` is set iff
    member i <= member j, `meets[i][j]` is the position of the meet of
    members i and j (None when it is not a member), and `action[f][i]` the
    position of F(member i), for each operator F.  Iterating, indexing and
    `len` read the members."""

    __slots__ = ("members", "action", "position", "above", "meets", "__weakref__")

    def __init__(self, members: tuple[Subspace, ...], action: Mapping[ExactMatrix, tuple[int, ...]]):
        position = {p: i for i, p in enumerate(members)}
        meets = [[None] * len(members) for _ in members]
        for i, p in enumerate(members):
            for j in range(i, len(members)):
                meets[i][j] = meets[j][i] = position.get(meet(p, members[j]))
        self.members = members
        self.action = action
        self.position = position
        self.above = tuple([sum(1 << j for j, q in enumerate(members) if leq(p, q)) for p in members])
        self.meets = tuple([tuple(row) for row in meets])

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i):
        return self.members[i]


def operator_closure(
    seeds: Iterable[Subspace], operators: Sequence[ExactMatrix]
) -> tuple[tuple[Subspace, ...], dict[ExactMatrix, tuple[int, ...]]]:
    """The seeds and their images under the operators, closed: members are
    listed as first reached, the seeds first, then the images of each member
    in turn, operator by operator.  Each image is computed once, and its
    position recorded in the operator's row, keyed by the operator.  The
    package's one walk that applies operators to a growing set of subspaces."""
    members: list[Subspace] = []
    position: dict[Subspace, int] = {}

    def add(space: Subspace) -> int:
        if space not in position:
            position[space] = len(members)
            members.append(space)
        return position[space]

    for space in seeds:
        add(space)
    rows: list[list[int]] = [[] for _ in operators]
    cursor = 0
    while cursor < len(members):
        base = members[cursor]
        cursor += 1
        for row, f in zip(rows, operators):
            row.append(add(apply_operator(f, base)))
    return tuple(members), {f: tuple(row) for f, row in zip(operators, rows)}


def close_universe(seeds: Iterable[Subspace], operators: Sequence[ExactMatrix]) -> Universe:
    """The `operator_closure` of the seeds, as a `Universe`."""
    return Universe(*operator_closure(seeds, operators))


@lru_cache(maxsize=None)
def projector_matrix(p: Subspace) -> ExactMatrix:
    """Exact orthogonal projector onto p: B (B*B)^-1 B*."""
    n = p.ambient_dim
    if p.is_zero:
        return zero_matrix(n, n)
    numerators, scale = _over_pivots(p.rows)
    b = ExactMatrix(n, p.dim, tuple(zip(*numerators)), scale)  # the basis as columns
    b_star = conj_transpose(b)
    gram_inv = inverse(mat_mul(b_star, b))
    return mat_mul(b, mat_mul(gram_inv, b_star))


@lru_cache(maxsize=None)
def project_onto_eigenspace(e: Subspace, r: Subspace) -> Subspace:
    """The atom (e ∨ r^⊥) ∧ r of the ray e, always of dim 0 or 1."""
    _require_same_ambient(e, r)
    result = meet(join(e, ortho(r)), r)
    if result.dim > 1:
        raise AmbientMismatch("projection of a ray produced dim > 1")  # pragma: no cover
    return result


class Sublattice:
    """A sublattice closed by `generate_sublattice`, read by position: for
    members i <= j, `joins[i][j - i]` and `meets[i][j - i]` are the positions
    of their join and meet, and `orthos[i]` is the position of member i's
    orthocomplement.  Iterating, indexing and `len` read the members."""

    __slots__ = ("members", "joins", "meets", "orthos")

    def __init__(
        self,
        members: tuple[Subspace, ...],
        joins: tuple[tuple[int, ...], ...],
        meets: tuple[tuple[int, ...], ...],
        orthos: tuple[int, ...],
    ):
        self.members = members
        self.joins = joins
        self.meets = meets
        self.orthos = orthos

    def join_at(self, i: int, j: int) -> int:
        """The position of the join of members i and j, in either order."""
        return self.joins[i][j - i] if i <= j else self.joins[j][i - j]

    def meet_at(self, i: int, j: int) -> int:
        """The position of the meet of members i and j, in either order."""
        return self.meets[i][j - i] if i <= j else self.meets[j][i - j]

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i):
        return self.members[i]


def generate_sublattice(seeds: Iterable[Subspace], cap: int) -> Sublattice:
    """Close a seed set under meet, join, and ortho; reject at the cap.

    Semi-naive: each round takes ortho of the elements new in the previous
    round and combines only the pairs with at least one new element, every
    other pair having been combined in an earlier round.  Deterministic:
    elements are listed in the order they are first reached, visiting
    pairs (p, q) with p at or before q in list order, so repeated runs
    yield the same list.  Each combination records the position it
    reaches: pair (i, j), j >= i, appends to row i of the join and meet
    tables, so that row lists j = i, i + 1, ... in order, and the ortho of
    member i is entry i of the ortho table.
    """
    elements: list[Subspace] = []
    position: dict[Subspace, int] = {}

    def add(s: Subspace) -> int:
        if s not in position:
            if len(elements) >= cap:
                raise LatticeCapExceeded(cap)
            position[s] = len(elements)
            elements.append(s)
        return position[s]

    for s in seeds:
        add(s)
    joins: list[list[int]] = []
    meets: list[list[int]] = []
    orthos: list[int] = []
    fresh = 0
    while fresh < len(elements):
        snapshot = list(elements)
        for p in snapshot[fresh:]:
            orthos.append(add(ortho(p)))
            joins.append([])
            meets.append([])
        for i, p in enumerate(snapshot):
            join_row, meet_row = joins[i], meets[i]
            for q in snapshot[max(i, fresh):]:
                join_row.append(add(join(p, q)))
                meet_row.append(add(meet(p, q)))
        fresh = len(snapshot)
    return Sublattice(tuple(elements), tuple(map(tuple, joins)), tuple(map(tuple, meets)), tuple(orthos))
