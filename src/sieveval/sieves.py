"""Sieves over a built site: stage Heyting algebras, presheaves, valuations.

A sieve on an object is a postcomposition-closed set of arrows out of it.
Equivalently it is a union of principal sieves, which is how enumeration
works here: collect the distinct principal sieves and close them under
union.  That avoids filtering all 2^k arrow subsets.

Representation: a `Sieve` stores an `int` bitmask over the site's global
arrow ids, bit a set iff arrow a is a member.  The arrows out of one object
have consecutive ids, so a mask decodes without its site (`Sieve.arrows`).
Meet, join and <= are `&`, `|` and `a & ~b == 0`.  The category data comes
from tables the site owns: per arrow f, the pairs (g, g∘f) and the principal
mask of f.  Implication is then m ∈ (S ⇒ T) iff `principal[m] & S & ~T` is
empty, and pulling S back along m is one pass over the pairs of m.

Truth values: the valuation of a proposition P at a stage is the sieve of
arrows F with F(P) above the transported true atom.  It is computed twice —
once directly, once as the characteristic morphism of the true subobject —
and the two must agree arrow for arrow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, Iterator, Sequence

from .errors import (
    EnumerationExceeded,
    InternalCheckError,
    NaturalityError,
    NotASubPresheaf,
)
from .modal import compute_atoms
from .subspaces import (
    Ray,
    Subspace,
    apply_operator,
    full_space,
    leq,
    meet,
    project_onto_eigenspace,
    zero_space,
)

# `semiclassifier_check` enumerates every candidate map while their count is
# at most this, and otherwise proves uniqueness by the pointwise argument.
CANDIDATE_BUDGET = 10_000


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, slots=True)
class Sieve:
    """A sieve on object `base`; bit a of `mask` is set iff arrow a is in it."""

    base: int
    mask: int

    @property
    def arrows(self) -> frozenset[int]:
        return frozenset(_bits(self.mask))

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __contains__(self, arrow: int) -> bool:
        return arrow >= 0 and (self.mask >> arrow) & 1 == 1

    def __le__(self, other: "Sieve") -> bool:
        _require_same_base(self, other)
        return not self.mask & ~other.mask

    def __lt__(self, other: "Sieve") -> bool:
        _require_same_base(self, other)
        return self.mask != other.mask and not self.mask & ~other.mask

    def sort_key(self) -> tuple:
        """Size, then the ascending tuple of arrow ids."""
        return (self.mask.bit_count(), tuple(_bits(self.mask)))


def _require_same_base(a: Sieve, b: Sieve) -> None:
    if a.base != b.base:
        raise InternalCheckError(f"sieves based at {a.base} and {b.base}")


def is_sieve(site, s: Sieve) -> bool:
    """Members start at the base and every member's principal sieve is inside."""
    if s.mask & ~site.out_masks[s.base]:
        return False
    principal = site.principal_masks
    return not any(principal[m] & ~s.mask for m in _bits(s.mask))


def principal_sieve(site, arrow: int) -> Sieve:
    """All postcomposites of one arrow (the arrow itself included)."""
    return Sieve(site.arrow_dom(arrow), site.principal_masks[arrow])


def top_sieve(site, obj: int) -> Sieve:
    return Sieve(obj, site.out_masks[obj])


def bottom_sieve(obj: int) -> Sieve:
    return Sieve(obj, 0)


@lru_cache(maxsize=None)
def enumerate_sieves(site, obj: int, cap: int) -> tuple[Sieve, ...]:
    """Every sieve on obj: all unions of principal sieves, plus the empty one,
    ordered by size and then by the ascending tuple of arrow ids."""
    principal = site.principal_masks
    collected = {0}
    for p in dict.fromkeys(principal[a] for a in site.arrows_from(obj)):
        collected |= {existing | p for existing in collected}
        if len(collected) > cap:
            raise EnumerationExceeded(cap)
    return tuple(sorted((Sieve(obj, m) for m in collected), key=Sieve.sort_key))


def omega_transition(site, m: int, s: Sieve) -> Sieve:
    """Pull a sieve along an arrow: arrows whose composite with m lands in s."""
    if site.arrow_dom(m) != s.base:
        raise InternalCheckError("transition arrow does not start at the sieve's base")
    mask = s.mask
    pulled = 0
    for a, am in site.postcomposites[m]:
        if (mask >> am) & 1:
            pulled |= 1 << a
    return Sieve(site.arrow_cod(m), pulled)


def heyting_join(s1: Sieve, s2: Sieve) -> Sieve:
    _require_same_base(s1, s2)
    return Sieve(s1.base, s1.mask | s2.mask)


def heyting_meet(s1: Sieve, s2: Sieve) -> Sieve:
    _require_same_base(s1, s2)
    return Sieve(s1.base, s1.mask & s2.mask)


def heyting_implies(site, s1: Sieve, s2: Sieve) -> Sieve:
    """Relative pseudocomplement: m is in, iff every postcomposite taking m
    into s1 also lands in s2, i.e. `principal[m] & s1 & ~s2` is empty."""
    _require_same_base(s1, s2)
    outside = s1.mask & ~s2.mask
    if not outside:
        return top_sieve(site, s1.base)
    principal = site.principal_masks
    members = 0
    for m in site.arrows_from(s1.base):
        if not principal[m] & outside:
            members |= 1 << m
    return Sieve(s1.base, members)


def stage_implies(site, base: int) -> Callable[[int, int], int]:
    """`heyting_implies` on the masks of sieves based at `base`."""
    return lambda s, t: heyting_implies(site, Sieve(base, s), Sieve(base, t)).mask


def is_heyting_family(masks: Sequence[int], implies: Callable, probes: Sequence[int]) -> bool:
    """Whether masks on one base form a Heyting algebra under `|`, `&` and
    `implies`: each pair's join, meet and implication are members, s ⇒ t
    misses s minus t, and x ∧ s <= t iff x <= (s ⇒ t) for every probe x.
    Probes need only join-generate the family, as the principal sieves of a
    base do for its sieves: every sieve is the union of the principal ones."""
    members = set(masks)
    for s in masks:
        for t in masks:
            imp = implies(s, t)
            outside = s & ~t
            if s | t not in members or s & t not in members or imp not in members or imp & outside:
                return False
            # x ∧ s <= t iff x misses s minus t; x <= imp iff x misses ~imp.
            if any((not x & outside) != (not x & ~imp) for x in probes):
                return False
    return True


# ---------------------------------------------------------------------------
# presheaves


@dataclass(frozen=True, eq=False)
class Presheaf:
    """A functor to finite sets, stored stage-wise with transition tables."""

    site: object
    values: tuple[tuple[Hashable, ...], ...]
    transitions: tuple[dict, ...]  # per arrow: value at dom -> value at cod
    value_sets: tuple[frozenset, ...]

    def value_set(self, o: int) -> frozenset:
        return self.value_sets[o]

    def map(self, arrow: int, x):
        return self.transitions[arrow][x]

    def validate(self) -> None:
        site = self.site
        for o in range(site.n_objects):
            ident = site.identity_arrow(o)
            for x in self.values[o]:
                if self.map(ident, x) != x:
                    raise InternalCheckError("identity transition is not the identity")
        for f in range(len(site.arrows)):
            dom_values = self.values[site.arrow_dom(f)]
            cod_set = self.value_set(site.arrow_cod(f))
            for x in dom_values:
                if self.map(f, x) not in cod_set:
                    raise InternalCheckError("transition leaves the codomain value set")
            for g, gf in site.postcomposites[f]:
                for x in dom_values:
                    if self.map(gf, x) != self.map(g, self.map(f, x)):
                        raise InternalCheckError("functoriality failure")


def build_presheaf(site, values_at: Callable[[int], Sequence], transition):
    """Materialize values and transitions.  Functoriality is not checked here:
    `Presheaf.validate` is the check, run by the row that reports it."""
    values = tuple(tuple(values_at(o)) for o in range(site.n_objects))
    transitions = []
    for a in range(len(site.arrows)):
        table = {x: transition(a, x) for x in values[site.arrow_dom(a)]}
        transitions.append(table)
    return Presheaf(site, values, tuple(transitions), tuple(frozenset(v) for v in values))


def proposition_presheaf(site, universe: Sequence[Subspace]) -> Presheaf:
    """The proposition functor: the same universe at every stage, operators act."""
    universe = tuple(universe)
    members = set(universe)

    def transition(a: int, p: Subspace) -> Subspace:
        image = apply_operator(site.operator_matrix(site.arrow_op(a)), p)
        if image not in members:
            raise InternalCheckError(
                f"proposition universe is not closed under the monoid action: {image}"
            )
        return image

    return build_presheaf(site, lambda o: universe, transition)


def atom_presheaf(site, observable_of: Callable[[int], object]) -> Presheaf:
    """Zero-augmented atom sets per stage (the stage ray against its observable)."""
    def values_at(o: int):
        atoms = compute_atoms(Ray(site.object_ray(o)), observable_of(o))
        return atoms.zero_augmented

    def transition(a: int, atom: Subspace) -> Subspace:
        return apply_operator(site.operator_matrix(site.arrow_op(a)), atom)

    return build_presheaf(site, values_at, transition)


@dataclass(frozen=True)
class GlobalElement:
    """A compatible choice of one value per stage (a point of the presheaf)."""

    presheaf: Presheaf
    values: tuple[Hashable, ...]

    def validate(self) -> None:
        site = self.presheaf.site
        for o in range(site.n_objects):
            if self.values[o] not in self.presheaf.value_set(o):
                raise NaturalityError(f"chosen value at stage {o} is not in the presheaf")
        for a in range(len(site.arrows)):
            if self.presheaf.map(a, self.values[site.arrow_dom(a)]) != self.values[site.arrow_cod(a)]:
                raise NaturalityError(f"naturality square fails at arrow {a}")


def atom_global_element(site, atoms: Presheaf, r: Subspace) -> GlobalElement:
    """The section picking the projection onto a fixed eigenspace at each stage;
    `GlobalElement.validate` checks that it is one."""
    values = tuple(
        project_onto_eigenspace(Ray(site.object_ray(o)), r) for o in range(site.n_objects)
    )
    return GlobalElement(atoms, values)


def true_subobject(site, sigma: GlobalElement, propositions: Presheaf) -> Presheaf:
    """Stage-wise up-sets of the transported atom inside the proposition functor."""
    def values_at(o: int):
        atom = sigma.values[o]
        return tuple(p for p in propositions.values[o] if leq(atom, p))

    def transition(a: int, p: Subspace) -> Subspace:
        return propositions.map(a, p)

    return build_presheaf(site, values_at, transition)


def is_subpresheaf(n: Presheaf, m: Presheaf) -> bool:
    site = m.site
    for o in range(site.n_objects):
        if not n.value_set(o) <= m.value_set(o):
            return False
    for a in range(len(site.arrows)):
        for x in n.values[site.arrow_dom(a)]:
            if n.map(a, x) != m.map(a, x):
                return False
            if n.map(a, x) not in n.value_set(site.arrow_cod(a)):
                return False
    return True


def characteristic(site, n: Presheaf, m: Presheaf, obj: int, x) -> Sieve:
    """The classifying sieve of x against the subfunctor n of m."""
    if not is_subpresheaf(n, m):
        raise NotASubPresheaf("characteristic morphism needs a subfunctor")
    return characteristic_unchecked(site, n, m, obj, x)


def characteristic_unchecked(site, n: Presheaf, m: Presheaf, obj: int, x) -> Sieve:
    members = 0
    for a in site.arrows_from(obj):
        if m.map(a, x) in n.value_set(site.arrow_cod(a)):
            members |= 1 << a
    return Sieve(obj, members)


def characteristic_table(site, n: Presheaf, m: Presheaf) -> dict[tuple[int, Hashable], Sieve]:
    """chi(o, x) for every stage o and value x of m; n must be a subfunctor of m."""
    return {
        (o, x): characteristic_unchecked(site, n, m, o, x)
        for o in range(site.n_objects)
        for x in m.values[o]
    }


def naturality_holds(site, zeta: dict, m: Presheaf, transition: Callable) -> bool:
    """Every square commutes: transition(a, zeta(dom a, x)) = zeta(cod a, m(a)(x)).
    An m(a)(x) outside m's codomain value set has no zeta entry: its square fails."""
    for a in range(len(site.arrows)):
        dom, cod = site.arrow_dom(a), site.arrow_cod(a)
        for x in m.values[dom]:
            image = zeta.get((cod, m.map(a, x)))
            if image is None or transition(a, zeta[(dom, x)]) != image:
                return False
    return True


def pullback_holds(site, zeta: dict, n: Presheaf, m: Presheaf, tau: Sequence[Sieve]) -> bool:
    """n is the set-level pullback of the 'true' section tau along zeta at every stage."""
    return all(
        n.value_set(o) == {x for x in m.values[o] if zeta[(o, x)] == tau[o]}
        for o in range(site.n_objects)
    )


def filter_check(site, s: Presheaf, universe: Presheaf) -> list[tuple]:
    """Up-set and meet-closure violations of a proposition-set functor,
    relative to the enclosing proposition functor."""
    violations: list[tuple] = []
    for o in range(site.n_objects):
        stage = set(s.values[o])
        ordered = sorted(stage, key=Subspace.sort_key)
        for p in ordered:
            for q in universe.values[o]:
                if leq(p, q) and q not in stage:
                    violations.append(("up-set", o, p, q))
            for q in ordered:
                if meet(p, q) not in stage:
                    violations.append(("meet", o, p, q))
    return violations


# ---------------------------------------------------------------------------
# valuations


def valuation(site, obj: int, r: Subspace, p: Subspace) -> Sieve:
    """Arrows F with F(P) above F of the stage atom.  The direct formula."""
    atom = project_onto_eigenspace(Ray(site.object_ray(obj)), r)
    members = 0
    for a in site.arrows_from(obj):
        f = site.operator_matrix(site.arrow_op(a))
        if leq(apply_operator(f, atom), apply_operator(f, p)):
            members |= 1 << a
    return Sieve(obj, members)


def bottom_annihilator(site, obj: int, e_r: Subspace) -> Sieve:
    """Arrows sending the true atom to the zero space; the valuation floor."""
    members = 0
    for a in site.arrows_from(obj):
        f = site.operator_matrix(site.arrow_op(a))
        if apply_operator(f, e_r).is_zero:
            members |= 1 << a
    return Sieve(obj, members)


def omega_presheaf(site, cap: int) -> Presheaf:
    """The subobject classifier, stage lattices fully enumerated."""
    return build_presheaf(
        site,
        lambda o: enumerate_sieves(site, o, cap),
        lambda a, s: omega_transition(site, a, s),
    )


def delta_omega_presheaf(site, r: Subspace, cap: int) -> Presheaf:
    """The sieves above each stage's annihilator bottom, as a subfunctor."""
    def values_at(o: int):
        atom = project_onto_eigenspace(Ray(site.object_ray(o)), r)
        floor = bottom_annihilator(site, o, atom).mask
        return tuple(s for s in enumerate_sieves(site, o, cap) if not floor & ~s.mask)

    return build_presheaf(site, values_at, lambda a, s: omega_transition(site, a, s))


def tau_values(site) -> tuple[Sieve, ...]:
    """The 'true' section: the top sieve at every stage."""
    return tuple(top_sieve(site, o) for o in range(site.n_objects))


def semiclassifier_check(
    site,
    delta_omega: Presheaf,
    omega: Presheaf,
    delta_tau: tuple[Sieve, ...],
    pairs: Sequence[tuple[Presheaf, Presheaf]],
) -> list[dict]:
    """Per-object semi-classifier audit for a subfunctor of the classifier.

    For every (N, M) pair: (a) the characteristic morphism factors through
    the stage sets of delta_omega; (b) the square against delta_tau is a
    set-level pullback at every object; (c) the factored map is the only
    natural map with that pullback property (full candidate enumeration when
    the count fits `CANDIDATE_BUDGET`, otherwise a pointwise forcing argument).
    """
    rows: list[dict] = []
    if not is_subpresheaf(delta_omega, omega):
        rows.append({"pair": None, "passed": False, "reason": "not a subfunctor of the classifier"})
        return rows
    for a in range(len(site.arrows)):
        lhs = omega_transition(site, a, delta_tau[site.arrow_dom(a)])
        if lhs != delta_tau[site.arrow_cod(a)]:
            rows.append({"pair": None, "passed": False, "reason": "the 'true' section is not natural"})
            return rows
    for idx, (n, m) in enumerate(pairs):
        if not is_subpresheaf(n, m):
            rows.append({"pair": idx, "passed": False, "reason": "not a subfunctor pair"})
            continue
        chi = characteristic_table(site, n, m)
        factors = all(value in delta_omega.value_set(o) for (o, _), value in chi.items())
        pullback = pullback_holds(site, chi, n, m, delta_tau)
        count = 1
        for o in range(site.n_objects):
            count *= len(delta_omega.values[o]) ** len(m.values[o])
            if count > CANDIDATE_BUDGET:
                break
        if count <= CANDIDATE_BUDGET:
            survivors = _enumerate_pullback_maps(site, delta_omega, m, n, delta_tau)
            unique = survivors == [chi]
            mode = "enumerated"
        else:
            unique = _forced_pointwise_unique(site, delta_omega, m, n, delta_tau, chi)
            mode = "forced-pointwise"
        rows.append(
            {
                "pair": idx,
                "passed": factors and pullback and unique,
                "factors": factors,
                "pullback": pullback,
                "uniqueness": unique,
                "uniqueness_mode": mode,
            }
        )
    return rows


def _enumerate_pullback_maps(site, delta_omega, m, n, delta_tau) -> list[dict]:
    """All natural maps into the semi-classifier with the pullback property."""
    slots = [(o, x) for o in range(site.n_objects) for x in m.values[o]]
    choices = [delta_omega.values[o] for o, _ in slots]
    survivors = []
    for assignment in itertools.product(*choices):
        zeta = dict(zip(slots, assignment))
        if pullback_holds(site, zeta, n, m, delta_tau) and naturality_holds(
            site, zeta, m, delta_omega.map
        ):
            survivors.append(zeta)
    return survivors


def _forced_pointwise_unique(site, delta_omega, m, n, delta_tau, chi) -> bool:
    """Uniqueness without enumerating candidates, checked exhaustively.

    (1) At every stage o, for every S in the semi-classifier and every arrow
    a out of o: a ∈ S iff a*(S) is the 'true' sieve at cod a.  (2) chi is
    natural.  (3) chi has the pullback property.  For any natural zeta with
    the pullback property, (1), naturality and pullback give
    a ∈ zeta(x) iff m(a)(x) ∈ n, and (1)-(3) give the same for chi, so
    zeta = chi.
    """
    for o in range(site.n_objects):
        for s in delta_omega.values[o]:
            for a in site.arrows_from(o):
                if (a in s) != (delta_omega.map(a, s) == delta_tau[site.arrow_cod(a)]):
                    return False
    return (
        all(value in delta_omega.value_set(o) for (o, _), value in chi.items())
        and naturality_holds(site, chi, m, delta_omega.map)
        and pullback_holds(site, chi, n, m, delta_tau)
    )


def ib_condition_check(
    site,
    obj: int,
    r: Subspace,
    universe: Sequence[Subspace],
) -> dict:
    """Monotonicity, exclusivity, unit and null verdicts for one stage."""
    n = site.object_ray(obj).ambient_dim
    atom = project_onto_eigenspace(Ray(site.object_ray(obj)), r)
    top = top_sieve(site, obj)
    floor = bottom_annihilator(site, obj, atom)
    values = {p: valuation(site, obj, r, p) for p in universe}
    monotone = all(
        values[p] <= values[q]
        for p in universe
        for q in universe
        if leq(p, q)
    )
    exclusive = True
    for p in universe:
        if values[p] != top:
            continue
        for q in universe:
            conj = valuation(site, obj, r, meet(p, q))
            if conj != top and values[q] == top:
                exclusive = False
    unit = valuation(site, obj, r, full_space(n)) == top
    null_value = valuation(site, obj, r, zero_space(n))
    return {
        "monotonicity": monotone,
        "exclusivity": exclusive,
        "unit": unit,
        "null_equals_floor": null_value == floor,
        "floor_nonempty": bool(floor.mask),
        "null_fails_in_omega": null_value != bottom_sieve(obj),
        "null_passes_in_delta": null_value == floor,
    }
