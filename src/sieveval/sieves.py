"""Sieves over a built site: stage Heyting algebras, presheaves, valuations.

A sieve on an object is a postcomposition-closed set of arrows out of it.
Equivalently it is a union of principal sieves.  A site reads one `Stage`
per object (`Site.stage`), built on its first read, and a restriction
reads its parent's.  A stage is a function of its composition table and
its fixed mask, so a build keeps one stage per distinct pair of them,
which every object with that pair reads, on one site or on several
(hash-consing).  A stage's sieve list (`Stage.sieves`) is made by closing
the distinct principal sieves under union rather than by filtering all
2^k arrow subsets.

Representation: a `Sieve` stores an `int` bitmask local to its base: bit i
is set iff the i-th arrow out of the base (`site.arrows_from(base)[i]`) is
a member, so its width is the base's arrow count k, and a reader that needs
the arrows decodes the positions through `arrows_from`.  Meet, join and <=
are `&`, `|` and `a & ~b == 0`.  The mask format lives in `Stage`, which
composes once, with `site.compose`: per arrow f out of the base, a row
holding for each arrow g out of cod f, in order, the position of g∘f out of
the base (`composites`), and the principal mask of f (`principals`), then
`top`, the mask of all k arrows.  The rows are the site's only composition
table.  Implication is then i ∈ (S ⇒ T) iff `principals[i] & S & ~T` is
empty, and pulling S back along f is one pass over f's row.  A stage keeps
no reference to its site.

The stage audits read the stage's masks.  In a lattice of down-sets, s ⇒ t
is the largest sieve missing s minus t, so it depends on `y = s & ~t`
alone: `Stage.implies` is a `LazyTable` keyed on y, filled once per
distinct y for the life of the stage, so every audit of a stage shares it.
The round trip ♮ of the bridge (see `bridge`) is the stage's other table,
`Stage.natural`: the union of the principal masks of the arrows of a mask
that stay at the base's observable, filled once per mask.
`is_heyting_family` checks closure under `|` and `&` once per unordered
pair, one row at a time, and the implication's clauses (membership, modus
ponens, the probe adjunction) once per distinct y.  So a family of N sieves
with k probes costs N(N+1)/2 closure reads plus O(k) work per distinct y.

Presheaves: a `Presheaf` lists each stage's values and stores each arrow's
transition as a position table, a tuple giving for every position of the
domain stage the position of the image in the codomain stage (None for an
image outside it).  The audits compare tables of ints: identity tables are
`range`s, closure is the absence of None, functoriality is table composition
over the stage rows, and subfunctors, pullbacks and
characteristic maps are read by position.  A map between presheaves is
read by position too: `naturality_holds` turns its values into positions of
the target once and compares the two presheaves' tables square by square,
so no audit moves a value along an arrow.  Ω's tables are the stages'
rows: `Stage.omega_row` pulls each listed mask of the stage back over one
arrow's row of `Stage.composites` (`pull_back`) and reads the image's
position in the codomain's listing, once per (arrow position, codomain
listing) for the life of the stage, and `omega_presheaf` reads one row
per arrow, so sites that share a stage share its rows;
`omega_transition` is the same pullback on one `Sieve`.

The proposition functor L has the build's whole universe
(`subspaces.Universe`) at every stage, so its positions are the
universe's: each arrow's table is its operator's action row, one tuple
shared by every arrow of that operator, and no operator is applied to
build it.  The true subobject T is cut from L by the universe's `above`
mask of each stage's atom (by `leq` where the atom is not a member).
`filter_check` tests each of T's stage masks against the universe's order
and meet tables.

Subfunctors: the true subobject of the proposition functor, and the
semi-classifiers δΩ and ♮Ω of the classifier Ω, are each a `Cut` of their
parent, made by `subpresheaf` from one mask of the parent's positions per
stage (`held`) and re-indexed once into a presheaf of its own; it is a
subfunctor of its parent iff it `is_closed`.  Its readers take the cut
alone: `characteristic_table` reads each arrow's table of the parent once,
against its codomain's held mask, and `pullback_holds` compares the masks
with a map's 'true'.

Truth values: the valuation of a proposition P at a stage is the sieve of
arrows F with F(P) above the transported true atom.  Each side of a built
run (`runner.SiteRun`) tabulates it twice, each table built once, on first
use: directly (`valuation_table`, `SiteRun.values`) and as the
characteristic table of the true subobject (`characteristic_table`,
`SiteRun.chi`).  The two must be equal, and every row that needs a truth
value reads them.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Callable, Hashable, Iterator, Mapping, NamedTuple, Sequence

from .errors import EnumerationExceeded, InternalCheckError, NaturalityError
from .modal import compute_atoms
from .subspaces import (
    Ray,
    Subspace,
    Universe,
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


class Sieve(NamedTuple):
    """A sieve on object `base`; bit i of `mask` is set iff the i-th arrow
    out of the base, `site.arrows_from(base)[i]`, is in it.

    Iterating a sieve yields its members' positions and `in` tests a
    position, so the tuple helpers that iterate (`_replace`, `_asdict`) do
    not apply: build a new `Sieve(base, mask)`.  The order is inclusion, and
    a sieve equals the plain tuple (base, mask); no stage mixes the two."""

    base: int
    mask: int

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __reduce__(self):  # copy and pickle by field, not by iteration
        return Sieve, (self.base, self.mask)

    def __contains__(self, position: int) -> bool:
        return position >= 0 and (self.mask >> position) & 1 == 1

    def __le__(self, other: "Sieve") -> bool:
        _require_same_base(self, other)
        return not self.mask & ~other.mask

    def __lt__(self, other: "Sieve") -> bool:
        _require_same_base(self, other)
        return self.mask != other.mask and not self.mask & ~other.mask

    # `>=` and `>` are inclusion too, read through `<=` and `<`: not tuple order.
    def __ge__(self, other: "Sieve") -> bool:
        return Sieve.__le__(other, self)

    def __gt__(self, other: "Sieve") -> bool:
        return Sieve.__lt__(other, self)


def _require_same_base(a: Sieve, b: Sieve) -> None:
    if a.base != b.base:
        raise InternalCheckError(f"sieves based at {a.base} and {b.base}")


def principal_union(principals: Sequence[int], mask: int) -> int:
    """The smallest sieve holding the members of `mask`: the union of their
    principal masks, read from a stage's `principals`."""
    members = 0
    for i in _bits(mask):
        members |= principals[i]
    return members


def is_sieve(site, s: Sieve) -> bool:
    """Members are arrows out of the base and every member's principal sieve is inside."""
    stage = site.stage(s.base)
    if s.mask & ~stage.top:
        return False
    return not principal_union(stage.principals, s.mask) & ~s.mask


def principal_sieve(site, arrow: int) -> Sieve:
    """All postcomposites of one arrow (the arrow itself included)."""
    base = site.arrow_dom(arrow)
    return Sieve(base, site.stage(base).principals[site.arrow_position(arrow)])


def top_sieve(site, obj: int) -> Sieve:
    return Sieve(obj, site.stage(obj).top)


def bottom_sieve(obj: int) -> Sieve:
    return Sieve(obj, 0)


def pull_back(row: Sequence[int], mask: int) -> int:
    """The mask pulled back along an arrow m, given m's row of
    `Stage.composites` (the position of g∘m for the g-th arrow out of cod m):
    the arrows g whose composite with m lands in the mask."""
    pulled = 0
    for g, gm in enumerate(row):
        if (mask >> gm) & 1:
            pulled |= 1 << g
    return pulled


def omega_transition(site, m: int, s: Sieve) -> Sieve:
    """Pull a sieve along an arrow: arrows whose composite with m lands in s."""
    if site.arrow_dom(m) != s.base:
        raise InternalCheckError("transition arrow does not start at the sieve's base")
    row = site.stage(s.base).composites[site.arrow_position(m)]
    return Sieve(site.arrow_cod(m), pull_back(row, s.mask))


def heyting_implies(principals: Sequence[int], outside: int) -> int:
    """The mask of s ⇒ t on a stage with these principal masks, given
    `outside = s & ~t`: position i is in, iff every postcomposite taking
    arrow i into s also lands in t, i.e. `principals[i] & outside` is empty."""
    members = 0
    for i, principal in enumerate(principals):
        if not principal & outside:
            members |= 1 << i
    return members


class LazyTable(dict):
    """A dict that fills a missing key with `fn(key)`, computed once."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class Stage:
    """The sieve lattice of one object as masks local to it, built by
    `Site.stage`, which composes with `site.compose`, after which it reads
    nothing of the site; it keeps no object index, as every restriction that
    keeps the object, and every object of the build with the same
    `composites` and `fixed`, shares it.  For the i-th arrow f out of `base`,
    `composites[i][j]` is the position out of the base of g∘f, g the j-th
    arrow out of cod f, and `principals[i]` the principal mask of f; `top`
    has all k arrows, and `fixed` those that stay at the base's observable.
    `implies[s & ~t]` is the mask of s ⇒ t, which reads nothing else of s
    and t (one `heyting_implies` call per key, for the stage's lifetime).
    `natural[m]` is the round trip ♮ of m: down to the fixed arrows, then up
    to the sieve they generate.  On a plain site every arrow stays, so ♮
    fixes every sieve.  `omega_row` is Ω's transition along one arrow."""

    def __init__(self, site, base: int):
        # `compose` keys its result on f's domain, so every composite is an
        # arrow out of the base.
        arrows = site.arrows_from(base)
        compose, position = site.compose, site.arrow_position
        composites = tuple([
            tuple([position(compose(g, f)) for g in site.arrows_from(site.arrow_cod(f))]) for f in arrows
        ])
        principals = tuple([sum(1 << gf for gf in set(row)) for row in composites])
        rho = site.object_rho(base)
        fixed = sum(1 << i for i, a in enumerate(arrows) if site.arrow_cod_rho(a) == rho)
        self.top, self.fixed = (1 << len(arrows)) - 1, fixed
        self.composites, self.principals = composites, principals
        self.natural = LazyTable(lambda m: principal_union(principals, m & fixed))
        self.implies = LazyTable(lambda y: heyting_implies(principals, y))
        self._sieves: tuple[int, ...] | None = None
        self._at: dict[int, int] = {}  # each listed mask's position
        self._omega: dict[tuple[int, tuple[int, ...]], tuple[int | None, ...]] = {}

    def sieves(self, cap: int, obj: int) -> tuple[int, ...]:
        """Every sieve on the base as a mask (the unions of its principal
        sieves and the empty one, by size, then by ascending arrow ids),
        listed on first use.  More than `cap` sieves raise
        `EnumerationExceeded` naming `obj`, the caller's index of the
        object, listed or not; a listing cut short is not kept."""
        masks = self._sieves
        if masks is None:
            collected = {0}
            for p in dict.fromkeys(self.principals):
                collected |= {existing | p for existing in collected}
                if len(collected) > cap:
                    raise EnumerationExceeded(cap, obj, len(self.principals))
            masks = self._sieves = tuple(
                sorted(
                    collected,
                    key=lambda m: (m.bit_count(), tuple(_bits(m))),
                )
            )
            self._at = {m: i for i, m in enumerate(masks)}
        if len(masks) > cap:
            raise EnumerationExceeded(cap, obj, len(self.principals))
        return masks

    def omega_row(self, i: int, cod: Stage) -> tuple[int | None, ...]:
        """Ω's transition along the i-th arrow out of the base, whose
        codomain's stage is `cod`: for each listed mask, the position of its
        pullback (`pull_back`) in cod's listing, None if it is not listed
        there.  Both stages must be listed (`sieves`).  Filled once per
        (i, cod's listing), on which alone it depends, for the life of the
        stage, so a stage holds no other stage."""
        key = i, cod._sieves
        row = self._omega.get(key)
        if row is None:
            at, composites = cod._at, self.composites[i]
            row = self._omega[key] = tuple([at.get(pull_back(composites, m)) for m in self._sieves])
        return row


def is_heyting_family(masks: Sequence[int], implication: Mapping[int, int], probes: Sequence[int]) -> bool:
    """Whether masks on one base form a Heyting algebra under `|`, `&` and
    `implication[s & ~t]` as s ⇒ t (a `Stage.implies` table): each pair's
    join, meet and implication are members, s ⇒ t misses s minus t, and
    x ∧ s <= t iff x <= (s ⇒ t) for every probe x.  Probes need only
    join-generate the family, as the principal sieves of a base do for its
    sieves.  Closure is read once per unordered pair, as `|` and `&`
    commute; the other clauses see the ordered pair only through y = s & ~t
    (x ∧ s <= t iff x misses y, x <= imp iff x misses ~imp), so they run
    once per distinct y.
    """
    members = set(masks)
    distinct: set[int] = set()
    for i, s in enumerate(masks):
        later = masks[i:]
        if not (
            members.issuperset([s | t for t in later]) and members.issuperset([s & t for t in later])
        ):
            return False
        distinct.update([s & ~t for t in masks])
    for y in distinct:
        imp = implication[y]
        if imp not in members or imp & y:
            return False
        not_imp = ~imp
        if any((not x & y) != (not x & not_imp) for x in probes):
            return False
    return True


# ---------------------------------------------------------------------------
# presheaves
#
# Tables are built as `tuple([...])`, not `tuple(<generator>)`: CPython sizes
# a tuple built from a generator for ten items and then shrinks it, so each
# such tuple, once freed, parks in the free list of its own size, and a pass
# over many presheaves keeps hundreds of KB there (seen in peak RSS).


class Presheaf:
    """A functor to finite sets, stored stage-wise with position tables.

    `values[o]` lists stage o (its values are distinct) and `index[o]` maps
    each value to its position there.  `positions[a]` holds, for each
    position i of the domain stage of arrow a, the position in the codomain
    stage of the image of `values[dom][i]`, or None when the image lies
    outside that stage.  Immutable; equal only to itself.
    """

    __slots__ = ("site", "values", "positions", "index", "__weakref__")

    def __init__(
        self,
        site,
        values: tuple[tuple[Hashable, ...], ...],
        positions: tuple[tuple[int | None, ...], ...],
        index: tuple[dict, ...],
    ):
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "index", index)

    def __setattr__(self, name, value):
        raise AttributeError("Presheaf is immutable")

    def validate(self) -> None:
        """Identities, closure, then functoriality: t_{g∘f} = t_g ∘ t_f."""
        site = self.site
        positions = self.positions
        for o in range(len(self.values)):
            if site.identity_arrow(o) < 0:
                raise InternalCheckError(f"object {o} has no identity arrow")
        for o, stage in enumerate(self.values):
            if positions[site.identity_arrow(o)] != tuple(range(len(stage))):
                raise InternalCheckError("identity transition is not the identity")
        if not is_closed(self):
            raise InternalCheckError("transition leaves the codomain value set")
        out = [site.arrows_from(o) for o in range(len(self.values))]
        for o, arrows in enumerate(out):
            for f, row in zip(arrows, site.stage(o).composites):
                tf = positions[f]  # t_g∘t_f is `after_f(t_g)`; `itemgetter` of fewer than two is no tuple
                after_f = itemgetter(*tf) if len(tf) > 1 else lambda tg, tf=tf: tuple([tg[i] for i in tf])
                for g, gf in zip(out[site.arrow_cod(f)], row):
                    if positions[arrows[gf]] != after_f(positions[g]):
                        raise InternalCheckError("functoriality failure")


def build_presheaf(site, values_at: Callable[[int], Sequence], transition):
    """Materialize values and position tables.  Functoriality is not checked
    here: `Presheaf.validate` is the check, run by the row that reports it."""
    values = tuple(tuple(values_at(o)) for o in range(site.n_objects))
    index = _index(values)
    positions = tuple([
        tuple([index[site.arrow_cod(a)].get(transition(a, x)) for x in values[site.arrow_dom(a)]])
        for a in range(len(site.arrows))
    ])
    return Presheaf(site, values, positions, index)


def _index(values) -> tuple[dict, ...]:
    """Per stage, each value's position."""
    return tuple({x: i for i, x in enumerate(stage)} for stage in values)


def proposition_presheaf(site, universe: Universe) -> Presheaf:
    """The proposition functor: the universe at every stage, and along each
    arrow its operator's action row, one tuple shared by the arrows of an
    operator.  The universe must be closed under the operators of the arrows."""
    values = (universe.members,) * site.n_objects
    positions = tuple([universe.action[site.operator_matrix(arrow.op)] for arrow in site.arrows])
    return Presheaf(site, values, positions, (universe.position,) * site.n_objects)


def atom_presheaf(site) -> Presheaf:
    """Zero-augmented atom sets per stage (the stage ray against its observable)."""
    def values_at(o: int):
        atoms = compute_atoms(Ray(site.object_ray(o)), site.observables[site.object_rho(o)])
        return atoms.zero_augmented

    def transition(a: int, atom: Subspace) -> Subspace:
        return apply_operator(site.operator_matrix(site.arrow_op(a)), atom)

    return build_presheaf(site, values_at, transition)


class GlobalElement(NamedTuple):
    """A compatible choice of one value per stage (a point of the presheaf)."""

    presheaf: Presheaf
    values: tuple[Hashable, ...]

    def validate(self) -> None:
        presheaf = self.presheaf
        site = presheaf.site
        chosen = []
        for o, x in enumerate(self.values):
            i = presheaf.index[o].get(x)
            if i is None:
                raise NaturalityError(f"chosen value at stage {o} is not in the presheaf")
            chosen.append(i)
        for a, table in enumerate(presheaf.positions):
            if table[chosen[site.arrow_dom(a)]] != chosen[site.arrow_cod(a)]:
                raise NaturalityError(f"naturality square fails at arrow {a}")


def atom_global_element(site, atoms: Presheaf, r: Subspace) -> GlobalElement:
    """The section picking the projection onto a fixed eigenspace at each stage;
    `GlobalElement.validate` checks that it is one."""
    values = tuple(
        project_onto_eigenspace(site.object_ray(o), r) for o in range(site.n_objects)
    )
    return GlobalElement(atoms, values)


def is_closed(presheaf: Presheaf) -> bool:
    """No position table holds None: every transition stays in its codomain
    stage.  A cut of m (`subpresheaf`) is a subfunctor of m iff it is closed."""
    return not any(None in table for table in presheaf.positions)


class Cut(Presheaf):
    """A presheaf cut from `parent` by `subpresheaf`, holding at each stage o
    the parent's positions set in `held[o]`, re-indexed as its own."""

    __slots__ = ("parent", "held")

    def __init__(self, parent: Presheaf, held: tuple[int, ...], values, positions, index):
        super().__init__(parent.site, values, positions, index)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "held", held)


def subpresheaf(m: Presheaf, held: Sequence[int]) -> Cut:
    """The values of m at the positions set in `held[o]` at each stage o, in
    m's order, under m's position tables re-indexed to the kept values (an
    image that was cut becomes None).  The cut is a subfunctor of m iff it
    `is_closed`."""
    site = m.site
    kept = [list(_bits(mask)) for mask in held]
    renumber = [{old: new for new, old in enumerate(stage)} for stage in kept]
    positions = tuple([
        tuple([renumber[site.arrow_cod(a)].get(table[i]) for i in kept[site.arrow_dom(a)]])
        for a, table in enumerate(m.positions)
    ])
    values = tuple([tuple([m.values[o][i] for i in stage]) for o, stage in enumerate(kept)])
    return Cut(m, tuple(held), values, positions, _index(values))


def true_subobject(sigma: GlobalElement, propositions: Presheaf, universe: Universe) -> Cut:
    """Stage-wise up-sets of the transported atom inside the proposition
    functor over `universe`, as masks of member positions: a member atom's
    `above` mask, and `leq` against every member for any other atom."""
    position = universe.position
    return subpresheaf(propositions, [
        universe.above[position[atom]] if atom in position
        else sum(1 << i for i, p in enumerate(universe) if leq(atom, p))
        for atom in sigma.values
    ])


def characteristic_table(n: Cut) -> tuple[tuple[Sieve, ...], ...]:
    """chi per stage of n's parent m, in m's order: `chi[o][i]` classifies
    `m.values[o][i]`, the sieve of arrows along which m carries it into n,
    read by arrow: each arrow's table once, against its codomain's held mask."""
    site, positions, held = n.site, n.parent.positions, n.held
    chi = []
    for o, stage in enumerate(n.parent.values):
        members = [0] * len(stage)
        for position, a in enumerate(site.arrows_from(o)):
            into, bit = held[site.arrow_cod(a)], 1 << position
            for i, j in enumerate(positions[a]):
                if j is not None and (into >> j) & 1:
                    members[i] |= bit
        chi.append(tuple([Sieve(o, m) for m in members]))
    return tuple(chi)


def naturality_holds(zeta: Sequence[Sequence], m: Presheaf, target: Presheaf) -> bool:
    """zeta is a natural map from m to target, laid out like
    `characteristic_table`: its values, turned into positions of target once,
    satisfy t^target_a(zeta[dom a][i]) = zeta[cod a][t^m_a(i)] for every
    arrow a.  A value missing from target's stage fails (zeta must land in
    target), and so does an image outside m's codomain stage, which has no
    zeta entry."""
    try:
        at = [[index[z] for z in stage] for stage, index in zip(zeta, target.index)]
    except KeyError:
        return False
    site = m.site
    for a, (table, moved) in enumerate(zip(m.positions, target.positions)):
        source, image = at[site.arrow_dom(a)], at[site.arrow_cod(a)]
        for i, j in enumerate(table):
            if j is None or moved[source[i]] != image[j]:
                return False
    return True


def pullback_holds(zeta: Sequence[Sequence], n: Cut, tau: Sequence[Sieve]) -> bool:
    """n is the set-level pullback of the 'true' section tau along zeta: at
    every stage, n holds exactly the positions of its parent that zeta sends to tau."""
    return all(
        held == sum(1 << i for i, z in enumerate(stage) if z == true)
        for held, stage, true in zip(n.held, zeta, tau)
    )


def filter_check(universe: Universe, stages: Sequence[int]) -> tuple[list[tuple], int]:
    """Up-set and meet-closure violations of a proposition-set functor given
    as one mask of universe positions per stage (the `held` masks of a cut
    of the proposition functor), and the number of ordered pairs of members whose
    meet lies outside the universe (not a violation)."""
    members, above, meets = universe.members, universe.above, universe.meets
    violations: list[tuple] = []
    outside = 0
    for o, t in enumerate(stages):
        for i in _bits(t):
            violations += [("up-set", o, members[i], members[j]) for j in _bits(above[i] & ~t)]
            row = meets[i]
            for j in _bits(t):
                k = row[j]
                if k is None:
                    outside += 1
                elif not (t >> k) & 1:
                    violations.append(("meet", o, members[i], members[j]))
    return violations, outside


# ---------------------------------------------------------------------------
# valuations


def valuation_row(site, obj: int, r: Subspace, propositions: Sequence[Subspace]) -> tuple[Sieve, ...]:
    """Arrows F with F(P) above F of the stage atom, for each P.  The direct
    formula: the stage atom and each arrow's image of it are computed once
    per row."""
    atom = project_onto_eigenspace(site.object_ray(obj), r)
    operators = [site.operator_matrix(site.arrow_op(a)) for a in site.arrows_from(obj)]
    arrows = [(1 << i, f, apply_operator(f, atom)) for i, f in enumerate(operators)]
    return tuple([
        Sieve(obj, sum(bit for bit, f, image in arrows if leq(image, apply_operator(f, p))))
        for p in propositions
    ])


def valuation(site, obj: int, r: Subspace, p: Subspace) -> Sieve:
    """Arrows F with F(P) above F of the stage atom.  The direct formula."""
    return valuation_row(site, obj, r, (p,))[0]


def valuation_table(site, r: Subspace, propositions: Presheaf) -> tuple[tuple[Sieve, ...], ...]:
    """`valuation` of every value of `propositions` at every stage, laid out
    like `characteristic_table`: `values[o][i]` values `propositions.values[o][i]`."""
    return tuple([valuation_row(site, o, r, stage) for o, stage in enumerate(propositions.values)])


def bottom_annihilator(site, obj: int, e_r: Subspace) -> Sieve:
    """Arrows sending the true atom to the zero space; the valuation floor."""
    members = 0
    for i, a in enumerate(site.arrows_from(obj)):
        f = site.operator_matrix(site.arrow_op(a))
        if apply_operator(f, e_r).is_zero:
            members |= 1 << i
    return Sieve(obj, members)


def omega_presheaf(site, cap: int) -> Presheaf:
    """The subobject classifier: every sieve at every stage, listed by the
    site.  Each arrow's table is its domain stage's `Stage.omega_row` into
    its codomain's stage.  The site numbers its arrows by domain in object
    order, so the tables come out in arrow order."""
    stages = [site.stage(o) for o in range(site.n_objects)]
    masks = [stage.sieves(cap, o) for o, stage in enumerate(stages)]
    positions = tuple([
        stage.omega_row(i, stages[site.arrow_cod(f)])
        for o, stage in enumerate(stages)
        for i, f in enumerate(site.arrows_from(o))
    ])
    values = tuple([tuple([Sieve(o, m) for m in stage]) for o, stage in enumerate(masks)])
    return Presheaf(site, values, positions, _index(values))


def annihilator_floors(site, r: Subspace) -> tuple[Sieve, ...]:
    """Every object's annihilator floor: the arrows sending its true atom,
    the projection of its ray onto the eigenspace r, to the zero space."""
    return tuple(
        bottom_annihilator(site, o, project_onto_eigenspace(site.object_ray(o), r))
        for o in range(site.n_objects)
    )


def delta_omega_presheaf(omega: Presheaf, floors: Sequence[Sieve]) -> Cut:
    """The semi-classifier: the sieves of Ω above each stage's floor (one per
    object, from `annihilator_floors`)."""
    return subpresheaf(omega, [
        sum(1 << i for i, s in enumerate(stage) if not floor.mask & ~s.mask)
        for stage, floor in zip(omega.values, floors)
    ])


def floors_pull_back_above_floors(omega: Presheaf, floors: Sequence[Sieve]) -> bool:
    """Along every arrow a, Ω's pullback of the floor at dom a, read from Ω's
    position tables, contains the floor at cod a.  Pullback is monotone, so
    every sieve above a floor then pulls back above the next one (Thm 3.6).
    A floor, or the image of one, missing from its stage of Ω fails."""
    site = omega.site
    at = [index.get(floor) for index, floor in zip(omega.index, floors)]
    for a, table in enumerate(omega.positions):
        i, cod = at[site.arrow_dom(a)], site.arrow_cod(a)
        j = None if i is None else table[i]
        if j is None or floors[cod].mask & ~omega.values[cod][j].mask:
            return False
    return True


def tau_values(site) -> tuple[Sieve, ...]:
    """The 'true' section: the top sieve at every stage."""
    return tuple(top_sieve(site, o) for o in range(site.n_objects))


def semiclassifier_check(
    delta_omega: Cut, delta_tau: tuple[Sieve, ...], pairs: Sequence[tuple[Cut, tuple]]
) -> list[dict]:
    """Per-object semi-classifier audit for a cut of the classifier Ω.

    For every (N, chi), chi the `characteristic_table` of N in its parent: (a) chi
    factors through the stage sets of delta_omega; (b) the square against
    delta_tau is a set-level pullback at every object; (c) the factored map is
    the only natural map with that pullback property (full candidate enumeration
    when the count fits `CANDIDATE_BUDGET`, otherwise a pointwise forcing argument).
    delta_omega and each n are cuts, so each is a subfunctor of its parent iff
    it `is_closed`; delta_tau must be a global element of Ω, delta_omega's parent.
    """
    site = delta_omega.site
    rows: list[dict] = []
    if not is_closed(delta_omega):
        rows.append({"pair": None, "passed": False, "reason": "not a subfunctor of the classifier"})
        return rows
    try:
        GlobalElement(delta_omega.parent, delta_tau).validate()
    except NaturalityError:
        rows.append({"pair": None, "passed": False, "reason": "the 'true' section is not natural"})
        return rows
    for idx, (n, chi) in enumerate(pairs):
        if not is_closed(n):
            rows.append({"pair": idx, "passed": False, "reason": "not a subfunctor pair"})
            continue
        factors = _factors_through(chi, delta_omega)
        pullback = pullback_holds(chi, n, delta_tau)
        count = 1
        for o, stage in enumerate(n.parent.values):
            count *= len(delta_omega.values[o]) ** len(stage)
            if count > CANDIDATE_BUDGET:
                break
        if count <= CANDIDATE_BUDGET:
            survivors = _enumerate_pullback_maps(delta_omega, n, delta_tau)
            unique = survivors == [chi]
            mode = "enumerated"
        else:
            unique = _forced_pointwise_unique(site, delta_omega, n, delta_tau, chi)
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


def _factors_through(chi, delta_omega: Presheaf) -> bool:
    """Every value of chi is a value of the semi-classifier at its stage."""
    return all(value in at for stage, at in zip(chi, delta_omega.index) for value in stage)


def _enumerate_pullback_maps(delta_omega, n, delta_tau) -> list[tuple]:
    """All natural maps from n's parent into the semi-classifier with the
    pullback property, each laid out like `characteristic_table`."""
    choices = [delta_omega.values[o] for o, stage in enumerate(n.parent.values) for _ in stage]
    ends = list(itertools.accumulate(len(stage) for stage in n.parent.values))
    bounds = list(zip([0] + ends, ends))
    survivors = []
    for assignment in itertools.product(*choices):
        zeta = tuple([assignment[start:end] for start, end in bounds])
        if pullback_holds(zeta, n, delta_tau) and naturality_holds(zeta, n.parent, delta_omega):
            survivors.append(zeta)
    return survivors


def _forced_pointwise_unique(site, delta_omega, n, delta_tau, chi) -> bool:
    """Uniqueness without enumerating candidates, checked exhaustively.

    (1) At every stage o, for every S in the semi-classifier and every arrow
    a out of o: a ∈ S iff a*(S) is the 'true' sieve at cod a.  (2) chi is
    natural.  (3) chi has the pullback property.  For any natural zeta with
    the pullback property, (1), naturality and pullback give
    a ∈ zeta(x) iff m(a)(x) ∈ n, m the parent of n, and (1)-(3) give the same for chi, so
    zeta = chi.  (1) reads positions: a*(S) is 'true' iff its position is
    the position of the 'true' sieve.
    """
    true_at = [at.get(tau) for at, tau in zip(delta_omega.index, delta_tau)]
    for o, stage in enumerate(delta_omega.values):
        for position, a in enumerate(site.arrows_from(o)):
            table, true = delta_omega.positions[a], true_at[site.arrow_cod(a)]
            for i, s in enumerate(stage):
                if (position in s) != (table[i] is not None and table[i] == true):
                    return False
    return (
        _factors_through(chi, delta_omega)
        and naturality_holds(chi, n.parent, delta_omega)
        and pullback_holds(chi, n, delta_tau)
    )


def ib_condition_check(
    site,
    obj: int,
    r: Subspace,
    universe: Universe,
    row: Sequence[Sieve],
    floor: Sieve,
) -> dict:
    """Monotonicity, exclusivity, unit and null verdicts for one stage, whose
    annihilator floor (from `annihilator_floors`) is `floor`.  `row[i]` values
    member i of the universe at obj (a stage row of `valuation_table`); the
    order and the meets are the universe's tables, and `valuation` values a
    meet outside the universe.  The universe holds {0} and the whole space."""
    members, above, meets = universe.members, universe.above, universe.meets
    top = top_sieve(site, obj)
    monotone = all(row[i] <= row[j] for i in range(len(members)) for j in _bits(above[i]))
    exclusive = True
    for i, p in enumerate(members):
        if row[i] != top:
            continue
        for j, q in enumerate(members):
            k = meets[i][j]
            conj = row[k] if k is not None else valuation(site, obj, r, meet(p, q))
            if conj != top and row[j] == top:
                exclusive = False
    n = site.object_ray(obj).ambient_dim
    unit = row[universe.position[full_space(n)]] == top
    null_value = row[universe.position[zero_space(n)]]
    return {
        "monotonicity": monotone,
        "exclusivity": exclusive,
        "unit": unit,
        "null_equals_floor": null_value == floor,
        "floor_nonempty": bool(floor.mask),
        "null_fails_in_omega": null_value != bottom_sieve(obj),
        "null_passes_in_delta": null_value == floor,
    }
