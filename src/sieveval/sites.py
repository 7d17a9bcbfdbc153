"""Finite truncations of the base categories.

There is one `Site` type.  Its objects are (ray, observable) pairs and its
arrows are monoid operators acting nonzero on the domain ray.  The extended
category takes a family of observables.  The ray category of one observable
(`PlainSite`) is the case of a one-element family: the atom condition is
then vacuous and every arrow stays at that observable.  The sieve machinery
is written once against the site protocol — `arrows_from`, `compose`,
`arrow_dom`/`arrow_cod`, `identity_arrow`, `object_ray`.  Arrows are
numbered by domain in object order.  Each site owns its composition table
(`postcomposites`), computed once on first use, and one `sieves.Stage` per
object (`stage`), built on first use from that table; the stage holds the
sieve algebra of the arrows out of its object, and needs nothing of the
site afterwards.  A restriction (`restrict_down`) numbers its objects and
arrows afresh and reads its parent's stages.

An arrow's `op` indexes its own site's monoid; across sites an operator is
named by its exact matrix (`operator_matrix`).

Truncation policy: objects are the orbit of the declared seed states under
the declared generator monoid (`orbit`, read from the walk of
`subspaces.operator_closure`), which is required to close within its cap.
Every verified statement is a statement about this finite sub-site.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

from .errors import (
    ClosureExceeded,
    InternalCheckError,
    OrbitExceeded,
    UnknownObjectError,
)
from .linalg import ExactMatrix, identity_matrix, mat_mul
from .modal import Observable, in_commutant, observable_leq, zero_augmented_atom_set
from .sieves import Stage
from .subspaces import Ray, Subspace, apply_operator, operator_closure


class OperatorMonoid(NamedTuple):
    """A multiplicatively closed set of exact operators with its product table.

    `len` is the number of elements, not of fields, so the tuple helpers
    that check it (`_make`, `_replace`) do not apply: use the constructor."""

    elements: tuple[ExactMatrix, ...]
    identity_index: int
    generator_indices: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]  # table[i][j] = index of elements[i]·elements[j]

    def __len__(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]


def close_monoid(
    generators: Sequence[ExactMatrix], cap: int, *, dim: int | None = None
) -> OperatorMonoid:
    """Smallest multiplicatively closed set containing the generators and I."""
    if dim is None:
        if not generators:
            raise ValueError("dim is required when there are no generators")
        dim = generators[0].rows
    for g in generators:
        if g.rows != dim or g.cols != dim:
            raise ValueError(f"generator is {g.rows}x{g.cols}, expected {dim}x{dim}")
    elements: list[ExactMatrix] = []
    index: dict[ExactMatrix, int] = {}

    def intern(m: ExactMatrix) -> int:
        if m not in index:
            if len(elements) >= cap:
                raise ClosureExceeded(cap)
            index[m] = len(elements)
            elements.append(m)
        return index[m]

    intern(identity_matrix(dim))
    generator_indices = [intern(g) for g in generators]
    # Grow until every pairwise product is present: each round multiplies each
    # ordered pair with a member new in the last round once, recording its index.
    products: dict[tuple[int, int], int] = {}
    frontier = range(len(elements))
    while frontier:
        known = len(elements)
        for i in range(known):
            for j in frontier:
                for a, b in ((i, j), (j, i)):
                    if (a, b) not in products:
                        products[a, b] = intern(mat_mul(elements[a], elements[b]))
        frontier = range(known, len(elements))
    size = len(elements)
    table = tuple(tuple(products[i, j] for j in range(size)) for i in range(size))
    return OperatorMonoid(tuple(elements), 0, tuple(generator_indices), table)


def submonoid_commuting_with(monoid: OperatorMonoid, observable: Observable) -> OperatorMonoid:
    """Intersect with a commutant, keeping the elements in their order."""
    keep = [i for i, f in enumerate(monoid.elements) if in_commutant(f, observable)]
    position = {orig: new for new, orig in enumerate(keep)}
    elements = tuple(monoid.elements[i] for i in keep)
    table = tuple(
        tuple(position[monoid.mul(i, j)] for j in keep) for i in keep
    )
    generator_indices = tuple(position[g] for g in monoid.generator_indices if g in position)
    return OperatorMonoid(elements, position[monoid.identity_index], generator_indices, table)


def orbit(
    monoid: OperatorMonoid, seeds: Sequence[Subspace], cap: int
) -> tuple[tuple[Subspace, ...], tuple[tuple[int | None, ...], ...]]:
    """The nonzero images of the seeds under the monoid, seeds first, and
    per operator the index of each ray's image (None where it is zero),
    read from the walk of `operator_closure`.  Every image is f(seed) for
    some f of the finite monoid, so the walk ends; then more rays than both
    the cap and the distinct seeds raise `OrbitExceeded`."""
    members, action = operator_closure(seeds, monoid.elements)
    keep = [i for i, space in enumerate(members) if not space.is_zero]
    if len(keep) > max(cap, len(set(seeds))):
        raise OrbitExceeded(cap)
    ray_index = {i: r for r, i in enumerate(keep)}
    images = tuple(tuple([ray_index.get(row[i]) for i in keep]) for row in action.values())
    return tuple(members[i] for i in keep), images


class Arrow(NamedTuple):
    """An arrow of a site; `dom` and `cod` are object indices."""

    dom: int
    op: int
    cod: int


class Site:
    """Truncation of the base category over a family of observables.

    An arrow (i, k) -> (j, k2) is a monoid operator f that commutes with
    observable k and maps ray i onto ray j, where k <= k2 and ray j has the
    same atom set under k and k2.  Arrows are numbered per domain object in
    operator order, then by codomain observable.  `objects` lists (ray
    index, observable index) pairs; a restriction names its `parent` and
    the parent's index of each object (`keep`).  Immutable; equal only to itself.
    """

    def __init__(
        self,
        observables: tuple[Observable, ...],
        monoid: OperatorMonoid,
        rays: tuple[Subspace, ...],
        objects: tuple[tuple[int, int], ...],
        arrows: tuple[Arrow, ...],
        rho_leq: tuple[tuple[bool, ...], ...],
        parent: Site | None = None,
        keep: tuple[int, ...] = (),
    ) -> None:
        out: list[list[int]] = [[] for _ in objects]
        by_dom_op_rho: dict[tuple[int, int, int], int] = {}
        identity = [-1] * len(objects)
        for a, arr in enumerate(arrows):
            out[arr.dom].append(a)
            by_dom_op_rho[(arr.dom, arr.op, objects[arr.cod][1])] = a
            if arr.op == monoid.identity_index and arr.cod == arr.dom:
                identity[arr.dom] = a
        if any(a.dom > b.dom for a, b in zip(arrows, arrows[1:])):
            raise InternalCheckError("arrows must be numbered by domain in object order")
        # The instance dict also holds the `cached_property` tables.
        vars(self).update(
            observables=observables,
            monoid=monoid,
            rays=rays,
            objects=objects,
            arrows=arrows,
            rho_leq=rho_leq,
            _out=tuple(tuple(x) for x in out),
            _by_dom_op_rho=by_dom_op_rho,
            _identity=tuple(identity),
            _parent=parent,
            _keep=keep,
            _stages=[None] * len(objects),
        )

    def __setattr__(self, name, value):
        raise AttributeError("Site is immutable")

    # -- category protocol -------------------------------------------------
    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def object_ray(self, o: int) -> Subspace:
        return self.rays[self.objects[o][0]]

    def object_rho(self, o: int) -> int:
        return self.objects[o][1]

    def arrows_from(self, o: int) -> tuple[int, ...]:
        return self._out[o]

    def arrow_dom(self, a: int) -> int:
        return self.arrows[a].dom

    def arrow_cod(self, a: int) -> int:
        return self.arrows[a].cod

    def arrow_op(self, a: int) -> int:
        return self.arrows[a].op

    def arrow_cod_rho(self, a: int) -> int:
        return self.objects[self.arrows[a].cod][1]

    def operator_matrix(self, op: int) -> ExactMatrix:
        return self.monoid.elements[op]

    def identity_arrow(self, o: int) -> int:
        return self._identity[o]

    # -- composition -------------------------------------------------------
    @cached_property
    def postcomposites(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per arrow f: the pairs (g, g∘f) for every g out of cod f."""
        out = self._out
        return tuple(
            tuple((g, self.compose(g, f)) for g in out[arr.cod])
            for f, arr in enumerate(self.arrows)
        )

    def stage(self, o: int) -> Stage:
        """The sieve lattice of object o, built on first use and kept; it
        holds no reference to the site.  A restriction reads its parent's."""
        if self._parent is not None:
            return self._parent.stage(self._keep[o])
        if self._stages[o] is None:
            self._stages[o] = Stage(self, o)
        return self._stages[o]

    def compose(self, g: int, f: int) -> int:
        """g∘f for cod(f) = dom(g); arrows compose by operator product."""
        fa, ga = self.arrows[f], self.arrows[g]
        if fa.cod != ga.dom:
            raise InternalCheckError("composed arrows are not adjacent")
        key = (fa.dom, self.monoid.mul(ga.op, fa.op), self.objects[ga.cod][1])
        result = self._by_dom_op_rho.get(key)
        if result is None:
            raise InternalCheckError("composition left the site")
        return result

    # -- conveniences ------------------------------------------------------
    def object_index(self, ray: Subspace, rho: int) -> int:
        for n, (i, k) in enumerate(self.objects):
            if k == rho and self.rays[i] == ray:
                return n
        raise UnknownObjectError(f"({ray}, rho={rho}) is not an object of the site")

    def rho_arrow_twin(self, a: int) -> int:
        """The arrow with the same domain and operator but codomain stage dom_rho."""
        arr = self.arrows[a]
        twin = self._by_dom_op_rho.get((arr.dom, arr.op, self.objects[arr.dom][1]))
        if twin is None:  # pragma: no cover - the rho-rho twin always exists
            raise InternalCheckError("missing rho-rho twin arrow")
        return twin


class PlainSite(Site):
    """The ray category of one observable: a site over a one-element family."""

    # perfbench/tracer.py counts calls by patching each class's own `compose`.
    compose = Site.compose

    @property
    def observable(self) -> Observable:
        return self.observables[0]

    def ray_index(self, ray: Subspace) -> int:
        return self.object_index(ray, 0)


class ExtendedSite(Site):
    """The extended category of an observable family."""

    # perfbench/tracer.py counts calls by patching each class's own `compose`.
    compose = Site.compose


def _build(
    cls: type[Site],
    observables: tuple[Observable, ...],
    monoid: OperatorMonoid,
    commutes: list[list[bool]],
    seed_states: Sequence[Ray],
    cap: int,
) -> Site:
    rho_leq = tuple(
        tuple(observable_leq(a, b) for b in observables) for a in observables
    )
    rays, images = orbit(monoid, [s.space for s in seed_states], cap)

    # Atom sets are compared only across distinct observables, so a
    # one-observable site computes none; each observable keeps the ones it
    # computes (`Observable.answers`).
    atom_set = zero_augmented_atom_set
    width = len(observables)
    # Ray-major, so object (i, k) has index i * width + k.
    objects = tuple((i, k) for i in range(len(rays)) for k in range(width))
    arrows: list[Arrow] = []
    for n, (i, k) in enumerate(objects):
        for op in range(len(monoid)):
            cod_ray = images[op][i]
            if cod_ray is None or not commutes[op][k]:
                continue
            ray = rays[cod_ray]
            for k2 in range(width):
                if not rho_leq[k][k2]:
                    continue
                if k2 == k or atom_set(ray, observables[k]) == atom_set(ray, observables[k2]):
                    arrows.append(Arrow(n, op, cod_ray * width + k2))
    site = cls(observables, monoid, rays, objects, tuple(arrows), rho_leq)
    _validate_composition(site)
    return site


def build_plain_site(
    observable: Observable,
    monoid: OperatorMonoid,
    seed_states: Sequence[Ray],
    cap: int,
) -> PlainSite:
    """The site of one observable over the part of `monoid` that commutes
    with it (`submonoid_commuting_with`)."""
    submonoid = submonoid_commuting_with(monoid, observable)
    commutes = [[True]] * len(submonoid)
    return _build(PlainSite, (observable,), submonoid, commutes, seed_states, cap)


def build_extended_site(
    observables: Sequence[Observable],
    monoid: OperatorMonoid,
    seed_states: Sequence[Ray],
    cap: int,
) -> ExtendedSite:
    observables = tuple(observables)
    commutes = [[in_commutant(f, obs) for obs in observables] for f in monoid.elements]
    return _build(ExtendedSite, observables, monoid, commutes, seed_states, cap)


def in_product_category(
    site: Site, dom_ray: int, dom_rho: int, op: int, cod_rho: int
) -> bool:
    """Membership before the atom condition: the product-order category."""
    if not site.rho_leq[dom_rho][cod_rho]:
        return False
    f = site.operator_matrix(op)
    if not in_commutant(f, site.observables[dom_rho]):
        return False
    return not apply_operator(f, site.rays[dom_ray]).is_zero


def _validate_composition(site: Site) -> None:
    """Every composable pair must compose to an arrow of the site.

    The walk is the one that fills the site's postcomposite table.
    """
    for f, pairs in enumerate(site.postcomposites):  # compose raises on failure
        for _, composite in pairs:
            if site.arrow_dom(composite) != site.arrow_dom(f):
                raise InternalCheckError("composite has the wrong domain")


def restrict_down(site: Site, obj: int) -> Site:
    """The full subcategory on the objects reachable from obj.

    The result has the same class, rays and observables as `site`, its own
    numbering, and the surviving arrows in their old order.  Each object
    keeps every arrow out of it, in order, so `stage(i)` is
    `site.stage(keep[i])`; composition was validated when `site` was built.
    """
    if obj < 0 or obj >= site.n_objects:
        raise UnknownObjectError(f"object index {obj} out of range")
    keep = tuple(sorted({site.arrow_cod(a) for a in site.arrows_from(obj)} | {obj}))
    new_index = {old: new for new, old in enumerate(keep)}
    arrows = tuple(
        Arrow(new_index[a.dom], a.op, new_index[a.cod]) for a in site.arrows if a.dom in new_index
    )
    objects = tuple(site.objects[i] for i in keep)
    return type(site)(site.observables, site.monoid, site.rays, objects, arrows, site.rho_leq, site, keep)


def restrict_to_rho(site: ExtendedSite, rho: int) -> PlainSite:
    """The fixed-rho wide subcategory, rebuilt independently as a plain site.
    Its operators are the extended site's that commute with observable rho,
    in the same order; an arrow's twin is the one with the same matrix."""
    return build_plain_site(
        site.observables[rho],
        site.monoid,
        [Ray(r) for r in site.rays],
        cap=max(len(site.rays), 1),
    )


def _after(site) -> list[dict[int, int]]:
    """Per arrow f, the map g -> g∘f, read from the postcomposite table."""
    return [dict(pairs) for pairs in site.postcomposites]


def associativity_violations(site) -> list[tuple[int, int, int]]:
    """All composable triples where (h∘g)∘f != h∘(g∘f), read from the
    postcomposite table: `after[gf][h]` against `after[f][after[g][h]]`.
    Over a product table that is not associative, g∘f may end at another
    object than g, so h need not compose with it: that triple is reported."""
    after = _after(site)
    bad: list[tuple[int, int, int]] = []
    for f, pairs in enumerate(site.postcomposites):
        for g, gf in pairs:
            for h, hg in site.postcomposites[g]:
                if after[gf].get(h) != after[f][hg]:
                    bad.append((h, g, f))
    return bad


def identity_violations(site) -> list[int]:
    """Objects without an identity arrow, plus arrows not absorbed by the
    identities that exist, read from the postcomposite table."""
    after = _after(site)
    bad: list[int] = []
    for o in range(site.n_objects):
        if site.identity_arrow(o) < 0:
            bad.append(o)
    for a in range(len(site.arrows)):
        id_cod = site.identity_arrow(site.arrow_cod(a))
        if id_cod >= 0 and after[a][id_cod] != a:
            bad.append(a)
        id_dom = site.identity_arrow(site.arrow_dom(a))
        if id_dom >= 0 and after[id_dom][a] != a:
            bad.append(a)
    return bad
