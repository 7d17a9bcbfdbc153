"""Finite truncations of the base categories.

There is one `Site` type.  Its objects are (ray, observable) pairs and its
arrows are monoid operators acting nonzero on the domain ray.  The extended
category takes a family of observables.  The ray category of one observable
(`PlainSite`) is the case of a one-element family: the atom condition is
then vacuous and every arrow stays at that observable.  The sieve machinery
is written once against the site protocol — `arrows_from`, `compose`,
`arrow_dom`/`arrow_cod`, `identity_arrow`, `object_ray`.  Arrows are
numbered by domain in object order, so an arrow's position among the
arrows out of its domain is its id less the first one's (`arrow_position`).
Each site reads one `sieves.Stage` per object (`stage`), built the first
time it is read: a stage composes every arrow out of its object with every
arrow out of that arrow's codomain, once, and keeps the composites as
positions (`Stage.composites`), the site's only composition table, with
the sieve algebra of the arrows out of its object; it needs nothing of the
site afterwards.  A stage is a function of its composites and its `fixed`
mask, so the sites of one build hash-cons their stages in one table (the
`stages` of `build_site`, owned by `runner.SiteMemo`): objects with equal
tables, on one site or on two, read one stage, and a site built alone has
a table of its own.  Building a site composes nothing, so a composite that
leaves the site raises (`compose`) where its stage is first read, and the
site's laws are checked by the rows that read every stage
(`associativity_violations`, `identity_violations`).  A restriction
(`restrict_down`) numbers its objects and arrows afresh and reads its
parent's stages, so it composes nothing.

Every site of a build indexes the build's one `OperatorMonoid`: an
arrow's `op` is its operator's index there.  A plain site walks and draws
arrows from its observable's `commutant`, an extended site walks the whole
monoid; across builds an operator is named by its matrix (`operator_matrix`).

Truncation policy: objects are the orbit of the declared seed states under
the operators a site walks (`orbit`, read from the walk of
`subspaces.operator_closure`), which is required to close within its cap.
Every verified statement is a statement about this finite sub-site.
"""

from __future__ import annotations

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

    for m in (identity_matrix(dim), *generators):
        intern(m)
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
    return OperatorMonoid(tuple(elements), 0, table)


def commutant(monoid: OperatorMonoid, observable: Observable) -> tuple[int, ...]:
    """The indices of the monoid's operators that commute with the observable, in order."""
    return tuple([i for i, f in enumerate(monoid.elements) if in_commutant(f, observable)])


Orbit = tuple[tuple[Subspace, ...], dict[int, tuple[int | None, ...]], int]  # see `orbit`


def orbit(monoid: OperatorMonoid, ops: Sequence[int], seeds: Sequence[Subspace]) -> Orbit:
    """The nonzero images of the seeds under the monoid's operators `ops`,
    seeds first; per operator in `ops`, the index of each ray's image (None
    where it is zero); and the number of distinct seeds.  Read from the walk
    of `operator_closure`: every image is f(seed) for some f of the finite
    monoid, so the walk ends, and a site compares the cap once it has."""
    members, action = operator_closure(seeds, [monoid.elements[op] for op in ops])
    keep = [i for i, space in enumerate(members) if not space.is_zero]
    ray_index = {i: r for r, i in enumerate(keep)}
    images = {op: tuple([ray_index.get(action[monoid.elements[op]][i]) for i in keep]) for op in ops}
    return tuple(members[i] for i in keep), images, len(set(seeds))


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
    the parent's index of each object (`keep`).  `stages` is the stage
    table it shares with the other sites of its build (`stage`), its own by
    default.  Immutable; equal only to itself.
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
        stages: dict | None = None,
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
        # `__setattr__` refuses every write, so the fields go in through the instance dict.
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
            _shared={} if stages is None else stages,
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

    def arrow_position(self, a: int) -> int:
        """a's position among the arrows out of its domain: arrows are
        numbered by domain in object order."""
        return a - self._out[self.arrows[a].dom][0]

    # -- composition -------------------------------------------------------
    def stage(self, o: int) -> Stage:
        """The sieve lattice of object o, built on first use and kept; it
        holds no reference to the site.  The stage is composed, then
        exchanged for the shared table's stage of equal `composites` and
        `fixed`, or stored there if it is the first.  A restriction reads
        its parent's."""
        if self._parent is not None:
            return self._parent.stage(self._keep[o])
        stage = self._stages[o]
        if stage is None:
            stage = Stage(self, o)
            stage = self._stages[o] = self._shared.setdefault((stage.composites, stage.fixed), stage)
        return stage

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


def build_site(
    cls: type[Site],
    observables: tuple[Observable, ...],
    monoid: OperatorMonoid,
    walk: Orbit,
    cap: int,
    stages: dict | None = None,
) -> Site:
    """The site of an observable family on an `orbit` of every operator that
    commutes with one of them, sharing the table `stages` (see `Site.stage`)
    if given.  More rays than both the cap and the distinct seeds raise
    `OrbitExceeded`."""
    rays, images, seeds = walk
    if len(rays) > max(cap, seeds):
        raise OrbitExceeded(cap)
    rho_leq = tuple(
        tuple(observable_leq(a, b) for b in observables) for a in observables
    )
    commutes = [[in_commutant(f, obs) for obs in observables] for f in monoid.elements]

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
            cod_ray = images[op][i] if commutes[op][k] else None
            if cod_ray is None:
                continue
            ray = rays[cod_ray]
            for k2 in range(width):
                if not rho_leq[k][k2]:
                    continue
                if k2 == k or atom_set(ray, observables[k]) == atom_set(ray, observables[k2]):
                    arrows.append(Arrow(n, op, cod_ray * width + k2))
    return cls(observables, monoid, rays, objects, tuple(arrows), rho_leq, stages=stages)


def build_plain_site(
    observable: Observable,
    monoid: OperatorMonoid,
    seed_states: Sequence[Ray],
    cap: int,
) -> PlainSite:
    """The site of one observable, on the orbit of the seeds under its
    commutant in `monoid`, whose arrows index `monoid`."""
    walk = orbit(monoid, commutant(monoid, observable), [s.space for s in seed_states])
    return build_site(PlainSite, (observable,), monoid, walk, cap)


def build_extended_site(
    observables: Sequence[Observable],
    monoid: OperatorMonoid,
    seed_states: Sequence[Ray],
    cap: int,
) -> ExtendedSite:
    walk = orbit(monoid, range(len(monoid)), [s.space for s in seed_states])
    return build_site(ExtendedSite, tuple(observables), monoid, walk, cap)


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


def restrict_down(site: Site, obj: int) -> Site:
    """The full subcategory on the objects reachable from obj.

    The result has the same class, rays and observables as `site`, its own
    numbering, and the surviving arrows in their old order.  Each object
    keeps every arrow out of it, in order, so `stage(i)` is
    `site.stage(keep[i])`, composed by `site` on its first read from either.
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


def associativity_violations(site) -> list[tuple[int, int, int]]:
    """All composable triples where (h∘g)∘f != h∘(g∘f), read from the stage
    rows by position.  Over a product table that is not associative, g∘f
    may end at another object than g, so h need not compose with it: that
    triple is reported."""
    rows = [site.stage(o).composites for o in range(site.n_objects)]
    out = [site.arrows_from(o) for o in range(site.n_objects)]
    cod = [arrow.cod for arrow in site.arrows]
    bad: list[tuple[int, int, int]] = []
    for arrows, here in zip(out, rows):
        for f, row in zip(arrows, here):
            for g, gf, hg in zip(out[cod[f]], row, rows[cod[f]]):
                # h∘(g∘f) and (h∘g)∘f by h's position out of cod g
                after_gf = here[gf] if cod[arrows[gf]] == cod[g] else None
                if after_gf != tuple([row[x] for x in hg]):
                    bad += [
                        (h, g, f)
                        for i, h in enumerate(out[cod[g]])
                        if after_gf is None or after_gf[i] != row[hg[i]]
                    ]
    return bad


def identity_violations(site) -> list[int]:
    """Objects without an identity arrow, plus arrows not absorbed by the
    identities that exist, read from the stage rows by position."""
    bad = [o for o in range(site.n_objects) if site.identity_arrow(o) < 0]
    for o in range(site.n_objects):
        rows, id_dom = site.stage(o).composites, site.identity_arrow(o)
        for i, (a, row) in enumerate(zip(site.arrows_from(o), rows)):
            id_cod = site.identity_arrow(site.arrow_cod(a))
            if id_cod >= 0 and row[site.arrow_position(id_cod)] != i:
                bad.append(a)
            if id_dom >= 0 and rows[site.arrow_position(id_dom)][i] != i:
                bad.append(a)
    return bad
