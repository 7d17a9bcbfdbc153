"""Orchestration: build sites and functors for a scenario, emit valuations.

A run is valued on two sides: the plain site of its observable, and, when
it declares an observable family, the extended site of that family below
the run's stage.  The paper builds the same objects on both, so each side
is one `SiteRun`.

A build shares what does not depend on the run.  It closes the declared
propositions under the monoid into one `subspaces.Universe`, owned by its
`BuiltScenario`: the members with their order, meets and operator action
as position tables, read by L, the filter rows, Eq 3.2 and the IB
conditions.  Its one monoid numbers the operators of every site.  Its
`SiteMemo` walks each orbit once and makes each site once, keyed by what
it depends on, with the site's `SiteFunctors`: L, A, Ω and ♮Ω depend only
on the site, the universe and the sieve cap, so every run on the site
reads the same objects.  Its sites share one stage table: objects with the
same composition table and fixed arrows read one `Site.stage`, on one site
or on two.  A site below a run's stage (`restrict_down`) reads its
parent's stages, so the extended side, its bridge context and Eq 3.56's
plain site share them too.  σ, T and the truth-value tables depend on the
run's eigenspace and stay in its `SiteRun`.  A build keeps no verdict: `checks.run_check` keeps its own
for the check alone.  No site points to its functors, so every site dies
with its `BuiltScenario`.

Reports are plain dicts with deterministic key and list ordering, so the
JSON rendering is byte-identical across runs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, NamedTuple

from .bridge import (
    BridgeContext,
    make_bridge_context,
    natural_omega,
    proposition_equivalence,
)
from .errors import EnumerationExceeded, ValidationError
from .modal import TrueAtomSet, bub_valuation, compute_atoms, in_determinate_sublattice
from .scenario import RunSpec, Scenario, proposition_universe
from .sieves import (
    Cut,
    GlobalElement,
    LazyTable,
    Presheaf,
    Sieve,
    annihilator_floors,
    atom_global_element,
    atom_presheaf,
    characteristic_table,
    delta_omega_presheaf,
    omega_presheaf,
    proposition_presheaf,
    top_sieve,
    true_subobject,
    valuation,
    valuation_table,
)
from .sites import (
    ExtendedSite,
    OperatorMonoid,
    PlainSite,
    Site,
    build_site,
    close_monoid,
    commutant,
    in_product_category,
    orbit,
    restrict_down,
)
from .subspaces import Ray, Subspace, Universe


class SiteFunctors:
    """What the paper builds over one site for a scenario, shared by every
    run on the site: the proposition functor L on the scenario's universe,
    the atom functor A and, built on first use, the classifier Ω."""

    def __init__(self, site: Site, cap: int, propositions_l: Presheaf, atoms_a: Presheaf):
        self.site = site
        self.cap = cap  # the sieve enumeration cap, for Ω
        self.propositions_l = propositions_l
        self.atoms_a = atoms_a

    @cached_property
    def omega(self) -> Presheaf:
        return omega_presheaf(self.site, self.cap)

    @cached_property
    def nat_omega(self) -> Cut:
        """♮Ω, cut from Ω on first use (extended sites only)."""
        return natural_omega(self.omega)


class SiteRun:
    """One side of a run: the functors of its site, the run's stage on it,
    and what depends on the run's eigenspace, namely the true-atom section σ
    and the true subobject T.  The truth-value tables, the direct valuation
    and T's characteristic table, are each built on first use (see
    `sieves`)."""

    def __init__(
        self, functors: SiteFunctors, stage: int, r_space: Subspace, sigma: GlobalElement, true_t: Cut
    ):
        self.functors = functors
        self.stage = stage
        self.r_space = r_space  # the chosen eigenspace of the run observable
        self.sigma = sigma
        self.true_t = true_t

    @property
    def site(self) -> Site:
        return self.functors.site

    @property
    def propositions_l(self) -> Presheaf:
        return self.functors.propositions_l

    @property
    def atoms_a(self) -> Presheaf:
        return self.functors.atoms_a

    @property
    def omega(self) -> Presheaf:
        return self.functors.omega

    @cached_property
    def values(self) -> tuple[tuple[Sieve, ...], ...]:
        return valuation_table(self.site, self.r_space, self.propositions_l)

    @cached_property
    def chi(self) -> tuple[tuple[Sieve, ...], ...]:
        return characteristic_table(self.true_t)


def site_run(functors: SiteFunctors, stage: int, r_space: Subspace, universe: Universe) -> SiteRun:
    """A run on one site: σ picks the projection onto r_space, T is cut from L over `universe`."""
    sigma = atom_global_element(functors.site, functors.atoms_a, r_space)
    return SiteRun(functors, stage, r_space, sigma, true_subobject(sigma, functors.propositions_l, universe))


class SiteMemo:
    """Every site one build makes, each made on its first read and kept,
    keyed by what it depends on: `orbits[ops]` is the seed states' orbit
    under the monoid indices `ops` (`whole`: all of them), read by every
    site on it and by Props B1–B2; `plain[rho]` is the plain site of
    observable index rho, on the orbit under its `commutant`, with its
    functors; `plain_below[rho][obj]` that site below its object obj (Eq
    3.56); `extended[family]` the full extended site of a sorted tuple of
    observable indices; `restricted[family, obj]` that site below its
    object obj, with its functors; and `contexts[family, obj, rho]` the
    bridge from the restricted site's stage at obj to the plain site of
    observable index rho.  `stages` is the build's one stage table, handed
    to every site it builds (`build_site`), so each distinct (composites,
    fixed) pair is one `Stage` for the build (`Site.stage`); it lives and
    dies with the memo's sites.  A site below an object reads its parent's
    stages.  The tables' functions hold the build's inputs and one
    another, never the memo."""

    def __init__(self, scenario: Scenario, monoid: OperatorMonoid, universe: Universe):
        seeds = [state.space for state in scenario.states.values()]
        whole = tuple(range(len(monoid)))
        orbit_cap, sieve_cap = scenario.caps["orbit"], scenario.caps["sieve_enum"]
        stages: dict = {}

        def functors(site: Site) -> SiteFunctors:
            return SiteFunctors(site, sieve_cap, proposition_presheaf(site, universe), atom_presheaf(site))

        def plain_site(rho: int) -> SiteFunctors:
            observable = scenario.observables[rho]
            walk = orbits[commutant(monoid, observable)]
            return functors(build_site(PlainSite, (observable,), monoid, walk, orbit_cap, stages))

        def plain_below(rho: int) -> LazyTable:
            site = plain[rho].site
            return LazyTable(lambda obj: restrict_down(site, obj))

        def extended_site(family: tuple[int, ...]) -> ExtendedSite:
            observables = tuple(scenario.observables[i] for i in family)
            return build_site(ExtendedSite, observables, monoid, orbits[whole], orbit_cap, stages)

        def context(key: tuple[tuple[int, ...], int, int]) -> BridgeContext:
            family, obj, rho = key
            full, rest = extended[family], restricted[family, obj].site
            stage = rest.object_index(full.object_ray(obj), full.object_rho(obj))
            return make_bridge_context(rest, stage, plain[rho].site)

        orbits = LazyTable(lambda ops: orbit(monoid, ops, seeds))
        plain = LazyTable(plain_site)
        extended = LazyTable(extended_site)
        restricted = LazyTable(lambda key: functors(restrict_down(extended[key[0]], key[1])))
        self.stages = stages
        self.orbits = orbits
        self.whole = whole
        self.plain = plain
        self.plain_below = LazyTable(plain_below)
        self.extended = extended
        self.restricted = restricted
        self.contexts = LazyTable(context)


class BuiltRun:
    """Everything a run needs, constructed once and reused by all checks:
    its plain side and, when it declares a family, its extended side and
    the family's full extended site, which Eq 4.9 and §4.1 read."""

    def __init__(
        self,
        scenario: Scenario,
        spec: RunSpec,
        state: Ray,
        r_space: Subspace,
        universe: Universe,
        universe_names: dict[Subspace, str],
        atoms: TrueAtomSet,
        e_r: Subspace,
        floors: tuple[Sieve, ...],
        plain_side: SiteRun,
        plain_below: Mapping[int, PlainSite],
        ext_side: SiteRun | None = None,
        extended_full: ExtendedSite | None = None,
        ctx: BridgeContext | None = None,
    ):
        self.scenario = scenario
        self.spec = spec
        self.state = state
        self.r_space = r_space  # the chosen eigenspace of the run observable
        self.universe = universe
        self.universe_names = universe_names
        self.atoms = atoms
        self.e_r = e_r
        self.floors = floors  # every plain-site object's annihilator floor
        self.plain_side = plain_side
        self.plain_below = plain_below  # the plain site below each object, for Eq 3.56
        self.ext_side = ext_side  # on the extended site below the run's stage
        self.extended_full = extended_full
        self.ctx = ctx

    @property
    def plain(self) -> PlainSite:
        return self.plain_side.site

    @property
    def rest(self) -> ExtendedSite | None:
        return self.ext_side.site if self.ext_side else None

    # The semi-classifiers every naturality square reads besides Ω: δΩ on
    # the plain site, built on first use for the run's eigenspace, and ♮Ω,
    # shared by every run on the extended site.

    @cached_property
    def delta(self) -> Cut:
        return delta_omega_presheaf(self.plain_side.omega, self.floors)

    @property
    def nat_omega(self) -> Cut:
        return self.ext_side.functors.nat_omega


class BuiltScenario(NamedTuple):
    scenario: Scenario
    monoid: OperatorMonoid
    universe: Universe
    universe_names: dict[Subspace, str]
    runs: list[BuiltRun]
    sites: SiteMemo


def build_scenario(scenario: Scenario) -> BuiltScenario:
    monoid = close_monoid(
        scenario.generators, scenario.caps["monoid"], dim=scenario.dimension
    )
    universe, names = proposition_universe(scenario, monoid)
    sites = SiteMemo(scenario, monoid, universe)
    runs = [_build_run(scenario, spec, universe, names, sites) for spec in scenario.runs]
    return BuiltScenario(scenario, monoid, universe, names, runs, sites)


def run_atoms(scenario: Scenario, spec: RunSpec) -> TrueAtomSet:
    """The true atoms of a run's state; raise where its eigenspace has none."""
    observable = scenario.observables[scenario.observable_index[spec.observable]]
    atoms = compute_atoms(scenario.states[spec.state], observable)
    if atoms.atom_for_eigenspace(spec.eigenspace).is_zero:
        reason = "the state projects to zero on the chosen eigenspace; no true atom there"
        raise ValidationError(f"runs.{spec.name}.eigenspace", reason)
    return atoms


def _build_run(
    scenario: Scenario,
    spec: RunSpec,
    universe: Universe,
    names: dict[Subspace, str],
    sites: SiteMemo,
) -> BuiltRun:
    state = scenario.states[spec.state]
    rho_index = scenario.observable_index[spec.observable]
    observable = scenario.observables[rho_index]
    r_space = observable.eigenspaces[spec.eigenspace]

    plain_functors = sites.plain[rho_index]
    plain = plain_functors.site
    atoms = run_atoms(scenario, spec)
    e_r = atoms.atom_for_eigenspace(spec.eigenspace)
    plain_side = site_run(plain_functors, plain.ray_index(state.space), r_space, universe)
    floors = annihilator_floors(plain, r_space)

    ext_side = extended_full = ctx = None
    if spec.extended:
        family = tuple(sorted(scenario.observable_index[name] for name in spec.extended))
        extended_full = sites.extended[family]
        obj = extended_full.object_index(state.space, family.index(rho_index))
        ctx = sites.contexts[family, obj, rho_index]
        ext_side = site_run(sites.restricted[family, obj], ctx.stage, r_space, universe)
    return BuiltRun(
        scenario, spec, state, r_space, universe, names, atoms, e_r, floors,
        plain_side, sites.plain_below[rho_index], ext_side, extended_full, ctx,
    )


# ---------------------------------------------------------------------------
# serialization helpers


def serialize_subspace(s: Subspace) -> dict:
    return {"ambient_dim": s.ambient_dim, "basis": s.serialize()}


def serialize_plain_sieve(site: PlainSite, s: Sieve) -> list[list[int]]:
    arrows = site.arrows_from(s.base)
    rows = sorted((site.arrow_op(a), site.arrow_cod(a)) for a in [arrows[i] for i in s])
    return [[op, cod] for op, cod in rows]


def serialize_extended_sieve(site: ExtendedSite, s: Sieve) -> list[list]:
    arrows = site.arrows_from(s.base)
    rows = sorted(
        (site.arrow_op(a), site.objects[site.arrow_cod(a)][0], site.arrow_cod_rho(a))
        for a in [arrows[i] for i in s]
    )
    return [[op, cod_ray, site.observables[rho].name] for op, cod_ray, rho in rows]


def _proposition_selection(run: BuiltRun) -> list[Subspace]:
    if run.spec.propositions is None:
        return list(run.universe)
    chosen = [run.scenario.propositions[name] for name in run.spec.propositions]
    return chosen


def valuate_run(run: BuiltRun) -> dict:
    """Per-proposition truth values at the run's stage, all layers (no run table is built)."""
    plain, stage = run.plain, run.plain_side.stage
    top = top_sieve(plain, stage)
    floor = run.floors[stage]
    rows = []
    for p in _proposition_selection(run):
        sieve = valuation(plain, stage, run.r_space, p)
        in_d = in_determinate_sublattice(p, run.atoms)
        row = {
            "name": run.universe_names.get(p, "?"),
            "subspace": serialize_subspace(p),
            "in_determinate": in_d,
            "bub": bub_valuation(run.e_r, p) if in_d else None,
            "sieve": serialize_plain_sieve(plain, sieve),
            "flags": {
                "is_top": sieve == top,
                "is_bottom_annihilator": sieve == floor,
                "in_delta_omega": floor <= sieve,
            },
        }
        if run.ext_side:
            ext_sieve = valuation(run.rest, run.ext_side.stage, run.r_space, p)
            bridged = proposition_equivalence(run.ctx, p, sieve, ext_sieve)
            row["extended"] = {
                "sieve": serialize_extended_sieve(run.rest, bridged["extended"]),
                "natural_image": serialize_extended_sieve(run.rest, bridged["natural_image"]),
                "flat_image": serialize_plain_sieve(plain, bridged["flat_image"]),
                "verdicts": {key: bridged[key] for key in ("a", "b", "c")},
            }
        rows.append(row)
    report = {
        "run": run.spec.name,
        "state": run.spec.state,
        "observable": run.spec.observable,
        "eigenspace": run.spec.eigenspace,
        "true_atom": serialize_subspace(run.e_r),
        "stage_objects": [serialize_subspace(r) for r in plain.rays],
        "propositions": rows,
    }
    report["stage_heyting"] = _stage_heyting_tables(run)
    return report


def _stage_heyting_tables(run: BuiltRun) -> dict:
    """The fully enumerated sieve lattices at the run's stage, if they fit."""
    cap = run.scenario.caps["sieve_enum"]
    plain, stage = run.plain, run.plain_side.stage
    try:
        plain_masks = plain.stage(stage).sieves(cap, stage)
    except EnumerationExceeded:
        return {"within_cap": False}
    tables = {
        "within_cap": True,
        "plain_sieves": [serialize_plain_sieve(plain, Sieve(stage, m)) for m in plain_masks],
    }
    if run.ext_side:
        rest, obj = run.rest, run.ext_side.stage
        ext_stage = rest.stage(obj)
        try:
            ext = [Sieve(obj, m) for m in ext_stage.sieves(cap, obj)]
        except EnumerationExceeded:
            tables["within_cap"] = False
            return tables
        tables["extended_sieves"] = [serialize_extended_sieve(rest, s) for s in ext]
        tables["natural_sieves"] = [
            serialize_extended_sieve(rest, s) for s in ext if ext_stage.natural[s.mask] == s.mask
        ]
    return tables


def run_valuate(scenario: Scenario, run_name: str) -> dict:
    built = build_scenario(scenario)
    for run in built.runs:
        if run.spec.name == run_name:
            return {
                "scenario": scenario.name,
                "dimension": scenario.dimension,
                "truncation": truncation_summary(built),
                "valuation": valuate_run(run),
            }
    raise ValidationError("run", f"no run named {run_name!r}")


def truncation_summary(built: BuiltScenario) -> dict:
    return {
        "monoid_size": len(built.monoid),
        "generators": list(built.scenario.generator_names),
        "universe_size": len(built.universe),
        "caps": dict(sorted(built.scenario.caps.items())),
        "seed_states": sorted(built.scenario.states),
    }


def dump_site(scenario: Scenario) -> dict:
    """Deterministic dump of every site a scenario builds."""
    built = build_scenario(scenario)
    monoid = built.monoid
    out = {
        "scenario": scenario.name,
        "dimension": scenario.dimension,
        "truncation": truncation_summary(built),
        "monoid": {
            "elements": [
                [[str(e) for e in row] for row in m.entries] for m in monoid.elements
            ],
            "identity": monoid.identity_index,
            "product_table": [list(row) for row in monoid.table],
        },
        "runs": [],
    }
    for run in built.runs:
        plain = run.plain
        entry = {
            "run": run.spec.name,
            "plain": {
                "observable": run.spec.observable,
                "operator_indices": list(commutant(monoid, plain.observable)),
                "objects": [serialize_subspace(r) for r in plain.rays],
                "morphisms": [
                    {"dom": a.dom, "op": a.op, "cod": a.cod}
                    for a in plain.arrows
                ],
            },
        }
        if run.ext_side:
            rest = run.rest
            product_arrows = 0
            for i, k in rest.objects:
                for op in range(len(rest.monoid)):
                    for k2 in range(len(rest.observables)):
                        if in_product_category(rest, i, k, op, k2):
                            product_arrows += 1
            entry["extended"] = {
                "family": [rest.observables[k].name for k in range(len(rest.observables))],
                "product_category_arrows": product_arrows,
                "atom_condition_arrows": len(rest.arrows),
                "objects": [
                    {"ray": serialize_subspace(rest.rays[i]), "rho": rest.observables[k].name}
                    for (i, k) in rest.objects
                ],
                "morphisms": [
                    {
                        "dom_ray": rest.objects[m.dom][0],
                        "dom_rho": rest.observables[rest.object_rho(m.dom)].name,
                        "op": m.op,
                        "cod_ray": rest.objects[m.cod][0],
                        "cod_rho": rest.observables[rest.object_rho(m.cod)].name,
                    }
                    for m in rest.arrows
                ],
            }
        out["runs"].append(entry)
    return out
