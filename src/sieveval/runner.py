"""Orchestration: build sites and functors for a scenario, emit valuations.

Reports are plain dicts with deterministic key and list ordering, so the
JSON rendering is byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bridge import (
    BridgeContext,
    is_natural_at,
    make_bridge_context,
    natural_omega,
    proposition_equivalence,
)
from .errors import EnumerationExceeded, ValidationError
from .modal import TrueAtomSet, bub_valuation, compute_atoms, in_determinate_sublattice
from .scenario import RunSpec, Scenario, proposition_universe
from .sieves import (
    GlobalElement,
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
    build_extended_site,
    build_plain_site,
    close_monoid,
    in_product_category,
    restrict_down,
)
from .subspaces import Ray, Subspace


@dataclass
class BuiltRun:
    """Everything a run needs, constructed once and reused by all checks."""

    scenario: Scenario
    spec: RunSpec
    state: Ray
    rho_index: int
    r_space: Subspace  # the chosen eigenspace of the run observable
    monoid: OperatorMonoid  # full generator closure
    universe: list[Subspace]
    universe_names: dict[Subspace, str]
    plain: PlainSite
    plain_op_map: tuple[int, ...]
    stage: int  # plain-site object of the run state
    atoms: TrueAtomSet
    e_r: Subspace
    floors: tuple[Sieve, ...]  # every plain-site object's annihilator floor
    propositions_l: Presheaf
    atoms_a: Presheaf
    sigma: GlobalElement
    true_t: Presheaf
    # populated only when the run declares an observable family
    family: tuple[int, ...] = ()
    extended_full: ExtendedSite | None = None
    rest: ExtendedSite | None = None
    rest_stage: int = -1
    ctx: BridgeContext | None = None
    propositions_l_ext: Presheaf | None = None
    atoms_a_ext: Presheaf | None = None
    sigma_ext: GlobalElement | None = None
    true_t_ext: Presheaf | None = None

    @property
    def has_extended(self) -> bool:
        return self.rest is not None

    # Truth-value tables, each built on first use (see `sieves`): the direct
    # valuation and the true subobject's characteristic table, per site; and
    # the classifiers every naturality square reads: Ω and δΩ on the plain
    # site, Ω and ♮Ω on the extended one.

    @cached_property
    def values(self) -> tuple[tuple[Sieve, ...], ...]:
        return valuation_table(self.plain, self.r_space, self.propositions_l)

    @cached_property
    def chi(self) -> tuple[tuple[Sieve, ...], ...]:
        return characteristic_table(self.plain, self.true_t, self.propositions_l)

    @cached_property
    def values_ext(self) -> tuple[tuple[Sieve, ...], ...]:
        return valuation_table(self.rest, self.r_space, self.propositions_l_ext)

    @cached_property
    def chi_ext(self) -> tuple[tuple[Sieve, ...], ...]:
        return characteristic_table(self.rest, self.true_t_ext, self.propositions_l_ext)

    @cached_property
    def omega(self) -> Presheaf:
        return omega_presheaf(self.plain, self.scenario.caps["sieve_enum"])

    @cached_property
    def delta(self) -> Presheaf:
        return delta_omega_presheaf(self.omega, self.floors)

    @cached_property
    def omega_ext(self) -> Presheaf:
        return omega_presheaf(self.rest, self.scenario.caps["sieve_enum"])

    @cached_property
    def nat_omega(self) -> Presheaf:
        return natural_omega(self.omega_ext)


@dataclass
class BuiltScenario:
    scenario: Scenario
    monoid: OperatorMonoid
    universe: list[Subspace]
    universe_names: dict[Subspace, str]
    runs: list[BuiltRun]


def build_scenario(scenario: Scenario) -> BuiltScenario:
    monoid = close_monoid(
        scenario.generators, scenario.caps["monoid"], dim=scenario.dimension
    )
    universe, names = proposition_universe(scenario, monoid)
    extended_cache: dict[tuple[int, ...], ExtendedSite] = {}
    runs = [
        _build_run(scenario, spec, monoid, universe, names, extended_cache)
        for spec in scenario.runs
    ]
    return BuiltScenario(scenario, monoid, universe, names, runs)


def _build_run(
    scenario: Scenario,
    spec: RunSpec,
    monoid: OperatorMonoid,
    universe: list[Subspace],
    names: dict[Subspace, str],
    extended_cache: dict[tuple[int, ...], ExtendedSite],
) -> BuiltRun:
    state = scenario.states[spec.state]
    rho_index = scenario.observable_index[spec.observable]
    observable = scenario.observables[rho_index]
    r_space = observable.eigenspaces[spec.eigenspace]

    plain, op_map = build_plain_site(
        observable,
        monoid,
        list(scenario.states.values()),
        scenario.caps["orbit"],
    )
    stage = plain.ray_index(state.space)
    atoms = compute_atoms(state, observable)
    e_r = atoms.atom_for_eigenspace(spec.eigenspace)
    if e_r.is_zero:
        raise ValidationError(
            f"runs.{spec.name}.eigenspace",
            "the state projects to zero on the chosen eigenspace; no true atom there",
        )

    propositions_l = proposition_presheaf(plain, universe)
    atoms_a = atom_presheaf(plain, lambda o: observable)
    sigma = atom_global_element(plain, atoms_a, r_space)
    true_t = true_subobject(sigma, propositions_l)

    run = BuiltRun(
        scenario=scenario,
        spec=spec,
        state=state,
        rho_index=rho_index,
        r_space=r_space,
        monoid=monoid,
        universe=universe,
        universe_names=names,
        plain=plain,
        plain_op_map=op_map,
        stage=stage,
        atoms=atoms,
        e_r=e_r,
        floors=annihilator_floors(plain, r_space),
        propositions_l=propositions_l,
        atoms_a=atoms_a,
        sigma=sigma,
        true_t=true_t,
    )

    if spec.extended:
        family = tuple(scenario.observable_index[name] for name in spec.extended)
        key = tuple(sorted(family))
        if key not in extended_cache:
            extended_cache[key] = build_extended_site(
                [scenario.observables[i] for i in sorted(family)],
                monoid,
                list(scenario.states.values()),
                scenario.caps["orbit"],
            )
        extended_full = extended_cache[key]
        family_sorted = tuple(sorted(family))
        rho_in_family = family_sorted.index(rho_index)
        stage_full = extended_full.object_index(state.space, rho_in_family)
        rest = restrict_down(extended_full, stage_full)
        rest_stage = rest.object_index(state.space, rho_in_family)
        ctx = make_bridge_context(rest, rest_stage, plain, op_map)

        run.family = family_sorted
        run.extended_full = extended_full
        run.rest = rest
        run.rest_stage = rest_stage
        run.ctx = ctx
        run.propositions_l_ext = proposition_presheaf(rest, universe)
        run.atoms_a_ext = atom_presheaf(
            rest, lambda o: rest.observables[rest.object_rho(o)]
        )
        run.sigma_ext = atom_global_element(rest, run.atoms_a_ext, r_space)
        run.true_t_ext = true_subobject(run.sigma_ext, run.propositions_l_ext)
    return run


# ---------------------------------------------------------------------------
# serialization helpers


def serialize_subspace(s: Subspace) -> dict:
    return {"ambient_dim": s.ambient_dim, "basis": s.serialize()}


def serialize_plain_sieve(site: PlainSite, s: Sieve) -> list[list[int]]:
    rows = sorted(
        (site.arrow_op(a), site.arrow_cod(a)) for a in s.arrows
    )
    return [[op, cod] for op, cod in rows]


def serialize_extended_sieve(site: ExtendedSite, s: Sieve) -> list[list]:
    rows = sorted(
        (site.arrow_op(a), site.objects[site.arrow_cod(a)][0], site.arrow_cod_rho(a))
        for a in s.arrows
    )
    return [[op, cod_ray, site.observables[rho].name] for op, cod_ray, rho in rows]


def _proposition_selection(run: BuiltRun) -> list[Subspace]:
    if run.spec.propositions is None:
        return list(run.universe)
    chosen = [run.scenario.propositions[name] for name in run.spec.propositions]
    return chosen


def valuate_run(run: BuiltRun) -> dict:
    """Per-proposition truth values at the run's stage, all layers (no run table is built)."""
    plain = run.plain
    stage = run.stage
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
        if run.has_extended:
            ext_sieve = valuation(run.rest, run.rest_stage, run.r_space, p)
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
    plain, stage = run.plain, run.stage
    try:
        plain_masks = plain.stage(stage).sieves(cap)
    except EnumerationExceeded:
        return {"within_cap": False}
    tables = {
        "within_cap": True,
        "plain_sieves": [serialize_plain_sieve(plain, Sieve(stage, m)) for m in plain_masks],
    }
    if run.has_extended:
        rest, stage = run.rest, run.rest_stage
        try:
            ext = [Sieve(stage, m) for m in rest.stage(stage).sieves(cap)]
        except EnumerationExceeded:
            tables["within_cap"] = False
            return tables
        tables["extended_sieves"] = [serialize_extended_sieve(rest, s) for s in ext]
        tables["natural_sieves"] = [
            serialize_extended_sieve(rest, s) for s in ext if is_natural_at(rest, stage, s)
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
                "operator_indices": list(run.plain_op_map),
                "objects": [serialize_subspace(r) for r in plain.rays],
                "morphisms": [
                    {"dom": a.dom, "op": run.plain_op_map[a.op], "cod": a.cod}
                    for a in plain.arrows
                ],
            },
        }
        if run.has_extended:
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
