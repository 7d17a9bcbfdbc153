"""The exhaustive desk-scale verification battery.

Each row re-verifies one identity or closure property over everything the
scenario builds, and carries a short cross-reference tag so reports double
as a coverage index.  No row samples: the §2 lattice laws are certified
from the inclusion order on the generated sublattice (a partial order whose
pairs have least upper and greatest lower bounds is a lattice), and the
stage Heyting algebras are audited on principal probes.
"""

from __future__ import annotations

from .bridge import (
    equivalence_check,
    heyting_iso_check,
    is_natural_at,
    is_projective,
    natural_characteristic,
    natural_map_at,
    natural_omega,
    natural_sieves_at,
    projectivity_matches_naturality,
    sharp,
    sharp_by_intersection,
)
from .errors import NotASubPresheaf, SievevalError
from .modal import (
    bub_valuation,
    enumerate_determinate_sublattice,
    in_commutant,
    in_determinate_sublattice,
    observable_leq,
    zero_augmented_atom_set,
)
from .runner import BuiltRun, BuiltScenario, build_scenario, truncation_summary
from .scenario import Scenario
from .sieves import (
    Presheaf,
    atom_global_element,
    bottom_annihilator,
    build_presheaf,
    characteristic,
    characteristic_table,
    delta_omega_presheaf,
    enumerate_sieves,
    filter_check,
    ib_condition_check,
    is_heyting_family,
    is_sieve,
    is_subpresheaf,
    naturality_holds,
    omega_presheaf,
    omega_transition,
    principal_sieve,
    pullback_holds,
    semiclassifier_check,
    stage_implies,
    tau_values,
    top_sieve,
    valuation,
)
from .sites import (
    associativity_violations,
    identity_violations,
    orbit,
    restrict_down,
    restrict_to_rho,
)
from .subspaces import (
    Ray,
    apply_operator,
    generate_sublattice,
    join,
    leq,
    meet,
    ortho,
    project_onto_eigenspace,
    projector_matrix,
)


def _row(tag: str, title: str, passed: bool, run: str | None = None, **details) -> dict:
    out = {"tag": tag, "title": title, "run": run, "passed": bool(passed)}
    if details:
        out["details"] = details
    return out


def _validate(*values) -> dict:
    """Validate presheaves or global elements in turn: no details if all hold,
    else the first failure as an `error` detail."""
    for value in values:
        try:
            value.validate()
        except SievevalError as exc:
            return {"error": str(exc)}
    return {}


# ---------------------------------------------------------------------------
# scenario-level rows


def _lattice_law_rows(built: BuiltScenario) -> list[dict]:
    """The §2 rows, certified from the inclusion order on the generated
    sublattice L: `leq` is a partial order on L, and for every ordered pair
    `join` and `meet` land in L and are the least upper and greatest lower
    bounds (the elements above the join are exactly the common upper bounds,
    and dually).  A partial order in which every pair has such bounds is a
    lattice (Birkhoff, Lattice Theory), so every lattice law follows, from
    N² calls each of `leq`, `join` and `meet`."""
    sc = built.scenario
    seeds = [sc.propositions[name] for name in sc.lattice_seeds]
    try:
        lattice = generate_sublattice(seeds, sc.caps["lattice"])
    except SievevalError as exc:
        return [_row("§2", "sublattice generation", False, error=str(exc))]
    n = len(lattice)
    index = {p: i for i, p in enumerate(lattice)}
    # up[i]: bit j set iff lattice[i] <= lattice[j]; down is its transpose.
    up = [0] * n
    down = [0] * n
    for i, p in enumerate(lattice):
        for j, q in enumerate(lattice):
            if leq(p, q):
                up[i] |= 1 << j
                down[j] |= 1 << i
    # Reflexive and antisymmetric: only i itself is both above and below i.
    # Transitivity then follows from the join test: if a <= b, the join j of
    # (a, b) has b above it (b is in up[a] & up[b]) and lies below b (j is in
    # up[j], so in up[b]); so j = b, and up[b] == up[a] & up[b] lies in up[a].
    ok = all(up[i] & down[i] == 1 << i for i in range(n))
    for i, p in enumerate(lattice):
        for j, q in enumerate(lattice):
            top = index.get(join(p, q))
            bottom = index.get(meet(p, q))
            if top is None or bottom is None:
                ok = False
            elif up[top] != up[i] & up[j] or down[bottom] != down[i] & down[j]:
                ok = False
    rows = [
        _row(
            "§2",
            "lattice laws on the generated sublattice",
            ok,
            size=n,
            mode="exhaustive",
        )
    ]
    ortho_ok = all(ortho(ortho(p)) == p for p in lattice)
    orthomodular = True
    for i, p in enumerate(lattice):
        for j, q in enumerate(lattice):
            if up[i] >> j & 1 and join(p, meet(q, ortho(p))) != q:
                orthomodular = False
    rows.append(
        _row(
            "§2",
            "ortho-involution and orthomodularity witness",
            ortho_ok and orthomodular,
            size=n,
        )
    )
    return rows


def _atom_agreement_row(built: BuiltScenario) -> dict:
    sc = built.scenario
    ok = True
    pairs = 0
    for state in sc.states.values():
        for obs in sc.observables:
            for r in obs.eigenspaces:
                lattice_way = project_onto_eigenspace(state, r)
                projector_way = apply_operator(projector_matrix(r), state.space)
                pairs += 1
                if lattice_way != projector_way:
                    ok = False
    return _row("Eq 2.1", "atom by lattice formula equals atom by projector", ok, pairs=pairs)


def _operator_monotone_row(built: BuiltScenario) -> dict:
    ok = True
    checked = 0
    universe = built.universe
    for f in built.monoid.elements:
        images = {p: apply_operator(f, p) for p in universe}
        for p in universe:
            for q in universe:
                if leq(p, q):
                    checked += 1
                    if not leq(images[p], images[q]):
                        ok = False
    return _row("Eq 3.2", "monoid action preserves the proposition order", ok, pairs=checked)


def _observable_order_rows(built: BuiltScenario) -> list[dict]:
    sc = built.scenario
    obs = sc.observables
    reflexive = all(observable_leq(a, a) for a in obs)
    antisymmetric = all(
        not (observable_leq(a, b) and observable_leq(b, a)) or a.eigenspaces == b.eigenspaces
        for a in obs
        for b in obs
    )
    transitive = all(
        not (observable_leq(a, b) and observable_leq(b, c)) or observable_leq(a, c)
        for a in obs
        for b in obs
        for c in obs
    )
    com_ok = True
    for a in obs:
        for b in obs:
            if observable_leq(a, b):
                for f in built.monoid.elements:
                    if in_commutant(f, b) and not in_commutant(f, a):
                        com_ok = False
    return [
        _row(
            "Eq 4.1",
            "refinement order on observables is a partial order",
            reflexive and antisymmetric and transitive,
        ),
        _row("Eq 4.15", "coarser observables have larger commutants", com_ok),
    ]


def _atom_set_rows(built: BuiltScenario) -> list[dict]:
    sc = built.scenario
    seeds = [state.space for state in sc.states.values()]
    # An orbit has at most |monoid| * |seeds| rays, so this cap is never hit.
    rays = orbit(built.monoid, seeds, len(built.monoid) * len(seeds))
    b1_ok = True
    b1_checked = 0
    for ray in rays:
        for a in sc.observables:
            for b in sc.observables:
                if a is b or not observable_leq(a, b):
                    continue
                lower = zero_augmented_atom_set(ray, a)
                upper = zero_augmented_atom_set(ray, b)
                if lower <= upper:
                    b1_checked += 1
                    if lower != upper:
                        b1_ok = False
    b2_ok = True
    b2_checked = 0
    for ray in rays:
        for a in sc.observables:
            for mid in sc.observables:
                for b in sc.observables:
                    if not (observable_leq(a, mid) and observable_leq(mid, b)):
                        continue
                    lower = zero_augmented_atom_set(ray, a)
                    upper = zero_augmented_atom_set(ray, b)
                    if lower <= upper:
                        b2_checked += 1
                        middle = zero_augmented_atom_set(ray, mid)
                        if not (lower <= middle and middle <= upper):
                            b2_ok = False
    return [
        _row("Prop B1", "atom-set inclusion along the order forces equality", b1_ok, instances=b1_checked),
        _row("Prop B2", "atom sets interpolate along chains", b2_ok, chains=b2_checked),
    ]


# ---------------------------------------------------------------------------
# per-run plain rows


def _bub_rows(run: BuiltRun) -> list[dict]:
    sc = run.scenario
    extra = tuple(sc.propositions[name] for name in run.spec.remainder_rays)
    lattice = enumerate_determinate_sublattice(run.atoms, sc.caps["lattice"], extra)
    hom_ok = True
    for p in lattice:
        for q in lattice:
            vp, vq = bub_valuation(run.e_r, p), bub_valuation(run.e_r, q)
            if bub_valuation(run.e_r, meet(p, q)) != vp * vq:
                hom_ok = False
            if bub_valuation(run.e_r, join(p, q)) != max(vp, vq):
                hom_ok = False
    dichotomy = True
    for p in lattice:
        below = leq(run.e_r, p)
        below_c = leq(run.e_r, ortho(p))
        if below == below_c:
            dichotomy = False
    membership = all(in_determinate_sublattice(p, run.atoms) for p in lattice)
    return [
        _row(
            "Eq 2.3",
            "determinate sublattice: closure, membership, atom dichotomy",
            membership and dichotomy,
            run=run.spec.name,
            size=len(lattice),
        ),
        _row(
            "Eq 2.4",
            "two-valued valuation is a lattice homomorphism",
            hom_ok,
            run=run.spec.name,
            pairs=len(lattice) ** 2,
        ),
    ]


def _plain_site_rows(run: BuiltRun) -> list[dict]:
    site = run.plain
    assoc = associativity_violations(site)
    ident = identity_violations(site)
    partition_ok = True
    for o, ray in enumerate(site.rays):
        for op in range(len(site.monoid)):
            image = apply_operator(site.monoid.operator(op), ray)
            arrows = [a for a in site.arrows_from(o) if site.arrow_op(a) == op]
            if image.is_zero:
                if arrows:
                    partition_ok = False
            else:
                if len(arrows) != 1 or site.rays[site.arrow_cod(arrows[0])] != image:
                    partition_ok = False
    return [
        _row(
            "§3.1",
            "plain site: associativity and identities",
            not assoc and not ident,
            run=run.spec.name,
            objects=site.n_objects,
            arrows=len(site.arrows),
        ),
        _row(
            "Eq 3.6",
            "hom-sets partition the nonzero monoid action",
            partition_ok,
            run=run.spec.name,
        ),
    ]


def _presheaf_rows(run: BuiltRun) -> list[dict]:
    rows = []
    for tag, title, presheaf in (
        ("Eq 3.11", "proposition functor is functorial", run.propositions_l),
        ("Eq 3.9", "atom functor is functorial", run.atoms_a),
        ("Eq 3.35", "true subobject is functorial", run.true_t),
    ):
        failure = _validate(presheaf)
        rows.append(_row(tag, title, not failure, run=run.spec.name, **failure))
    sections = [
        run.sigma if r is run.r_space else atom_global_element(run.plain, run.atoms_a, r)
        for r in run.atoms.observable.eigenspaces
    ]
    failure = _validate(*sections)
    rows.append(
        _row(
            "Prop 3.1",
            "every eigenspace section is a global element of the atom functor",
            not failure,
            run=run.spec.name,
            **failure,
        )
    )
    violations = filter_check(run.plain, run.true_t, run.propositions_l)
    rows.append(
        _row(
            "Eqs 3.26–3.27",
            "true subobject is stage-wise a filter",
            not violations,
            run=run.spec.name,
            violations=len(violations),
        )
    )
    sub_ok = is_subpresheaf(run.true_t, run.propositions_l)
    rows.append(
        _row("Eq 3.12", "true subobject is a subfunctor of the propositions", sub_ok, run=run.spec.name)
    )
    return rows


def _oracle_rows(run: BuiltRun) -> list[dict]:
    site = run.plain
    chi = characteristic_table(site, run.true_t, run.propositions_l)
    return [
        _row(
            "Eq 3.21 = Eq 3.37",
            "characteristic morphism equals the direct valuation at every stage",
            all(value == valuation(site, o, run.r_space, p) for (o, p), value in chi.items()),
            run=run.spec.name,
            instances=len(chi),
        ),
        _row(
            "diagram 3.24",
            "set-level pullback square at every stage",
            pullback_holds(site, chi, run.true_t, run.propositions_l, tau_values(site)),
            run=run.spec.name,
        ),
        _row(
            "Eq 3.21",
            "characteristic morphism is natural",
            naturality_holds(
                site, chi, run.propositions_l, lambda a, s: omega_transition(site, a, s)
            ),
            run=run.spec.name,
        ),
    ]


def _prop32_33_rows(run: BuiltRun) -> list[dict]:
    site = run.plain
    stage = run.stage
    top = top_sieve(site, stage)
    floor = bottom_annihilator(site, stage, run.e_r)
    prop32 = True
    for p in run.universe:
        if in_determinate_sublattice(p, run.atoms) and bub_valuation(run.e_r, p) == 1:
            if valuation(site, stage, run.r_space, p) != top:
                prop32 = False
    prop33 = True
    for o in range(site.n_objects):
        atom = project_onto_eigenspace(Ray(site.object_ray(o)), run.r_space)
        stage_floor = bottom_annihilator(site, o, atom)
        if not is_sieve(site, stage_floor):
            prop33 = False
        for p in run.universe:
            if not stage_floor <= valuation(site, o, run.r_space, p):
                prop33 = False
    return [
        _row(
            "Prop 3.2",
            "true determinate propositions valuate to the top sieve",
            prop32,
            run=run.spec.name,
        ),
        _row(
            "Prop 3.3",
            "the annihilator sieve bounds every valuation from below",
            prop33,
            run=run.spec.name,
            floor_size=floor.mask.bit_count(),
        ),
    ]


def _ib_rows(run: BuiltRun) -> list[dict]:
    verdict = ib_condition_check(run.plain, run.stage, run.r_space, run.universe)
    core = (
        verdict["monotonicity"]
        and verdict["exclusivity"]
        and verdict["unit"]
        and verdict["null_equals_floor"]
        and verdict["null_passes_in_delta"]
        and verdict["null_fails_in_omega"] == verdict["floor_nonempty"]
    )
    return [
        _row(
            "Eqs 3.28–3.30, 3.44–3.45",
            "monotonicity, exclusivity, unit; null repaired by the semi-classifier",
            core,
            run=run.spec.name,
            **verdict,
        )
    ]


def _delta_rows(run: BuiltRun) -> list[dict]:
    site = run.plain
    sc = run.scenario
    cap = sc.caps["sieve_enum"]
    rows = []
    omega = omega_presheaf(site, cap)
    delta = delta_omega_presheaf(site, run.r_space, cap)
    # δΩ's transitions are the classifier's, so its validation (transitions
    # stay in the codomain stage) is the Prop 3.5 check.
    delta_failure = _validate(delta)
    failure = _validate(omega) or delta_failure
    rows.append(
        _row(
            "Thm 3.6",
            "annihilator-floored sieves form a subfunctor of the classifier",
            not failure and is_subpresheaf(delta, omega),
            run=run.spec.name,
            **failure,
        )
    )
    heyting_ok = True
    bottoms_differ_ok = True
    census = []
    for o in range(site.n_objects):
        atom = project_onto_eigenspace(Ray(site.object_ray(o)), run.r_space)
        floor = bottom_annihilator(site, o, atom).mask
        top = top_sieve(site, o).mask
        masks = [s.mask for s in delta.values[o]]
        stage_masks = set(masks)
        census.append(len(stage_masks))
        principal = [site.principal_masks[a] for a in site.arrows_from(o)]
        if not (
            top in stage_masks
            and floor in stage_masks
            and is_heyting_family(masks, stage_implies(site, o), principal)
        ):
            heyting_ok = False
        # The stage's bottom is the floor; it is the empty sieve only if the floor is.
        bottom = top
        for m in masks:
            bottom &= m
        if bottom not in stage_masks or bottom != floor or (floor and 0 in stage_masks):
            bottoms_differ_ok = False
    rows.append(
        _row(
            "Prop 3.4",
            "each stage of the semi-classifier is a Heyting algebra",
            heyting_ok,
            run=run.spec.name,
            stage_sizes=census,
        )
    )
    rows.append(
        _row(
            "Prop 3.5",
            "classifier transitions preserve the semi-classifier stages",
            not delta_failure,
            run=run.spec.name,
            **delta_failure,
        )
    )
    rows.append(
        _row(
            "§3.4",
            "semi-classifier bottoms differ from the classifier bottom when nonempty",
            bottoms_differ_ok,
            run=run.spec.name,
        )
    )
    delta_tau = tau_values(site)
    semi = semiclassifier_check(
        site, delta, omega, delta_tau, [(run.true_t, run.propositions_l)]
    )
    rows.append(
        _row(
            "Props A3–A4 (δΩ)",
            "semi-classifier pullback and uniqueness for the true subobject",
            all(r["passed"] for r in semi),
            run=run.spec.name,
            results=semi,
        )
    )
    return rows


def _heyting_audit_rows(run, site, label: str, cap: int) -> list[dict]:
    ok = True
    for o in range(site.n_objects):
        sieves = enumerate_sieves(site, o, cap)
        masks = [s.mask for s in sieves]
        principal = [site.principal_masks[a] for a in site.arrows_from(o)]
        # Exactly the sieves on o: sieves only, the empty and the principal
        # ones, and (by the helper) every union of them.
        if not (
            all(is_sieve(site, s) for s in sieves)
            and {0, *principal} <= set(masks)
            and is_heyting_family(masks, stage_implies(site, o), principal)
        ):
            ok = False
    return [
        _row(
            "§3.1 Heyting",
            f"stage lattices are Heyting algebras ({label})",
            ok,
            run=run.spec.name,
            modes=["exhaustive"],
        )
    ]


def _restriction_row(run: BuiltRun) -> dict:
    site = run.plain
    restricted = restrict_down(site, run.stage)
    base = restricted.ray_index(run.state.space)
    ok = True
    for p in run.universe:
        full_sieve = valuation(site, run.stage, run.r_space, p)
        down_sieve = valuation(restricted, base, run.r_space, p)
        full_keys = {
            (site.arrow_op(a), site.object_ray(site.arrow_cod(a))) for a in full_sieve
        }
        down_keys = {
            (restricted.arrow_op(a), restricted.object_ray(restricted.arrow_cod(a)))
            for a in down_sieve
        }
        if full_keys != down_keys:
            ok = False
    return _row(
        "Eq 3.56",
        "valuations agree on the reachable-part restriction",
        ok,
        run=run.spec.name,
        restricted_objects=restricted.n_objects,
    )


# ---------------------------------------------------------------------------
# per-run extended rows


def _extended_site_rows(run: BuiltRun) -> list[dict]:
    full = run.extended_full
    rest = run.rest
    rows = [
        _row(
            "Eq 4.9",
            "extended site: associativity, identities, closed composition",
            not associativity_violations(full) and not identity_violations(full),
            run=run.spec.name,
            objects=full.n_objects,
            arrows=len(full.arrows),
        )
    ]
    embedding_ok = True
    for k in range(len(full.observables)):
        plain_k, op_map_k = restrict_to_rho(full, k)
        fixed = {
            (full.objects[m.dom][0], full.monoid.operator(m.op), full.objects[m.cod][0])
            for m in full.arrows
            if full.object_rho(m.dom) == k == full.object_rho(m.cod)
        }
        rebuilt = {
            (a.dom, plain_k.monoid.operator(a.op), a.cod) for a in plain_k.arrows
        }
        ray_match = plain_k.rays == full.rays
        if not ray_match or fixed != rebuilt:
            embedding_ok = False
    rows.append(
        _row(
            "§4.1",
            "fixed-observable slice equals the plain site",
            embedding_ok,
            run=run.spec.name,
        )
    )
    monoid_ops = set(full.monoid.elements)
    reach_ok = True
    for n, (i, k) in enumerate(full.objects):
        for k2 in range(len(full.observables)):
            if k2 == k or not full.rho_leq[k][k2]:
                continue
            projectors_present = all(
                projector_matrix(r) in monoid_ops
                for r in full.observables[k2].eigenspaces
            )
            if not projectors_present:
                continue
            if not any(full.arrow_cod_rho(a) == k2 for a in full.arrows_from(n)):
                reach_ok = False
    rows.append(
        _row(
            "§4.1 reachability",
            "finer stages are reachable whenever their projectors are present",
            reach_ok,
            run=run.spec.name,
        )
    )
    for tag, title, presheaf in (
        ("Eq 4.17", "extended atom functor is functorial", run.atoms_a_ext),
        ("Eq 4.19", "extended proposition functor is functorial", run.propositions_l_ext),
        ("Eq 4.27", "extended true subobject is functorial", run.true_t_ext),
    ):
        failure = _validate(presheaf)
        rows.append(_row(tag, title, not failure, run=run.spec.name, **failure))
    failure = _validate(run.sigma_ext)
    rows.append(
        _row(
            "Eq 4.25",
            "the chosen atom extends to a section over the reachable part",
            not failure,
            run=run.spec.name,
            stages=rest.n_objects,
            **failure,
        )
    )
    violations = filter_check(rest, run.true_t_ext, run.propositions_l_ext)
    rows.append(
        _row(
            "Eq 4.26",
            "extended true subobject is stage-wise a filter",
            not violations,
            run=run.spec.name,
            violations=len(violations),
        )
    )
    chi = characteristic_table(rest, run.true_t_ext, run.propositions_l_ext)
    rows.append(
        _row(
            "Eq 4.28",
            "extended characteristic morphism equals the direct valuation",
            all(value == valuation(rest, o, run.r_space, p) for (o, p), value in chi.items()),
            run=run.spec.name,
        )
    )
    return rows


def _bridge_rows(run: BuiltRun, nat_omega: Presheaf) -> list[dict]:
    ctx = run.ctx
    rest = run.rest
    sc = run.scenario
    cap = sc.caps["sieve_enum"]
    rows = []
    iso = heyting_iso_check(ctx, cap)
    rows.append(
        _row(
            "Prop 5.1/5.2",
            "flats and sharps preserve joins, meets, top, bottom",
            iso["lattice_preserved"] and iso["tops_and_bottoms"],
            run=run.spec.name,
        )
    )
    ext_sieves = enumerate_sieves(rest, ctx.stage, cap)
    deflation_ok = all(natural_map_at(rest, ctx.stage, s) <= s for s in ext_sieves)
    rows.append(
        _row(
            "Prop 5.3",
            "down-then-up is the identity; up-then-down deflates",
            iso["round_trip_down_up"] and deflation_ok,
            run=run.spec.name,
        )
    )
    sharp_oracle_ok = True
    plain_sieves = enumerate_sieves(ctx.plain, ctx.plain_stage, cap)
    for s in plain_sieves:
        if sharp(ctx, s) != sharp_by_intersection(ctx, s, cap):
            sharp_oracle_ok = False
    rows.append(
        _row(
            "Eq 5.4",
            "closed-form sharp equals the intersection definition",
            sharp_oracle_ok,
            run=run.spec.name,
        )
    )
    rows.append(
        _row(
            "Prop 5.5",
            "fixpoints of the round trip are exactly its image",
            iso["image_is_fixpoints"] and iso["round_trip_up_down"],
            run=run.spec.name,
        )
    )
    rows.append(
        _row(
            "Eq 5.6",
            "flats and sharps dominate transported implications",
            iso["pseudocomplement_inequality"],
            run=run.spec.name,
        )
    )
    rows.append(
        _row(
            "Thm 5.6",
            "fixpoint stage is Heyting-isomorphic to the plain stage",
            iso["bijection"] and iso["implies_transport"] and iso["fixpoint_adjunction"],
            run=run.spec.name,
            plain=iso["plain_count"],
            extended=iso["extended_count"],
            fixpoints=iso["fixpoint_count"],
        )
    )
    rows.append(
        _row(
            "Eq 5.17",
            "fixpoint implication sits below the ambient implication",
            iso["implies_dominates"],
            run=run.spec.name,
            strict_somewhere=iso["implies_strict_somewhere"],
            closure_failures=iso["implies_closure_failures"],
        )
    )
    failure = _validate(nat_omega)
    rows.append(
        _row(
            "Prop 5.7/Thm 5.8",
            "classifier transitions preserve natural sieves",
            not failure,
            run=run.spec.name,
            **failure,
        )
    )
    c1_ok = True
    for stage in nat_omega.values:
        for s in stage:
            for a in s:
                if rest.rho_arrow_twin(a) not in s:
                    c1_ok = False
    rows.append(
        _row(
            "Prop C1",
            "natural sieves contain the fixed-observable twin of each member",
            c1_ok,
            run=run.spec.name,
        )
    )
    return rows


def _forward_closure_subpresheaf(rest, propositions: Presheaf, seed_obj: int, seed_value):
    """Smallest transition-closed family containing one value at one stage."""
    members: dict[int, set] = {o: set() for o in range(rest.n_objects)}
    members[seed_obj].add(seed_value)
    frontier = [(seed_obj, seed_value)]
    while frontier:
        o, x = frontier.pop()
        for a in rest.arrows_from(o):
            cod = rest.arrow_cod(a)
            image = propositions.map(a, x)
            if image not in members[cod]:
                members[cod].add(image)
                frontier.append((cod, image))
    return build_presheaf(
        rest,
        lambda o: tuple(
            p for p in propositions.values[o] if p in members[o]
        ),
        lambda a, x: propositions.map(a, x),
    )


def _find_adversarial_subpresheaf(run: BuiltRun):
    """A subfunctor of the propositions violating the twin condition somewhere."""
    rest = run.rest
    propositions = run.propositions_l_ext
    for o in range(rest.n_objects):
        for a in rest.arrows_from(o):
            if rest.arrow_cod_rho(a) == rest.object_rho(o):
                continue
            twin = rest.rho_arrow_twin(a)
            for x in propositions.values[o]:
                seed_value = propositions.map(a, x)
                candidate = _forward_closure_subpresheaf(
                    rest, propositions, rest.arrow_cod(a), seed_value
                )
                twin_cod = rest.arrow_cod(twin)
                if propositions.map(twin, x) not in candidate.value_set(twin_cod):
                    return candidate, o, x, a
    return None


def _projectivity_rows(run: BuiltRun) -> list[dict]:
    rest = run.rest
    rows = []
    t_projective = all(
        is_projective(rest, run.true_t_ext, run.propositions_l_ext, o, x, checked=False)[0]
        for o in range(rest.n_objects)
        for x in run.propositions_l_ext.values[o]
    )
    rows.append(
        _row(
            "§5.2",
            "the extended true subobject is projective",
            t_projective,
            run=run.spec.name,
        )
    )
    try:
        rows.extend(_detector_rows(run))
    except NotASubPresheaf as exc:
        title = "projectivity and naturality detectors agree"
        rows.append(_row("Prop 5.10", title, False, run=run.spec.name, error=str(exc)))
    return rows


def _detector_rows(run: BuiltRun) -> list[dict]:
    """Prop 5.10 and Def 5.4; raises NotASubPresheaf on a non-subfunctor input."""
    rest = run.rest
    rows = []
    agree_t, mismatches_t = projectivity_matches_naturality(
        rest, run.true_t_ext, run.propositions_l_ext
    )
    adversarial = _find_adversarial_subpresheaf(run)
    if adversarial is None:
        rows.append(
            _row(
                "Prop 5.10",
                "projectivity and naturality detectors agree",
                agree_t,
                run=run.spec.name,
                adversarial="none available (no strict observable raise)",
                mismatches=len(mismatches_t),
            )
        )
        return rows
    candidate, obj, x, witness_arrow = adversarial
    agree_adv, mismatches_adv = projectivity_matches_naturality(
        rest, candidate, run.propositions_l_ext
    )
    projective_adv, witnesses = is_projective(
        rest, candidate, run.propositions_l_ext, obj, x
    )
    natural_adv = is_natural_at(
        rest,
        obj,
        characteristic(rest, candidate, run.propositions_l_ext, obj, x),
    )
    rows.append(
        _row(
            "Prop 5.10",
            "projectivity and naturality detectors agree (including an adversarial subobject)",
            agree_t and agree_adv and not projective_adv and not natural_adv,
            run=run.spec.name,
            adversarial="constructed",
            witness_arrows=sorted(witnesses),
            mismatches=len(mismatches_t) + len(mismatches_adv),
        )
    )
    strict = [
        a
        for o in range(rest.n_objects)
        for a in rest.arrows_from(o)
        if rest.arrow_cod_rho(a) != rest.object_rho(o)
    ]
    if strict:
        pure = principal_sieve(rest, strict[0])
        rows.append(
            _row(
                "Def 5.4",
                "a purely observable-raising sieve is not natural",
                bool(pure.mask)
                and not is_natural_at(rest, rest.arrow_dom(strict[0]), pure),
                run=run.spec.name,
            )
        )
    return rows


def _natural_characteristic_rows(run: BuiltRun, nat_omega: Presheaf) -> list[dict]:
    rest = run.rest
    try:
        result = natural_characteristic(rest, run.true_t_ext, run.propositions_l_ext)
        failure = {}
    except NotASubPresheaf as exc:
        result = dict.fromkeys(("projective", "factorization", "naturality", "pullback"), False)
        failure = {"error": str(exc)}
    rows = [
        _row(
            "Thm 5.11",
            "the fixpoint-valued characteristic map is natural and factors",
            result["projective"] and result["factorization"] and result["naturality"],
            run=run.spec.name,
            **failure,
        ),
        _row(
            "Thm 5.12",
            "pullback against the fixpoint 'true' at every stage",
            result["pullback"],
            run=run.spec.name,
            **failure,
        ),
    ]
    omega = omega_presheaf(rest, run.scenario.caps["sieve_enum"])
    failure = _validate(omega)
    semi = semiclassifier_check(
        rest,
        nat_omega,
        omega,
        tau_values(rest),
        [(run.true_t_ext, run.propositions_l_ext)],
    )
    rows.append(
        _row(
            "Thm 5.13 / Props A3–A4 (♮Ω)",
            "fixpoint subfunctor is a semi-classifier: pullback and uniqueness",
            not failure and all(r["passed"] for r in semi),
            run=run.spec.name,
            results=semi,
            **failure,
        )
    )
    return rows


def _equivalence_rows(run: BuiltRun) -> list[dict]:
    result = equivalence_check(run.ctx, run.r_space, run.universe)
    failures = [
        run.universe_names.get(row["proposition"], "?")
        for row in result["rows"]
        if not (row["a"] and row["b"] and row["c"])
    ]
    return [
        _row(
            "Prop 5.14 / diagram 5.30",
            "plain and extended valuations agree through the isomorphism",
            result["passed"],
            run=run.spec.name,
            propositions=len(result["rows"]),
            failures=failures,
        )
    ]


def _census_rows(run: BuiltRun) -> list[dict]:
    site = run.plain
    cap = run.scenario.caps["sieve_enum"]
    stage_sizes = [len(enumerate_sieves(site, o, cap)) for o in range(site.n_objects)]
    floor = bottom_annihilator(site, run.stage, run.e_r)
    delta_size = len(
        [s for s in enumerate_sieves(site, run.stage, cap) if not floor.mask & ~s.mask]
    )
    details = {
        "omega_stage_sizes": stage_sizes,
        "delta_stage_size": delta_size,
        "floor_size": floor.mask.bit_count(),
    }
    if run.has_extended:
        details["extended_stage_size"] = len(
            enumerate_sieves(run.rest, run.rest_stage, cap)
        )
        details["natural_stage_size"] = len(
            natural_sieves_at(run.rest, run.rest_stage, cap)
        )
    return [
        _row(
            "Eq 3.13",
            "stage census",
            True,
            run=run.spec.name,
            **details,
        )
    ]


def run_check(scenario: Scenario) -> dict:
    """Run the whole battery; the report lists one row per checked statement."""
    built = build_scenario(scenario)
    rows: list[dict] = []
    rows.extend(_lattice_law_rows(built))
    rows.append(_atom_agreement_row(built))
    rows.append(_operator_monotone_row(built))
    rows.extend(_observable_order_rows(built))
    rows.extend(_atom_set_rows(built))
    for run in built.runs:
        rows.extend(_bub_rows(run))
        rows.extend(_plain_site_rows(run))
        rows.extend(_presheaf_rows(run))
        rows.extend(_oracle_rows(run))
        rows.extend(_prop32_33_rows(run))
        rows.extend(_ib_rows(run))
        rows.extend(_delta_rows(run))
        rows.extend(_heyting_audit_rows(run, run.plain, "plain", scenario.caps["sieve_enum"]))
        rows.append(_restriction_row(run))
        rows.extend(_census_rows(run))
        if run.has_extended:
            rows.extend(_extended_site_rows(run))
            rows.extend(_heyting_audit_rows(run, run.rest, "extended", scenario.caps["sieve_enum"]))
            # ♮Ω, built once: Prop 5.7/Thm 5.8 validates it, Thm 5.13 audits it.
            nat_omega = natural_omega(run.rest, scenario.caps["sieve_enum"])
            rows.extend(_bridge_rows(run, nat_omega))
            rows.extend(_projectivity_rows(run))
            rows.extend(_natural_characteristic_rows(run, nat_omega))
            rows.extend(_equivalence_rows(run))
    return {
        "scenario": scenario.name,
        "dimension": scenario.dimension,
        "truncation": truncation_summary(built),
        "rows": rows,
        "passed": all(r["passed"] for r in rows),
    }
