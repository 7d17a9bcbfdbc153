"""The exhaustive desk-scale verification battery.

Each row re-verifies one identity or closure property over everything the
scenario builds, and carries a short cross-reference tag so reports double
as a coverage index.  No row samples: the §2 lattice laws are certified
from the inclusion order on the generated sublattice (a partial order whose
pairs have least upper and greatest lower bounds is a lattice), and the
stage Heyting algebras are audited on principal probes.

`run_check` calls the row families in report order, scenario-wide rows
first, and alone sets a row's `run`: it stamps every row a run's families
return with the run's name, and the other rows keep None.  Six statements
are checked on either side of a run, by one function over a `SiteRun`:
functoriality of L, A and T (`_functor_rows`), χ equal to the direct
valuation (`_chi_row`), the filter property of T (`_filter_row`) and the
Heyting stages of Ω (`_heyting_audit_rows`).  One helper checks hom-sets
by their definition, the nonzero action of an observable's commutant
(`_hom_sets_are_the_action`): on the plain site for Eq 3.6, and on the full
extended site for §4.1, where it checks each ray category 𝒞_R inside 𝒞
without building 𝒞_R again.  Another checks a site's laws, associativity
and identities, from every stage of it (`_site_laws_row`): on the plain
site for §3.1 and on the full extended site for Eq 4.9.  Building a site
composes none of its stages, so these two rows are where composition is
validated.

What runs share is audited once per check: `run_check` keeps a table of
verdicts for the check alone (`_once`), and every run's row reads the one
verdict on a site's laws and hom-sets, a stage's Heyting audit per
listing, a presheaf's validation, a bridge context's audit and Eq 5.4
oracle, and Prop 5.10's adversarial subfunctor of the extended
propositions.
"""

from __future__ import annotations

from .bridge import (
    BridgeContext,
    detector_tables,
    equivalence_check,
    heyting_iso_check,
    natural_characteristic,
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
from .runner import BuiltRun, BuiltScenario, SiteRun, build_scenario, truncation_summary
from .scenario import Scenario
from .sieves import (
    LazyTable,
    Presheaf,
    Sieve,
    atom_global_element,
    characteristic_table,
    filter_check,
    floors_pull_back_above_floors,
    ib_condition_check,
    is_closed,
    is_heyting_family,
    is_sieve,
    naturality_holds,
    principal_sieve,
    pullback_holds,
    semiclassifier_check,
    subpresheaf,
    tau_values,
    top_sieve,
    valuation_row,
)
from .sites import Site, associativity_violations, commutant, identity_violations
from .subspaces import (
    apply_operator,
    generate_sublattice,
    leq,
    project_onto_eigenspace,
    projector_matrix,
)

# Not called here: the benchmark tracer's self-test (`perfbench/tests`)
# checks that the tracer rebinds `join` in this module, which imports it.
from .subspaces import join  # noqa: F401


def _row(tag: str, title: str, passed: bool, **details) -> dict:
    """A report row; its `run` stays None unless `run_check` stamps it."""
    out = {"tag": tag, "title": title, "run": None, "passed": bool(passed)}
    if details:
        out["details"] = details
    return out


def _once(verdicts: dict, audit, *args):
    """`audit(*args)`, kept in `verdicts`, the table of one `run_check`, on
    its first read and read from there after that."""
    key = (audit, *args)
    if key not in verdicts:
        verdicts[key] = audit(*args)
    return verdicts[key]


def _failure(value) -> dict:
    """No details if a presheaf or global element validates, else its
    failure as an `error` detail."""
    try:
        value.validate()
    except SievevalError as exc:
        return {"error": str(exc)}
    return {}


def _validate(verdicts: dict, *values) -> dict:
    """The first `_failure` of `values`, each validated once per check."""
    for value in values:
        failure = _once(verdicts, _failure, value)
        if failure:
            return failure
    return {}


def _validation_row(verdicts: dict, tag: str, title: str, *values, **details) -> dict:
    """A row that holds iff every one of `values` validates (`_validate`)."""
    failure = _validate(verdicts, *values)
    return _row(tag, title, not failure, **details, **failure)


def _verdict_rows(verdict: dict, table: tuple, **details) -> list[dict]:
    """One row per (tag, title, keys, named) entry of `table`: it holds iff
    every verdict in `keys` does, and each `named` detail reads the verdict
    it maps to; `details` go on every row."""
    return [
        _row(
            tag,
            title,
            all(verdict[key] for key in keys),
            **{name: verdict[key] for name, key in named.items()},
            **details,
        )
        for tag, title, keys, named in table
    ]


# ---------------------------------------------------------------------------
# scenario-level rows


def _lattice_law_rows(built: BuiltScenario) -> list[dict]:
    """The §2 rows, certified from the inclusion order on the generated
    sublattice L: `leq` is a partial order on L, and for every unordered
    pair the join that the closure recorded and the meet it read by De
    Morgan are the least upper and greatest lower bounds (the elements above
    the join are exactly the common upper bounds, and dually; both tests are
    symmetric in the pair).
    A partial order in which every pair has such bounds is a lattice
    (Birkhoff, Lattice Theory), so every lattice law follows, from N² calls
    of `leq`, the independent oracle, and L's position tables: the rows
    make no `join`, `meet` or `ortho` call of their own."""
    sc = built.scenario
    seeds = [sc.propositions[name] for name in sc.lattice_seeds]
    try:
        lattice = generate_sublattice(seeds, sc.caps["lattice"])
    except SievevalError as exc:
        return [_row("§2", "sublattice generation", False, error=str(exc))]
    n = len(lattice)
    joins, meets, orthos = lattice.joins, lattice.meets, lattice.orthos
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
    for i, (tops, bottoms) in enumerate(zip(joins, meets)):
        for j, top, bottom in zip(range(i, n), tops, bottoms):
            if up[top] != up[i] & up[j] or down[bottom] != down[i] & down[j]:
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
    ortho_ok = all(orthos[c] == i for i, c in enumerate(orthos))
    orthomodular = True
    for i, c in enumerate(orthos):
        for j in range(n):
            if up[i] >> j & 1:
                m = meets[j][c - j] if j <= c else meets[c][j - c]
                if (joins[i][m - i] if i <= m else joins[m][i - m]) != j:
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
                lattice_way = project_onto_eigenspace(state.space, r)
                projector_way = apply_operator(projector_matrix(r), state.space)
                pairs += 1
                if lattice_way != projector_way:
                    ok = False
    return _row("Eq 2.1", "atom by lattice formula equals atom by projector", ok, pairs=pairs)


def _operator_monotone_row(built: BuiltScenario) -> dict:
    """Eq 3.2 on the universe's tables: along each operator's action row,
    every pair i <= j maps to a pair image(i) <= image(j)."""
    ok = True
    checked = 0
    above = built.universe.above
    for f in built.monoid.elements:
        image = built.universe.action[f]
        for i, up in enumerate(above):
            for j in range(len(above)):
                if (up >> j) & 1:
                    checked += 1
                    if not (above[image[i]] >> image[j]) & 1:
                        ok = False
    return _row("Eq 3.2", "monoid action preserves the proposition order", ok, pairs=checked)


def _observable_order_rows(built: BuiltScenario) -> list[dict]:
    sc = built.scenario
    obs = sc.observables
    reflexive = all(observable_leq(a, a) for a in obs)
    # The decomposition is the invariant (see `modal`), not the order of its eigenspaces.
    antisymmetric = all(
        not (observable_leq(a, b) and observable_leq(b, a))
        or set(a.eigenspaces) == set(b.eigenspaces)
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
    rays, _, _ = built.sites.orbits[built.sites.whole]
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


def _bub_rows(run: BuiltRun, value: LazyTable) -> list[dict]:
    """Eqs 2.3–2.4 on the run's determinate sublattice; `value` is the run's
    two-valued valuation table.  Eq 2.4 values the meet and join of every
    unordered pair, as the sublattice's position tables record them, and
    Eq 2.3's atom dichotomy reads its ortho table."""
    sc = run.scenario
    extra = tuple(sc.propositions[name] for name in run.spec.remainder_rays)
    lattice = enumerate_determinate_sublattice(run.atoms, sc.caps["lattice"], extra)
    values = [value[p] for p in lattice]
    hom_ok = True
    for i, (tops, bottoms) in enumerate(zip(lattice.joins, lattice.meets)):
        vp = values[i]
        for vq, top, bottom in zip(values[i:], tops, bottoms):
            if values[bottom] != vp * vq or values[top] != max(vp, vq):
                hom_ok = False
    # The atom lies below exactly one of p and its orthocomplement.
    dichotomy = all(v != values[c] for v, c in zip(values, lattice.orthos))
    membership = all(in_determinate_sublattice(p, run.atoms) for p in lattice)
    return [
        _row(
            "Eq 2.3",
            "determinate sublattice: closure, membership, atom dichotomy",
            membership and dichotomy,
            size=len(lattice),
        ),
        _row("Eq 2.4", "two-valued valuation is a lattice homomorphism", hom_ok, pairs=len(lattice) ** 2),
    ]


def _hom_sets_are_the_action(site: Site) -> bool:
    """Out of each object (i, k), the arrows that stay at observable k are
    one per operator of k's commutant with a nonzero image of ray i, to that
    image: the hom-sets of the ray category of k (Eq 3.6), and so 𝒞_k as a
    subcategory of the extended site (§4.1)."""
    commutants = [commutant(site.monoid, observable) for observable in site.observables]
    for o, (i, k) in enumerate(site.objects):
        images = [(op, apply_operator(site.operator_matrix(op), site.rays[i])) for op in commutants[k]]
        arrows = [
            (site.arrow_op(a), site.object_ray(site.arrow_cod(a)))
            for a in site.arrows_from(o)
            if site.arrow_cod_rho(a) == k
        ]
        arrows.sort(key=lambda arrow: arrow[0])
        if arrows != [(op, image) for op, image in images if not image.is_zero]:
            return False
    return True


def _site_laws_hold(site: Site) -> bool:
    """Associativity and identities of an unrestricted site, read from every
    one of its stages: the only reader that composes them all, so a
    composite that leaves the site raises here if no row read its stage
    before (§3.1 and Eq 4.9)."""
    return not associativity_violations(site) and not identity_violations(site)


def _site_laws_row(verdicts: dict, tag: str, title: str, site: Site) -> dict:
    passed = _once(verdicts, _site_laws_hold, site)
    return _row(tag, title, passed, objects=site.n_objects, arrows=len(site.arrows))


def _plain_site_rows(run: BuiltRun, verdicts: dict) -> list[dict]:
    site = run.plain
    hom_sets = _once(verdicts, _hom_sets_are_the_action, site)
    return [
        _site_laws_row(verdicts, "§3.1", "plain site: associativity and identities", site),
        _row("Eq 3.6", "hom-sets partition the nonzero monoid action", hom_sets),
    ]


def _filter_row(tag: str, title: str, run: BuiltRun, side: SiteRun) -> dict:
    """Eqs 3.26–3.27 or Eq 4.26: one side's true subobject is stage-wise a filter."""
    violations, outside = filter_check(run.universe, side.true_t.held)
    return _row(
        tag,
        title,
        not violations,
        violations=len(violations),
        **({"meets_outside": outside} if outside else {}),
    )


def _functor_rows(verdicts: dict, side: SiteRun, *table: tuple[str, str, str]) -> list[dict]:
    """Eqs 3.9, 3.11, 3.35 or Eqs 4.17, 4.19, 4.27: one row per (tag, title,
    attribute) entry, holding iff that functor of the side is functorial."""
    return [_validation_row(verdicts, tag, title, getattr(side, name)) for tag, title, name in table]


def _chi_row(tag: str, title: str, run: BuiltRun, side: SiteRun, **details) -> dict:
    """Eq 3.21 = Eq 3.37 or Eq 4.28: one side's characteristic table equals
    its direct valuation; the first entry where they differ is the `witness`,
    naming the stage and the proposition."""
    for o, (chi_row, value_row) in enumerate(zip(side.chi, side.values)):
        for p, x, y in zip(run.universe, chi_row, value_row):
            if x != y:
                details["witness"] = {"stage": o, "proposition": run.universe_names.get(p, "?")}
                return _row(tag, title, False, **details)
    return _row(tag, title, side.chi == side.values, **details)


def _presheaf_rows(run: BuiltRun, verdicts: dict) -> list[dict]:
    side = run.plain_side
    rows = _functor_rows(
        verdicts,
        side,
        ("Eq 3.11", "proposition functor is functorial", "propositions_l"),
        ("Eq 3.9", "atom functor is functorial", "atoms_a"),
        ("Eq 3.35", "true subobject is functorial", "true_t"),
    )
    sections = [
        side.sigma if r is run.r_space else atom_global_element(side.site, side.atoms_a, r)
        for r in run.atoms.observable.eigenspaces
    ]
    title = "every eigenspace section is a global element of the atom functor"
    rows.append(_validation_row(verdicts, "Prop 3.1", title, *sections))
    rows.append(_filter_row("Eqs 3.26–3.27", "true subobject is stage-wise a filter", run, side))
    # P's valuation at o is the top sieve iff it holds the identity, iff σ(o) ≤ P.
    true_by_value = tuple([
        sum(1 << i for i, value in enumerate(row) if value.mask == side.site.stage(o).top)
        for o, row in enumerate(side.values)
    ])
    true_t = side.true_t
    sub_ok = is_closed(true_t) and true_t.parent is side.propositions_l and true_t.held == true_by_value
    rows.append(_row("Eq 3.12", "true subobject is a subfunctor of the propositions", sub_ok))
    return rows


def _oracle_rows(run: BuiltRun) -> list[dict]:
    side = run.plain_side
    site, chi = side.site, side.chi
    return [
        _chi_row(
            "Eq 3.21 = Eq 3.37",
            "characteristic morphism equals the direct valuation at every stage",
            run,
            side,
            instances=sum(len(stage) for stage in chi),
        ),
        _row(
            "diagram 3.24",
            "set-level pullback square at every stage",
            pullback_holds(chi, side.true_t, tau_values(site)),
        ),
        _row(
            "Eq 3.21",
            "characteristic morphism is natural",
            naturality_holds(chi, side.propositions_l, side.omega),
        ),
    ]


def _prop32_33_rows(run: BuiltRun, two_valued: LazyTable) -> list[dict]:
    """Props 3.2–3.3; `two_valued` is the run's two-valued valuation table."""
    site, stage, values = run.plain, run.plain_side.stage, run.plain_side.values
    top = top_sieve(site, stage)
    floor = run.floors[stage]
    prop32 = all(
        value == top
        for p, value in zip(run.universe, values[stage])
        if in_determinate_sublattice(p, run.atoms) and two_valued[p] == 1
    )
    prop33 = True
    for stage_floor, value_row in zip(run.floors, values):
        if not is_sieve(site, stage_floor):
            prop33 = False
        if not all(stage_floor <= value for value in value_row):
            prop33 = False
    return [
        _row("Prop 3.2", "true determinate propositions valuate to the top sieve", prop32),
        _row(
            "Prop 3.3",
            "the annihilator sieve bounds every valuation from below",
            prop33,
            floor_size=floor.mask.bit_count(),
        ),
    ]


def _ib_rows(run: BuiltRun) -> list[dict]:
    stage = run.plain_side.stage
    verdict = ib_condition_check(
        run.plain, stage, run.r_space, run.universe, run.plain_side.values[stage], run.floors[stage]
    )
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
            **verdict,
        )
    ]


def _is_heyting(stage, masks: tuple[int, ...]) -> bool:
    """A listing of a stage's masks is a Heyting algebra, probed on principals."""
    return is_heyting_family(masks, stage.implies, stage.principals)


def _delta_rows(run: BuiltRun, verdicts: dict) -> list[dict]:
    side, delta = run.plain_side, run.delta
    site, omega = side.site, side.omega
    rows = []
    failure = _validate(verdicts, omega)
    rows.append(
        _row(
            "Thm 3.6",
            "annihilator-floored sieves form a subfunctor of the classifier",
            not failure and floors_pull_back_above_floors(omega, run.floors),
            **failure,
        )
    )
    heyting_ok = True
    bottoms_differ_ok = True
    census = []
    for o in range(site.n_objects):
        stage = site.stage(o)
        floor = run.floors[o].mask
        masks = tuple([s.mask for s in delta.values[o]])
        stage_masks = set(masks)
        census.append(len(stage_masks))
        if not (
            stage.top in stage_masks and floor in stage_masks and _once(verdicts, _is_heyting, stage, masks)
        ):
            heyting_ok = False
        # The stage's bottom is the floor; it is the empty sieve only if the floor is.
        bottom = stage.top
        for m in masks:
            bottom &= m
        if bottom not in stage_masks or bottom != floor or (floor and 0 in stage_masks):
            bottoms_differ_ok = False
    rows.append(
        _row(
            "Prop 3.4",
            "each stage of the semi-classifier is a Heyting algebra",
            heyting_ok,
            stage_sizes=census,
        )
    )
    # δΩ's transitions are the classifier's, so its validation (transitions
    # stay in the codomain stage) is the Prop 3.5 check.
    title = "classifier transitions preserve the semi-classifier stages"
    rows.append(_validation_row(verdicts, "Prop 3.5", title, delta))
    title = "semi-classifier bottoms differ from the classifier bottom when nonempty"
    rows.append(_row("§3.4", title, bottoms_differ_ok))
    semi = semiclassifier_check(delta, tau_values(site), [(side.true_t, side.chi)])
    rows.append(
        _row(
            "Props A3–A4 (δΩ)",
            "semi-classifier pullback and uniqueness for the true subobject",
            all(r["passed"] for r in semi),
            results=semi,
        )
    )
    return rows


def _heyting_audit_rows(side: SiteRun, label: str, verdicts: dict) -> list[dict]:
    """The stages of Ω on one side of a run, named by `label`, each (stage,
    listing) once per check: a restriction lists its parent's stages."""
    site = side.site
    ok = True
    for o, sieves in enumerate(side.omega.values):
        stage = site.stage(o)
        masks = tuple([s.mask for s in sieves])
        # Exactly the sieves on o: sieves only, the empty and the principal
        # ones, and (by `_is_heyting`) every union of them.
        if (stage, masks) not in verdicts:
            verdicts[stage, masks] = (
                all(is_sieve(site, s) for s in sieves)
                and {0, *stage.principals} <= set(masks)
                and _once(verdicts, _is_heyting, stage, masks)
            )
        if not verdicts[stage, masks]:
            ok = False
    title = f"stage lattices are Heyting algebras ({label})"
    return [_row("§3.1 Heyting", title, ok, modes=["exhaustive"])]


def _restriction_row(run: BuiltRun) -> dict:
    site, stage = run.plain, run.plain_side.stage
    restricted = run.plain_below[stage]
    base = restricted.ray_index(run.state.space)

    def keys(site, s: Sieve) -> set:
        """The members of s as (operator, codomain ray) pairs."""
        arrows = site.arrows_from(s.base)
        return {(site.arrow_op(a), site.object_ray(site.arrow_cod(a))) for a in [arrows[i] for i in s]}

    rows = zip(run.plain_side.values[stage], valuation_row(restricted, base, run.r_space, run.universe))
    ok = all(keys(site, full) == keys(restricted, down) for full, down in rows)
    return _row(
        "Eq 3.56",
        "valuations agree on the reachable-part restriction",
        ok,
        restricted_objects=restricted.n_objects,
    )


# ---------------------------------------------------------------------------
# per-run extended rows


def _extended_site_rows(run: BuiltRun, verdicts: dict) -> list[dict]:
    full = run.extended_full
    side = run.ext_side
    title = "extended site: associativity, identities, closed composition"
    rows = [_site_laws_row(verdicts, "Eq 4.9", title, full)]
    title = "fixed-observable slice equals the plain site"
    rows.append(_row("§4.1", title, _once(verdicts, _hom_sets_are_the_action, full)))
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
    title = "finer stages are reachable whenever their projectors are present"
    rows.append(_row("§4.1 reachability", title, reach_ok))
    rows += _functor_rows(
        verdicts,
        side,
        ("Eq 4.17", "extended atom functor is functorial", "atoms_a"),
        ("Eq 4.19", "extended proposition functor is functorial", "propositions_l"),
        ("Eq 4.27", "extended true subobject is functorial", "true_t"),
    )
    title = "the chosen atom extends to a section over the reachable part"
    rows.append(_validation_row(verdicts, "Eq 4.25", title, side.sigma, stages=side.site.n_objects))
    rows.append(_filter_row("Eq 4.26", "extended true subobject is stage-wise a filter", run, side))
    title = "extended characteristic morphism equals the direct valuation"
    rows.append(_chi_row("Eq 4.28", title, run, side))
    return rows


def _sharp_oracle_holds(ctx: BridgeContext, cap: int) -> bool:
    """Eq 5.4 on a bridge context: the closed-form sharp of every sieve on
    the plain stage equals its definition as an intersection."""
    base = ctx.plain_stage
    sieves = [Sieve(base, m) for m in ctx.plain.stage(base).sieves(cap, base)]
    return all(sharp(ctx, s) == sharp_by_intersection(ctx, s, cap) for s in sieves)


def _bridge_rows(run: BuiltRun, verdicts: dict) -> list[dict]:
    ctx = run.ctx
    nat_omega = run.nat_omega
    rest = run.rest
    cap = run.scenario.caps["sieve_enum"]
    verdict = _once(verdicts, heyting_iso_check, ctx, cap)
    oracle = _once(verdicts, _sharp_oracle_holds, ctx, cap)
    rows = _verdict_rows(
        {**verdict, "sharp_oracle": oracle},
        (
            (
                "Prop 5.1/5.2",
                "flats and sharps preserve joins, meets, top, bottom",
                ("lattice_preserved", "tops_and_bottoms"),
                {},
            ),
            (
                "Prop 5.3",
                "down-then-up is the identity; up-then-down deflates",
                ("round_trip_down_up", "deflation"),
                {},
            ),
            ("Eq 5.4", "closed-form sharp equals the intersection definition", ("sharp_oracle",), {}),
            (
                "Prop 5.5",
                "fixpoints of the round trip are exactly its image",
                ("image_is_fixpoints", "round_trip_up_down"),
                {},
            ),
            (
                "Eq 5.6",
                "flats and sharps dominate transported implications",
                ("pseudocomplement_inequality",),
                {},
            ),
            (
                "Thm 5.6",
                "fixpoint stage is Heyting-isomorphic to the plain stage",
                ("bijection", "implies_transport", "fixpoint_adjunction"),
                {"plain": "plain_count", "extended": "extended_count", "fixpoints": "fixpoint_count"},
            ),
            (
                "Eq 5.17",
                "fixpoint implication sits below the ambient implication",
                ("implies_dominates",),
                {
                    "strict_somewhere": "implies_strict_somewhere",
                    "closure_failures": "implies_closure_failures",
                },
            ),
        ),
    )
    title = "classifier transitions preserve natural sieves"
    rows.append(_validation_row(verdicts, "Prop 5.7/Thm 5.8", title, nat_omega))
    c1_ok = True
    for o, stage in enumerate(nat_omega.values):
        arrows = rest.arrows_from(o)
        twin = [rest.arrow_position(rest.rho_arrow_twin(a)) for a in arrows]
        for s in stage:
            if any(twin[i] not in s for i in s):
                c1_ok = False
    title = "natural sieves contain the fixed-observable twin of each member"
    rows.append(_row("Prop C1", title, c1_ok))
    return rows


def _forward_closure(propositions: Presheaf, seed_obj: int, seed: int) -> list[int]:
    """Per stage, the mask of the positions of the smallest transition-closed
    family holding the value at position `seed` of stage `seed_obj`."""
    site = propositions.site
    members = [0] * site.n_objects
    members[seed_obj] = 1 << seed
    frontier = [(seed_obj, seed)]
    while frontier:
        o, i = frontier.pop()
        for a in site.arrows_from(o):
            cod, j = site.arrow_cod(a), propositions.positions[a][i]
            if not (members[cod] >> j) & 1:
                members[cod] |= 1 << j
                frontier.append((cod, j))
    return members


def _find_adversarial_subpresheaf(propositions: Presheaf):
    """A subfunctor of the extended propositions violating the twin condition
    somewhere: the forward closure of the image of position i along a raising
    arrow a that misses i's image along a's twin.  Returns (subfunctor,
    stage, i, a) or None."""
    rest = propositions.site
    positions = propositions.positions
    for o in range(rest.n_objects):
        for a in rest.arrows_from(o):
            if rest.arrow_cod_rho(a) == rest.object_rho(o):
                continue
            twin = rest.rho_arrow_twin(a)
            twin_cod = rest.arrow_cod(twin)
            for i in range(len(propositions.values[o])):
                members = _forward_closure(propositions, rest.arrow_cod(a), positions[a][i])
                if not (members[twin_cod] >> positions[twin][i]) & 1:
                    return subpresheaf(propositions, members), o, i, a
    return None


def _adversarial_detectors(propositions: Presheaf):
    """Prop 5.10 on the adversarial subfunctor of the extended propositions:
    the projectivity witnesses at its seed value, whether its natural χ
    agrees with its χ there, and its detector mismatches; None when there
    is none (no strict observable raise)."""
    adversarial = _find_adversarial_subpresheaf(propositions)
    if adversarial is None:
        return None
    candidate, obj, i, _ = adversarial
    chi = characteristic_table(candidate)
    detectors = detector_tables(candidate, chi)
    return detectors["witnesses"][obj][i], detectors["natural_chi"][obj][i] == chi[obj][i], detectors["mismatches"]


def _characteristic_rows(run: BuiltRun, verdicts: dict) -> list[dict]:
    """§5.2, Prop 5.10, Def 5.4 and Thms 5.11–5.13 on the extended true
    subobject; §5.2, Prop 5.10 and Thm 5.11 read one `detector_tables` result."""
    side = run.ext_side
    pair = (side.true_t, side.chi)
    try:
        detectors = detector_tables(*pair)
    except NotASubPresheaf as exc:
        result = dict.fromkeys(("projective", "factorization", "naturality", "pullback"), False)
        failure = {"error": str(exc)}
    else:
        result = natural_characteristic(*pair, detectors, side.omega)
        failure = {}
    title = "the extended true subobject is projective"
    rows = [_row("§5.2", title, result["projective"], **failure)]
    if failure:
        title = "projectivity and naturality detectors agree"
        rows.append(_row("Prop 5.10", title, False, **failure))
    else:
        rows.extend(_detector_rows(run, detectors, verdicts))
    rows += _verdict_rows(
        result,
        (
            (
                "Thm 5.11",
                "the fixpoint-valued characteristic map is natural and factors",
                ("projective", "factorization", "naturality"),
                {},
            ),
            ("Thm 5.12", "pullback against the fixpoint 'true' at every stage", ("pullback",), {}),
        ),
        **failure,
    )
    failure = _validate(verdicts, side.omega)
    semi = semiclassifier_check(run.nat_omega, tau_values(side.site), [pair])
    rows.append(
        _row(
            "Thm 5.13 / Props A3–A4 (♮Ω)",
            "fixpoint subfunctor is a semi-classifier: pullback and uniqueness",
            not failure and all(r["passed"] for r in semi),
            results=semi,
            **failure,
        )
    )
    return rows


def _detector_rows(run: BuiltRun, detectors: dict, verdicts: dict) -> list[dict]:
    """Prop 5.10 and Def 5.4, given the true subobject's `detector_tables`;
    the adversarial subfunctor is audited once per check for the extended
    propositions that runs share."""
    rest = run.rest
    rows = []
    mismatches = detectors["mismatches"]
    adversarial = _once(verdicts, _adversarial_detectors, run.ext_side.propositions_l)
    if adversarial is None:
        rows.append(
            _row(
                "Prop 5.10",
                "projectivity and naturality detectors agree",
                not mismatches,
                adversarial="none available (no strict observable raise)",
                mismatches=len(mismatches),
            )
        )
        return rows
    witnesses, natural_adv, adversarial_mismatches = adversarial
    mismatches = mismatches + adversarial_mismatches
    rows.append(
        _row(
            "Prop 5.10",
            "projectivity and naturality detectors agree (including an adversarial subobject)",
            not mismatches and bool(witnesses) and not natural_adv,
            adversarial="constructed",
            witness_arrows=sorted(witnesses),
            mismatches=len(mismatches),
        )
    )
    strict = [
        a
        for o in range(rest.n_objects)
        for a in rest.arrows_from(o)
        if rest.arrow_cod_rho(a) != rest.object_rho(o)
    ]
    if strict:
        pure = principal_sieve(rest, strict[0]).mask
        rows.append(
            _row(
                "Def 5.4",
                "a purely observable-raising sieve is not natural",
                bool(pure) and rest.stage(rest.arrow_dom(strict[0])).natural[pure] != pure,
            )
        )
    return rows


def _equivalence_rows(run: BuiltRun) -> list[dict]:
    plain, ext = run.plain_side, run.ext_side
    result = equivalence_check(
        run.ctx, run.universe, plain.values[plain.stage], ext.values[ext.stage]
    )
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
            propositions=len(result["rows"]),
            failures=failures,
        )
    ]


def _census_rows(run: BuiltRun) -> list[dict]:
    plain = run.plain_side
    details = {
        "omega_stage_sizes": [len(values) for values in plain.omega.values],
        "delta_stage_size": len(run.delta.values[plain.stage]),
        "floor_size": run.floors[plain.stage].mask.bit_count(),
    }
    if run.ext_side:
        # Listed alone, before the extended Ω lists every stage, so that a
        # cap hit names this stage first.
        stage = run.rest.stage(run.ext_side.stage)
        masks = stage.sieves(run.scenario.caps["sieve_enum"], run.ext_side.stage)
        details["extended_stage_size"] = len(masks)
        details["natural_stage_size"] = sum(stage.natural[m] == m for m in masks)
    return [_row("Eq 3.13", "stage census", True, **details)]


def run_check(scenario: Scenario) -> dict:
    """Run the whole battery; the report lists one row per checked statement."""
    built = build_scenario(scenario)
    # The verdicts on what runs share, each reached once (`_once`).
    verdicts: dict = {}
    rows: list[dict] = []
    rows.extend(_lattice_law_rows(built))
    rows.append(_atom_agreement_row(built))
    rows.append(_operator_monotone_row(built))
    rows.extend(_observable_order_rows(built))
    rows.extend(_atom_set_rows(built))
    for run in built.runs:
        # The run's two-valued valuation, one `bub_valuation` per distinct
        # subspace, read by Eqs 2.3–2.4 and Prop 3.2.
        two_valued = LazyTable(lambda p, e_r=run.e_r: bub_valuation(e_r, p))
        run_rows = [
            *_bub_rows(run, two_valued),
            *_plain_site_rows(run, verdicts),
            *_presheaf_rows(run, verdicts),
            *_oracle_rows(run),
            *_prop32_33_rows(run, two_valued),
            *_ib_rows(run),
            *_delta_rows(run, verdicts),
            *_heyting_audit_rows(run.plain_side, "plain", verdicts),
            _restriction_row(run),
            *_census_rows(run),
        ]
        if run.ext_side:
            run_rows += _extended_site_rows(run, verdicts)
            run_rows += _heyting_audit_rows(run.ext_side, "extended", verdicts)
            run_rows += _bridge_rows(run, verdicts)
            run_rows += _characteristic_rows(run, verdicts)
            run_rows += _equivalence_rows(run)
        for row in run_rows:
            row["run"] = run.spec.name
        rows += run_rows
    return {
        "scenario": scenario.name,
        "dimension": scenario.dimension,
        "truncation": truncation_summary(built),
        "rows": rows,
        "passed": all(r["passed"] for r in rows),
    }
