"""Negative controls: each row can fail.

A row that says a statement holds shows something only if it fails when the
statement does not.  Each control swaps one function that `checks` reads for
a doctored one, runs `run_check` on a bundled scenario, and pins the exact
set of (tag, run) rows that fail, so a control that starts failing another
row, or stops failing its own, is noticed.  Each also asserts that the
doctored function was called, so a row that stops reading it is noticed too.
Undoctored, the same scenarios pass every row (`tests/test_golden.py`).

The controls cover the rows that read the lattice of subspaces and the
observables' answers, §2, Eqs 2.1, 2.3, 2.4, 4.1 and 4.15 and Props B1 and B2
(§2 and Eq 2.4 read a sublattice's meet table, doctored to answer e1 ∧ e2
as the unit: the generated sublattice for §2, each run's determinate one
for Eq 2.4; Eq 2.3 has a second control, an ortho table that fixes e1,
which fails its atom dichotomy alone),
the rows that read operators of the monoid, Eq 3.6 (a commutant less one
operator), §4.1 (a full extended site less one fixed-observable arrow)
and §4.1 reachability, the plain-stage rows that read `top_sieve`,
`is_sieve` and `ib_condition_check`, Props 3.2 and 3.3 and the IB
conditions, and the rows that read a cut of a presheaf: the true
subobject T of the propositions on either side of a run (Eqs 3.21, 3.35
and 4.27, diagram 3.24, §5.2) and the fixpoint subfunctor ♮Ω of the
extended classifier (Prop 5.7/Thm 5.8, Prop C1, Thm 5.13).  Eight more
controls cover rows that read sieve masks.  Six are doctored through
`build_scenario`: Eq 3.56 (a restriction that lost an arrow), Prop 5.14 /
diagram 5.30 (extended values listed against the wrong propositions), and
four bridge rows, each through a table or value of the bridge's extended
stage, on a build whose extended sites keep their stages apart from the
plain sites' (where the two sides' tables are equal a build reads one
stage for both): Props 5.1/5.2 (a top mask past the arrows), Prop 5.3
(a round trip that does not deflate), Prop 5.5 (a round trip with one
fixpoint too many) and Eq 5.6 (an implication too large); a second
Props 5.1/5.2 control gives each run's bridge context a `flat` table that
sends one fixed arrow to the wrong plain arrow.  Eq 5.4 and
Def 5.4 alone read `sharp` and `principal_sieve` from `checks`.  Two controls doctor a
function of `runner`: a product table that breaks associativity fails §3.1
and Eq 4.9, and an atom functor with one wrong image, on an arrow that is a
composite of two other arrows, fails Eq 3.9 or Eq 4.17 with a
functoriality failure; a proposition functor with one wrong image there
fails Eq 3.11 or Eq 4.19.  Five more are doctored through `build_scenario`
or `atom_global_element`: Eq 3.2 (an identity action that swaps {0} and
I), Prop 3.1 and Eq 4.25 (a section with another atom at its last stage),
Thm 3.6 and Prop 3.5 (a floor raised to the top sieve), and Prop 3.4 and
§3.4 (δΩ with the empty sieve above a nonempty floor).  A tag that another
tag's control fails too reuses that control.  A row that no input can fail
is listed, with its reason, in `CANNOT_FAIL`, and every tag of the bundled
reports is in one of the two tables.
"""

import pytest

from sieveval import (
    bundled_scenario_names,
    bundled_scenario_path,
    checks,
    diagonal_matrix,
    full_space,
    load_scenario,
    runner,
    subspace_from_vectors,
)
from sieveval.scenario import scenario_from_dict
from sieveval.sieves import (
    GlobalElement,
    LazyTable,
    Presheaf,
    Sieve,
    bottom_sieve,
    nibble_table,
    subpresheaf,
    top_sieve,
)
from sieveval.sites import ExtendedSite, OperatorMonoid
from sieveval.subspaces import Sublattice, generate_sublattice, ortho
from test_lattice_laws import with_table_entry


def span(*vectors):
    return subspace_from_vectors(len(vectors[0]), list(vectors))


def wrong_projector(projector_matrix):
    """The projector onto e1 replaced by the projector onto its complement."""
    e1 = span([1, 0])
    return lambda r: projector_matrix(ortho(r) if r is e1 else r)


def wrong_meet(sublattice):
    """Each sublattice's meet table answers e1 ∧ e2 as the unit instead of {0}."""
    e1, e2 = span([1, 0]), span([0, 1])
    return lambda *args: with_table_entry(sublattice(*args), "meets", e1, e2, full_space(2))


def outsider_in_sublattice(enumerate_determinate_sublattice):
    """Each run's determinate sublattice closed again with the ray (1, 1)
    added, which is neither above nor orthogonal to the run's atom."""
    plus = span([1, 1])
    return lambda atoms, cap, extra=(): generate_sublattice(
        [*enumerate_determinate_sublattice(atoms, cap, extra), plus], cap
    )


def ortho_fixes_e1(enumerate_determinate_sublattice):
    """Each run's determinate sublattice with an ortho table that maps e1 to
    itself; its members and its join and meet tables are unchanged."""
    e1 = span([1, 0])

    def doctored(atoms, cap, extra=()):
        lattice = enumerate_determinate_sublattice(atoms, cap, extra)
        i = lattice.members.index(e1)
        orthos = lattice.orthos[:i] + (i,) + lattice.orthos[i + 1 :]
        return Sublattice(lattice.members, lattice.joins, lattice.meets, orthos)

    return doctored


def irreflexive_order(observable_leq):
    """No observable refines itself."""
    return lambda a, b: a is not b and observable_leq(a, b)


def no_unit_commutant(in_commutant):
    """The trivial observable, the coarsest, commutes with nothing."""
    return lambda f, observable: observable.name != "unit" and in_commutant(f, observable)


def shrunken_atom_set(zero_augmented_atom_set):
    """The `coarse` observable's atom sets lose their first nonzero atom."""

    def doctored(ray, observable):
        atoms = zero_augmented_atom_set(ray, observable)
        if observable.name != "coarse":
            return atoms
        nonzero = sorted((a for a in atoms if not a.is_zero), key=lambda a: a.rows)
        return atoms - {nonzero[0]}

    return doctored


def grown_atom_set(zero_augmented_atom_set):
    """The `coarse` observable's atom sets gain the ray's complement, which
    no finer atom set holds."""

    def doctored(ray, observable):
        atoms = zero_augmented_atom_set(ray, observable)
        return atoms | {ortho(ray)} if observable.name == "coarse" else atoms

    return doctored


def commutant_less_operator_one(commutant):
    """Every commutant less the monoid's operator 1, which on `qubit`
    acts nonzero (the last operator there is the zero matrix)."""
    return lambda monoid, observable: tuple(op for op in commutant(monoid, observable) if op != 1)


def top_sieve_past_the_arrows(top_sieve):
    """Each top sieve gains a bit past the last arrow out of its object."""

    def doctored(site, obj):
        top = top_sieve(site, obj)
        return Sieve(top.base, top.mask | 1 << top.mask.bit_length())

    return doctored


def empty_not_a_sieve(is_sieve):
    """The empty mask, the bottom sieve, is not a sieve."""
    return lambda site, s: bool(s.mask) and is_sieve(site, s)


def unit_valued_as_floor(ib_condition_check):
    """The IB conditions read the unit proposition valued as the floor."""

    def doctored(site, obj, r, universe, row, floor):
        row = list(row)
        row[universe.position[full_space(r.ambient_dim)]] = floor
        return ib_condition_check(site, obj, r, universe, row, floor)

    return doctored


def without_arrows(site, dropped):
    """The site rebuilt without the arrows in `dropped`."""
    arrows = tuple(a for a in site.arrows if a not in dropped)
    return type(site)(site.observables, site.monoid, site.rays, site.objects, arrows, site.rho_leq)


def finer_stages_with_projectors(full):
    """The (object, finer observable index) pairs at which §4.1 reachability
    asks for an arrow: every eigenprojector of the finer observable is an
    operator of the monoid.  Read as `checks` reads it, so that the pairs
    are found only while equal matrices are one object."""
    operators = set(full.monoid.elements)
    return [
        (n, k2)
        for n, (_, k) in enumerate(full.objects)
        for k2 in range(len(full.observables))
        if k2 != k
        and full.rho_leq[k][k2]
        and all(checks.projector_matrix(r) in operators for r in full.observables[k2].eigenspaces)
    ]


def fixed_arrow_missing(run):
    """The full extended site loses its last arrow that stays at its
    observable, is no identity and is the composite of no two other arrows,
    so composition stays closed."""
    full = run.extended_full
    if full is None:
        return
    composites = {
        gf
        for f in range(len(full.arrows))
        for g in full.arrows_from(full.arrow_cod(f))
        if f != (gf := full.compose(g, f)) != g
    }
    fixed = [
        a
        for a, arrow in enumerate(full.arrows)
        if full.arrow_cod_rho(a) == full.object_rho(arrow.dom)
        and a != full.identity_arrow(arrow.dom)
        and a not in composites
    ]
    run.extended_full = without_arrows(full, {full.arrows[fixed[-1]]})


def finer_stage_unreached(run):
    """The full extended site loses every arrow into one finer stage whose
    projectors are present, from the first object that asks for one and
    from each object it reaches outside that stage, so composition stays
    closed."""
    full = run.extended_full
    if full is None:
        return
    start, finer = finer_stages_with_projectors(full)[0]
    reached, frontier, dropped = {start}, [start], set()
    while frontier:
        for a in full.arrows_from(frontier.pop()):
            arrow = full.arrows[a]
            if full.arrow_cod_rho(a) == finer:
                dropped.add(arrow)
            elif arrow.cod not in reached:
                reached.add(arrow.cod)
                frontier.append(arrow.cod)
    run.extended_full = without_arrows(full, dropped)


def less_one_image(n):
    """The cut n less one value it holds that is the image, along the first
    arrow between two objects, of another value it holds: a cut of the same
    parent that is not closed."""
    parent, held = n.parent, list(n.held)
    site = parent.site
    for a, table in enumerate(parent.positions):
        dom, cod = site.arrow_dom(a), site.arrow_cod(a)
        if dom == cod:
            continue
        for i, j in enumerate(table):
            if (held[dom] >> i) & 1 and j is not None and (held[cod] >> j) & 1:
                held[cod] &= ~(1 << j)
                return subpresheaf(parent, held)
    raise AssertionError("no image to drop")


def plus_non_natural(nat_omega):
    """♮Ω plus the first sieve of Ω that it lacks and that holds an
    observable-raising arrow (so no round trip fixes it), where there is one."""
    omega, held = nat_omega.parent, list(nat_omega.held)
    site = omega.site
    for o, stage in enumerate(omega.values):
        arrows = site.arrows_from(o)
        for i, s in enumerate(stage):
            if not (held[o] >> i) & 1 and any(site.arrow_cod_rho(arrows[j]) != site.object_rho(o) for j in s):
                held[o] |= 1 << i
                return subpresheaf(omega, held)
    return nat_omega


def after_build(change):
    """A doctor of `build_scenario` that applies `change` to the built scenario."""

    def doctor(build_scenario):
        def doctored(scenario):
            built = build_scenario(scenario)
            change(built)
            return built

        return doctored

    return doctor


def each_run(change):
    """A doctor of `build_scenario` that applies `change` to each built run."""

    def change_each(built):
        for run in built.runs:
            change(run)

    return after_build(change_each)


def extended_sites_apart(build_scenario):
    """`build_scenario` with each extended site on a stage table of its own.

    A build reads one stage for every object with the same composition
    table and fixed arrows (`Site.stage`).  At a run's finest observable
    every arrow out of the bridge's extended stage stays there, so that
    stage is the plain stage of the same ray, and a doctor of it would
    doctor the plain side too."""

    def doctored(scenario):
        shared = runner.build_site

        def apart(cls, observables, monoid, walk, cap, stages=None):
            return shared(cls, observables, monoid, walk, cap, None if cls is ExtendedSite else stages)

        runner.build_site = apart
        try:
            return build_scenario(scenario)
        finally:
            runner.build_site = shared

    return doctored


def each_run_apart(change):
    """`each_run(change)` on a build whose extended sites keep their stages
    apart from the plain sites' (`extended_sites_apart`)."""
    doctor = each_run(change)
    return lambda build_scenario: doctor(extended_sites_apart(build_scenario))


def identity_swaps_zero_and_unit(built):
    """The identity operator's action row sends {0} to I and I to {0}."""
    identity = built.monoid.elements[built.monoid.identity_index]
    action = built.universe.action
    row = list(action[identity])
    row[0], row[1] = row[1], row[0]
    built.universe.action = {**action, identity: tuple(row)}


def other_atom_at_last_stage(section):
    """The section with its value at the last stage traded: the zero atom
    for the first nonzero atom there, a nonzero atom for the zero atom."""
    values = list(section.values)
    values[-1] = next(x for x in section.presheaf.values[-1] if x.is_zero != values[-1].is_zero)
    return GlobalElement(section.presheaf, tuple(values))


def section_other_atom_at_last_stage(atom_global_element):
    """Each eigenspace section `checks` builds, by `other_atom_at_last_stage`."""
    return lambda site, atoms, r: other_atom_at_last_stage(atom_global_element(site, atoms, r))


def extended_sigma_other_atom_at_last_stage(run):
    if run.ext_side is not None:
        run.ext_side.sigma = other_atom_at_last_stage(run.ext_side.sigma)


def floor_to_top(run):
    """The floor at the last plain object other than the run's stage becomes
    that object's top sieve."""
    o = max(o for o in range(run.plain.n_objects) if o != run.plain_side.stage)
    floors = list(run.floors)
    floors[o] = top_sieve(run.plain, o)
    run.floors = tuple(floors)


def delta_with_empty_sieve(run):
    """δΩ re-cut from Ω with the empty sieve added at the first stage whose
    floor is nonempty, where the floor is then not the stage's bottom."""
    delta = run.delta
    omega, held = delta.parent, list(delta.held)
    o = next(o for o, floor in enumerate(run.floors) if floor.mask)
    held[o] |= 1 << omega.index[o][bottom_sieve(o)]
    run.delta = subpresheaf(omega, held)


def plain_true_less_one_image(run):
    side = run.plain_side
    side.true_t = less_one_image(side.true_t)


def extended_true_less_one_image(run):
    side = run.ext_side
    if side is not None:
        side.true_t = less_one_image(side.true_t)


def extended_true_adversarial(run):
    """The extended T replaced by Prop 5.10's adversarial cut, where one is found."""
    adversarial = checks._find_adversarial_subpresheaf(run.ext_side.propositions_l) if run.ext_side is not None else None
    if adversarial is not None:
        run.ext_side.true_t = adversarial[0]


def restriction_less_one_arrow(run):
    """Eq 3.56's site below the run's stage loses the last arrow out of the stage."""
    stage = run.plain_side.stage
    below = run.plain_below[stage]
    last = below.arrows_from(below.ray_index(run.state.space))[-1]
    run.plain_below = {stage: without_arrows(below, {below.arrows[last]})}


def unfixed_to_top(run):
    """At the bridge's extended stage, ♮ sends each sieve it does not fix to
    the top sieve: the same fixpoints, but no deflation."""
    if run.ext_side is not None:
        stage = run.rest.stage(run.ext_side.stage)
        natural = stage.natural
        stage.natural = LazyTable(lambda m: natural[m] if natural[m] == m else stage.top)


def bridge_stage(run):
    """The extended stage of the run's bridge, or None on a run without a family."""
    return run.rest.stage(run.ext_side.stage) if run.ext_side is not None else None


def top_past_the_arrows(run):
    """At the bridge's extended stage, the top mask gains a bit past the last
    arrow, so the lift of the plain top is no longer the top."""
    stage = bridge_stage(run)
    if stage is not None:
        stage.top |= 1 << stage.top.bit_length()


def flat_bit_misread(run):
    """The bridge context's `flat` table reads its first fixed arrow as the
    last plain arrow, every other fixed arrow as its own: a bit map that is
    no longer one-to-one, so it loses meets."""
    ctx = run.ctx
    if ctx is not None:
        images = [0] * (ctx.fixed[-1] + 1)
        for i, j in enumerate(ctx.fixed):
            images[j] = 1 << i
        images[ctx.fixed[0]] = 1 << len(ctx.fixed) - 1
        run.ctx = ctx._replace(flat_mask=nibble_table(images))


def one_more_fixpoint(run):
    """At the bridge's extended stage, ♮ fixes the last listed sieve that it
    does not fix, which no plain sieve sharpens to."""
    stage = bridge_stage(run)
    if stage is not None:
        natural = stage.natural
        listed = run.ext_side.omega.values[run.ext_side.stage]
        unfixed = [s.mask for s in listed if natural[s.mask] != s.mask]
        if unfixed:
            stage.natural = LazyTable(lambda m: m if m == unfixed[-1] else natural[m])


def implies_to_top(run):
    """At the bridge's extended stage, s ⇒ t is the top sieve wherever s is
    not below t, so it flattens above the plain implication."""
    stage = bridge_stage(run)
    if stage is not None:
        implies = stage.implies
        stage.implies = LazyTable(lambda y: stage.top if y else implies[y])


def extended_values_reversed(run):
    """The extended values at the bridge stage listed in reverse proposition order."""
    side = run.ext_side
    if side is not None:
        values = list(side.values)
        values[side.stage] = values[side.stage][::-1]
        side.values = tuple(values)


def sharp_less_its_first_arrow(sharp):
    """The closed-form sharp less the first arrow it holds."""

    def doctored(ctx, s):
        image = sharp(ctx, s)
        return Sieve(image.base, image.mask & (image.mask - 1))

    return doctored


def twin_principal(principal_sieve):
    """The principal sieve of an arrow's fixed-observable twin in its place."""
    return lambda site, arrow: principal_sieve(site, site.rho_arrow_twin(arrow))


def natural_omega_doctor(change):
    """A doctor of `build_scenario` that replaces ♮Ω, once per extended site,
    by `change(♮Ω)`; runs on one site share its ♮Ω."""

    def change_shared(built):
        shared = {id(run.ext_side.functors): run.ext_side.functors for run in built.runs if run.ext_side}
        for functors in shared.values():
            functors.nat_omega = change(functors.nat_omega)

    return after_build(change_shared)


def p2_squared_negated(close_monoid):
    """p2·p2 answered as −p2, so that (p2·p2)·x and p2·(p2·x) differ where
    x negates: every other product, and every element, is kept."""

    def doctored(generators, cap, *, dim=None):
        monoid = close_monoid(generators, cap, dim=dim)
        p2 = monoid.elements.index(diagonal_matrix([0, 1]))
        table = [list(row) for row in monoid.table]
        table[p2][p2] = monoid.elements.index(diagonal_matrix([0, -1]))
        table = tuple(map(tuple, table))
        return OperatorMonoid(monoid.elements, monoid.identity_index, table)

    return doctored


def composites(site):
    """Each arrow g∘f, in order of f and then g, where neither f nor g is an
    identity and g∘f is neither of them."""
    identities = {site.identity_arrow(o) for o in range(site.n_objects)}
    for f in range(len(site.arrows)):
        for g in site.arrows_from(site.arrow_cod(f)):
            gf = site.compose(g, f)
            if not identities & {f, g} and gf not in (f, g):
                yield gf


def with_entry(presheaf, a, i, j):
    """The presheaf with arrow a's table sending position i to position j."""
    positions = list(presheaf.positions)
    table = list(positions[a])
    table[i] = j
    positions[a] = tuple(table)
    return Presheaf(presheaf.site, presheaf.values, tuple(positions), presheaf.index)


def on_sites_of(kind, change):
    """A doctor of a presheaf builder that, on sites of class `kind`, applies
    `change(site, presheaf)` to what it builds."""

    def doctor(build):
        def doctored(site, *args):
            presheaf = build(site, *args)
            return change(site, presheaf) if type(site).__name__ == kind else presheaf

        return doctored

    return doctor


def zero_atom_misplaced(site, atoms):
    """The zero atom sent along one arrow to the first nonzero atom of its
    codomain stage: the first of the `composites` whose domain stage holds
    the zero atom, where there is one.  The entry is a position of the
    codomain stage and no identity's, so only functoriality can fail."""
    for gf in composites(site):
        zero = [i for i, x in enumerate(atoms.values[site.arrow_dom(gf)]) if x.is_zero]
        nonzero = [i for i, x in enumerate(atoms.values[site.arrow_cod(gf)]) if not x.is_zero]
        if zero and nonzero:
            return with_entry(atoms, gf, zero[0], nonzero[0])
    return atoms


def proposition_moved_to_unit(site, propositions):
    """A proposition that is neither {0} nor I, and whose image is neither,
    sent to I: the first such of the first of the `composites` that has one,
    where there is one."""
    for gf in composites(site):
        i = next((i for i, j in enumerate(propositions.positions[gf]) if i > 1 and j > 1), None)
        if i is not None:
            return with_entry(propositions, gf, i, 1)
    return propositions


def rows_on(runs, *tags):
    """The (tag, run) rows of each tag on each run."""
    return {(tag, run) for tag in tags for run in runs}


PLAIN_TRUE_LESS_ONE_IMAGE = (
    "qubit",
    "build_scenario",
    each_run(plain_true_less_one_image),
    rows_on(
        ("z-up", "z-down"),
        "Eq 3.12",
        "Eq 3.21",
        "Eq 3.21 = Eq 3.37",
        "Eq 3.35",
        "diagram 3.24",
        "Props A3–A4 (δΩ)",
    )
    | {("Eqs 3.26–3.27", "z-down")},
)
P2_SQUARED_NEGATED = (
    "qubit_complex",
    "runner.close_monoid",
    p2_squared_negated,
    rows_on(("z-up", "z-down", "coarse"), "§3.1") | {("Eq 4.9", "coarse")},
)
EXTENDED_TRUE_LESS_ONE_IMAGE = (
    "qubit_extended",
    "build_scenario",
    each_run(extended_true_less_one_image),
    rows_on(
        ("coarse", "fine"),
        "Eq 4.27",
        "Eq 4.28",
        "Prop 5.10",
        "Thm 5.11",
        "Thm 5.12",
        "Thm 5.13 / Props A3–A4 (♮Ω)",
        "§5.2",
    ),
)
EXTENDED_TRUE_ADVERSARIAL = (
    "qubit_extended",
    "build_scenario",
    each_run(extended_true_adversarial),
    rows_on(("coarse",), "§5.2", "Eq 4.26", "Eq 4.28", "Thm 5.11", "Thm 5.13 / Props A3–A4 (♮Ω)"),
)
ONE_MORE_FIXPOINT = (
    "qubit_extended",
    "build_scenario",
    each_run_apart(one_more_fixpoint),
    rows_on(
        ("coarse",),
        "Prop 5.5",
        "Thm 5.6",
        "Eq 5.17",
        "Prop 5.7/Thm 5.8",
        "Prop C1",
        "Thm 5.13 / Props A3–A4 (♮Ω)",
    ),
)
EMPTY_NOT_A_SIEVE = (
    "qubit",
    "is_sieve",
    empty_not_a_sieve,
    rows_on(("z-up", "z-down"), "Prop 3.3", "§3.1 Heyting"),
)
FLOOR_TO_TOP = (
    "qubit",
    "build_scenario",
    each_run(floor_to_top),
    rows_on(("z-down",), "Thm 3.6", "Prop 3.3", "Prop 3.5", "Props A3–A4 (δΩ)"),
)
DELTA_WITH_EMPTY_SIEVE = (
    "qubit",
    "build_scenario",
    each_run(delta_with_empty_sieve),
    rows_on(("z-up", "z-down"), "Prop 3.4", "Prop 3.5", "Props A3–A4 (δΩ)", "§3.4"),
)
NATURAL_OMEGA_LESS_ONE_IMAGE = (
    "qubit_extended",
    "build_scenario",
    natural_omega_doctor(less_one_image),
    rows_on(("coarse", "fine"), "Prop 5.7/Thm 5.8", "Thm 5.13 / Props A3–A4 (♮Ω)"),
)

# tag -> (scenario, the function of `checks`, or of the module it names,
# doctored, doctor, the failing (tag, run) rows)
CONTROLS = {
    "§3.1": P2_SQUARED_NEGATED,
    "Eq 4.9": P2_SQUARED_NEGATED,
    "Eq 3.2": ("qubit", "build_scenario", after_build(identity_swaps_zero_and_unit), {("Eq 3.2", None)}),
    "Eq 3.11": (
        "qubit_complex",
        "runner.proposition_presheaf",
        on_sites_of("PlainSite", proposition_moved_to_unit),
        rows_on(("z-up", "z-down", "coarse"), "Eq 3.11") | {("Eq 3.35", "z-down")},
    ),
    "Eq 4.19": (
        "qubit_extended",
        "runner.proposition_presheaf",
        on_sites_of("ExtendedSite", proposition_moved_to_unit),
        {("Eq 4.19", "coarse")},
    ),
    "Prop 3.1": (
        "qubit",
        "atom_global_element",
        section_other_atom_at_last_stage,
        rows_on(("z-up", "z-down"), "Prop 3.1"),
    ),
    "Eq 4.25": (
        "qubit_extended",
        "build_scenario",
        each_run(extended_sigma_other_atom_at_last_stage),
        rows_on(("coarse", "fine"), "Eq 4.25"),
    ),
    "Thm 3.6": FLOOR_TO_TOP,
    "Prop 3.5": FLOOR_TO_TOP,
    "Prop 3.4": DELTA_WITH_EMPTY_SIEVE,
    "§3.4": DELTA_WITH_EMPTY_SIEVE,
    "Eq 3.9": (
        "qubit_complex",
        "runner.atom_presheaf",
        on_sites_of("PlainSite", zero_atom_misplaced),
        rows_on(("z-up", "z-down", "coarse"), "Eq 3.9"),
    ),
    "Eq 4.17": (
        "qubit_extended",
        "runner.atom_presheaf",
        on_sites_of("ExtendedSite", zero_atom_misplaced),
        {("Eq 4.17", "coarse")},
    ),
    "Eq 2.1": ("qubit", "projector_matrix", wrong_projector, {("Eq 2.1", None)}),
    "Eq 3.6": ("qubit", "commutant", commutant_less_operator_one, rows_on(("z-up", "z-down"), "Eq 3.6")),
    "Prop 3.2": ("qubit", "top_sieve", top_sieve_past_the_arrows, rows_on(("z-up", "z-down"), "Prop 3.2")),
    "Prop 3.3": EMPTY_NOT_A_SIEVE,
    "§3.1 Heyting": EMPTY_NOT_A_SIEVE,
    "Eqs 3.28–3.30, 3.44–3.45": (
        "qubit",
        "ib_condition_check",
        unit_valued_as_floor,
        rows_on(("z-up", "z-down"), "Eqs 3.28–3.30, 3.44–3.45"),
    ),
    "Eq 2.3": (
        "qubit",
        "enumerate_determinate_sublattice",
        outsider_in_sublattice,
        {("Eq 2.3", "z-up"), ("Eq 2.3", "z-down"), ("Eq 2.4", "z-up"), ("Eq 2.4", "z-down")},
    ),
    "Eq 2.4": (
        "qubit",
        "enumerate_determinate_sublattice",
        wrong_meet,
        rows_on(("z-up", "z-down"), "Eq 2.4"),
    ),
    "§2": ("qubit", "generate_sublattice", wrong_meet, {("§2", None)}),
    "Eq 4.1": ("qutrit_extended", "observable_leq", irreflexive_order, {("Eq 4.1", None)}),
    "Eq 4.15": ("qutrit_extended", "in_commutant", no_unit_commutant, {("Eq 4.15", None)}),
    "§4.1": (
        "qubit_extended",
        "build_scenario",
        each_run(fixed_arrow_missing),
        {("§4.1", "coarse"), ("§4.1", "fine")},
    ),
    "§4.1 reachability": (
        "qubit_extended",
        "build_scenario",
        each_run(finer_stage_unreached),
        {("§4.1 reachability", "coarse"), ("§4.1 reachability", "fine")},
    ),
    "Prop B1": (
        "qutrit_extended",
        "zero_augmented_atom_set",
        shrunken_atom_set,
        {("Prop B1", None), ("Prop B2", None)},
    ),
    "Prop B2": (
        "qutrit_extended",
        "zero_augmented_atom_set",
        grown_atom_set,
        {("Prop B1", None), ("Prop B2", None)},
    ),
    "Eq 3.12": PLAIN_TRUE_LESS_ONE_IMAGE,
    "Eq 3.21": PLAIN_TRUE_LESS_ONE_IMAGE,
    "Eq 3.21 = Eq 3.37": PLAIN_TRUE_LESS_ONE_IMAGE,
    "Eq 3.35": PLAIN_TRUE_LESS_ONE_IMAGE,
    "diagram 3.24": PLAIN_TRUE_LESS_ONE_IMAGE,
    "Props A3–A4 (δΩ)": PLAIN_TRUE_LESS_ONE_IMAGE,
    "Eqs 3.26–3.27": PLAIN_TRUE_LESS_ONE_IMAGE,
    "Eq 4.27": EXTENDED_TRUE_LESS_ONE_IMAGE,
    "Eq 4.28": EXTENDED_TRUE_LESS_ONE_IMAGE,
    "Prop 5.10": EXTENDED_TRUE_LESS_ONE_IMAGE,
    "Thm 5.11": EXTENDED_TRUE_LESS_ONE_IMAGE,
    "Thm 5.12": EXTENDED_TRUE_LESS_ONE_IMAGE,
    "§5.2": EXTENDED_TRUE_ADVERSARIAL,
    "Eq 4.26": EXTENDED_TRUE_ADVERSARIAL,
    "Prop 5.7/Thm 5.8": NATURAL_OMEGA_LESS_ONE_IMAGE,
    "Thm 5.13 / Props A3–A4 (♮Ω)": NATURAL_OMEGA_LESS_ONE_IMAGE,
    "Prop C1": (
        "qubit_extended",
        "build_scenario",
        natural_omega_doctor(plus_non_natural),
        rows_on(("coarse",), "Prop 5.7/Thm 5.8", "Prop C1", "Thm 5.13 / Props A3–A4 (♮Ω)"),
    ),
    "Eq 3.56": (
        "qubit",
        "build_scenario",
        each_run(restriction_less_one_arrow),
        rows_on(("z-up", "z-down"), "Eq 3.56"),
    ),
    "Prop 5.3": ("qubit_extended", "build_scenario", each_run_apart(unfixed_to_top), {("Prop 5.3", "coarse")}),
    "Prop 5.14 / diagram 5.30": (
        "qubit_extended",
        "build_scenario",
        each_run(extended_values_reversed),
        rows_on(("coarse", "fine"), "Eq 4.28", "Prop 5.14 / diagram 5.30"),
    ),
    "Prop 5.1/5.2": (
        "qubit_extended",
        "build_scenario",
        each_run_apart(top_past_the_arrows),
        rows_on(("coarse", "fine"), "Prop 5.1/5.2", "Thm 5.12", "Thm 5.13 / Props A3–A4 (♮Ω)"),
    ),
    "Prop 5.5": ONE_MORE_FIXPOINT,
    "Thm 5.6": ONE_MORE_FIXPOINT,
    "Eq 5.17": ONE_MORE_FIXPOINT,
    "Eq 5.6": (
        "qubit_extended",
        "build_scenario",
        each_run_apart(implies_to_top),
        rows_on(("coarse", "fine"), "Eq 5.6", "§3.1 Heyting"),
    ),
    "Eq 5.4": ("qubit_extended", "sharp", sharp_less_its_first_arrow, rows_on(("coarse", "fine"), "Eq 5.4")),
    "Def 5.4": ("qubit_extended", "principal_sieve", twin_principal, {("Def 5.4", "coarse")}),
}


# tag -> the error its failing rows report, where the control pins one
FIRST_FAILURE = {"Eq 3.9": "functoriality failure", "Eq 4.17": "functoriality failure"}

# tag -> why no doctored input fails its row
CANNOT_FAIL = {
    "Eq 3.13": "the stage census reports sizes, and `_census_rows` passes it by construction",
}


def failing_rows(name):
    """The failing (tag, run) rows of a check, each with its `error` detail or None."""
    report = checks.run_check(load_scenario(bundled_scenario_path(name)))
    return {
        (row["tag"], row["run"]): row.get("details", {}).get("error") for row in report["rows"] if not row["passed"]
    }


@pytest.mark.parametrize("tag", sorted(CONTROLS))
def test_a_doctored_function_fails_its_row(tag, monkeypatch):
    assert_control_fails(tag, CONTROLS[tag], monkeypatch)


def test_an_ortho_table_that_fixes_a_member_fails_the_atom_dichotomy_alone(monkeypatch):
    """Eq 2.3's own control fails its membership clause first, so this one
    keeps every member and breaks only the atom dichotomy: e1 is its own
    orthocomplement in the table, so the atom lies below both or neither."""
    control = (
        "qubit",
        "enumerate_determinate_sublattice",
        ortho_fixes_e1,
        rows_on(("z-up", "z-down"), "Eq 2.3"),
    )
    assert_control_fails("Eq 2.3", control, monkeypatch)


def test_a_flat_table_with_one_wrong_bit_fails_props_5_1_5_2(monkeypatch):
    """Beside the top-mask control of Props 5.1/5.2: the bridge reads `flat`
    from its context's table, so a table that sends one fixed arrow to the
    wrong plain arrow must fail the bridge rows that flatten: the audit's
    Props 5.1/5.2, 5.3, 5.5, Eq 5.6 and Thm 5.6, and the flattened values
    of Prop 5.14.  Eq 5.4 reads no flat, and Eq 5.17 still holds."""
    control = (
        "qubit_extended",
        "build_scenario",
        each_run(flat_bit_misread),
        rows_on(
            ("coarse", "fine"),
            "Prop 5.1/5.2",
            "Prop 5.3",
            "Prop 5.5",
            "Eq 5.6",
            "Thm 5.6",
            "Prop 5.14 / diagram 5.30",
        ),
    )
    assert_control_fails("Prop 5.1/5.2", control, monkeypatch)


def assert_control_fails(tag, control, monkeypatch):
    """Run the control's scenario with its function doctored, and require
    exactly its pinned failing rows, among them a row of `tag`."""
    scenario, attribute, doctor, expected = control
    owner, _, attribute = attribute.rpartition(".")
    module = {"": checks, "runner": runner}[owner]
    doctored = doctor(getattr(module, attribute))
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return doctored(*args, **kwargs)

    monkeypatch.setattr(module, attribute, counted)
    failing = failing_rows(scenario)
    assert calls
    assert tag in {row_tag for row_tag, _ in expected}
    assert failing.keys() == expected
    if tag in FIRST_FAILURE:
        assert set(failing.values()) == {FIRST_FAILURE[tag]}


def test_a_row_that_cannot_fail_is_reported_and_has_no_control():
    report = checks.run_check(load_scenario(bundled_scenario_path("qubit")))
    assert CANNOT_FAIL.keys() <= {row["tag"] for row in report["rows"]}
    assert not CANNOT_FAIL.keys() & CONTROLS.keys()


def test_every_tag_of_the_bundled_reports_has_a_control_or_cannot_fail():
    tags = {
        row["tag"]
        for name in bundled_scenario_names()
        for row in checks.run_check(load_scenario(bundled_scenario_path(name)))["rows"]
    }
    assert len(tags) == 56
    assert CONTROLS.keys() | CANNOT_FAIL.keys() == tags


def test_reachability_asks_for_arrows_on_the_chain(workloads):
    """On `chain_scenario(13, 4)` the §4.1 reachability row meets finer
    stages whose projectors are present, so it checks arrows there rather
    than passing with nothing to check."""
    built = checks.build_scenario(scenario_from_dict(workloads.chain_scenario(13, 4)))
    extended = [run.extended_full for run in built.runs if run.extended_full is not None]
    assert extended
    assert all(finer_stages_with_projectors(full) for full in extended)
