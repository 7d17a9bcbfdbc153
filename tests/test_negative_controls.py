"""Negative controls: each row can fail.

A row that says a statement holds shows something only if it fails when the
statement does not.  Each control swaps one function that `checks` reads for
a doctored one, runs `run_check` on a bundled scenario, and pins the exact
set of (tag, run) rows that fail, so a control that starts failing another
row, or stops failing its own, is noticed.  Each also asserts that the
doctored function was called, so a row that stops reading it is noticed too.
Undoctored, the same scenarios pass every row (`tests/test_golden.py`).

The controls cover the rows that read the lattice of subspaces and the
observables' answers, Eqs 2.1, 2.3, 2.4, 4.1 and 4.15 and Props B1 and B2,
the two extended-site rows that read operators by matrix, §4.1 and
§4.1 reachability, and the rows that read a cut of a presheaf: the true
subobject T of the propositions on either side of a run (Eqs 3.21, 3.35
and 4.27, diagram 3.24, §5.2) and the fixpoint subfunctor ♮Ω of the
extended classifier (Prop 5.7/Thm 5.8, Prop C1, Thm 5.13).  Eight more
controls cover rows that read sieve masks.  Six are doctored through
`build_scenario`: Eq 3.56 (a restriction that lost an arrow), Prop 5.14 /
diagram 5.30 (extended values listed against the wrong propositions), and
four bridge rows, each through a table or value of the bridge's extended
stage: Props 5.1/5.2 (a top mask past the arrows), Prop 5.3 (a round trip
that does not deflate), Prop 5.5 (a round trip with one fixpoint too
many) and Eq 5.6 (an implication too large).  Eq 5.4 and Def 5.4 alone
read `sharp` and `principal_sieve` from `checks`.
"""

import pytest

from sieveval import bundled_scenario_path, checks, load_scenario, subspace_from_vectors
from sieveval.scenario import scenario_from_dict
from sieveval.sieves import LazyTable, Sieve, subpresheaf
from sieveval.subspaces import ortho


def span(*vectors):
    return subspace_from_vectors(len(vectors[0]), list(vectors))


def wrong_projector(projector_matrix):
    """The projector onto e1 replaced by the projector onto its complement."""
    e1 = span([1, 0])
    return lambda r: projector_matrix(ortho(r) if r is e1 else r)


def wrong_meet(meet):
    """e1 ∧ e2 answered as e1 instead of {0}."""
    e1, e2 = span([1, 0]), span([0, 1])
    return lambda p, q: p if {p, q} == {e1, e2} else meet(p, q)


def outsider_in_sublattice(enumerate_determinate_sublattice):
    """Each run's determinate sublattice with the ray (1, 1) added, which
    is neither above nor orthogonal to the run's atom."""
    plus = span([1, 1])
    return lambda atoms, cap, extra=(): enumerate_determinate_sublattice(atoms, cap, extra) + [plus]


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


def slice_missing_an_arrow(build_scenario):
    """Each §4.1 slice loses its last arrow."""

    def doctored(scenario):
        built = build_scenario(scenario)
        for run in built.runs:
            if run.slices is not None:
                slices = [run.slices[k] for k in range(len(run.extended_full.observables))]
                run.slices = [without_arrows(site, {site.arrows[-1]}) for site in slices]
        return built

    return doctored


def finer_stage_unreached(build_scenario):
    """Each full extended site loses every arrow into one finer stage whose
    projectors are present, from the first object that asks for one and
    from each object it reaches outside that stage, so composition stays
    closed."""

    def doctored(scenario):
        built = build_scenario(scenario)
        for run in built.runs:
            full = run.extended_full
            if full is None:
                continue
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
        return built

    return doctored


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


def each_run(change):
    """A doctor of `build_scenario` that applies `change` to each built run."""

    def doctor(build_scenario):
        def doctored(scenario):
            built = build_scenario(scenario)
            for run in built.runs:
                change(run)
            return built

        return doctored

    return doctor


def plain_true_less_one_image(run):
    side = run.plain_side
    side.true_t = less_one_image(side.true_t)


def extended_true_less_one_image(run):
    side = run.ext_side
    if side is not None:
        side.true_t = less_one_image(side.true_t)


def extended_true_adversarial(run):
    """The extended T replaced by Prop 5.10's adversarial cut, where one is found."""
    adversarial = checks._find_adversarial_subpresheaf(run) if run.ext_side is not None else None
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

    def doctor(build_scenario):
        def doctored(scenario):
            built = build_scenario(scenario)
            shared = {id(run.ext_side.functors): run.ext_side.functors for run in built.runs if run.ext_side}
            for functors in shared.values():
                functors.nat_omega = change(functors.nat_omega)
            return built

        return doctored

    return doctor


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
NATURAL_OMEGA_LESS_ONE_IMAGE = (
    "qubit_extended",
    "build_scenario",
    natural_omega_doctor(less_one_image),
    rows_on(("coarse", "fine"), "Prop 5.7/Thm 5.8", "Thm 5.13 / Props A3–A4 (♮Ω)"),
)

# tag -> (scenario, the function of `checks` doctored, doctor, the failing (tag, run) rows)
CONTROLS = {
    "Eq 2.1": ("qubit", "projector_matrix", wrong_projector, {("Eq 2.1", None)}),
    "Eq 2.3": (
        "qubit",
        "enumerate_determinate_sublattice",
        outsider_in_sublattice,
        {("Eq 2.3", "z-up"), ("Eq 2.3", "z-down"), ("Eq 2.4", "z-up"), ("Eq 2.4", "z-down")},
    ),
    "Eq 2.4": ("qubit", "meet", wrong_meet, {("§2", None), ("Eq 2.4", "z-up"), ("Eq 2.4", "z-down")}),
    "Eq 4.1": ("qutrit_extended", "observable_leq", irreflexive_order, {("Eq 4.1", None)}),
    "Eq 4.15": ("qutrit_extended", "in_commutant", no_unit_commutant, {("Eq 4.15", None)}),
    "§4.1": (
        "qubit_extended",
        "build_scenario",
        slice_missing_an_arrow,
        {("§4.1", "coarse"), ("§4.1", "fine")},
    ),
    "§4.1 reachability": (
        "qubit_extended",
        "build_scenario",
        finer_stage_unreached,
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
    "Eq 3.21": PLAIN_TRUE_LESS_ONE_IMAGE,
    "Eq 3.35": PLAIN_TRUE_LESS_ONE_IMAGE,
    "diagram 3.24": PLAIN_TRUE_LESS_ONE_IMAGE,
    "Eq 4.27": (
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
    ),
    "§5.2": (
        "qubit_extended",
        "build_scenario",
        each_run(extended_true_adversarial),
        rows_on(("coarse",), "§5.2", "Eq 4.26", "Eq 4.28", "Thm 5.11", "Thm 5.13 / Props A3–A4 (♮Ω)"),
    ),
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
    "Prop 5.3": ("qubit_extended", "build_scenario", each_run(unfixed_to_top), {("Prop 5.3", "coarse")}),
    "Prop 5.14 / diagram 5.30": (
        "qubit_extended",
        "build_scenario",
        each_run(extended_values_reversed),
        rows_on(("coarse", "fine"), "Eq 4.28", "Prop 5.14 / diagram 5.30"),
    ),
    "Prop 5.1/5.2": (
        "qubit_extended",
        "build_scenario",
        each_run(top_past_the_arrows),
        rows_on(("coarse", "fine"), "Prop 5.1/5.2", "Thm 5.12", "Thm 5.13 / Props A3–A4 (♮Ω)"),
    ),
    "Prop 5.5": (
        "qubit_extended",
        "build_scenario",
        each_run(one_more_fixpoint),
        rows_on(
            ("coarse",),
            "Prop 5.5",
            "Thm 5.6",
            "Eq 5.17",
            "Prop 5.7/Thm 5.8",
            "Prop C1",
            "Thm 5.13 / Props A3–A4 (♮Ω)",
        ),
    ),
    "Eq 5.6": (
        "qubit_extended",
        "build_scenario",
        each_run(implies_to_top),
        rows_on(("coarse", "fine"), "Eq 5.6", "§3.1 Heyting"),
    ),
    "Eq 5.4": ("qubit_extended", "sharp", sharp_less_its_first_arrow, rows_on(("coarse", "fine"), "Eq 5.4")),
    "Def 5.4": ("qubit_extended", "principal_sieve", twin_principal, {("Def 5.4", "coarse")}),
}


def failing_rows(name):
    report = checks.run_check(load_scenario(bundled_scenario_path(name)))
    return {(row["tag"], row["run"]) for row in report["rows"] if not row["passed"]}


@pytest.mark.parametrize("tag", sorted(CONTROLS))
def test_a_doctored_function_fails_its_row(tag, monkeypatch):
    scenario, attribute, doctor, expected = CONTROLS[tag]
    doctored = doctor(getattr(checks, attribute))
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return doctored(*args)

    monkeypatch.setattr(checks, attribute, counted)
    failing = failing_rows(scenario)
    assert calls
    assert tag in {row_tag for row_tag, _ in expected}
    assert failing == expected


def test_reachability_asks_for_arrows_on_the_chain(workloads):
    """On `chain_scenario(13, 4)` the §4.1 reachability row meets finer
    stages whose projectors are present, so it checks arrows there rather
    than passing with nothing to check."""
    built = checks.build_scenario(scenario_from_dict(workloads.chain_scenario(13, 4)))
    extended = [run.extended_full for run in built.runs if run.extended_full is not None]
    assert extended
    assert all(finer_stages_with_projectors(full) for full in extended)
