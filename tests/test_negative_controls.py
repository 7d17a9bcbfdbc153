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
and the two extended-site rows that read operators by matrix, §4.1 and
§4.1 reachability.
"""

import pytest

from sieveval import bundled_scenario_path, checks, load_scenario, subspace_from_vectors
from sieveval.scenario import scenario_from_dict
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
