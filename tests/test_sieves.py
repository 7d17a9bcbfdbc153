import json

import pytest

from sieveval import (
    Observable,
    Sieve,
    bottom_annihilator,
    build_plain_site,
    build_scenario,
    bundled_scenario_names,
    bundled_scenario_path,
    close_monoid,
    close_universe,
    diagonal_matrix,
    filter_check,
    full_space,
    heyting_implies,
    ib_condition_check,
    load_scenario,
    omega_transition,
    project_onto_eigenspace,
    ray_from_vector,
    run_check,
    scenario_from_dict,
    subspace_from_vectors,
    true_subobject,
    valuation,
    zero_space,
)
from sieveval import sieves
from sieveval.errors import EnumerationExceeded, NaturalityError
from sieveval.sieves import (
    GlobalElement,
    _forced_pointwise_unique,
    annihilator_floors,
    atom_global_element,
    atom_presheaf,
    build_presheaf,
    bottom_sieve,
    characteristic_table,
    is_sieve,
    omega_presheaf,
    delta_omega_presheaf,
    proposition_presheaf,
    semiclassifier_check,
    tau_values,
    top_sieve,
)


def span(*vs):
    return subspace_from_vectors(len(vs[0]), list(vs))


def arrows_by_op(site, obj, sieve):
    """The operators of the members of a sieve on obj, decoded through `arrows_from`."""
    arrows = site.arrows_from(obj)
    return {site.arrow_op(arrows[i]) for i in sieve}


def identity_only(site, obj):
    """The sieve on obj holding its identity arrow alone."""
    return Sieve(obj, 1 << site.arrows_from(obj).index(site.identity_arrow(obj)))


def implies(site, s, t):
    """s ⇒ t from the stage's principal masks."""
    return Sieve(s.base, heyting_implies(site.stage(s.base).principals, s.mask & ~t.mask))


QUBIT_UNIVERSE = [
    zero_space(2),
    full_space(2),
    span([1, 0]),
    span([0, 1]),
    span([1, 1]),
    span([1, -1]),
]


def qubit_universe(site):
    """QUBIT_UNIVERSE with its tables; it is closed under the site's operators."""
    return close_universe(QUBIT_UNIVERSE, site.monoid.elements)


@pytest.fixture
def qubit_setup(qubit_site):
    site = qubit_site
    universe = qubit_universe(site)
    propositions = proposition_presheaf(site, universe)
    atoms = atom_presheaf(site)
    sigma = atom_global_element(site, atoms, span([1, 0]))
    true_t = true_subobject(sigma, propositions, universe)
    return site, propositions, atoms, sigma, true_t


def sieves_on(site, o, cap):
    """The sieves on o, as the site lists them."""
    return [Sieve(o, m) for m in site.stage(o).sieves(cap)]


def test_omega_census_qubit(qubit_site):
    stage = sieves_on(qubit_site, 0, 64)
    assert len(stage) == 5
    by_ops = {frozenset(arrows_by_op(qubit_site, 0, s)) for s in stage}
    assert by_ops == {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    }


def test_omega_census_single_object():
    monoid = close_monoid([], cap=2, dim=2)
    z = Observable("Z", (span([1, 0]), span([0, 1])))
    site = build_plain_site(z, monoid, [ray_from_vector([1, 0])], cap=4)
    stage = sieves_on(site, 0, 8)
    assert len(stage) == 2  # empty and identity-only


def test_omega_census_eigenray(qubit_site):
    stage = sieves_on(qubit_site, 1, 64)
    assert len(stage) == 3  # empty, projector-only, top


def test_enumeration_cap(qubit_site):
    arrows = len(qubit_site.arrows_from(0))
    message = rf"^sieve enumeration exceeded the cap of 2 at object 0 \({arrows} arrows\)$"
    with pytest.raises(EnumerationExceeded, match=message):
        sieves_on(qubit_site, 0, 2)


def test_sieves_are_postcomposition_closed(qubit_site):
    for o in range(qubit_site.n_objects):
        for s in sieves_on(qubit_site, o, 64):
            assert is_sieve(qubit_site, s)


def test_omega_transition_examples(qubit_site):
    site = qubit_site
    top = top_sieve(site, 0)
    ident = site.identity_arrow(0)
    assert omega_transition(site, ident, top) == top
    (p1_arrow,) = [a for a in site.arrows_from(0) if site.arrow_op(a) == 1]
    s_p1 = Sieve(0, 1 << site.arrows_from(0).index(p1_arrow))
    assert is_sieve(site, s_p1)
    image = omega_transition(site, p1_arrow, s_p1)
    assert image == top_sieve(site, 1)
    assert omega_transition(site, p1_arrow, top) == top_sieve(site, 1)


def test_heyting_ops_examples(qubit_site):
    site = qubit_site
    (p1,) = [i for i, a in enumerate(site.arrows_from(0)) if site.arrow_op(a) == 1]
    (p2,) = [i for i, a in enumerate(site.arrows_from(0)) if site.arrow_op(a) == 2]
    s1 = Sieve(0, 1 << p1)
    s2 = Sieve(0, 1 << p2)
    top = top_sieve(site, 0)
    bottom = bottom_sieve(0)
    assert Sieve(0, s1.mask | bottom.mask) == s1
    assert Sieve(0, s1.mask & top.mask) == s1
    assert set(Sieve(0, s1.mask | s2.mask)) == {p1, p2}
    assert Sieve(0, (s1.mask | s2.mask) & s2.mask) == s2
    assert implies(site, s1, s1) == top
    assert implies(site, bottom, s1) == top
    assert implies(site, s1, s2) == s2


def test_heyting_adjunction_exhaustive(qubit_site):
    site = qubit_site
    sieves = sieves_on(site, 0, 64)
    for s in sieves:
        for t in sieves:
            imp = implies(site, s, t)
            for x in sieves:
                assert (Sieve(s.base, s.mask & x.mask) <= t) == (x <= imp)


def classify(site, true_t, propositions, obj, x):
    """The entry of the characteristic table that classifies x at obj."""
    return characteristic_table(true_t)[obj][propositions.index[obj][x]]


def test_characteristic_examples(qubit_setup):
    site, propositions, _, _, true_t = qubit_setup
    top = top_sieve(site, 0)
    # membership at the stage forces the top sieve
    assert classify(site, true_t, propositions, 0, span([1, 0])) == top
    assert classify(site, true_t, propositions, 0, full_space(2)) == top
    # a value never reaching the subobject classifies to the bottom
    chi_zero = classify(site, true_t, propositions, 1, zero_space(2))
    assert chi_zero == bottom_sieve(1)
    # the worked example: the opposite eigenray classifies to the annihilator
    chi = classify(site, true_t, propositions, 0, span([0, 1]))
    assert arrows_by_op(site, 0, chi) == {2}


def test_true_subobject_values(qubit_setup):
    site, _, _, sigma, true_t = qubit_setup
    # at the base stage: everything above the atom
    assert set(true_t.values[0]) == {span([1, 0]), full_space(2)}
    # at the annihilated stage: every proposition
    assert set(true_t.values[2]) == set(QUBIT_UNIVERSE)
    assert sigma.values[2] == zero_space(2)


def test_sigma_naturality_error(qubit_setup):
    site, _, atoms, _, _ = qubit_setup
    crooked = GlobalElement(
        atoms, tuple(span([1, 0]) for _ in range(site.n_objects))
    )
    with pytest.raises(NaturalityError):
        crooked.validate()


def test_filter_check_positive_and_negative(qubit_setup):
    site, propositions, _, _, true_t = qubit_setup
    universe = qubit_universe(site)
    assert filter_check(universe, true_t.held) == ([], 0)

    def masks(values):
        return [sum(1 << propositions.index[o][p] for p in values[o]) for o in range(site.n_objects)]

    # a lone ray is a presheaf (images stay inside) but not up-closed
    not_up_values = {
        0: (span([1, 0]),),
        1: (span([1, 0]),),
        2: (zero_space(2), span([1, 0])),
    }
    violations, _ = filter_check(universe, masks(not_up_values))
    assert any(kind == "up-set" for kind, *_ in violations)
    # two incomparable members without their meet
    no_meet_values = {
        0: (span([1, 1]), span([1, 0]), full_space(2)),
        1: (span([1, 0]), full_space(2)),
        2: (span([0, 1]), zero_space(2), full_space(2)),
    }
    violations, _ = filter_check(universe, masks(no_meet_values))
    assert any(kind == "meet" for kind, *_ in violations)


def _tilted_qutrit(name):
    """A bundled qutrit scenario with B and Bm tilted, so that some meets of
    two true propositions are rays outside the finite universe."""
    data = json.loads(bundled_scenario_path(name).read_text(encoding="utf-8"))
    data["propositions"]["B"][0][2] = "1/2"
    data["propositions"]["Bm"][1][0] = "1"
    return scenario_from_dict(data)


def test_meets_outside_the_universe_are_counted_not_violations():
    report = run_check(_tilted_qutrit("qutrit"))
    assert report["passed"]
    rows = [row for row in report["rows"] if row["tag"] == "Eqs 3.26–3.27"]
    assert [(row["run"], row["details"]) for row in rows] == [
        ("r1", {"violations": 0, "meets_outside": 2}),
        ("r23", {"violations": 0, "meets_outside": 2}),
    ]


def test_extended_filter_rows_count_meets_outside_the_universe():
    rows = [row for row in run_check(_tilted_qutrit("qutrit_extended"))["rows"] if row["tag"] == "Eq 4.26"]
    assert [(row["passed"], row["details"]) for row in rows] == [
        (True, {"violations": 0, "meets_outside": n}) for n in (4, 10, 4)
    ]


def test_a_true_subobject_that_is_no_subfunctor_fails_every_row_reading_the_verdict(monkeypatch):
    from sieveval import runner

    def without_a_transition_image(sigma, propositions, universe):
        """The true subobject, cut from the propositions by masks, less one
        image of a kept value along an arrow."""
        held = list(true_subobject(sigma, propositions, universe).held)
        site = propositions.site
        a = next(a for a in range(len(site.arrows)) if site.arrow_dom(a) != site.arrow_cod(a))
        dom, cod = site.arrow_dom(a), site.arrow_cod(a)
        first = (held[dom] & -held[dom]).bit_length() - 1  # the lowest kept position at dom
        held[cod] &= ~(1 << propositions.positions[a][first])
        return sieves.subpresheaf(propositions, held)

    monkeypatch.setattr(runner, "true_subobject", without_a_transition_image)
    report = run_check(load_scenario(bundled_scenario_path("qubit")))
    for tag in ("Eq 3.12", "Props A3–A4 (δΩ)"):
        rows = [row for row in report["rows"] if row["tag"] == tag]
        assert rows and not any(row["passed"] for row in rows), tag
    semi = [row for row in report["rows"] if row["tag"] == "Props A3–A4 (δΩ)"]
    assert all(r["reason"] == "not a subfunctor pair" for row in semi for r in row["details"]["results"])


def test_a_closed_true_subobject_that_is_not_the_true_propositions_fails_eq_3_12(monkeypatch):
    """The empty cut is closed, so it is a subfunctor, but no proposition
    whose valuation is the top sieve is in it."""
    from sieveval import runner

    def empty(sigma, propositions, universe):
        return sieves.subpresheaf(propositions, [0] * len(propositions.values))

    monkeypatch.setattr(runner, "true_subobject", empty)
    report = run_check(load_scenario(bundled_scenario_path("qubit")))
    rows = [row for row in report["rows"] if row["tag"] == "Eq 3.12"]
    assert rows and not any(row["passed"] for row in rows)


def test_a_floor_that_is_no_sieve_fails_thm_3_6_without_raising(monkeypatch):
    """The identity arrow alone is no sieve on an object with other arrows
    out of it, so Ω's stage lacks the doctored floor."""
    from sieveval import runner

    def doctored_floors(site, r):
        floors = annihilator_floors(site, r)
        return (identity_only(site, 0),) + floors[1:]

    monkeypatch.setattr(runner, "annihilator_floors", doctored_floors)
    report = run_check(load_scenario(bundled_scenario_path("qubit")))
    rows = [row for row in report["rows"] if row["tag"] == "Thm 3.6"]
    assert rows and not any(row["passed"] for row in rows)


def test_a_check_reads_the_filter_and_proposition_tables(monkeypatch):
    """The filter rows read the universe's order and meet tables, and the
    proposition functor its action rows: checking every bundled scenario
    makes no `leq` or `meet` call inside `filter_check` and no
    `apply_operator` call inside `proposition_presheaf`, while the counted
    functions are called elsewhere."""
    from collections import Counter

    from sieveval import checks, runner, subspaces

    entered = Counter()
    inside = []
    calls = Counter()

    def within(name, fn):
        def wrapped(*args):
            entered[name] += 1
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapped

    def counted(name, fn):
        def wrapped(*args):
            calls[inside[-1] if inside else None, name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(checks, "filter_check", within("filter_check", checks.filter_check))
    monkeypatch.setattr(
        runner, "proposition_presheaf", within("proposition_presheaf", runner.proposition_presheaf)
    )
    for module in (sieves, subspaces):
        for name in ("leq", "meet", "apply_operator"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for name in bundled_scenario_names():
        assert run_check(load_scenario(bundled_scenario_path(name)))["passed"]
    assert entered["filter_check"] > 0 and entered["proposition_presheaf"] > 0
    assert calls["filter_check", "leq"] == calls["filter_check", "meet"] == 0
    assert calls["proposition_presheaf", "apply_operator"] == 0
    assert calls[None, "leq"] and calls[None, "meet"] and calls[None, "apply_operator"]


def test_valuation_examples(qubit_site):
    site = qubit_site
    r1 = span([1, 0])
    top = top_sieve(site, 0)
    assert valuation(site, 0, r1, full_space(2)) == top
    assert arrows_by_op(site, 0, valuation(site, 0, r1, zero_space(2))) == {2}
    assert valuation(site, 0, r1, span([1, 0])) == top
    # the state itself: identity fails, both projectors pass
    assert arrows_by_op(site, 0, valuation(site, 0, r1, span([1, 1]))) == {1, 2}


def test_valuation_equals_characteristic_everywhere(qubit_setup):
    site, propositions, _, _, true_t = qubit_setup
    for o in range(site.n_objects):
        for p in QUBIT_UNIVERSE:
            assert classify(site, true_t, propositions, o, p) == valuation(
                site, o, span([1, 0]), p
            )


def test_bottom_annihilator_examples(qubit_site):
    site = qubit_site
    assert arrows_by_op(site, 0, bottom_annihilator(site, 0, span([1, 0]))) == {2}
    assert bottom_annihilator(site, 0, zero_space(2)) == top_sieve(site, 0)
    monoid = close_monoid([diagonal_matrix([1, 0])], cap=4)
    z = Observable("Z", (span([1, 0]), span([0, 1])))
    eigensite = build_plain_site(z, monoid, [ray_from_vector([1, 0])], cap=4)
    assert bottom_annihilator(eigensite, 0, span([1, 0])) == bottom_sieve(0)


def test_a_run_reads_every_floor_from_one_table():
    """`BuiltRun.floors` holds each plain object's floor, the floor of the
    projection of its ray onto the run's eigenspace; at the stage that
    projection is the run's true atom."""
    for name in bundled_scenario_names():
        for run in build_scenario(load_scenario(bundled_scenario_path(name))).runs:
            site = run.plain
            stage = run.plain_side.stage
            assert run.floors[stage] == bottom_annihilator(site, stage, run.e_r)
            for o, floor in enumerate(run.floors):
                atom = project_onto_eigenspace(site.object_ray(o), run.r_space)
                assert floor == bottom_annihilator(site, o, atom)


def above_floor(site, obj, e_r):
    """The delta-omega stage at obj: the sieves above the annihilator floor."""
    floor = bottom_annihilator(site, obj, e_r)
    return [s for s in sieves_on(site, obj, 64) if floor <= s]


def test_delta_omega_chain(qubit_site):
    site = qubit_site
    stage = above_floor(site, 0, span([1, 0]))
    floor = bottom_annihilator(site, 0, span([1, 0]))
    assert len(stage) == 3
    ordered = sorted(stage, key=lambda s: s.mask.bit_count())
    assert ordered[0] == floor
    assert ordered[-1] == top_sieve(site, 0)
    assert ordered[0] <= ordered[1] <= ordered[2]
    assert arrows_by_op(site, 0, floor) == {2}


def test_delta_omega_degenerate_cases(qubit_site):
    site = qubit_site
    everything = above_floor(site, 0, zero_space(2))
    assert len(everything) == 1  # only the top survives a full floor
    no_floor = above_floor(site, 1, span([1, 0]))
    assert len(no_floor) == len(sieves_on(site, 1, 64))


def whole(omega):
    """Ω as a cut of itself, holding every sieve: the classifier as its own semi-classifier."""
    return sieves.subpresheaf(omega, [(1 << len(stage)) - 1 for stage in omega.values])


def pair(n):
    """A semi-classifier audit input: the cut n and its characteristic table."""
    return (n, characteristic_table(n))


def test_semiclassifier_on_full_classifier(qubit_setup):
    site, propositions, _, _, true_t = qubit_setup
    omega = omega_presheaf(site, cap=64)
    rows = semiclassifier_check(whole(omega), tau_values(site), [pair(true_t)])
    assert all(r["passed"] for r in rows)


def test_semiclassifier_delta(qubit_setup):
    site, propositions, _, _, true_t = qubit_setup
    omega = omega_presheaf(site, cap=64)
    delta = delta_omega_presheaf(omega, annihilator_floors(site, span([1, 0])))
    rows = semiclassifier_check(delta, tau_values(site), [pair(true_t)])
    assert all(r["passed"] for r in rows)
    assert rows[0]["uniqueness_mode"] in ("enumerated", "forced-pointwise")


def test_semiclassifier_detects_escaping_characteristic(qubit_setup):
    site, propositions, atoms, _, _ = qubit_setup
    omega = omega_presheaf(site, cap=64)
    delta = delta_omega_presheaf(omega, annihilator_floors(site, span([1, 0])))
    # the OTHER eigenray's true subobject classifies outside this delta
    sigma2 = atom_global_element(site, atoms, span([0, 1]))
    other_t = true_subobject(sigma2, propositions, qubit_universe(site))
    rows = semiclassifier_check(delta, tau_values(site), [pair(other_t)])
    assert not rows[0]["factors"]
    assert not rows[0]["passed"]


def test_semiclassifier_rejects_a_true_section_that_is_not_natural(qubit_setup):
    site, propositions, _, _, true_t = qubit_setup
    omega = omega_presheaf(site, cap=64)
    pairs = [pair(true_t)]
    # The top sieve at the base stage pulls back to the top sieve, not the
    # bottom one; a non-sieve is not a value of the classifier at all.
    crooked = (top_sieve(site, 0),) + tuple(bottom_sieve(o) for o in range(1, site.n_objects))
    outside = (identity_only(site, 0),) + tau_values(site)[1:]
    for tau in (crooked, outside):
        rows = semiclassifier_check(whole(omega), tau, pairs)
        assert rows == [{"pair": None, "passed": False, "reason": "the 'true' section is not natural"}]


def test_semiclassifier_enumerated_uniqueness_small():
    monoid = close_monoid([], cap=2, dim=1)
    unit = Observable("unit", (full_space(1),))
    site = build_plain_site(unit, monoid, [ray_from_vector([1])], cap=2)
    universe = close_universe([zero_space(1), full_space(1)], site.monoid.elements)
    propositions = proposition_presheaf(site, universe)
    atoms = atom_presheaf(site)
    sigma = atom_global_element(site, atoms, full_space(1))
    true_t = true_subobject(sigma, propositions, universe)
    omega = omega_presheaf(site, cap=8)
    rows = semiclassifier_check(whole(omega), tau_values(site), [pair(true_t)])
    assert rows[0]["passed"]
    assert rows[0]["uniqueness_mode"] == "enumerated"


def _forced_and_enumerated(monkeypatch, delta, pairs):
    enumerated = semiclassifier_check(delta, tau_values(delta.site), pairs)
    monkeypatch.setattr(sieves, "CANDIDATE_BUDGET", 0)
    forced = semiclassifier_check(delta, tau_values(delta.site), pairs)
    assert {r["uniqueness_mode"] for r in enumerated} == {"enumerated"}
    assert {r["uniqueness_mode"] for r in forced} == {"forced-pointwise"}
    return enumerated, forced


def _verdicts(rows):
    return [(r["factors"], r["pullback"], r["uniqueness"], r["passed"]) for r in rows]


def test_semiclassifier_uniqueness_modes_agree(qubit_site, monkeypatch):
    # A four-proposition universe keeps the delta candidate count under the
    # default budget, so the default run enumerates every candidate map.
    site = qubit_site
    members = [zero_space(2), full_space(2), span([1, 0]), span([0, 1])]
    universe = close_universe(members, site.monoid.elements)
    propositions = proposition_presheaf(site, universe)
    atoms = atom_presheaf(site)
    omega = omega_presheaf(site, cap=64)
    delta = delta_omega_presheaf(omega, annihilator_floors(site, span([1, 0])))
    subobjects = [
        true_subobject(atom_global_element(site, atoms, r), propositions, universe)
        for r in (span([1, 0]), span([0, 1]))
    ]
    pairs = [pair(t) for t in subobjects]
    enumerated, forced = _forced_and_enumerated(monkeypatch, delta, pairs)
    assert _verdicts(enumerated) == _verdicts(forced)
    assert [r["passed"] for r in forced] == [True, False]


def test_semiclassifier_uniqueness_modes_agree_single_object(monkeypatch):
    monoid = close_monoid([], cap=2, dim=1)
    unit = Observable("unit", (full_space(1),))
    site = build_plain_site(unit, monoid, [ray_from_vector([1])], cap=2)
    universe = close_universe([zero_space(1), full_space(1)], site.monoid.elements)
    propositions = proposition_presheaf(site, universe)
    atoms = atom_presheaf(site)
    true_t = true_subobject(atom_global_element(site, atoms, full_space(1)), propositions, universe)
    omega = omega_presheaf(site, cap=8)
    enumerated, forced = _forced_and_enumerated(monkeypatch, whole(omega), [pair(true_t)])
    assert _verdicts(enumerated) == _verdicts(forced) == [(True, True, True, True)]


def _doctored(delta, values=None, transition=None):
    """The semi-classifier with replaced stage sets or transitions, unvalidated."""
    site = delta.site
    values = values or delta.values
    transition = transition or (lambda a, s: omega_transition(site, a, s))
    return build_presheaf(site, lambda o: values[o], transition)


def test_forced_uniqueness_rejects_a_doctored_semiclassifier(qubit_setup):
    site, propositions, _, _, true_t = qubit_setup
    delta = delta_omega_presheaf(omega_presheaf(site, cap=64), annihilator_floors(site, span([1, 0])))
    chi = characteristic_table(true_t)
    tau = tau_values(site)
    assert _forced_pointwise_unique(site, delta, true_t, tau, chi)
    # Transitions that send every sieve to the top are not the pullback.
    to_top = _doctored(delta, transition=lambda a, s: top_sieve(site, site.arrow_cod(a)))
    assert not _forced_pointwise_unique(site, to_top, true_t, tau, chi)
    # A stage set holding a non-sieve: the identity alone, without its postcomposites.
    non_sieve = identity_only(site, 0)
    assert not is_sieve(site, non_sieve)
    values = (delta.values[0] + (non_sieve,),) + delta.values[1:]
    widened = _doctored(delta, values=values)
    assert not _forced_pointwise_unique(site, widened, true_t, tau, chi)


def test_ib_condition_check(qubit_site):
    floor = annihilator_floors(qubit_site, span([1, 0]))[0]
    row = [valuation(qubit_site, 0, span([1, 0]), p) for p in QUBIT_UNIVERSE]
    verdict = ib_condition_check(qubit_site, 0, span([1, 0]), qubit_universe(qubit_site), row, floor)
    assert verdict["monotonicity"]
    assert verdict["exclusivity"]
    assert verdict["unit"]
    assert verdict["null_equals_floor"]
    assert verdict["floor_nonempty"]
    assert verdict["null_fails_in_omega"]
    assert verdict["null_passes_in_delta"]


def test_ib_degenerate_universe(qubit_site):
    floor = annihilator_floors(qubit_site, span([1, 0]))[0]
    universe = [zero_space(2), full_space(2)]
    row = [valuation(qubit_site, 0, span([1, 0]), p) for p in universe]
    verdict = ib_condition_check(qubit_site, 0, span([1, 0]), close_universe(universe, ()), row, floor)
    assert verdict["monotonicity"] and verdict["unit"]
