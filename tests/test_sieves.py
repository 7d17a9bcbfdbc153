import pytest

from sieveval import (
    Observable,
    Sieve,
    Subspace,
    bottom_annihilator,
    build_plain_site,
    characteristic,
    close_monoid,
    diagonal_matrix,
    enumerate_sieves,
    filter_check,
    full_space,
    heyting_implies,
    heyting_join,
    heyting_meet,
    ib_condition_check,
    omega_transition,
    ray_from_vector,
    subspace_from_vectors,
    true_subobject,
    valuation,
    zero_space,
)
from sieveval import sieves
from sieveval.errors import EnumerationExceeded, NaturalityError, NotASubPresheaf
from sieveval.sieves import (
    GlobalElement,
    Presheaf,
    _forced_pointwise_unique,
    atom_global_element,
    atom_presheaf,
    build_presheaf,
    bottom_sieve,
    characteristic_unchecked,
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
    return {site.arrow_op(a) for a in sieve.arrows}


QUBIT_UNIVERSE = [
    zero_space(2),
    full_space(2),
    span([1, 0]),
    span([0, 1]),
    span([1, 1]),
    span([1, -1]),
]


@pytest.fixture
def qubit_setup(qubit_site):
    site = qubit_site
    propositions = proposition_presheaf(site, QUBIT_UNIVERSE)
    atoms = atom_presheaf(site, lambda o: site.observable)
    sigma = atom_global_element(site, atoms, span([1, 0]))
    true_t = true_subobject(site, sigma, propositions)
    return site, propositions, atoms, sigma, true_t


def test_omega_census_qubit(qubit_site):
    stage = enumerate_sieves(qubit_site, 0, cap=64)
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
    stage = enumerate_sieves(site, 0, cap=8)
    assert len(stage) == 2  # empty and identity-only


def test_omega_census_eigenray(qubit_site):
    stage = enumerate_sieves(qubit_site, 1, cap=64)
    assert len(stage) == 3  # empty, projector-only, top


def test_enumeration_cap(qubit_site):
    with pytest.raises(EnumerationExceeded):
        enumerate_sieves(qubit_site, 0, cap=2)


def test_sieves_are_postcomposition_closed(qubit_site):
    for o in range(qubit_site.n_objects):
        for s in enumerate_sieves(qubit_site, o, cap=64):
            assert is_sieve(qubit_site, s)


def test_omega_transition_examples(qubit_site):
    site = qubit_site
    top = top_sieve(site, 0)
    ident = site.identity_arrow(0)
    assert omega_transition(site, ident, top) == top
    (p1_arrow,) = [a for a in site.arrows_from(0) if site.arrow_op(a) == 1]
    s_p1 = Sieve(0, 1 << p1_arrow)
    assert is_sieve(site, s_p1)
    image = omega_transition(site, p1_arrow, s_p1)
    assert image == top_sieve(site, 1)
    assert omega_transition(site, p1_arrow, top) == top_sieve(site, 1)


def test_heyting_ops_examples(qubit_site):
    site = qubit_site
    (p1,) = [a for a in site.arrows_from(0) if site.arrow_op(a) == 1]
    (p2,) = [a for a in site.arrows_from(0) if site.arrow_op(a) == 2]
    s1 = Sieve(0, 1 << p1)
    s2 = Sieve(0, 1 << p2)
    top = top_sieve(site, 0)
    bottom = bottom_sieve(0)
    assert heyting_join(s1, bottom) == s1
    assert heyting_meet(s1, top) == s1
    assert heyting_join(s1, s2).arrows == {p1, p2}
    assert heyting_meet(heyting_join(s1, s2), s2) == s2
    assert heyting_implies(site, s1, s1) == top
    assert heyting_implies(site, bottom, s1) == top
    assert heyting_implies(site, s1, s2) == s2


def test_heyting_adjunction_exhaustive(qubit_site):
    site = qubit_site
    sieves = enumerate_sieves(site, 0, cap=64)
    for s in sieves:
        for t in sieves:
            imp = heyting_implies(site, s, t)
            for x in sieves:
                assert (heyting_meet(s, x) <= t) == (x <= imp)


def test_characteristic_examples(qubit_setup):
    site, propositions, _, _, true_t = qubit_setup
    top = top_sieve(site, 0)
    # membership at the stage forces the top sieve
    assert characteristic(site, true_t, propositions, 0, span([1, 0])) == top
    assert characteristic(site, true_t, propositions, 0, full_space(2)) == top
    # a value never reaching the subobject classifies to the bottom
    chi_zero = characteristic(site, true_t, propositions, 1, zero_space(2))
    assert chi_zero == bottom_sieve(1)
    # the worked example: the opposite eigenray classifies to the annihilator
    chi = characteristic(site, true_t, propositions, 0, span([0, 1]))
    assert arrows_by_op(site, 0, chi) == {2}


def test_characteristic_requires_subpresheaf(qubit_setup):
    site, propositions, _, _, _ = qubit_setup
    constant_full = build_presheaf(
        site, lambda o: (full_space(2),), lambda a, p: full_space(2)
    )
    with pytest.raises(NotASubPresheaf):
        characteristic(site, constant_full, propositions, 0, span([1, 0]))


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
    assert filter_check(site, true_t, propositions) == []
    # a lone ray is a presheaf (images stay inside) but not up-closed
    not_up_values = {
        0: (span([1, 0]),),
        1: (span([1, 0]),),
        2: (zero_space(2), span([1, 0])),
    }
    not_up = build_presheaf(
        site, lambda o: not_up_values[o], lambda a, p: propositions.map(a, p)
    )
    assert any(kind == "up-set" for kind, *_ in filter_check(site, not_up, propositions))
    # two incomparable members without their meet
    no_meet_values = {
        0: (span([1, 1]), span([1, 0]), full_space(2)),
        1: (span([1, 0]), full_space(2)),
        2: (span([0, 1]), zero_space(2), full_space(2)),
    }
    no_meet = build_presheaf(
        site, lambda o: no_meet_values[o], lambda a, p: propositions.map(a, p)
    )
    assert any(kind == "meet" for kind, *_ in filter_check(site, no_meet, propositions))


def test_filter_check_sorts_each_stage_once(qubit_setup, monkeypatch):
    site, propositions, _, _, true_t = qubit_setup
    keyed = []
    sort_key = Subspace.sort_key

    def counting_sort_key(p):
        keyed.append(p)
        return sort_key(p)

    monkeypatch.setattr(Subspace, "sort_key", counting_sort_key)
    assert filter_check(site, true_t, propositions) == []
    assert len(keyed) == sum(len(set(stage)) for stage in true_t.values) > 0


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
            assert characteristic(site, true_t, propositions, o, p) == valuation(
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


def above_floor(site, obj, e_r):
    """The delta-omega stage at obj: the sieves above the annihilator floor."""
    floor = bottom_annihilator(site, obj, e_r)
    return [s for s in enumerate_sieves(site, obj, cap=64) if floor <= s]


def test_delta_omega_chain(qubit_site):
    site = qubit_site
    stage = above_floor(site, 0, span([1, 0]))
    floor = bottom_annihilator(site, 0, span([1, 0]))
    assert len(stage) == 3
    ordered = sorted(stage, key=lambda s: len(s.arrows))
    assert ordered[0] == floor
    assert ordered[-1] == top_sieve(site, 0)
    assert ordered[0] <= ordered[1] <= ordered[2]
    assert arrows_by_op(site, 0, floor) == {2}


def test_delta_omega_degenerate_cases(qubit_site):
    site = qubit_site
    everything = above_floor(site, 0, zero_space(2))
    assert len(everything) == 1  # only the top survives a full floor
    no_floor = above_floor(site, 1, span([1, 0]))
    assert len(no_floor) == len(enumerate_sieves(site, 1, cap=64))


def test_semiclassifier_on_full_classifier(qubit_setup):
    site, propositions, _, _, true_t = qubit_setup
    omega = omega_presheaf(site, cap=64)
    rows = semiclassifier_check(
        site, omega, omega, tau_values(site), [(true_t, propositions)]
    )
    assert all(r["passed"] for r in rows)


def test_semiclassifier_delta(qubit_setup):
    site, propositions, _, _, true_t = qubit_setup
    omega = omega_presheaf(site, cap=64)
    delta = delta_omega_presheaf(site, span([1, 0]), cap=64)
    rows = semiclassifier_check(
        site, delta, omega, tau_values(site), [(true_t, propositions)]
    )
    assert all(r["passed"] for r in rows)
    assert rows[0]["uniqueness_mode"] in ("enumerated", "forced-pointwise")


def test_semiclassifier_detects_escaping_characteristic(qubit_setup):
    site, propositions, atoms, _, _ = qubit_setup
    omega = omega_presheaf(site, cap=64)
    delta = delta_omega_presheaf(site, span([1, 0]), cap=64)
    # the OTHER eigenray's true subobject classifies outside this delta
    sigma2 = atom_global_element(site, atoms, span([0, 1]))
    other_t = true_subobject(site, sigma2, propositions)
    rows = semiclassifier_check(
        site, delta, omega, tau_values(site), [(other_t, propositions)]
    )
    assert not rows[0]["factors"]
    assert not rows[0]["passed"]


def test_semiclassifier_enumerated_uniqueness_small():
    monoid = close_monoid([], cap=2, dim=1)
    unit = Observable("unit", (full_space(1),))
    site = build_plain_site(unit, monoid, [ray_from_vector([1])], cap=2)
    universe = [zero_space(1), full_space(1)]
    propositions = proposition_presheaf(site, universe)
    atoms = atom_presheaf(site, lambda o: unit)
    sigma = atom_global_element(site, atoms, full_space(1))
    true_t = true_subobject(site, sigma, propositions)
    omega = omega_presheaf(site, cap=8)
    rows = semiclassifier_check(
        site, omega, omega, tau_values(site), [(true_t, propositions)]
    )
    assert rows[0]["passed"]
    assert rows[0]["uniqueness_mode"] == "enumerated"


def _forced_and_enumerated(monkeypatch, site, delta, omega, pairs):
    enumerated = semiclassifier_check(site, delta, omega, tau_values(site), pairs)
    monkeypatch.setattr(sieves, "CANDIDATE_BUDGET", 0)
    forced = semiclassifier_check(site, delta, omega, tau_values(site), pairs)
    assert {r["uniqueness_mode"] for r in enumerated} == {"enumerated"}
    assert {r["uniqueness_mode"] for r in forced} == {"forced-pointwise"}
    return enumerated, forced


def _verdicts(rows):
    return [(r["factors"], r["pullback"], r["uniqueness"], r["passed"]) for r in rows]


def test_semiclassifier_uniqueness_modes_agree(qubit_site, monkeypatch):
    # A four-proposition universe keeps the delta candidate count under the
    # default budget, so the default run enumerates every candidate map.
    site = qubit_site
    universe = [zero_space(2), full_space(2), span([1, 0]), span([0, 1])]
    propositions = proposition_presheaf(site, universe)
    atoms = atom_presheaf(site, lambda o: site.observable)
    omega = omega_presheaf(site, cap=64)
    delta = delta_omega_presheaf(site, span([1, 0]), cap=64)
    pairs = [
        (true_subobject(site, atom_global_element(site, atoms, r), propositions), propositions)
        for r in (span([1, 0]), span([0, 1]))
    ]
    enumerated, forced = _forced_and_enumerated(monkeypatch, site, delta, omega, pairs)
    assert _verdicts(enumerated) == _verdicts(forced)
    assert [r["passed"] for r in forced] == [True, False]


def test_semiclassifier_uniqueness_modes_agree_single_object(monkeypatch):
    monoid = close_monoid([], cap=2, dim=1)
    unit = Observable("unit", (full_space(1),))
    site = build_plain_site(unit, monoid, [ray_from_vector([1])], cap=2)
    propositions = proposition_presheaf(site, [zero_space(1), full_space(1)])
    atoms = atom_presheaf(site, lambda o: unit)
    true_t = true_subobject(site, atom_global_element(site, atoms, full_space(1)), propositions)
    omega = omega_presheaf(site, cap=8)
    enumerated, forced = _forced_and_enumerated(monkeypatch, site, omega, omega, [(true_t, propositions)])
    assert _verdicts(enumerated) == _verdicts(forced) == [(True, True, True, True)]


def _doctored(delta, values=None, transition=None):
    """The semi-classifier with replaced stage sets or transitions, unvalidated."""
    site = delta.site
    values = values or delta.values
    transition = transition or (lambda a, s: omega_transition(site, a, s))
    transitions = tuple(
        {s: transition(a, s) for s in values[site.arrow_dom(a)]}
        for a in range(len(site.arrows))
    )
    return Presheaf(site, values, transitions, tuple(frozenset(v) for v in values))


def test_forced_uniqueness_rejects_a_doctored_semiclassifier(qubit_setup):
    site, propositions, _, _, true_t = qubit_setup
    delta = delta_omega_presheaf(site, span([1, 0]), cap=64)
    chi = {
        (o, x): characteristic_unchecked(site, true_t, propositions, o, x)
        for o in range(site.n_objects)
        for x in propositions.values[o]
    }
    tau = tau_values(site)
    assert _forced_pointwise_unique(site, delta, propositions, true_t, tau, chi)
    # Transitions that send every sieve to the top are not the pullback.
    to_top = _doctored(delta, transition=lambda a, s: top_sieve(site, site.arrow_cod(a)))
    assert not _forced_pointwise_unique(site, to_top, propositions, true_t, tau, chi)
    # A stage set holding a non-sieve: the identity alone, without its postcomposites.
    non_sieve = Sieve(0, 1 << site.identity_arrow(0))
    assert not is_sieve(site, non_sieve)
    values = (delta.values[0] + (non_sieve,),) + delta.values[1:]
    widened = _doctored(delta, values=values)
    assert not _forced_pointwise_unique(site, widened, propositions, true_t, tau, chi)


def test_ib_condition_check(qubit_site):
    verdict = ib_condition_check(qubit_site, 0, span([1, 0]), QUBIT_UNIVERSE)
    assert verdict["monotonicity"]
    assert verdict["exclusivity"]
    assert verdict["unit"]
    assert verdict["null_equals_floor"]
    assert verdict["floor_nonempty"]
    assert verdict["null_fails_in_omega"]
    assert verdict["null_passes_in_delta"]


def test_ib_degenerate_universe(qubit_site):
    verdict = ib_condition_check(
        qubit_site, 0, span([1, 0]), [zero_space(2), full_space(2)]
    )
    assert verdict["monotonicity"] and verdict["unit"]
