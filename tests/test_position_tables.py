"""Presheaves as position tables, and site audits from the stage rows.

Negative tests: doctored presheaves built through `build_presheaf`, a cut
that is not transition-closed, a site over a non-associative product table
and a site missing an identity must each fail their audit.

Differential oracle: the value-keyed audits that stored one dict per arrow
(value at the domain -> value at the codomain) are kept here as `Old*`
copies.  On every presheaf, cut asked whether it is a subfunctor of its
parent, naturality square family and site that `run_check` builds for the
bundled scenarios and for `chain_scenario(13, 2..5)`, and on the doctored
inputs, the table audits give the same verdict and the same first message.
The one exception is a presheaf with two distinct faults: closure is now
checked for every arrow before functoriality, so a closure fault is
reported first.  Every square family `run_check` asks maps into a
classifier (Ω, δΩ or ♮Ω), so the value-keyed naturality audit moves its
values by `omega_transition`.  Ω itself is built from stage masks, not
through `build_presheaf`; its twin moves every listed sieve by
`omega_transition`, and Ω's position tables must equal the twin's, entry by
entry.  An Ω with one wrong position fails the oracle.
"""

import json

import pytest

from sieveval import (
    Observable,
    Sieve,
    build_plain_site,
    bundled_scenario_names,
    bundled_scenario_path,
    close_monoid,
    close_universe,
    diagonal_matrix,
    apply_operator,
    full_space,
    gaussian,
    load_scenario,
    ray_from_vector,
    run_check,
    subspace_from_vectors,
    zero_space,
)
from sieveval import bridge as bridge_module
from sieveval import checks as checks_module
from sieveval import runner as runner_module
from sieveval import sieves as sieves_module
from sieveval.errors import NaturalityError, SievevalError
from sieveval.sieves import (
    Cut,
    GlobalElement,
    atom_presheaf,
    build_presheaf,
    is_closed,
    naturality_holds,
    omega_transition,
    proposition_presheaf,
    subpresheaf,
)
from sieveval.sites import OperatorMonoid, PlainSite, associativity_violations, identity_violations


def span(*vs):
    return subspace_from_vectors(len(vs[0]), list(vs))


QUBIT_UNIVERSE = [
    zero_space(2),
    full_space(2),
    span([1, 0]),
    span([0, 1]),
    span([1, 1]),
    span([1, -1]),
]


# ---------------------------------------------------------------------------
# the value-keyed audits, as they were before position tables


class OldPresheaf:
    """A presheaf stored with one dict per arrow: value at dom -> value at cod."""

    def __init__(self, site, values, transitions):
        self.site = site
        self.values = values
        self.transitions = transitions
        self.value_sets = tuple(frozenset(v) for v in values)

    def value_set(self, o):
        return self.value_sets[o]

    def map(self, arrow, x):
        return self.transitions[arrow][x]

    def validate(self):
        site = self.site
        for o in range(site.n_objects):
            ident = site.identity_arrow(o)
            for x in self.values[o]:
                if self.map(ident, x) != x:
                    raise SievevalError("identity transition is not the identity")
        for f in range(len(site.arrows)):
            dom_values = self.values[site.arrow_dom(f)]
            cod_set = self.value_set(site.arrow_cod(f))
            for x in dom_values:
                if self.map(f, x) not in cod_set:
                    raise SievevalError("transition leaves the codomain value set")
            for g in site.arrows_from(site.arrow_cod(f)):
                gf = site.compose(g, f)
                for x in dom_values:
                    if self.map(gf, x) != self.map(g, self.map(f, x)):
                        raise SievevalError("functoriality failure")


def old_build_presheaf(site, values_at, transition):
    values = tuple(tuple(values_at(o)) for o in range(site.n_objects))
    transitions = tuple(
        {x: transition(a, x) for x in values[site.arrow_dom(a)]} for a in range(len(site.arrows))
    )
    return OldPresheaf(site, values, transitions)


def held_by(m, keep):
    """Per stage of m, the mask of the positions whose values `keep(o, x)` holds."""
    return [sum(1 << i for i, x in enumerate(stage) if keep(o, x)) for o, stage in enumerate(m.values)]


def old_subpresheaf(m, keep):
    values = tuple(tuple(x for x in stage if keep(o, x)) for o, stage in enumerate(m.values))
    return OldPresheaf(m.site, values, m.transitions)


def old_is_subpresheaf(n, m):
    site = m.site
    for o in range(site.n_objects):
        if not n.value_set(o) <= m.value_set(o):
            return False
    for a in range(len(site.arrows)):
        for x in n.values[site.arrow_dom(a)]:
            if n.map(a, x) != m.map(a, x):
                return False
            if n.map(a, x) not in n.value_set(site.arrow_cod(a)):
                return False
    return True


def old_naturality_holds(site, zeta, m, transition):
    for a in range(len(site.arrows)):
        dom, cod = site.arrow_dom(a), site.arrow_cod(a)
        for x in m.values[dom]:
            image = zeta.get((cod, m.map(a, x)))
            if image is None or transition(a, zeta[(dom, x)]) != image:
                return False
    return True


def old_associativity_violations(site):
    bad = []
    for f in range(len(site.arrows)):
        for g in site.arrows_from(site.arrow_cod(f)):
            gf = site.compose(g, f)
            for h in site.arrows_from(site.arrow_cod(g)):
                if site.compose(h, gf) != site.compose(site.compose(h, g), f):
                    bad.append((h, g, f))
    return bad


def old_identity_violations(site):
    bad = []
    for o in range(site.n_objects):
        if site.identity_arrow(o) < 0:
            bad.append(o)
    for a in range(len(site.arrows)):
        if site.compose(site.identity_arrow(site.arrow_cod(a)), a) != a:
            bad.append(a)
        if site.compose(a, site.identity_arrow(site.arrow_dom(a))) != a:
            bad.append(a)
    return bad


def first_message(presheaf):
    try:
        presheaf.validate()
    except SievevalError as exc:
        return str(exc)
    return None


def old_positions(old):
    """A value-keyed presheaf's transitions as position tables."""
    site = old.site
    index = [{x: i for i, x in enumerate(stage)} for stage in old.values]
    return tuple(
        tuple(index[site.arrow_cod(a)].get(old.map(a, x)) for x in old.values[site.arrow_dom(a)])
        for a in range(len(site.arrows))
    )


def value_keyed(zeta, m):
    """A map laid out by m's positions, keyed by (stage, value) instead."""
    return {(o, x): z for o, stage in enumerate(m.values) for x, z in zip(stage, zeta[o])}


# ---------------------------------------------------------------------------
# doctored inputs


# `qubit_site` (conftest): rays (1, 1), e1, e2 under {I, P1, P2, 0}.  Arrows
# 0-2 leave (1, 1) by I, P1, P2; arrows 3-4 leave e1 by I, P1; arrows 5-6
# leave e2 by I, P2.


def act(site):
    """The proposition functor's transition: each arrow's operator applied."""
    return lambda a, p: apply_operator(site.operator_matrix(site.arrow_op(a)), p)


def doctored_pair(site, doctor):
    """The proposition functor with `doctor(a, p, image)` replacing each
    image, built both ways."""
    honest = act(site)

    def transition(a, p):
        return doctor(a, p, honest(a, p))

    new = build_presheaf(site, lambda o: QUBIT_UNIVERSE, transition)
    old = old_build_presheaf(site, lambda o: QUBIT_UNIVERSE, transition)
    return new, old


def moves_a_value_at_an_identity(site):
    ident = site.identity_arrow(0)
    return lambda a, p, image: span([1, -1]) if a == ident and p == span([1, 1]) else image


def breaks_a_composite(site):
    # Arrow 1 is P1 out of (1, 1); P1 after it is P1 again, so P1 composed
    # with arrow 1 is arrow 1, whose table must then be t_P1 ∘ t_1.
    assert site.compose(4, 1) == 1
    return lambda a, p, image: full_space(2) if a == 1 and p == full_space(2) else image


def leaves_the_universe(site):
    outside = span([1, 2])
    return lambda a, p, image: outside if a == 6 and p == full_space(2) else image


def test_an_identity_that_moves_a_value_fails_validation(qubit_site):
    new, old = doctored_pair(qubit_site, moves_a_value_at_an_identity(qubit_site))
    with pytest.raises(SievevalError, match="identity transition is not the identity"):
        new.validate()
    assert first_message(old) == first_message(new)


def test_a_broken_composite_fails_validation(qubit_site):
    new, old = doctored_pair(qubit_site, breaks_a_composite(qubit_site))
    with pytest.raises(SievevalError, match="functoriality failure"):
        new.validate()
    assert first_message(old) == first_message(new)


def test_an_image_outside_the_codomain_stage_is_recorded_as_none(qubit_site):
    new, old = doctored_pair(qubit_site, leaves_the_universe(qubit_site))
    full = new.index[2][full_space(2)]
    assert new.positions[6][full] is None
    assert first_message(new) == first_message(old) == "transition leaves the codomain value set"


def test_closure_is_reported_before_functoriality(qubit_site):
    """Two faults: a broken composite at arrow 1, an image outside the stage
    at arrow 6.  The value-keyed audit walked arrow by arrow and met the
    composite first; the table audit checks closure on every table first."""

    def doctor(a, p, image):
        return leaves_the_universe(qubit_site)(a, p, breaks_a_composite(qubit_site)(a, p, image))

    new, old = doctored_pair(qubit_site, doctor)
    assert first_message(old) == "functoriality failure"
    assert first_message(new) == "transition leaves the codomain value set"


def test_a_cut_that_is_not_transition_closed_is_not_a_subfunctor(qubit_site):
    propositions = proposition_presheaf(qubit_site, close_universe(QUBIT_UNIVERSE, qubit_site.monoid.elements))
    old_propositions = old_build_presheaf(qubit_site, lambda o: QUBIT_UNIVERSE, act(qubit_site))

    # Keep the full space at (1, 1) only: P1 carries it to e1, which is cut.
    def keep(o, p):
        return o == 0 and p == full_space(2)

    cut = subpresheaf(propositions, held_by(propositions, keep))
    assert cut.positions[1] == (None,)
    assert not is_closed(cut)
    assert not old_is_subpresheaf(old_subpresheaf(old_propositions, keep), old_propositions)
    assert first_message(cut) == "transition leaves the codomain value set"
    # The closed cut of everything under e1 is one.
    def below_e1(o, p):
        return p in (zero_space(2), span([1, 0]))

    assert is_closed(subpresheaf(propositions, held_by(propositions, below_e1)))
    assert old_is_subpresheaf(old_subpresheaf(old_propositions, below_e1), old_propositions)


def test_a_cut_re_indexes_its_parent_tables(qubit_site):
    propositions = proposition_presheaf(qubit_site, close_universe(QUBIT_UNIVERSE, qubit_site.monoid.elements))
    cut = subpresheaf(propositions, held_by(propositions, lambda o, p: p != span([1, -1])))
    for a, table in enumerate(cut.positions):
        dom, cod = qubit_site.arrow_dom(a), qubit_site.arrow_cod(a)
        for x, j in zip(cut.values[dom], table):
            assert cut.values[cod][j] == act(qubit_site)(a, x)


def test_a_naturality_square_that_fails_is_found(qubit_site):
    propositions = proposition_presheaf(qubit_site, close_universe(QUBIT_UNIVERSE, qubit_site.monoid.elements))
    transition = act(qubit_site)
    # The functor as a map to itself is natural; reversing one stage is not.
    zeta = propositions.values
    assert naturality_holds(zeta, propositions, propositions)
    swapped = (tuple(reversed(zeta[0])),) + zeta[1:]
    assert not naturality_holds(swapped, propositions, propositions)
    old = old_build_presheaf(qubit_site, lambda o: QUBIT_UNIVERSE, transition)
    for candidate in (zeta, swapped):
        assert old_naturality_holds(
            qubit_site, value_keyed(candidate, propositions), old, transition
        ) == naturality_holds(candidate, propositions, propositions)
    # A square whose image leaves m's codomain stage has no zeta entry.
    leaving, old_leaving = doctored_pair(qubit_site, leaves_the_universe(qubit_site))
    assert not naturality_holds(zeta, leaving, propositions)
    assert not old_naturality_holds(qubit_site, value_keyed(zeta, leaving), old_leaving, transition)
    # A value missing from the target's stage fails: the map must land there,
    # even where every square would commute.
    zero = subpresheaf(propositions, held_by(propositions, lambda o, p: p == zero_space(2)))
    to_zero = tuple((zero_space(2),) * len(stage) for stage in zeta)
    to_full = tuple((full_space(2),) * len(stage) for stage in zeta)
    assert naturality_holds(to_zero, propositions, zero)
    assert not naturality_holds(to_full, propositions, zero)


def test_a_section_with_a_failing_square_is_rejected(qubit_site):
    atoms = atom_presheaf(qubit_site)
    e1, e2 = span([1, 0]), span([0, 1])
    GlobalElement(atoms, (e1, e1, zero_space(2))).validate()
    # Every value lies in its stage, but P1 sends e2 at (1, 1) to 0, not e1.
    with pytest.raises(NaturalityError, match="naturality square fails at arrow 1"):
        GlobalElement(atoms, (e2, e1, zero_space(2))).validate()


def _cyclic_site(table):
    """The one-object site of {1, i, -1, -i} acting on C^1, over `table`."""
    monoid = close_monoid([diagonal_matrix([gaussian(0, 1)])], cap=4)
    monoid = OperatorMonoid(monoid.elements, monoid.identity_index, table(monoid.table))
    unit = Observable("unit", (full_space(1),))
    site = build_plain_site(unit, monoid, [ray_from_vector([1])], cap=1)
    return site


def test_a_non_associative_product_table_is_found():
    honest = _cyclic_site(lambda table: table)
    assert associativity_violations(honest) == old_associativity_violations(honest) == []
    assert identity_violations(honest) == []
    i, minus_one = 1, honest.monoid.table[1][1]

    # Doctor i·i to be 1: then (i·i)·(-1) = -1 but i·(i·(-1)) = i·(-i) = 1.
    def doctored(table):
        rows = [list(row) for row in table]
        rows[i][i] = 0
        return tuple(tuple(row) for row in rows)

    site = _cyclic_site(doctored)
    arrow = {site.arrow_op(a): a for a in site.arrows_from(0)}
    violations = associativity_violations(site)
    assert (arrow[i], arrow[i], arrow[minus_one]) in violations
    assert violations == old_associativity_violations(site)
    for h, g, f in violations:
        assert site.compose(site.compose(h, g), f) != site.compose(h, site.compose(g, f))


def test_a_composite_ending_elsewhere_reports_every_triple_through_it():
    """With sz·sz doctored to be sz, sz∘sz out of (1, i) ends at (1, -i),
    not at (1, i) where its second factor ends: no h out of (1, i) composes
    with it, so every triple (h, g, f) with that g∘f is reported."""
    sz = diagonal_matrix([1, -1])
    monoid = close_monoid([sz], cap=2)
    rows = [list(row) for row in monoid.table]
    flip = monoid.elements.index(sz)
    rows[flip][flip] = flip
    table = tuple(tuple(row) for row in rows)
    monoid = OperatorMonoid(monoid.elements, monoid.identity_index, table)
    unit = Observable("unit", (full_space(2),))
    site = build_plain_site(unit, monoid, [ray_from_vector([1, gaussian(0, 1)])], cap=2)
    assert identity_violations(site) == []
    flip = [a for a in range(len(site.arrows)) if site.arrow_op(a) != monoid.identity_index]
    assert [(site.arrow_dom(a), site.arrow_cod(a)) for a in flip] == [(0, 1), (1, 0)]
    assert associativity_violations(site) == [
        (h, g, f) for f, g in (flip, flip[::-1]) for h in site.arrows_from(site.arrow_dom(f))
    ]


def two_rays_without_identity_at_1():
    """The two-ray, identity-only site, and a copy with object 1's identity removed."""
    e1, e2 = span([1, 0]), span([0, 1])
    monoid = close_monoid([], cap=1, dim=2)
    site = build_plain_site(
        Observable("Z", (e1, e2)), monoid, [ray_from_vector([1, 0]), ray_from_vector([0, 1])], cap=2
    )
    kept = tuple(a for a in site.arrows if a.dom == 0)
    without = PlainSite(site.observables, site.monoid, site.rays, site.objects, kept, site.rho_leq)
    return site, without


def test_a_missing_identity_is_reported():
    site, without = two_rays_without_identity_at_1()
    assert identity_violations(site) == []
    assert identity_violations(without) == [1]
    assert associativity_violations(without) == []


@pytest.mark.parametrize("stage_1", [(span([0, 1]),), (span([1, 0]), span([0, 1]))])
def test_a_presheaf_on_a_site_missing_an_identity_names_the_object(stage_1):
    # One value at stage 1 used to validate, two used to report the identity
    # table as wrong: both read the last arrow's table for the missing identity.
    _, without = two_rays_without_identity_at_1()
    values = ((span([1, 0]),), stage_1)
    presheaf = build_presheaf(without, lambda o: values[o], lambda a, x: x)
    with pytest.raises(SievevalError, match="^object 1 has no identity arrow$"):
        presheaf.validate()


# ---------------------------------------------------------------------------
# the differential oracle on everything run_check builds


class Recorder:
    """Wraps the audits run_check calls and the presheaf constructors, so that
    each table input is paired with its value-keyed twin."""

    def __init__(self, monkeypatch):
        self.old = {}  # id(new presheaf) -> (new, old)
        self.omegas = []  # (Ω, its value-keyed twin)
        self.asked = []  # presheaves whose closure was asked
        self.squares = []
        self.sites = []
        build, cut = sieves_module.build_presheaf, sieves_module.subpresheaf
        propositions = runner_module.proposition_presheaf
        omega = runner_module.omega_presheaf
        closed, natural = sieves_module.is_closed, sieves_module.naturality_holds
        assoc = checks_module.associativity_violations

        def recording_build(site, values_at, transition):
            new = build(site, values_at, transition)
            self.old[id(new)] = (new, old_build_presheaf(site, values_at, transition))
            return new

        # L is read from the universe's action rows; its twin applies each
        # arrow's operator to each value.
        def recording_propositions(site, universe):
            new = propositions(site, universe)
            self.old[id(new)] = (new, old_build_presheaf(site, lambda o: tuple(universe), act(site)))
            return new

        # Ω is built from stage masks; its twin moves each listed sieve along
        # each arrow by `omega_transition`.
        def recording_omega(site, cap):
            new = omega(site, cap)
            old = old_build_presheaf(
                site,
                lambda o: tuple(Sieve(o, m) for m in site.stage(o).sieves(cap, o)),
                lambda a, s: omega_transition(site, a, s),
            )
            self.old[id(new)] = (new, old)
            self.omegas.append((new, old))
            return new

        # A cut's twin keeps the values at its held positions.
        def recording_cut(m, held):
            new = cut(m, held)

            def keep(o, x):
                return (held[o] >> m.index[o][x]) & 1 == 1

            self.old[id(new)] = (new, old_subpresheaf(self.twin(m), keep))
            return new

        def recording_closed(n):
            self.asked.append(n)
            return closed(n)

        def recording_natural(zeta, m, target):
            self.squares.append((zeta, m, target))
            return natural(zeta, m, target)

        def recording_assoc(site):
            self.sites.append(site)
            return assoc(site)

        monkeypatch.setattr(sieves_module, "build_presheaf", recording_build)
        monkeypatch.setattr(runner_module, "proposition_presheaf", recording_propositions)
        monkeypatch.setattr(runner_module, "omega_presheaf", recording_omega)
        for module in (sieves_module, checks_module, bridge_module):
            monkeypatch.setattr(module, "subpresheaf", recording_cut)
            monkeypatch.setattr(module, "is_closed", recording_closed)
            monkeypatch.setattr(module, "naturality_holds", recording_natural)
        monkeypatch.setattr(checks_module, "associativity_violations", recording_assoc)

    def twin(self, new):
        return self.old[id(new)][1]

    def compare(self):
        counts = {"presheaves": 0, "omegas": 0, "pairs": 0, "squares": 0, "sites": 0}
        for new, old in self.omegas:
            assert new.values == old.values
            assert new.positions == old_positions(old), "Ω's position tables differ from its twin's"
            counts["omegas"] += 1
        for new, old in self.old.values():
            assert first_message(new) == first_message(old)
            counts["presheaves"] += 1
        # A cut is a subfunctor of its parent iff it is closed.
        for n in self.asked:
            if isinstance(n, Cut):
                old = old_is_subpresheaf(self.twin(n), self.twin(n.parent))
                assert is_closed(n) == old
                counts["pairs"] += 1
        for zeta, m, target in self.squares:
            site = target.site

            def transition(a, s):
                return omega_transition(site, a, s)

            old = old_naturality_holds(site, value_keyed(zeta, m), self.twin(m), transition)
            assert naturality_holds(zeta, m, target) == old
            counts["squares"] += 1
        for site in self.sites:
            assert associativity_violations(site) == old_associativity_violations(site)
            assert identity_violations(site) == old_identity_violations(site)
            counts["sites"] += 1
        return counts


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_table_audits_match_the_value_keyed_ones_on_bundled_scenarios(name, monkeypatch):
    recorder = Recorder(monkeypatch)
    report = run_check(load_scenario(bundled_scenario_path(name)))
    counts = recorder.compare()
    assert report["passed"]
    assert all(counts.values()), counts


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_table_audits_match_the_value_keyed_ones_on_chains(dim, workloads, tmp_path, monkeypatch):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(workloads.chain_scenario(13, dim)), encoding="utf-8")
    scenario = load_scenario(str(path))
    recorder = Recorder(monkeypatch)
    run_check(scenario)
    counts = recorder.compare()
    assert all(counts.values()), counts


def test_an_omega_with_one_wrong_position_fails_the_oracle(monkeypatch):
    honest = runner_module.omega_presheaf
    doctored = []

    def with_one_wrong_position(site, cap):
        omega = honest(site, cap)
        if doctored:
            return omega
        # The first arrow that is no identity and whose codomain stage has a
        # second sieve: send the domain's first sieve to another listed sieve.
        a = next(
            a
            for a in range(len(site.arrows))
            if a != site.identity_arrow(site.arrow_dom(a)) and len(omega.values[site.arrow_cod(a)]) > 1
        )
        table = list(omega.positions[a])
        table[0] = 1 - table[0] if table[0] in (0, 1) else 0
        positions = omega.positions[:a] + (tuple(table),) + omega.positions[a + 1 :]
        doctored.append(a)
        return sieves_module.Presheaf(site, omega.values, positions, omega.index)

    monkeypatch.setattr(runner_module, "omega_presheaf", with_one_wrong_position)
    recorder = Recorder(monkeypatch)
    report = run_check(load_scenario(bundled_scenario_path("qubit")))
    assert doctored and not report["passed"]
    with pytest.raises(AssertionError, match="Ω's position tables differ from its twin's"):
        recorder.compare()
