"""The proposition universe as position tables (`subspaces.Universe`).

One universe per build holds the members, the order as one `above` mask
per member, every pairwise meet's position and each operator's action row.
The proposition functor L reads the action rows, and the filter rows, the
Eq 3.2 row and the IB conditions read the order and the meets.

Oracle: on every stage of both sides of every run of the bundled
scenarios and of `chain_scenario(13, 2..5)`, `filter_check` on the
stage's mask, and on each mask one member away from it, reports what a
brute-force `leq`/`meet` loop over the stage's values reports.  The true
subobject is cut by the `above` mask of each stage's atom, with no `leq`
call where the atom is a member (all 82 bundled stage atoms), and by `leq`
elsewhere; both are the brute-force up-sets.  Doctored
inputs: a true subobject missing an up-set member or an inner meet fails
the filter rows, one wrong entry of an action row fails Eqs 3.11 and 4.19
and the comparison of chi with the direct valuation, which never reads the
rows, and a doctored stage row fails the IB conditions.  `join`'s shortcuts return what the elimination returns.
"""

import gc
import weakref

import pytest

from sieveval import (
    Observable,
    Ray,
    atom_global_element,
    atom_presheaf,
    build_plain_site,
    build_scenario,
    bundled_scenario_names,
    bundled_scenario_path,
    close_monoid,
    close_universe,
    full_space,
    load_scenario,
    proposition_presheaf,
    run_check,
    scenario_from_dict,
    zero_space,
)
from sieveval import linalg, runner, sieves, subspaces
from sieveval.sieves import (
    bottom_sieve,
    filter_check,
    ib_condition_check,
    subpresheaf,
    top_sieve,
)
from sieveval.subspaces import Universe, _span, join, leq, meet


def _bundled(name):
    return build_scenario(load_scenario(bundled_scenario_path(name)))


def _sides(built):
    for run in built.runs:
        yield run.plain_side
        if run.ext_side:
            yield run.ext_side


def brute_force_filter(stage, universe):
    """Violations of one stage (a set of members) and the number of ordered
    pairs whose meet lies outside the universe, by `leq` and `meet`."""
    members = set(universe)
    violations = set()
    outside = 0
    for p in stage:
        for q in universe:
            if leq(p, q) and q not in stage:
                violations.add(("up-set", p, q))
        for q in stage:
            pq = meet(p, q)
            if pq not in members:
                outside += 1
            elif pq not in stage:
                violations.add(("meet", p, q))
    return violations, outside


def assert_filter_check_is_the_brute_force_one(built):
    universe = built.universe
    checked = 0
    for side in _sides(built):
        assert side.propositions_l.values[0] == tuple(universe)
        for t in side.true_t.held:
            for mask in [t] + [t ^ (1 << k) for k in range(len(universe))]:
                found, outside = filter_check(universe, [mask])
                stage = {p for k, p in enumerate(universe) if (mask >> k) & 1}
                assert len(found) == len(set(found))
                assert ({(kind, p, q) for kind, _, p, q in found}, outside) == brute_force_filter(
                    stage, universe
                )
                checked += 1
    return checked


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_filter_check_is_the_brute_force_one_on_bundled_scenarios(name):
    assert assert_filter_check_is_the_brute_force_one(_bundled(name))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_filter_check_is_the_brute_force_one_on_chains(dim, workloads):
    built = build_scenario(scenario_from_dict(workloads.chain_scenario(13, dim)))
    assert any(run.ext_side for run in built.runs)
    assert assert_filter_check_is_the_brute_force_one(built)


def test_the_tables_are_what_leq_meet_and_the_operators_give():
    for name in bundled_scenario_names():
        built = _bundled(name)
        universe = built.universe
        assert all(run.universe is universe for run in built.runs)
        assert list(universe.action) == list(built.monoid.elements)
        for i, p in enumerate(universe):
            assert universe.position[p] == i
            for j, q in enumerate(universe):
                assert ((universe.above[i] >> j) & 1 == 1) == leq(p, q)
                k = universe.meets[i][j]
                assert (k is None and meet(p, q) not in universe.position) or universe[k] is meet(p, q)
            for f, row in universe.action.items():
                assert universe[row[i]] is subspaces.apply_operator(f, p)


def _up_sets(true_t, universe):
    """T by brute force: at each stage, the members above the stage's atom."""
    return tuple(tuple(p for p in universe if leq(atom, p)) for atom in true_t)


def test_the_true_subobject_is_cut_by_the_order_table_at_member_atoms(monkeypatch):
    """Every stage atom of the bundled runs is a universe member, so T is cut
    by the universe's `above` masks alone: `sieves.leq` broken, it is the
    brute-force up-sets."""
    built = [_bundled(name) for name in bundled_scenario_names()]

    def no_leq(p, q):
        raise AssertionError("the cut called leq")

    monkeypatch.setattr(sieves, "leq", no_leq)
    atoms = 0
    for b in built:
        for side in _sides(b):
            t = sieves.true_subobject(side.sigma, side.propositions_l, b.universe)
            assert t.values == _up_sets(side.sigma.values, b.universe)
            atoms += len(side.sigma.values)
    assert atoms == 82


def test_a_stage_atom_outside_the_universe_is_cut_by_leq():
    z = Observable("Z", (_span(2, [[(1, 0), (0, 0)]]), _span(2, [[(0, 0), (1, 0)]])))
    e1, plus = z.eigenspaces[0], _span(2, [[(1, 0), (1, 0)]])
    monoid = close_monoid([], cap=1, dim=2)
    site = build_plain_site(z, monoid, [Ray(plus)], cap=1)
    sigma = atom_global_element(site, atom_presheaf(site), e1)
    assert sigma.values == (e1,)
    for seeds in ([zero_space(2), full_space(2), plus], [zero_space(2), e1, full_space(2)]):
        universe = close_universe(seeds, monoid.elements)
        t = sieves.true_subobject(sigma, proposition_presheaf(site, universe), universe)
        assert t.values == _up_sets(sigma.values, universe)
    assert t.values == ((e1, full_space(2)),)


def test_a_build_frees_its_universe_with_it():
    built = _bundled("qutrit_extended")
    ref = weakref.ref(built.universe)
    gc.collect()
    gc.disable()
    try:
        del built
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# doctored inputs


FILTER_TAGS = ("Eqs 3.26–3.27", "Eq 4.26")


def _failed(report, tag):
    return [row for row in report["rows"] if row["tag"] == tag and not row["passed"]]


def _check_with_doctored_truth(monkeypatch, doctor):
    original = runner.true_subobject
    monkeypatch.setattr(
        runner, "true_subobject", lambda sigma, l, universe: doctor(original(sigma, l, universe))
    )
    return run_check(load_scenario(bundled_scenario_path("qutrit_extended")))


def test_a_true_subobject_missing_an_up_set_member_fails_the_filter_rows(monkeypatch):
    # The whole space is above every member; drop it at stage 0.
    def drop_the_whole_space(t):
        full = next(i for i, p in enumerate(t.parent.values[0]) if p.is_full)
        return subpresheaf(t.parent, (t.held[0] & ~(1 << full),) + t.held[1:])

    report = _check_with_doctored_truth(monkeypatch, drop_the_whole_space)
    for tag in FILTER_TAGS:
        failed = _failed(report, tag)
        assert len(failed) == 3  # every run of the scenario
        assert all(row["details"]["violations"] > 0 for row in failed)


def test_a_true_subobject_missing_an_inner_meet_fails_the_filter_rows(monkeypatch):
    dropped = []

    def drop_a_meet(t):
        # The first meet of two true members that is a third true member.
        for o, stage in enumerate(t.values):
            for p in stage:
                for q in stage:
                    m = meet(p, q)
                    if m in t.index[o] and m is not p and m is not q:
                        dropped.append((o, p, q, m))
                        held = list(t.held)
                        held[o] &= ~(1 << t.parent.index[o][m])
                        return subpresheaf(t.parent, held)
        return t

    report = _check_with_doctored_truth(monkeypatch, drop_a_meet)
    assert len(dropped) == 6  # both sides of each run
    for tag in FILTER_TAGS:
        assert len(_failed(report, tag)) == 3
    # The first run's plain side, built again under the same doctor: the
    # violations are the missing meet's, and nothing above it is missing.
    o, p, q, m = dropped[0]
    built = _bundled("qutrit_extended")
    side = built.runs[0].plain_side
    violations, _ = filter_check(built.universe, side.true_t.held)
    assert ("meet", o, p, q) in violations
    assert {kind for kind, *_ in violations} == {"meet"}


def test_a_wrong_action_entry_fails_functoriality_and_the_valuation_oracle(monkeypatch):
    """The identity's row sends {0} (position 0) to the whole space
    (position 1): L's identity transition is then not the identity, the
    action no longer preserves the order, and chi holds the identity arrow
    at {0} while the direct valuation, which applies the operators itself,
    does not."""
    original = runner.proposition_universe

    def doctored(scenario, monoid):
        universe, names = original(scenario, monoid)
        identity = monoid.elements[monoid.identity_index]
        action = dict(universe.action)
        row = list(action[identity])
        assert row[:2] == [0, 1]
        row[0] = 1
        action[identity] = tuple(row)
        return Universe(universe.members, action), names

    monkeypatch.setattr(runner, "proposition_universe", doctored)
    report = run_check(load_scenario(bundled_scenario_path("qubit_extended")))
    for tag in ("Eq 3.11", "Eq 4.19"):
        failed = _failed(report, tag)
        assert len(failed) == 2
        assert all(row["details"]["error"] == "identity transition is not the identity" for row in failed)
    failed = _failed(report, "Eq 3.21 = Eq 3.37")
    assert len(failed) == 2
    assert all(row["details"]["witness"]["proposition"] == "0" for row in failed)
    assert len(_failed(report, "Eq 4.28")) == 2
    # {0} <= P, but the identity's doctored row sends {0} above P.
    assert len(_failed(report, "Eq 3.2")) == 1


def test_the_ib_conditions_read_the_order_and_the_meets():
    """A stage row doctored below the whole space breaks monotonicity, and
    one doctored at the meet of two true members breaks exclusivity."""
    built = _bundled("qutrit_extended")
    run = built.runs[0]
    universe, side = built.universe, run.plain_side
    stage = side.stage
    row = side.values[stage]
    floor = run.floors[stage]
    top = top_sieve(run.plain, stage)
    verdict = ib_condition_check(run.plain, stage, run.r_space, universe, row, floor)
    assert verdict["monotonicity"] and verdict["exclusivity"]
    below = list(row)
    below[1] = bottom_sieve(stage)
    verdict = ib_condition_check(run.plain, stage, run.r_space, universe, below, floor)
    assert not verdict["monotonicity"]
    (i, j, k), *_ = [
        (i, j, universe.meets[i][j])
        for i in range(len(universe))
        for j in range(len(universe))
        if row[i] == row[j] == top and universe.meets[i][j] not in (None, i, j)
    ]
    split = list(row)
    split[k] = floor
    verdict = ib_condition_check(run.plain, stage, run.r_space, universe, split, floor)
    assert not verdict["exclusivity"]


# ---------------------------------------------------------------------------
# join


def test_join_shortcuts_return_the_elimination_result():
    for name in bundled_scenario_names():
        universe = _bundled(name).universe
        zero, whole = universe[0], universe[1]
        assert zero.is_zero and whole.is_full
        for p in universe:
            assert join(p, p) is p and join(zero, p) is p and join(p, zero) is p
            assert join(whole, p) is whole and join(p, whole) is whole
            for q in universe:
                assert join(p, q) is _span(p.ambient_dim, p.rows + q.rows)


def test_leq_does_not_read_join(monkeypatch):
    """The §2 certificate checks join against an order computed apart from
    it: `leq` calls neither `join` nor the elimination `join` runs."""

    def refuse(name):
        def call(*args):
            raise AssertionError(f"leq called {name}")

        return call

    universes = [_bundled(name).universe for name in bundled_scenario_names()]
    monkeypatch.setattr(subspaces, "join", refuse("join"))
    for module in (subspaces, linalg):
        for name in ("insert_rows", "integer_rref"):
            monkeypatch.setattr(module, name, refuse(name))
    for universe in universes:
        for p in universe:
            for q in universe:
                subspaces.leq.__wrapped__(p, q)
