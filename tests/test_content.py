"""Which bundled runs give a row something that could fail: the floors and
Prop B1's instances.

A row that holds on every input it runs on shows nothing there.  Two such
gaps are decided here from the built objects, not from the report:

- **Floor.**  The semi-classifier repairs the null proposition, whose value
  in Ω is the annihilator floor at the run's stage (Eqs 3.28–3.30,
  3.44–3.45), and Prop 3.3 bounds every valuation below by the floors.
  Where the floor at the run's stage is empty, the null proposition takes
  the bottom sieve of Ω and no repair is needed, so those rows check no
  defect there.  The pin names those runs: every run on the unit
  observable, 3 of the 13.
- **Prop B1.**  Its instances are the (ray, a, b) with observables a <= b,
  a not b, whose atom sets nest; only there can "inclusion forces
  equality" fail.  The pin names the scenarios with none.

Each pin also requires some bundled run or scenario to have content, and a
build whose floors are all empty fails the floor pin.
"""

import pytest

from sieveval import build_scenario, bundled_scenario_names, bundled_scenario_path, checks, load_scenario
from sieveval import runner as runner_module
from sieveval.modal import observable_leq, zero_augmented_atom_set
from sieveval.sieves import bottom_sieve

# (scenario, run) whose annihilator floor at the run's stage is empty
EMPTY_FLOOR = {("minimal", "only"), ("qubit_complex", "coarse"), ("qubit_extended", "coarse")}

# scenarios whose Prop B1 row has no instance
NO_B1_INSTANCE = {"minimal", "qubit", "qutrit"}


def bundled_builds():
    return {name: build_scenario(load_scenario(bundled_scenario_path(name))) for name in bundled_scenario_names()}


def floor_sizes(builds):
    """(scenario, run) -> the arrows in the annihilator floor at the run's stage."""
    return {
        (name, run.spec.name): run.floors[run.plain_side.stage].mask.bit_count()
        for name, built in builds.items()
        for run in built.runs
    }


def assert_floors_pinned(sizes):
    assert len(sizes) == 13
    assert {key for key, size in sizes.items() if not size} == EMPTY_FLOOR
    assert any(sizes.values())


def b1_instances(built):
    """The (ray, a, b) that Prop B1 can fail on: a <= b, a not b, and the
    atom set of the ray under a inside its atom set under b."""
    rays, _, _ = built.sites.orbits[built.sites.whole]
    observables = built.scenario.observables
    return sum(
        1
        for ray in rays
        for a in observables
        for b in observables
        if a is not b
        and observable_leq(a, b)
        and zero_augmented_atom_set(ray, a) <= zero_augmented_atom_set(ray, b)
    )


def test_three_bundled_runs_have_an_empty_floor_at_their_stage():
    builds = bundled_builds()
    sizes = floor_sizes(builds)
    assert_floors_pinned(sizes)
    # every run on the unit observable, and only those
    unit = {
        (name, run.spec.name)
        for name, built in builds.items()
        for run in built.runs
        if len(built.scenario.observables[built.scenario.observable_index[run.spec.observable]].eigenspaces) == 1
    }
    assert unit == EMPTY_FLOOR


def with_empty_floors(annihilator_floors):
    return lambda site, r: tuple(bottom_sieve(o) for o in range(len(annihilator_floors(site, r))))


def test_a_build_whose_floors_are_all_empty_fails_the_pin(monkeypatch):
    monkeypatch.setattr(runner_module, "annihilator_floors", with_empty_floors(runner_module.annihilator_floors))
    sizes = floor_sizes(bundled_builds())
    assert not any(sizes.values())
    with pytest.raises(AssertionError):
        assert_floors_pinned(sizes)


def test_three_bundled_scenarios_have_no_prop_b1_instance():
    counts = {}
    for name, built in bundled_builds().items():
        counts[name] = b1_instances(built)
        b1, _ = checks._atom_set_rows(built)
        assert b1["details"] == {"instances": counts[name]}, name
    assert {name for name, count in counts.items() if not count} == NO_B1_INSTANCE
    assert any(counts.values())
