"""Which bundled bridge contexts pair a stage with itself.

A build reads one `Stage` for every object with the same composition table
and fixed mask (`Site.stage`).  At a run's finest observable every arrow
out of the bridge's extended stage stays at that observable, so the
extended stage has the plain stage's tables and the build reads one stage
for both sides of the bridge: there the bridge rows (Props 5.1/5.2, Eq 5.6,
Eq 5.17) compare a stage's tables with themselves and hold by
construction.  The pin names those contexts, 3 of the 7 runs with a family,
and requires every other context to pair two stages, the extended one with
more arrows.  A build that reads one stage for both sides of every context
fails the pin.
"""

import pytest

from sieveval import build_scenario, bundled_scenario_names, bundled_scenario_path, load_scenario

# (scenario, run) whose bridge reads one stage for both sides
ONE_STAGE = {("minimal", "only"), ("qubit_extended", "fine"), ("qutrit_extended", "fine-r2")}


def bundled_builds():
    return {name: build_scenario(load_scenario(bundled_scenario_path(name))) for name in bundled_scenario_names()}


def pairings(builds):
    """(scenario, run) -> None where the run's bridge reads one stage for
    both sides, else (extended arrows, plain arrows) of its two stages."""
    out = {}
    for name, built in builds.items():
        for run in built.runs:
            ctx = run.ctx
            if ctx is not None:
                plain, ext = ctx.plain.stage(ctx.plain_stage), ctx.extended.stage(ctx.stage)
                out[name, run.spec.name] = None if plain is ext else (ext.top.bit_length(), plain.top.bit_length())
    return out


def assert_pinned(pairs):
    assert len(pairs) == 7
    assert {key for key, arrows in pairs.items() if arrows is None} == ONE_STAGE
    for key, arrows in pairs.items():
        if arrows is not None:
            extended, plain = arrows
            assert extended > plain, key


def test_three_bundled_bridges_read_one_stage_for_both_sides():
    pairs = pairings(bundled_builds())
    assert_pinned(pairs)
    assert sorted(arrows for arrows in pairs.values() if arrows) == [(5, 3), (8, 5), (8, 5), (8, 5)]


def one_stage_for_both_sides(built):
    """Every bridge context's plain side reads its extended stage: the
    object's slot in the site that owns the plain stage is overwritten."""
    for run in built.runs:
        ctx = run.ctx
        if ctx is not None:
            site, o = ctx.plain, ctx.plain_stage
            while site._parent is not None:
                site, o = site._parent, site._keep[o]
            site._stages[o] = ctx.extended.stage(ctx.stage)


def test_a_build_with_one_stage_for_every_bridge_fails_the_pin():
    builds = bundled_builds()
    for built in builds.values():
        one_stage_for_both_sides(built)
    pairs = pairings(builds)
    assert all(arrows is None for arrows in pairs.values())
    with pytest.raises(AssertionError):
        assert_pinned(pairs)
