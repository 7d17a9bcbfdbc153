"""The per-object stages a site reads (`Site.stage`, `Stage.sieves`).

A site builds one stage per object and keeps it for its own life, a build
keeps one stage per distinct composition table and fixed mask, and a
restriction reads its parent's; a stage is listed once, so the table must
die with the build, must not grow across repeated checks of the same
scenarios, and must still refuse a stage larger than the cap of each call,
naming the object as the caller's site numbers it.
"""

import gc
import json
import weakref
from pathlib import Path

import pytest

from families import family_scenario
from sieveval import (
    build_scenario,
    bundled_scenario_names,
    bundled_scenario_path,
    checks,
    load_scenario,
    restrict_down,
    run_check,
    runner,
    scenario_from_dict,
    valuate_run,
)
from sieveval.errors import EnumerationExceeded
from sieveval.sites import ExtendedSite, PlainSite


def qubit_site():
    """A fresh plain site of the bundled qubit scenario, nothing listed yet."""
    return build_scenario(load_scenario(bundled_scenario_path("qubit"))).runs[0].plain


def _sites_after_valuating(name):
    """Weak references to every site of a built scenario whose run stages
    have been listed; the scenario itself is dropped on return."""
    built = build_scenario(load_scenario(bundled_scenario_path(name)))
    for run in built.runs:
        valuate_run(run)
    return [
        weakref.ref(site)
        for run in built.runs
        for site in (run.plain, run.extended_full, run.rest)
        if site is not None
    ]


def test_a_site_and_its_sieve_table_are_freed_with_the_scenario():
    refs = _sites_after_valuating("qubit_extended")
    gc.collect()
    assert refs and all(ref() is None for ref in refs)


def _build_objects(built):
    """Every site, stage and presheaf of a built scenario that its runs read."""
    for run in built.runs:
        sides = [side for side in (run.plain_side, run.ext_side) if side is not None]
        sites = [run.plain, run.extended_full, *run.plain_below.values(), *(side.site for side in sides)]
        for site in filter(None, sites):
            yield site
            yield from (site.stage(o) for o in range(site.n_objects))
        yield run.delta
        for side in sides:
            yield from (side.propositions_l, side.atoms_a, side.omega, side.true_t)
        if run.ext_side is not None:
            yield run.nat_omega


def test_no_verdict_of_a_check_outlives_its_build(monkeypatch):
    """`run_check` keeps its verdicts on shared objects for the check alone:
    once it returns and its build is dropped, every site, stage and
    presheaf of the build is freed."""
    builds = []
    build = checks.build_scenario

    def kept(scenario):
        builds.append(build(scenario))
        return builds[-1]

    monkeypatch.setattr(checks, "build_scenario", kept)
    for name in bundled_scenario_names():
        assert run_check(load_scenario(bundled_scenario_path(name)))["passed"]
    refs = [weakref.ref(x) for built in builds for x in _build_objects(built)]
    builds.clear()
    gc.collect()
    assert len(refs) > 100 and all(ref() is None for ref in refs)


def parent_index(rest, parent, i):
    """The parent's index of the restriction's object i: a restriction keeps
    its parent's (ray, observable) pairs."""
    return parent.objects.index(rest.objects[i])


def test_a_site_keeps_one_stage_per_distinct_table_and_a_restriction_reads_its_parents():
    site = qubit_site()
    stages = [site.stage(o) for o in range(site.n_objects)]
    assert all(site.stage(o) is stage for o, stage in enumerate(stages))
    # Objects 1 and 2 have equal composition tables and fixed masks.
    tables = [(stage.composites, stage.fixed) for stage in stages]
    assert len(set(map(id, stages))) == len(set(tables)) == 2 < site.n_objects
    assert stages[1] is stages[2]
    down = restrict_down(site, 1)
    assert down.n_objects < site.n_objects
    for o in range(down.n_objects):
        stage = down.stage(o)
        assert stage is stages[parent_index(down, site, o)]
        assert stage.top == (1 << len(down.arrows_from(o))) - 1
        assert not hasattr(stage, "base")
    # what the parent's stage has filled, the restriction's has filled
    parent = stages[parent_index(down, site, 0)]
    assert parent.sieves(64, 0) is down.stage(0).sieves(64, 0)
    assert parent.implies[parent.top] == 0 and len(down.stage(0).implies) == 1


CHECKED_SCENARIOS = [
    *bundled_scenario_names(),
    *(f"chain {dim}" for dim in (3, 4, 5)),
    "family 3",
]


def _scenario(name, workloads):
    if name.startswith("chain"):
        return scenario_from_dict(workloads.chain_scenario(13, int(name.split()[1])))
    if name == "family 3":
        return scenario_from_dict(family_scenario(3))
    return load_scenario(bundled_scenario_path(name))


@pytest.mark.parametrize("name", CHECKED_SCENARIOS)
def test_every_restriction_of_a_cold_check_shares_its_parents_stages(name, workloads, monkeypatch):
    """Eq 3.56's plain site below a run's stage and the extended site below
    it hold, at each object, the very stage their parent holds there."""
    made = []

    def recorded(site, obj):
        rest = restrict_down(site, obj)
        made.append((site, rest))
        return rest

    monkeypatch.setattr(runner, "restrict_down", recorded)
    scenario = _scenario(name, workloads)
    assert run_check(scenario)["passed"]
    kinds = {type(rest).__name__ for _, rest in made}
    assert "PlainSite" in kinds
    assert ("ExtendedSite" in kinds) == any(run.extended for run in scenario.runs)
    for parent, rest in made:
        for i in range(rest.n_objects):
            assert rest.stage(i) is parent.stage(parent_index(rest, parent, i))


@pytest.mark.parametrize("name", CHECKED_SCENARIOS)
def test_a_restriction_of_a_cold_check_composes_nothing(name, workloads, monkeypatch):
    """A restriction reads its parent's stages, whose rows are the only
    composition table, so no arrow of it is composed."""
    restricted, composing = [], set()

    def recorded(site, obj):
        rest = restrict_down(site, obj)
        restricted.append(rest)
        return rest

    def counted(compose):
        def wrapper(site, g, f):
            composing.add(site)
            return compose(site, g, f)

        return wrapper

    monkeypatch.setattr(runner, "restrict_down", recorded)
    for cls in (PlainSite, ExtendedSite):
        monkeypatch.setattr(cls, "compose", counted(cls.compose))
    assert run_check(_scenario(name, workloads))["passed"]
    assert restricted and composing
    assert not composing.intersection(restricted)


BUILD_PEAK = """
import sys, tracemalloc
sys.path.insert(0, sys.argv[1])
from families import family_scenario
from sieveval import build_scenario, scenario_from_dict

scenario = scenario_from_dict(family_scenario(4))
tracemalloc.start()
build_scenario(scenario)
print(tracemalloc.get_traced_memory()[1])
"""


def test_the_dim_4_family_builds_under_10_mb_traced(run_fresh):
    """Building a site stores one composition table, its stages' rows, so
    the build's traced peak stays under 10 MB."""
    done = run_fresh(BUILD_PEAK, str(Path(__file__).parent))
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 10 * 2**20


def test_a_listed_stage_still_raises_under_a_smaller_cap():
    message = r"^sieve enumeration exceeded the cap of 4 at object 0 \(3 arrows\)$"
    sites = [qubit_site(), qubit_site()]  # a stage is used while its site lives
    fresh, listed = (site.stage(0) for site in sites)
    with pytest.raises(EnumerationExceeded, match=message):
        fresh.sieves(4, 0)
    masks = listed.sieves(64, 0)
    assert len(masks) == 5
    with pytest.raises(EnumerationExceeded, match=message):
        listed.sieves(4, 0)
    assert listed.sieves(5, 0) is masks
    # a listing cut short by its cap leaves nothing behind
    assert fresh.sieves(5, 0) == masks


def test_a_shared_stage_names_the_object_as_each_site_numbers_it():
    """A cap hit names the caller's index of the object, which differs
    between a site and its restriction."""
    site = qubit_site()
    down = restrict_down(site, 1)
    o = next(o for o in range(down.n_objects) if parent_index(down, site, o) != o)
    arrows = len(down.arrows_from(o))
    for index, owner in ((o, down), (parent_index(down, site, o), site)):
        with pytest.raises(EnumerationExceeded, match=rf" at object {index} \({arrows} arrows\)$"):
            owner.stage(index).sieves(1, index)


def test_a_stage_outliving_its_site_answers_new_keys():
    """A stage holds no reference to its site: once the site is freed, it
    still fills new `implies` and `natural` keys, as a live twin's does."""
    site = qubit_site()
    ref = weakref.ref(site)
    stage = site.stage(0)
    masks = stage.sieves(64, 0)
    held = stage.implies[stage.top]
    del site
    gc.collect()
    assert ref() is None
    twin = qubit_site().stage(0)
    assert stage.sieves(64, 0) is masks and stage.implies[stage.top] == held
    assert len(stage.implies) == 1 and not stage.natural and masks == twin.sieves(64, 0)
    assert [stage.implies[m] for m in masks] == [twin.implies[m] for m in masks]
    assert [stage.natural[m] for m in masks] == [twin.natural[m] for m in masks]


# The loop runs in a fresh interpreter.  tracemalloc counts a block that was
# allocated before tracing started as new once it is reallocated.  The
# interned-string dict is such a block: pathlib interns path parts, freed
# strings leave holes in it, and its rebuild adds its whole size.  In a test
# process that dict is large and when it is rebuilt depends on what ran
# before, so the gate read a jump of about 1 MB when it ran alone.
REPEATED_CHECKS = """
import gc, json, tracemalloc
from sieveval import bundled_scenario_names, bundled_scenario_path, load_scenario, run_check

names = bundled_scenario_names()
live = []
tracemalloc.start()
for _ in range(20):
    for name in names:
        run_check(load_scenario(bundled_scenario_path(name)))
    gc.collect()
    live.append(tracemalloc.get_traced_memory()[0])
print(json.dumps(live))
"""


def test_repeated_bundled_checks_hold_live_memory_flat(run_fresh):
    done = run_fresh(REPEATED_CHECKS)
    assert done.returncode == 0, done.stderr
    live = json.loads(done.stdout)
    assert len(live) == 20
    after_round_two = live[1]
    assert all(abs(size - after_round_two) <= 64 * 1024 for size in live[1:]), live
