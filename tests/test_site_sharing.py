"""What one build shares between its runs (`runner.SiteMemo`).

Each site is built once per scenario, keyed by what it depends on, and
the proposition functor L, the atom functor A and the classifier Ω once
per site; σ, T and the truth-value tables stay per run.  Metamorphic:
every run of a bundled scenario reports the same rows as a scenario that
holds that run alone, so no run reads another run's values.  Sharing is
real: runs at the same observable hold the same site and functors.  And
it is acyclic: a finished `check` leaves no site or presheaf alive, even
with the cycle collector off.
"""

import gc
import json
import sys
import weakref

import pytest

from sieveval import (
    build_scenario,
    bundled_scenario_names,
    bundled_scenario_path,
    load_scenario,
    run_check,
    scenario_from_dict,
)
from sieveval import sieves, sites, subspaces


def _declared(name):
    return json.loads(bundled_scenario_path(name).read_text(encoding="utf-8"))


def _rows_of(report, run):
    return [row for row in report["rows"] if row["run"] == run]


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_each_run_reports_what_it_reports_alone(name):
    declared = _declared(name)
    together = run_check(scenario_from_dict(declared))
    for run in declared["runs"]:
        alone = run_check(scenario_from_dict(dict(declared, runs=[run])))
        assert _rows_of(together, run["name"]) == _rows_of(alone, run["name"])
        assert _rows_of(together, None) == _rows_of(alone, None)


def _runs(name, *run_names):
    built = build_scenario(load_scenario(bundled_scenario_path(name)))
    by_name = {run.spec.name: run for run in built.runs}
    return [by_name[n] for n in run_names]


def _assert_shared(a, b):
    """Two sides of runs on one site with different eigenspaces."""
    assert a.r_space != b.r_space
    assert a.site is b.site
    assert a.propositions_l is b.propositions_l
    assert a.atoms_a is b.atoms_a
    assert a.omega is b.omega
    assert a.sigma is not b.sigma and a.sigma.values != b.sigma.values
    assert a.true_t is not b.true_t and a.true_t.values != b.true_t.values
    assert a.values is not b.values and a.chi is not b.chi


def test_runs_at_one_observable_share_the_plain_site_and_its_functors():
    up, down = _runs("qubit", "z-up", "z-down")
    _assert_shared(up.plain_side, down.plain_side)


def test_runs_at_one_stage_of_a_family_share_both_sides():
    mid, mid_r1, fine = _runs("qutrit_extended", "mid", "mid-r1", "fine-r2")
    _assert_shared(mid.plain_side, mid_r1.plain_side)
    _assert_shared(mid.ext_side, mid_r1.ext_side)
    assert mid.extended_full is mid_r1.extended_full is fine.extended_full
    # Another observable of the family: its own plain and restricted sites.
    assert fine.plain is not mid.plain and fine.rest is not mid.rest


def test_a_check_leaves_no_site_or_presheaf_alive_without_the_collector(monkeypatch):
    made = []

    def track(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            original(self, *args, **kwargs)
            made.append(weakref.ref(self))

        monkeypatch.setattr(cls, name, wrapper)

    track(sites.Site, "__init__")
    track(sieves.Presheaf, "__init__")
    gc.collect()
    gc.disable()
    try:
        for name in bundled_scenario_names():
            assert run_check(load_scenario(bundled_scenario_path(name)))["passed"]
        alive = sum(ref() is not None for ref in made)
    finally:
        gc.enable()
    assert made
    assert alive == 0, f"{alive} of {len(made)} sites and presheaves outlive their check"


def test_a_build_walks_each_orbit_once(monkeypatch):
    """A cold check of the bundled scenarios walks 6 orbits: each build's
    one walk of its seeds under the whole monoid, which every plain site,
    the extended sites and Props B1–B2 read (every bundled observable
    commutes with the whole monoid).  No site is rebuilt for §4.1.  The
    propositions' closure (`close_universe`) is not counted."""
    walks = []
    original = subspaces.operator_closure

    def counted(seeds, operators):
        callers, frame = set(), sys._getframe(1)
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        if "close_universe" not in callers:
            walks.append(seeds)
        return original(seeds, operators)

    modules = [m for name, m in sys.modules.items() if name == "sieveval" or name.startswith("sieveval.")]
    for module in modules:
        if getattr(module, "operator_closure", None) is original:
            monkeypatch.setattr(module, "operator_closure", counted)
    for name in bundled_scenario_names():
        assert run_check(load_scenario(bundled_scenario_path(name)))["passed"]
    assert len(walks) == 6
