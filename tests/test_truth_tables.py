"""The per-run truth-value tables.

Each side of a built run (`SiteRun`, the plain one and the extended one)
holds the direct valuation of every proposition at every stage (`values`)
and the characteristic table of the true subobject (`chi`).

Differential: every table entry equals a fresh `valuation` call and every
chi a fresh `characteristic_table`, on the bundled scenarios and on
generated chains.  Counts: one cold `run_check` of the bundled scenarios
builds each site, its stages and its classifier once for all the runs on
it, builds each table once, moves sieves along arrows only to fill the
classifier tables, reads each cut's position tables once per table, and
asks each stage implication and each round trip once; `dump-site` and
`valuate` build no table and compose only the stages they read.  Witness: a doctored table
entry fails its oracle row, which names the entry.
"""

from collections import Counter

import pytest

from families import family_scenario
from sieveval import (
    build_scenario,
    bundled_scenario_names,
    bundled_scenario_path,
    dump_site,
    load_scenario,
    run_check,
    run_valuate,
    scenario_from_dict,
)
from sieveval import bridge, checks, runner, sieves, sites
from sieveval.sieves import bottom_sieve, characteristic_table, top_sieve, valuation


def bundled(name):
    return build_scenario(load_scenario(bundled_scenario_path(name)))


def assert_tables_are_fresh(built):
    entries = 0
    for run in built.runs:
        for side in filter(None, (run.plain_side, run.ext_side)):
            site, propositions = side.site, side.propositions_l
            assert side.chi == characteristic_table(side.true_t)
            assert [len(row) for row in side.values] == [len(stage) for stage in propositions.values]
            for o, stage in enumerate(propositions.values):
                for p, value in zip(stage, side.values[o]):
                    assert value == valuation(site, o, run.r_space, p)
                    entries += 1
    assert entries


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_tables_equal_fresh_valuations_on_bundled_scenarios(name):
    assert_tables_are_fresh(bundled(name))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_tables_equal_fresh_valuations_on_chains(dim, workloads):
    built = build_scenario(scenario_from_dict(workloads.chain_scenario(13, dim)))
    assert any(run.ext_side for run in built.runs)
    assert_tables_are_fresh(built)


COUNTED = (
    "valuation",
    "valuation_row",
    "characteristic_table",
    "pull_back",
    "detector_tables",
    "heyting_implies",
)


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls to the functions in `COUNTED`, through every module
    that binds one, and of `pull_back` calls made outside `omega_presheaf`."""
    counts = Counter()
    building = []

    def counted(name, original):
        def wrapper(*args):
            counts[name] += 1
            if name == "pull_back" and not building:
                counts["pull_back outside omega_presheaf"] += 1
            return original(*args)

        return wrapper

    def building_omega(original):
        def wrapper(*args):
            building.append(True)
            try:
                return original(*args)
            finally:
                building.pop()

        return wrapper

    for module in (sieves, runner, checks, bridge):
        for name in COUNTED:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        if hasattr(module, "omega_presheaf"):
            monkeypatch.setattr(module, "omega_presheaf", building_omega(module.omega_presheaf))
    return counts


def test_one_cold_check_builds_each_table_once(calls):
    for name in bundled_scenario_names():
        assert run_check(load_scenario(bundled_scenario_path(name)))["passed"]
    # One row per stage of each site's value table, plus one row per run on
    # its reachable-part restriction (Eq 3.56); no value is computed alone.
    assert calls["valuation"] == 0
    assert calls["valuation_row"] == 95
    # One chi per site of each run, plus one per constructed adversarial
    # subobject, built once per extended proposition functor (7 runs share 6).
    assert calls["characteristic_table"] == 23
    # Sieves move along arrows only to fill Ω's tables, one mask pulled back
    # per listed sieve of each stage's row along an arrow position into a
    # codomain listing, shared by every arrow and site that reads the row
    # (1,471 while each arrow of each Ω pulled back for itself); every
    # naturality square reads them.
    assert calls["pull_back"] == 844
    assert calls["pull_back outside omega_presheaf"] == 0
    # One detector table per closed cut of the extended propositions: the
    # true subobject of each extended run and each adversarial cut.
    assert calls["detector_tables"] == 10
    # One implication per distinct s minus t of each distinct stage of a
    # build: the stage's table is shared by every audit, every run, every
    # restriction and every object with its composition table and fixed
    # mask that reads it (682 while each object had a stage of its own).
    assert calls["heyting_implies"] == 404


def test_one_cold_check_fills_each_round_trip_once(monkeypatch):
    stages = []

    class Counted(sieves.Stage):
        """A stage that counts the fills of its round-trip table."""

        def __init__(self, composites, fixed):
            super().__init__(composites, fixed)
            self.fills = 0
            fill = self.natural.fn

            def counted(m):
                self.fills += 1
                return fill(m)

            self.natural.fn = counted
            stages.append(self)

    monkeypatch.setattr(sites, "Stage", Counted)
    for name in bundled_scenario_names():
        assert run_check(load_scenario(bundled_scenario_path(name)))["passed"]
    # One round trip per distinct mask of each stage a build keeps: ♮Ω, the
    # census, the stage isomorphism, the detectors, Def 5.4 and Prop 5.14
    # read one table per stage, a restriction reads its parent's, objects
    # with equal tables read one stage, and nothing computes a round trip
    # outside it (169 while each object had a stage of its own).  No stage
    # is built for an object whose table the build holds already.
    assert len(stages) == 27
    assert sum(len(stage.natural) for stage in stages) == 136
    assert sum(stage.fills for stage in stages) == 136


@pytest.fixture
def composed(monkeypatch):
    """Counts of the stages built and of the `compose` calls made."""
    counts = Counter()
    stage = sites.Stage

    def counted_stage(*args):
        counts["stage"] += 1
        return stage(*args)

    def counted_compose(compose):
        def wrapper(*args):
            counts["compose"] += 1
            return compose(*args)

        return wrapper

    monkeypatch.setattr(sites, "Stage", counted_stage)
    for cls in (sites.PlainSite, sites.ExtendedSite):
        monkeypatch.setattr(cls, "compose", counted_compose(cls.compose))
    return counts


def test_one_cold_check_builds_each_site_and_classifier_once(monkeypatch, composed):
    counts = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    build_site = sites.build_site

    def counted_site(cls, *args):
        counts[cls.__name__] += 1
        return build_site(cls, *args)

    for module in (sites, runner):
        monkeypatch.setattr(module, "build_site", counted_site)
    monkeypatch.setattr(runner, "omega_presheaf", counted("omega", runner.omega_presheaf))
    restrict_down = runner.restrict_down

    def counted_restriction(site, obj):
        counts["restricted " + type(site).__name__] += 1
        return restrict_down(site, obj)

    monkeypatch.setattr(runner, "restrict_down", counted_restriction)
    monkeypatch.setattr(runner, "natural_omega", counted("natural omega", runner.natural_omega))
    monkeypatch.setattr(runner, "make_bridge_context", counted("context", runner.make_bridge_context))
    monkeypatch.setattr(sites.Site, "__init__", counted("Site", sites.Site.__init__))
    builds = []
    build_scenario = checks.build_scenario

    def kept(scenario):
        builds.append(build_scenario(scenario))
        return builds[-1]

    monkeypatch.setattr(checks, "build_scenario", kept)
    for name in bundled_scenario_names():
        assert run_check(load_scenario(bundled_scenario_path(name)))["passed"]
    # One plain site per observable that a run is at: 9 for 13 runs.
    assert counts["PlainSite"] == 9
    # One full extended site per declared family.
    assert counts["ExtendedSite"] == 4
    # One Ω per plain site and one per restricted extended site.
    assert counts["omega"] == 15
    # One stage per distinct composition table and fixed mask of each
    # build, which every object with them reads: each object of an
    # unrestricted site, the full extended sites too, is composed (§3.1 and
    # Eq 4.9 read every one), and a `Stage` is built only for a table the
    # build does not hold yet (61, one per object, while each was built
    # before its table was looked up).  A restriction reads its parent's.
    assert composed["stage"] == 27
    assert sum(len(built.sites.stages) for built in builds) == 27
    # Eq 3.56's plain site below a run's stage, once per (observable, stage):
    # 9 for 13 runs; one restricted extended site per (family, stage).
    assert counts["restricted PlainSite"] == 9
    assert counts["restricted ExtendedSite"] == 6
    # ♮Ω and the bridge context once per restricted extended site, although
    # qutrit_extended's mid and mid-r1 both read them.
    assert counts["natural omega"] == 6
    assert counts["context"] == 6
    # Every site is one of the above, and no site is rebuilt for §4.1.
    assert counts["Site"] == 9 + 4 + 9 + 6
    # Each stage composes every arrow out of its object with every arrow out
    # of that arrow's codomain once; nothing else composes on a check.
    assert composed["compose"] == 1061


def test_dump_site_and_valuate_compose_only_the_stages_they_read(composed):
    names = bundled_scenario_names()
    for name in names:
        dump_site(load_scenario(bundled_scenario_path(name)))
    # The extended stage of each of the 6 bridges, read for its fixed
    # arrows when the context pairs the two sides' operators; dump-site
    # reads no other stage.
    assert composed == Counter(stage=6, compose=129)
    composed.clear()
    for name in names:
        scenario = load_scenario(bundled_scenario_path(name))
        for spec in scenario.runs:
            run_valuate(scenario, spec.name)
    # Each valuate builds afresh and composes only the stages that its
    # values and sieve lists at the run's stage read: 27 objects, with 21
    # distinct tables within their builds.
    assert composed == Counter(stage=21, compose=518)


def test_a_family_build_composes_only_the_bridge_stage(composed):
    build_scenario(scenario_from_dict(family_scenario(4)))
    assert composed["stage"] == 1


def test_dump_site_and_valuate_build_no_table(calls):
    path = bundled_scenario_path("qubit_extended")
    dump_site(load_scenario(path))
    assert calls == Counter()
    report = run_valuate(load_scenario(path), "coarse")
    # One plain and one extended value per proposition, at the run's stage only.
    values = 2 * len(report["valuation"]["propositions"])
    assert calls == Counter(valuation=values, valuation_row=values)


def doctor(site, table, o, i):
    """The table with entry (o, i) replaced by a different sieve on the same object."""
    rows = [list(row) for row in table]
    rows[o][i] = bottom_sieve(o) if table[o][i].mask else top_sieve(site, o)
    return tuple(tuple(row) for row in rows)


def test_a_doctored_plain_entry_fails_eq_3_37_and_is_named():
    run = bundled("qubit").runs[0]
    o, i = run.plain.n_objects - 1, len(run.universe) - 1
    run.plain_side.values = doctor(run.plain, run.plain_side.values, o, i)
    row = checks._oracle_rows(run)[0]
    assert row["tag"] == "Eq 3.21 = Eq 3.37"
    assert not row["passed"]
    assert row["details"]["witness"] == {
        "stage": o,
        "proposition": run.universe_names[run.universe[i]],
    }


def test_a_doctored_extended_entry_fails_eq_4_28_and_is_named():
    run = next(run for run in bundled("qubit_extended").runs if run.ext_side)
    o, i = run.ext_side.stage, 2
    run.ext_side.values = doctor(run.rest, run.ext_side.values, o, i)
    (row,) = [row for row in checks._extended_site_rows(run, {}) if row["tag"] == "Eq 4.28"]
    assert not row["passed"]
    assert row["details"]["witness"] == {
        "stage": o,
        "proposition": run.universe_names[run.universe[i]],
    }


def test_passing_oracle_rows_carry_no_witness():
    run = bundled("qubit_extended").runs[0]
    (row,) = [row for row in checks._extended_site_rows(run, {}) if row["tag"] == "Eq 4.28"]
    assert row["passed"] and "details" not in row
    row = checks._oracle_rows(run)[0]
    assert row["passed"] and "witness" not in row["details"]
