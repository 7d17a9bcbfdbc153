"""One stage per distinct composition table: the build's stage table.

A `Stage` is a function of its `composites` and its `fixed` mask, so the
sites of one build keep one stage per distinct pair (`Site.stage`, the
table `runner.SiteMemo.stages`).  The oracle is a stage built afresh for
each object, `fresh_stage(site, o)`, which shares nothing: on every site of a
checked build, two objects read the same stage exactly when their fresh
stages have equal tables, and every shared stage answers as the fresh one
does, in its listing, its implication and round-trip tables and Ω's
transition rows, which are held to `pull_back` run directly.

Keying the table on the composites alone merges stages that differ only in
their fixed arrows; the dim-2 chain has such a pair, so that key fails here.
A stage's Ω row along an arrow depends on the codomain's listing too,
which the stage does not determine: a hand-written site has one stage
whose arrow goes, from two objects, to codomains with other listings.
"""

import pytest

from sieveval import (
    build_plain_site,
    build_scenario,
    bundled_scenario_path,
    checks,
    close_monoid,
    load_scenario,
    scenario_from_dict,
)
from sieveval.errors import EnumerationExceeded
from sieveval.sieves import Stage, compose_stage, omega_presheaf, pull_back
from sieveval.sites import Arrow, OperatorMonoid, Site, associativity_violations, identity_violations

# input -> (objects read on every site of one checked build, distinct stages)
INPUTS = {
    "minimal": (4, 1),
    "qubit": (6, 2),
    "qubit_complex": (30, 6),
    "qubit_extended": (26, 4),
    "qutrit": (6, 2),
    "qutrit_extended": (48, 12),
    "chain 2": (33, 8),
    "chain 3": (48, 12),
    "chain 4": (58, 12),
    "chain 5": (68, 12),
    "lattice 1": (6, 2),
}


def scenario(name, workloads):
    kind, _, n = name.partition(" ")
    if kind == "chain":
        return scenario_from_dict(workloads.chain_scenario(13, int(n)))
    if kind == "lattice":
        return scenario_from_dict(workloads.lattice_scenario(int(n)))
    return load_scenario(bundled_scenario_path(name))


def checked_build(name, workloads, monkeypatch):
    """The build of one `run_check` of the input, after the check."""
    builds = []
    build = checks.build_scenario

    def kept(scenario):
        builds.append(build(scenario))
        return builds[-1]

    monkeypatch.setattr(checks, "build_scenario", kept)
    assert checks.run_check(scenario(name, workloads))["passed"]
    (built,) = builds
    return built


def every_site(built):
    """Every site the build's memo made: plain, full extended, restricted
    extended, and the plain sites below each object."""
    memo = built.sites
    sites = [functors.site for functors in memo.plain.values()]
    sites += memo.extended.values()
    sites += [functors.site for functors in memo.restricted.values()]
    for below in memo.plain_below.values():
        sites += below.values()
    return sites


def fresh_stage(site, o):
    """A stage composed afresh for site o, in no table."""
    return Stage(*compose_stage(site, o))


def listing(stage, cap, o):
    try:
        return stage.sieves(cap, o)
    except EnumerationExceeded:
        return None


def assert_answers_as_fresh(site, o, cap):
    """Site o's stage answers as a stage composed afresh for it."""
    stage, fresh = site.stage(o), fresh_stage(site, o)
    assert (stage.composites, stage.fixed) == (fresh.composites, fresh.fixed)
    assert (stage.principals, stage.top) == (fresh.principals, fresh.top)
    masks = listing(stage, cap, o)
    assert masks == listing(fresh, cap, o)
    keys = set(stage.implies) | set(masks or ())
    assert {y: stage.implies[y] for y in keys} == {y: fresh.implies[y] for y in keys}
    keys = set(stage.natural) | set(masks or ())
    assert {m: stage.natural[m] for m in keys} == {m: fresh.natural[m] for m in keys}


def assert_omega_rows_are_pullbacks(site, cap):
    """Ω's rows on the site, where every stage lists within the cap, equal
    `pull_back` of each listed mask along each arrow, read by position in
    the codomain's fresh listing, and Ω's tables are those rows."""
    fresh = [fresh_stage(site, o) for o in range(site.n_objects)]
    masks = [listing(stage, cap, o) for o, stage in enumerate(fresh)]
    if None in masks:
        return 0
    at = [{m: j for j, m in enumerate(stage)} for stage in masks]
    omega = omega_presheaf(site, cap)
    for o in range(site.n_objects):
        for i, f in enumerate(site.arrows_from(o)):
            cod = site.arrow_cod(f)
            row = site.stage(o).omega_row(i, site.stage(cod))
            direct = tuple([at[cod].get(pull_back(fresh[o].composites[i], m)) for m in masks[o]])
            assert row == direct
            assert omega.positions[f] is row
    return len(site.arrows)


@pytest.mark.parametrize("name", INPUTS)
def test_objects_share_a_stage_exactly_when_their_tables_are_equal(name, workloads, monkeypatch):
    built = checked_build(name, workloads, monkeypatch)
    cap = built.scenario.caps["sieve_enum"]
    stage_of: dict[tuple, int] = {}
    objects = 0
    for site in every_site(built):
        for o in range(site.n_objects):
            fresh = fresh_stage(site, o)
            key = (fresh.composites, fresh.fixed)
            # the first object with these tables names the stage they all read
            assert stage_of.setdefault(key, id(site.stage(o))) == id(site.stage(o))
            assert_answers_as_fresh(site, o, cap)
            objects += 1
    # distinct tables read distinct stages, and the build keeps no other
    assert len(set(stage_of.values())) == len(stage_of) == len(built.sites.stages)
    assert (objects, len(stage_of)) == INPUTS[name]


@pytest.mark.parametrize("name", INPUTS)
def test_omega_rows_are_direct_pullbacks(name, workloads, monkeypatch):
    built = checked_build(name, workloads, monkeypatch)
    cap = built.scenario.caps["sieve_enum"]
    assert sum(assert_omega_rows_are_pullbacks(site, cap) for site in every_site(built))


def test_an_input_has_equal_composites_with_other_fixed_arrows(workloads, monkeypatch):
    """Two objects of the dim-2 chain's build compose alike but keep other
    arrows at their observable, so a table keyed on the composites alone
    would give them one stage."""
    built = checked_build("chain 2", workloads, monkeypatch)
    fixed: dict[tuple, set[int]] = {}
    for composites, mask in built.sites.stages:
        fixed.setdefault(composites, set()).add(mask)
    assert any(len(masks) > 1 for masks in fixed.values())


def test_a_shared_stage_keeps_omega_rows_per_codomain_listing():
    """Objects X1, C1 and X2 share a stage, whose second arrow f goes from
    X1 to C1 and from X2 to C2.  Past f, C1 has an idempotent b and C2 an
    involution c, each fixing f (b·a = c·a = a), so C1 lists three sieves
    and C2 two, and Ω's row along f differs between the two.  The monoid
    e, a, b, c has a as its zero, b·b = b, c·c = e and b·c = c·b = b."""
    table = ((0, 1, 2, 3), (1, 1, 1, 1), (2, 1, 2, 2), (3, 1, 2, 0))
    monoid = OperatorMonoid(("e", "a", "b", "c"), 0, table)
    x1, c1, x2, c2 = range(4)
    arrows = (
        Arrow(x1, 0, x1), Arrow(x1, 1, c1),
        Arrow(c1, 0, c1), Arrow(c1, 2, c1),
        Arrow(x2, 0, x2), Arrow(x2, 1, c2),
        Arrow(c2, 0, c2), Arrow(c2, 3, c2),
    )
    site = Site((), monoid, (), tuple((o, 0) for o in range(4)), arrows, ((True,),))
    assert not associativity_violations(site) and not identity_violations(site)
    assert site.stage(x1) is site.stage(x2) is site.stage(c1) is not site.stage(c2)
    assert [len(site.stage(o).sieves(16, o)) for o in (c1, c2)] == [3, 2]
    assert assert_omega_rows_are_pullbacks(site, 16) == len(arrows)
    omega = omega_presheaf(site, 16)
    assert omega.positions[1] != omega.positions[5]


def test_a_site_built_alone_keeps_a_stage_table_of_its_own():
    """Outside a build, each site has its own table, which its objects
    share: qubit's objects 1 and 2 have equal tables."""
    qubit = load_scenario(bundled_scenario_path("qubit"))
    monoid = close_monoid(qubit.generators, qubit.caps["monoid"], dim=qubit.dimension)
    seeds = list(qubit.states.values())
    sites = [build_plain_site(qubit.observables[0], monoid, seeds, cap=16) for _ in range(2)]
    stages = [[site.stage(o) for o in range(site.n_objects)] for site in sites]
    assert all(len(set(map(id, row))) == 2 and row[1] is row[2] for row in stages)
    assert not set(map(id, stages[0])) & set(map(id, stages[1]))


def test_two_builds_of_one_input_share_no_stage():
    path = bundled_scenario_path("qubit_extended")
    tables = []
    for built in (build_scenario(load_scenario(path)) for _ in range(2)):
        for run in built.runs:
            for site in (run.plain, run.extended_full):
                for o in range(site.n_objects):
                    site.stage(o)
        tables.append(built.sites.stages)
    assert tables[0].keys() == tables[1].keys()
    assert not set(map(id, tables[0].values())) & set(map(id, tables[1].values()))
