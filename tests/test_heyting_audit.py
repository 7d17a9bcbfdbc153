"""Stage Heyting algebras: `is_heyting_family` against the audit loops it replaced.

The oracle below is the audit the rows ran before the helper: closure of
every pair, modus ponens, and the adjunction probed on every member of the
family, with no sampling.  The helper probes the adjunction on principal
sieves only (for Ω and δΩ), so the two must agree on every stage family of
the bundled scenarios and of a dim-4 chain, whose 85-sieve extended stage
the old audit sampled.  The distributivity triple loop the old audit also
ran holds for any family of ints; the rejection tests keep it as a foil.

The helper reads the implication as a table keyed on s minus t, as a
site's `Stage.implies` holds it, and checks its clauses once per distinct key;
the oracle reads the same table on every pair.  The guard tests below hold
the table to the kernel on every pair, the helper to the oracle on random
families, probes and implications, and count the kernel calls one audit
makes.

The helper reads the probe adjunction from a `nibble_table` of the probes
that meet each bit, and the bridge audit reads `flat` from its context's
table and Eq 5.6's flat side once per distinct s minus t.  The loops they
replaced are kept here as references (`per_probe_is_heyting`, the per-pair
`bridge._dominates_transport` and the bit-by-bit gather), and the
differential tests hold each new path to its reference on every stage
family and bridge context of the bundled scenarios, the `chain_scenario`
dims 2–5 and the dim-3 family, honest and with an implication wrong at
one key.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import family_scenario
from sieveval import (
    Sieve,
    build_scenario,
    bundled_scenario_names,
    bundled_scenario_path,
    flat,
    heyting_implies,
    heyting_iso_check,
    load_scenario,
    omega_transition,
    run_check,
    scenario_from_dict,
    sharp,
)
from sieveval import bridge as bridge_module
from sieveval import checks as checks_module
from sieveval import runner as runner_module
from sieveval import sieves as sieves_module
from sieveval import sites as sites_module
from sieveval.sieves import (
    LazyTable,
    delta_omega_presheaf,
    is_heyting_family,
    nibble_table,
    Stage,
    omega_presheaf,
    subpresheaf,
    top_sieve,
)
from test_negative_controls import bridge_stage, each_run_apart

CAP = 4096


def _vector(dim: int, entries: dict[int, str]) -> list[str]:
    return [entries.get(i, "0") for i in range(dim)]


def _projector(dim: int, support: set[int]) -> list[list[str]]:
    return [["1" if i == j and i in support else "0" for j in range(dim)] for i in range(dim)]


def chain(dim: int) -> dict:
    """A unit < coarse < fine chain in dimension `dim`, both runs extended
    over the chain; the tilted rays in the <e2, e3> plane exist from dim 3."""
    coords = [_vector(dim, {i: "1"}) for i in range(dim)]
    ones = _vector(dim, {i: "1" for i in range(dim)})
    propositions = {f"P_e{i + 1}": [coords[i]] for i in range(dim)}
    if dim >= 3:
        tilted = _vector(dim, {1: "1", 2: "1/2+1 i"})
        propositions["P_e23"] = [tilted]
        propositions["P_e32"] = [_vector(dim, {1: "2-1/3 i", 2: "1"})]
        propositions["B"] = [coords[0], tilted]
        propositions["plane23"] = [coords[1], coords[2]]
    propositions["P_w"] = [ones]
    family = ["unit", "coarse", "fine"]
    return {
        "name": f"chain{dim}",
        "dimension": dim,
        "observables": [
            {"name": "unit", "eigenspaces": [coords]},
            {"name": "coarse", "eigenspaces": [[coords[0]], coords[1:]]},
            {"name": "fine", "eigenspaces": [[c] for c in coords]},
        ],
        "generators": [
            *(
                {"name": f"p{i + 1}", "matrix": _projector(dim, {i}), "commutant_of": "fine"}
                for i in range(dim)
            ),
            {"name": "ptail", "matrix": _projector(dim, set(range(1, dim))), "commutant_of": "coarse"},
        ],
        "states": {"w": ones},
        "propositions": propositions,
        "lattice_seeds": ["P_e1"],
        "runs": [
            {"name": "mid", "state": "w", "observable": "coarse", "eigenspace": 1, "extended": family},
            {"name": "fine-r2", "state": "w", "observable": "fine", "eigenspace": 1, "extended": family},
        ],
    }


CHAIN = chain(4)


def oracle_is_heyting(masks, implies, probes=None) -> bool:
    """The audit loop, probing every member unless `probes` are given;
    `implies(s, t)` is read on every pair."""
    probes = masks if probes is None else probes
    members = set(masks)
    for s in masks:
        for t in masks:
            imp = implies(s, t)
            if s | t not in members or s & t not in members or imp not in members:
                return False
            outside, not_imp = s & ~t, ~imp
            if imp & outside:
                return False
            for x in probes:
                if (not x & outside) != (not x & not_imp):
                    return False
    return True


def per_probe_is_heyting(masks, implication, probes) -> bool:
    """`is_heyting_family` as it read the probe adjunction before its probe
    table: each probe tested on its own, once per distinct key."""
    members = set(masks)
    distinct = {s & ~t for s in masks for t in masks}
    if any(s | t not in members or s & t not in members for s in masks for t in masks):
        return False
    for y in distinct:
        imp = implication[y]
        if imp not in members or imp & y:
            return False
        if any((not x & y) != (not x & ~imp) for x in probes):
            return False
    return True


def gather(ctx, mask):
    """`flat` on a mask, bit by bit: plain bit i is extended bit `fixed[i]`."""
    return sum(1 << i for i, j in enumerate(ctx.fixed) if mask >> j & 1)


def distributivity_loop(masks) -> bool:
    return all(s & (t | u) == (s & t) | (s & u) for s in masks for t in masks for u in masks)


def principal_probes(site, o):
    return list(site.stage(o).principals)


def pairwise(table):
    """A table keyed on s minus t, read on a pair."""
    return lambda s, t: table[s & ~t]


def plain_implies(ctx, outside):
    """The plain stage's s ⇒ t, given `outside = s & ~t`, by the kernel."""
    return Sieve(ctx.plain_stage, heyting_implies(ctx.plain.stage(ctx.plain_stage).principals, outside))


def fixpoint_implies(ctx):
    """The plain implication carried to the fixpoints through flat and sharp,
    keyed on s minus t: flat of s minus t is flat s minus flat t."""
    return LazyTable(lambda y: sharp(ctx, plain_implies(ctx, flat(ctx, Sieve(ctx.stage, y)).mask)).mask)


def bundled_scenarios():
    return [load_scenario(bundled_scenario_path(n)) for n in bundled_scenario_names()]


def stage_families(scenarios):
    """(label, masks, implication table, probes) for every Ω stage, δΩ stage and
    fixpoint family of the scenarios, and the built scenarios, whose sites
    own the stage tables."""
    families = []
    built = [build_scenario(scenario) for scenario in scenarios]
    for scenario, runs in zip(scenarios, (b.runs for b in built)):
        for run in runs:
            label = f"{scenario.name}/{run.spec.name}"
            delta = delta_omega_presheaf(omega_presheaf(run.plain, CAP), run.floors)
            for kind, site in (("plain", run.plain), ("extended", run.rest)):
                if site is None:
                    continue
                for o in range(site.n_objects):
                    masks = list(site.stage(o).sieves(CAP, o))
                    families.append(
                        (f"{label}/Ω {kind} {o}", masks, site.stage(o).implies, principal_probes(site, o))
                    )
            for o in range(run.plain.n_objects):
                masks = [s.mask for s in delta.values[o]]
                families.append(
                    (f"{label}/δΩ {o}", masks, run.plain.stage(o).implies, principal_probes(run.plain, o))
                )
            if run.ctx is not None:
                ctx = run.ctx
                stage = ctx.extended.stage(ctx.stage)
                masks = [m for m in stage.sieves(CAP, ctx.stage) if stage.natural[m] == m]
                families.append((f"{label}/fixpoints", masks, fixpoint_implies(ctx), masks))
    return tuple(families), built


def test_helper_agrees_with_the_exhaustive_oracle_on_every_stage_family():
    families, _built = stage_families([*bundled_scenarios(), scenario_from_dict(CHAIN)])
    kinds = {label.rsplit("/", 1)[1].split(" ")[0] for label, *_ in families}
    assert kinds == {"Ω", "δΩ", "fixpoints"}
    assert any(len(masks) == 85 for _, masks, _, _ in families)
    for label, masks, table, probes in families:
        assert is_heyting_family(masks, table, probes), label
        assert oracle_is_heyting(masks, pairwise(table)), label


GUARDED = [
    *(pytest.param(name, id=name) for name in bundled_scenario_names()),
    *(pytest.param(dim, id=f"chain{dim}") for dim in (2, 3, 4, 5)),
]


@pytest.mark.parametrize("which", GUARDED)
def test_memoised_stage_implication_is_the_kernel_on_every_pair(which):
    if isinstance(which, str):
        scenario = load_scenario(bundled_scenario_path(which))
    else:
        scenario = scenario_from_dict(chain(which))
    assert run_check(scenario)["passed"]
    stages = []
    fixpoint_families = []
    for run in build_scenario(scenario).runs:
        for site in (run.plain, run.rest):
            if site is not None:
                stages += [
                    (site, o, [Sieve(o, m) for m in site.stage(o).sieves(CAP, o)])
                    for o in range(site.n_objects)
                ]
        delta = delta_omega_presheaf(omega_presheaf(run.plain, CAP), run.floors)
        stages += [(run.plain, o, delta.values[o]) for o in range(run.plain.n_objects)]
        if run.ctx is not None:
            ctx = run.ctx
            stage = ctx.extended.stage(ctx.stage)
            fixpoints = [Sieve(ctx.stage, m) for m in stage.sieves(CAP, ctx.stage) if stage.natural[m] == m]
            fixpoint_families.append((ctx, fixpoints))
    for site, o, sieves in stages:
        stage = site.stage(o)
        for s in sieves:
            for t in sieves:
                assert stage.implies[s.mask & ~t.mask] == heyting_implies(stage.principals, s.mask & ~t.mask)
    # The fixpoint implication keyed on s minus t is the per-pair transport.
    for ctx, fixpoints in fixpoint_families:
        table = fixpoint_implies(ctx)
        for s in fixpoints:
            for t in fixpoints:
                transported = sharp(ctx, plain_implies(ctx, flat(ctx, s).mask & ~flat(ctx, t).mask))
                assert table[s.mask & ~t.mask] == transported.mask


@pytest.fixture(scope="module")
def differential(workloads):
    """The stage families and the built scenarios of the bundled scenarios,
    `chain_scenario(13, dim)` for dims 2–5 and the dim-3 family."""
    scenarios = bundled_scenarios()
    scenarios += [scenario_from_dict(workloads.chain_scenario(13, dim)) for dim in (2, 3, 4, 5)]
    scenarios.append(scenario_from_dict(family_scenario(3)))
    return stage_families(scenarios)


def bridge_contexts(built):
    """Each distinct bridge context of the built scenarios, once."""
    contexts = {id(run.ctx): run.ctx for b in built for run in b.runs if run.ctx is not None}
    return list(contexts.values())


def wrong_at_one_key(table, y, value):
    """The implication table read as `value` at key y and honestly elsewhere."""
    return LazyTable(lambda key: value if key == y else table[key])


def test_the_nibble_fold_is_the_bitwise_or_at_every_width():
    for width in range(71):
        images = [(0x9E3779B97F4A7C15 * (i + 1)) % (1 << 70) for i in range(width)]
        fold = nibble_table(images)
        assert fold(0) == 0
        assert [fold(1 << i) for i in range(width)] == images
        everything = 0
        for image in images:
            everything |= image
        assert fold((1 << width + 5) - 1) == everything


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_the_nibble_fold_is_the_bitwise_or(data):
    width = data.draw(st.integers(0, 70))
    images = data.draw(st.lists(st.integers(0, (1 << 70) - 1), min_size=width, max_size=width))
    mask = data.draw(st.integers(0, (1 << width + 8) - 1))  # bits past the width map to nothing
    expected = 0
    for i, image in enumerate(images):
        if mask >> i & 1:
            expected |= image
    assert nibble_table(images)(mask) == expected


def test_the_probe_table_agrees_with_the_per_probe_loop_on_every_stage_family(differential):
    families, _built = differential
    assert any(len(masks) == 247 for _, masks, _, _ in families)
    for label, masks, table, probes in families:
        assert is_heyting_family(masks, table, probes), label
        assert per_probe_is_heyting(masks, table, probes), label


def test_both_adjunction_paths_reject_an_implication_wrong_at_one_key(differential):
    """At one key y the table answers another member that misses y, so the
    membership and modus ponens clauses hold there and only the adjunction
    can see it.  A family where each key's implication is the only member
    missing it (a δΩ stage of one sieve) has no such doctor."""
    families, _built = differential
    doctored = 0
    for label, masks, table, probes in families:
        members = sorted(masks, key=int.bit_count)
        keys = sorted({s & ~t for s in masks for t in masks})
        found = next(((y, m) for y in keys for m in members if not m & y and m != table[y]), None)
        if found is None:
            assert len(masks) == 1, label
            continue
        wrong = wrong_at_one_key(table, *found)
        assert not is_heyting_family(masks, wrong, probes), label
        assert not per_probe_is_heyting(masks, wrong, probes), label
        doctored += 1
    assert doctored > len(families) // 2


def test_eq_5_6_per_difference_agrees_with_the_per_pair_loop_on_every_context(differential):
    _families, built = differential
    contexts = bridge_contexts(built)
    assert len(contexts) >= 12
    for ctx in contexts:
        plain, ext = ctx.plain.stage(ctx.plain_stage), ctx.extended.stage(ctx.stage)
        masks = list(ext.sieves(CAP, ctx.stage))
        down = LazyTable(ctx.flat_mask)
        keyed = bridge_module._dominates_by_difference(down, ext.implies, plain.implies, masks)
        assert keyed == bridge_module._dominates_transport(down, ext.implies, plain.implies, masks)
        assert keyed
        # an extended implication read as the top sieve at one key that flattens to something
        y = next(y for y in sorted({s & ~t for s in masks for t in masks}) if down[y])
        wrong = wrong_at_one_key(ext.implies, y, ext.top)
        assert not bridge_module._dominates_by_difference(down, wrong, plain.implies, masks)
        assert not bridge_module._dominates_transport(down, wrong, plain.implies, masks)


def test_the_flat_table_is_the_bit_by_bit_gather_on_every_listed_mask(differential):
    _families, built = differential
    for ctx in bridge_contexts(built):
        for m in ctx.extended.stage(ctx.stage).sieves(CAP, ctx.stage):
            assert ctx.flat_mask(m) == gather(ctx, m)
            assert flat(ctx, Sieve(ctx.stage, m)) == Sieve(ctx.plain_stage, gather(ctx, m))


@st.composite
def sieve_families(draw):
    """(masks, principal masks, dropped) for the sieves of a random finite
    poset, reachability along random edges i -> j (i < j) giving each
    point's principal set; `dropped` says whether one member was removed."""
    n = draw(st.integers(1, 5))
    principal = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                principal[i] |= principal[j]
    masks = {0}
    for p in principal:
        masks |= {m | p for m in masks}
    masks = sorted(masks)
    dropped = draw(st.booleans())
    if dropped:
        masks.remove(draw(st.sampled_from(masks)))
    return masks, principal, dropped


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_helper_agrees_with_the_oracle_on_random_families(data):
    masks, principal, dropped = data.draw(sieve_families())
    top = (1 << len(principal)) - 1

    def honest(y):
        return sum(1 << m for m, p in enumerate(principal) if not p & y)

    kind = data.draw(st.sampled_from(["honest", "top", "bottom", "non-member"]))
    table = LazyTable(
        {
            "honest": honest,
            "top": lambda y: top,
            "bottom": lambda y: 0,
            "non-member": lambda y: ~y & top,
        }[kind]
    )
    probe_kind = data.draw(st.sampled_from(["principal", "family", "random"]))
    probes = {
        "principal": principal,
        "family": masks,
        "random": data.draw(st.lists(st.integers(0, top), max_size=6)),
    }[probe_kind]
    verdict = is_heyting_family(masks, table, probes)
    assert verdict == oracle_is_heyting(masks, pairwise(table), probes)
    if kind == "honest" and not dropped and probe_kind != "random":
        assert verdict


def _qutrit_extended_stage():
    """The largest stage of the first extended run of `qutrit_extended`."""
    built = build_scenario(load_scenario(bundled_scenario_path("qutrit_extended")))
    site = built.runs[0].rest
    o = max(range(site.n_objects), key=lambda o: len(site.stage(o).sieves(CAP, o)))
    masks = list(site.stage(o).sieves(CAP, o))
    return site, o, masks


def test_helper_rejects_a_stage_missing_one_sieve():
    site, o, masks = _qutrit_extended_stage()
    members = set(masks)
    # a sieve that is the union of two smaller members
    dropped = next(
        s for s in masks if any(x | y == s for x in members for y in members if x != s and y != s)
    )
    family = [m for m in masks if m != dropped]
    assert not is_heyting_family(family, site.stage(o).implies, principal_probes(site, o))
    assert distributivity_loop(family)


@pytest.mark.parametrize(
    "wrong",
    [
        pytest.param(lambda top: lambda y: top, id="top"),  # modus ponens fails
        pytest.param(lambda top: lambda y: 0, id="bottom"),  # adjunction fails
        pytest.param(lambda top: lambda y: ~y & top, id="non-sieve"),  # not a member
    ],
)
def test_helper_rejects_a_wrong_implication(wrong):
    site, o, masks = _qutrit_extended_stage()
    table = LazyTable(wrong(top_sieve(site, o).mask))
    assert not is_heyting_family(masks, table, principal_probes(site, o))
    assert distributivity_loop(masks)


def test_helper_rejects_a_family_not_closed_under_meets():
    # subsets of {0, 1, 2} with the Boolean implication; {0,1} ∧ {1,2} is missing
    family = [0b011, 0b110, 0b111]
    implies = LazyTable(lambda y: ~y & 0b111)

    assert all(implies[s & ~t] in family for s in family for t in family)
    assert not is_heyting_family(family, implies, [0b001, 0b010, 0b100])
    assert distributivity_loop(family)


def test_helper_rejects_a_family_not_closed_under_joins():
    # the four-element Boolean algebra {∅, {0}, {1}, {0,1,2}}: its join of
    # {0} and {1} is not their union; probed on itself, as the fixpoints are
    a, b, top = 0b001, 0b010, 0b111
    family = [0, a, b, top]
    implies = LazyTable(lambda y: max((x for x in family if not x & y), key=int.bit_count))

    assert not is_heyting_family(family, implies, family)
    assert distributivity_loop(family)


@pytest.mark.parametrize("reverse", [False, True], ids=["listed", "reversed"])
@pytest.mark.parametrize(
    "family, missing",
    [
        pytest.param([0, 0b001, 0b010], 0b011, id="join"),
        pytest.param([0b011, 0b101, 0b111], 0b001, id="meet"),
    ],
)
def test_helper_rejects_a_family_missing_one_pairs_bound_in_either_order(family, missing, reverse):
    # Closure is read once per unordered pair; the pair whose join (or meet)
    # is missing must be caught whichever of the two is listed first.
    complete = family + [missing]
    implies = LazyTable(lambda y: max((x for x in complete if not x & y), key=int.bit_count))
    assert is_heyting_family(complete, implies, complete)
    if reverse:
        family = family[::-1]
    assert not is_heyting_family(family, implies, family)


def _chain_85_sieve_stage():
    """The chain's largest stage: 85 sieves on the extended site of `mid`."""
    for run in build_scenario(scenario_from_dict(CHAIN)).runs:
        if run.rest is not None:
            for o in range(run.rest.n_objects):
                masks = list(run.rest.stage(o).sieves(CAP, o))
                if len(masks) == 85:
                    return run.rest, o, masks
    raise AssertionError("the chain has no 85-sieve stage")


def test_one_audit_makes_one_kernel_call_per_distinct_key(monkeypatch):
    site, o, masks = _chain_85_sieve_stage()
    calls = Counter()
    honest = sieves_module.heyting_implies

    def counted(*args):
        calls["heyting_implies"] += 1
        return honest(*args)

    monkeypatch.setattr(sieves_module, "heyting_implies", counted)
    assert is_heyting_family(masks, site.stage(o).implies, principal_probes(site, o))
    assert len({s & ~t for s in masks for t in masks}) == 448
    assert calls["heyting_implies"] == 448


def _wrong_at_top(table, top):
    """The table with top ⇒ ∅ (honestly ∅) read as top: wrong at one key."""
    table[top] = top
    return table


def _doctor_stages(monkeypatch, doctor):
    """Every stage a site builds from now on gets `doctor(stage)` as its
    implication table.  The doctor reads the stage alone: a build keeps the
    first of the stages with equal tables (`Site.stage`), whichever site
    built it."""

    class Doctored(Stage):
        def __init__(self, composites, fixed):
            super().__init__(composites, fixed)
            self.implies = doctor(self)

    monkeypatch.setattr(sites_module, "Stage", Doctored)


def test_a_table_wrong_at_one_key_fails_the_helper_and_the_audit_row(monkeypatch):
    site, o, masks = _chain_85_sieve_stage()
    stage = site.stage(o)
    probes = principal_probes(site, o)
    assert stage.implies[stage.top] == 0
    assert not is_heyting_family(masks, _wrong_at_top(stage.implies, stage.top), probes)

    _doctor_stages(monkeypatch, lambda stage: _wrong_at_top(stage.implies, stage.top))
    rows = _rows(run_check(scenario_from_dict(CHAIN)), "§3.1 Heyting")
    assert rows and not any(row["passed"] for row in rows)


def _rows(report, tag):
    return [row for row in report["rows"] if row["tag"] == tag]


def _without_principal_sieves(site, o, sieves):
    principal = set(site.stage(o).principals)
    return tuple(s for s in sieves if s.mask == site.stage(o).top or s.mask not in principal)


def _without_the_empty_sieve(site, o, sieves):
    return tuple(s for s in sieves if s.mask)


@pytest.mark.parametrize(
    "name, doctor",
    [("qubit", _without_principal_sieves), ("minimal", _without_the_empty_sieve)],
)
def test_audit_row_fails_on_a_stage_that_is_not_every_sieve(monkeypatch, name, doctor):
    # minimal's one stage has a single nonempty sieve, so only the
    # empty-sieve membership check sees it missing
    honest = runner_module.omega_presheaf

    def doctored(site, cap):
        omega = honest(site, cap)
        kept = [set(doctor(site, o, stage)) for o, stage in enumerate(omega.values)]
        return subpresheaf(omega, [
            sum(1 << i for i, s in enumerate(stage) if s in kept[o]) for o, stage in enumerate(omega.values)
        ])

    monkeypatch.setattr(runner_module, "omega_presheaf", doctored)
    report = run_check(load_scenario(bundled_scenario_path(name)))
    rows = _rows(report, "§3.1 Heyting")
    assert rows and not any(row["passed"] for row in rows)


def test_chain_extended_audit_is_exhaustive():
    report = run_check(scenario_from_dict(CHAIN))
    assert report["passed"]
    rows = _rows(report, "§3.1 Heyting")
    assert len(rows) == 4
    assert all(row["details"]["modes"] == ["exhaustive"] for row in rows)
    mid_extended = [row for row in rows if row["run"] == "mid" and row["title"].endswith("(extended)")]
    assert len(mid_extended) == 1


def test_modus_ponens_is_checked_without_probes():
    site, o, masks = _qutrit_extended_stage()
    top = top_sieve(site, o).mask
    assert is_heyting_family(masks, site.stage(o).implies, [])
    assert not is_heyting_family(masks, LazyTable(lambda y: top), [])


def test_fixpoint_adjunction_fails_under_a_wrong_plain_implication(monkeypatch):
    ctx = build_scenario(load_scenario(bundled_scenario_path("qubit_extended"))).runs[0].ctx
    plain = ctx.plain.stage(ctx.plain_stage)
    assert heyting_iso_check(ctx, CAP)["fixpoint_adjunction"]
    monkeypatch.setattr(plain, "implies", LazyTable(lambda y: plain.top))
    assert not heyting_iso_check(ctx, CAP)["fixpoint_adjunction"]


def test_a_false_fixpoint_adjunction_fails_thm_5_6(monkeypatch):
    honest = checks_module.heyting_iso_check

    def doctored(ctx, cap):
        return {**honest(ctx, cap), "fixpoint_adjunction": False}

    monkeypatch.setattr(checks_module, "heyting_iso_check", doctored)
    report = run_check(load_scenario(bundled_scenario_path("qubit_extended")))
    rows = _rows(report, "Thm 5.6")
    assert rows and not any(row["passed"] for row in rows)


def test_an_ambient_implication_below_the_fixpoint_one_fails_eq_5_17(monkeypatch):
    """With the extended implication doctored to the empty sieve, the
    fixpoint implication (the plain one carried up) no longer sits below it:
    at s = t it is the top sieve.  At `fine`, the finest observable, every
    arrow out of the bridge's extended stage stays there, so a build reads
    the plain stage for it; the doctored builds keep the extended sites'
    stages apart, so that the doctor reaches the extended side alone."""
    scenario = load_scenario(bundled_scenario_path("qubit_extended"))
    ctx = build_scenario(scenario).runs[0].ctx
    extended = ctx.extended.stage(ctx.stage)
    assert heyting_iso_check(ctx, CAP)["implies_dominates"]
    monkeypatch.setattr(extended, "implies", LazyTable(lambda y: 0))
    assert not heyting_iso_check(ctx, CAP)["implies_dominates"]

    def empty_at_the_bridge(run):
        stage = bridge_stage(run)
        if stage is not None:
            stage.implies = LazyTable(lambda y: 0)

    doctor = each_run_apart(empty_at_the_bridge)
    monkeypatch.setattr(checks_module, "build_scenario", doctor(checks_module.build_scenario))
    rows = _rows(run_check(scenario), "Eq 5.17")
    assert {row["run"] for row in rows} == {"coarse", "fine"}
    assert not any(row["passed"] for row in rows)


def test_a_semiclassifier_holding_the_empty_sieve_fails_section_3_4(monkeypatch):
    def with_empty_sieve(omega, floors):
        honest = delta_omega_presheaf(omega, floors)
        empty = [index[Sieve(o, 0)] for o, index in enumerate(omega.index)]
        return subpresheaf(omega, [held | 1 << i for held, i in zip(honest.held, empty)])

    monkeypatch.setattr(runner_module, "delta_omega_presheaf", with_empty_sieve)
    # every run of the qubit scenario has a nonempty floor; the doctored
    # stages are not closed under the classifier's implication either
    report = run_check(load_scenario(bundled_scenario_path("qubit")))
    for tag in ("§3.4", "Prop 3.4"):
        rows = _rows(report, tag)
        assert rows and not any(row["passed"] for row in rows)


def test_a_semiclassifier_missing_a_transition_image_fails_prop_3_5(monkeypatch):
    def without_a_transition_image(omega, floors):
        site = omega.site
        honest = delta_omega_presheaf(omega, floors)
        a = next(a for a in range(len(site.arrows)) if a != site.identity_arrow(site.arrow_dom(a)))
        cod = site.arrow_cod(a)
        image = omega_transition(site, a, top_sieve(site, site.arrow_dom(a)))
        held = list(honest.held)
        held[cod] &= ~(1 << omega.index[cod][image])
        return subpresheaf(omega, held)

    monkeypatch.setattr(runner_module, "delta_omega_presheaf", without_a_transition_image)
    report = run_check(load_scenario(bundled_scenario_path("qubit")))
    rows = _rows(report, "Prop 3.5")
    assert rows
    for row in rows:
        assert not row["passed"]
        assert row["details"]["error"] == "transition leaves the codomain value set"
