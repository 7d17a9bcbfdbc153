"""The bitmask sieve algebra against frozenset reference implementations.

The reference functions below are the set-based versions the mask code
replaced: they compose arrows one pair at a time through `site.compose` and
share no table with the package.  Every site of every bundled scenario is
covered: the plain sites, the extended sites and their down-restrictions.
A mask is local to its base, bit i standing for `site.arrows_from(base)[i]`;
the tests turn arrow sets into masks and back through `arrows_from` alone.
"""

from functools import lru_cache

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
    load_scenario,
    omega_transition,
    restrict_down,
    scenario_from_dict,
    sharp,
)
from sieveval.bridge import _lift_mask
from sieveval.sieves import is_sieve, principal_sieve

CAP = 4096


# --- reference implementations (frozensets, one compose per pair) -----------


def ref_principal_sieve(site, arrow):
    members = {arrow}
    frontier = [arrow]
    while frontier:
        m = frontier.pop()
        for g in site.arrows_from(site.arrow_cod(m)):
            gm = site.compose(g, m)
            if gm not in members:
                members.add(gm)
                frontier.append(gm)
    return frozenset(members)


def ref_enumerate_sieves(site, obj):
    collected = {frozenset()}
    for a in site.arrows_from(obj):
        p = ref_principal_sieve(site, a)
        collected |= {existing | p for existing in collected}
    return sorted(collected, key=lambda s: (len(s), tuple(sorted(s))))


def ref_is_sieve(site, base, arrows):
    for m in arrows:
        if site.arrow_dom(m) != base:
            return False
        for g in site.arrows_from(site.arrow_cod(m)):
            if site.compose(g, m) not in arrows:
                return False
    return True


def ref_omega_transition(site, m, arrows):
    cod = site.arrow_cod(m)
    return frozenset(a for a in site.arrows_from(cod) if site.compose(a, m) in arrows)


def ref_heyting_implies(site, base, s1, s2):
    members = []
    for m in site.arrows_from(base):
        ok = True
        for g in site.arrows_from(site.arrow_cod(m)):
            gm = site.compose(g, m)
            if gm in s1 and gm not in s2:
                ok = False
                break
        if ok:
            members.append(m)
    return frozenset(members)


def ref_natural_map_at(site, obj, arrows):
    rho = site.object_rho(obj)
    members = frozenset()
    for a in arrows:
        if site.arrow_cod_rho(a) == rho:
            members |= ref_principal_sieve(site, a)
    return members


def ref_sharp(ctx, plain_arrows):
    plain, ext = ctx.plain.arrows_from(ctx.plain_stage), ctx.extended.arrows_from(ctx.stage)
    members = frozenset()
    for a in plain_arrows:
        members |= ref_principal_sieve(ctx.extended, ext[ctx.fixed[plain.index(a)]])
    return members


def ref_flat(ctx, ext_arrows):
    plain, ext = ctx.plain.arrows_from(ctx.plain_stage), ctx.extended.arrows_from(ctx.stage)
    twins = {ext[j]: plain[i] for i, j in enumerate(ctx.fixed)}
    return frozenset(twins[a] for a in ext_arrows if a in twins)


# --- the bundled sites ---------------------------------------------------------


@lru_cache(maxsize=None)
def bundled_sites():
    """(label, site) for every distinct site, and every bridge context."""
    sites, contexts = {}, []
    for name in bundled_scenario_names():
        built = build_scenario(load_scenario(bundled_scenario_path(name)))
        for run in built.runs:
            restricted_plain = restrict_down(run.plain, run.plain_side.stage)
            for kind, site in (
                ("plain", run.plain),
                ("plain restricted", restricted_plain),
                ("extended", run.extended_full),
                ("extended restricted", run.rest),
            ):
                if site is not None:
                    sites.setdefault(id(site), (f"{name}/{run.spec.name}/{kind}", site))
            if run.ctx is not None:
                contexts.append(run.ctx)
    return tuple(sites.values()), tuple(contexts)


def mask_of(site, obj, arrows) -> int:
    """The mask on obj of a set of arrows out of it."""
    out = site.arrows_from(obj)
    return sum(1 << out.index(a) for a in arrows)


def arrows_of(site, s: Sieve) -> frozenset[int]:
    """The arrows of a sieve, decoded through `arrows_from`."""
    out = site.arrows_from(s.base)
    return frozenset(out[i] for i in s)


def arrow_sets(site, obj):
    """Stage sieves, and arbitrary subsets of the arrows out of obj."""
    sieves = [arrows_of(site, Sieve(obj, m)) for m in site.stage(obj).sieves(CAP, obj)]
    return st.one_of(
        st.sampled_from(sieves), st.frozensets(st.sampled_from(site.arrows_from(obj)))
    )


# --- exhaustive checks -----------------------------------------------------------


def test_principal_sieves_match_reference():
    for label, site in bundled_sites()[0]:
        for a in range(len(site.arrows)):
            principal = principal_sieve(site, a)
            assert principal.base == site.arrow_dom(a), label
            assert arrows_of(site, principal) == ref_principal_sieve(site, a), label


def test_enumeration_matches_reference_in_order():
    for label, site in bundled_sites()[0]:
        for o in range(site.n_objects):
            sieves = [Sieve(o, m) for m in site.stage(o).sieves(CAP, o)]
            assert [arrows_of(site, s) for s in sieves] == ref_enumerate_sieves(site, o), label
            by_size_then_ids = sorted(
                sieves, key=lambda s: (len(arrows_of(site, s)), tuple(sorted(arrows_of(site, s))))
            )
            assert sieves == by_size_then_ids, label


# --- drawn stage-sieve pairs ---------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stage_algebra_matches_reference(data):
    sites, _ = bundled_sites()
    label, site = data.draw(st.sampled_from(sites))
    o = data.draw(st.integers(min_value=0, max_value=site.n_objects - 1))
    s, t = data.draw(arrow_sets(site, o)), data.draw(arrow_sets(site, o))
    s_mask, t_mask = Sieve(o, mask_of(site, o, s)), Sieve(o, mask_of(site, o, t))
    out = site.arrows_from(o)

    assert arrows_of(site, s_mask) == s and {out[i] for i in s_mask} == s
    assert all(out.index(a) in s_mask for a in s)
    assert not any(i in s_mask for i, a in enumerate(out) if a not in s)
    assert arrows_of(site, Sieve(o, s_mask.mask & t_mask.mask)) == s & t
    assert arrows_of(site, Sieve(o, s_mask.mask | t_mask.mask)) == s | t
    assert (s_mask <= t_mask) == (s <= t)
    assert (s_mask < t_mask) == (s < t)
    assert is_sieve(site, s_mask) == ref_is_sieve(site, o, s), label
    implied = Sieve(o, heyting_implies(site.stage(o).principals, s_mask.mask & ~t_mask.mask))
    assert arrows_of(site, implied) == ref_heyting_implies(site, o, s, t), label
    for m in out:
        pulled = omega_transition(site, m, s_mask)
        assert pulled.base == site.arrow_cod(m)
        assert arrows_of(site, pulled) == ref_omega_transition(site, m, s), label
    natural = site.stage(o).natural[s_mask.mask]
    assert arrows_of(site, Sieve(o, natural)) == ref_natural_map_at(site, o, s), label


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bridge_maps_match_reference(data):
    _, contexts = bundled_sites()
    ctx = data.draw(st.sampled_from(contexts))
    plain = data.draw(arrow_sets(ctx.plain, ctx.plain_stage))
    extended = data.draw(arrow_sets(ctx.extended, ctx.stage))
    plain_sieve = Sieve(ctx.plain_stage, mask_of(ctx.plain, ctx.plain_stage, plain))
    ext_sieve = Sieve(ctx.stage, mask_of(ctx.extended, ctx.stage, extended))

    assert _lift_mask(ctx, plain_sieve) == sum(1 << ctx.fixed[i] for i in plain_sieve)
    assert arrows_of(ctx.extended, sharp(ctx, plain_sieve)) == ref_sharp(ctx, plain)
    assert arrows_of(ctx.plain, flat(ctx, ext_sieve)) == ref_flat(ctx, extended)
    assert sharp(ctx, plain_sieve).base == ctx.stage and flat(ctx, ext_sieve).base == ctx.plain_stage


def test_twin_positions_pair_arrows_of_one_matrix():
    """The context's positions pair each plain arrow, in order, with the
    extended one of the same operator matrix that stays at the stage
    observable, and every such extended arrow with one plain arrow."""
    for ctx in bundled_sites()[1]:
        plain, ext = ctx.plain.arrows_from(ctx.plain_stage), ctx.extended.arrows_from(ctx.stage)
        assert len(ctx.fixed) == len(plain)
        assert list(ctx.fixed) == [j for j, a in enumerate(ext) if ctx.extended.arrow_cod_rho(a) == ctx.rho]
        for i, j in enumerate(ctx.fixed):
            assert ctx.plain.operator_matrix(ctx.plain.arrow_op(plain[i])) == ctx.extended.operator_matrix(
                ctx.extended.arrow_op(ext[j])
            )
            assert ctx.extended.arrow_cod_rho(ext[j]) == ctx.rho


def stage_sites(built):
    """Every site a build makes: each run's plain site and the one below its
    stage, the full and the restricted extended sites, and the §4.1 slices."""
    sites = {}
    for run in built.runs:
        found = [run.plain, run.plain_below[run.plain_side.stage], run.extended_full, run.rest]
        if run.slices is not None:
            found += [run.slices[k] for k in range(len(run.extended_full.observables))]
        sites.update((id(site), site) for site in found if site is not None)
    return list(sites.values())


def test_every_stage_mask_is_below_one_shifted_by_its_arrow_count(workloads):
    """Bit i of a mask on o is the i-th arrow out of o, so every mask a stage
    lists or keeps is below 1 << k, k the number of arrows out of o."""
    scenarios = [load_scenario(bundled_scenario_path(name)) for name in bundled_scenario_names()]
    scenarios += [scenario_from_dict(workloads.chain_scenario(13, dim)) for dim in (2, 3, 4, 5)]
    scenarios.append(scenario_from_dict(family_scenario(3)))
    stages = 0
    for scenario in scenarios:
        for site in stage_sites(build_scenario(scenario)):
            for o in range(site.n_objects):
                stage, bound = site.stage(o), 1 << len(site.arrows_from(o))
                masks = [*stage.sieves(CAP, o), *stage.principals]
                assert stage.top == bound - 1 and all(0 <= m < bound for m in masks), (scenario.name, o)
                stages += 1
    assert stages == 516  # distinct (site, object) pairs
