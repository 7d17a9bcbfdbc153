"""The bitmask sieve algebra against frozenset reference implementations.

The reference functions below are the set-based versions the mask code
replaced: they compose arrows one pair at a time through `site.compose` and
share no table with the package.  Every site of every bundled scenario is
covered: the plain sites, the extended sites and their down-restrictions.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

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
    members = frozenset()
    for a in plain_arrows:
        members |= ref_principal_sieve(ctx.extended, ctx.plain_to_ext[a])
    return members


def ref_flat(ctx, ext_arrows):
    return frozenset(ctx.ext_to_plain[a] for a in ext_arrows if a in ctx.ext_to_plain)


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


def mask_of(arrows) -> int:
    return sum(1 << a for a in arrows)


def arrow_sets(site, obj):
    """Stage sieves, and arbitrary subsets of the arrows out of obj."""
    sieves = [Sieve(obj, m).arrows for m in site.stage(obj).sieves(CAP)]
    return st.one_of(
        st.sampled_from(sieves), st.frozensets(st.sampled_from(site.arrows_from(obj)))
    )


# --- exhaustive checks -----------------------------------------------------------


def test_principal_sieves_match_reference():
    for label, site in bundled_sites()[0]:
        for a in range(len(site.arrows)):
            principal = principal_sieve(site, a)
            assert principal.base == site.arrow_dom(a), label
            assert principal.arrows == ref_principal_sieve(site, a), label


def test_enumeration_matches_reference_in_order():
    for label, site in bundled_sites()[0]:
        for o in range(site.n_objects):
            sieves = [Sieve(o, m) for m in site.stage(o).sieves(CAP)]
            assert [s.arrows for s in sieves] == ref_enumerate_sieves(site, o), label
            by_size_then_ids = sorted(
                sieves, key=lambda s: (len(s.arrows), tuple(sorted(s.arrows)))
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
    s_mask, t_mask = Sieve(o, mask_of(s)), Sieve(o, mask_of(t))

    assert s_mask.arrows == s and set(s_mask) == s
    assert all(a in s_mask for a in s)
    assert not any(a in s_mask for a in site.arrows_from(o) if a not in s)
    assert Sieve(o, s_mask.mask & t_mask.mask).arrows == s & t
    assert Sieve(o, s_mask.mask | t_mask.mask).arrows == s | t
    assert (s_mask <= t_mask) == (s <= t)
    assert (s_mask < t_mask) == (s < t)
    assert is_sieve(site, s_mask) == ref_is_sieve(site, o, s), label
    assert heyting_implies(site, s_mask, t_mask).arrows == ref_heyting_implies(
        site, o, s, t
    ), label
    for m in site.arrows_from(o):
        pulled = omega_transition(site, m, s_mask)
        assert pulled.base == site.arrow_cod(m)
        assert pulled.arrows == ref_omega_transition(site, m, s), label
    natural = site.stage(o).natural[s_mask.mask]
    assert Sieve(o, natural).arrows == ref_natural_map_at(site, o, s), label


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bridge_maps_match_reference(data):
    _, contexts = bundled_sites()
    ctx = data.draw(st.sampled_from(contexts))
    plain = data.draw(arrow_sets(ctx.plain, ctx.plain_stage))
    extended = data.draw(arrow_sets(ctx.extended, ctx.stage))
    plain_sieve = Sieve(ctx.plain_stage, mask_of(plain))
    ext_sieve = Sieve(ctx.stage, mask_of(extended))

    assert _lift_mask(ctx, plain_sieve) == mask_of(ctx.plain_to_ext[a] for a in plain)
    assert sharp(ctx, plain_sieve) == Sieve(ctx.stage, mask_of(ref_sharp(ctx, plain)))
    assert flat(ctx, ext_sieve) == Sieve(ctx.plain_stage, mask_of(ref_flat(ctx, extended)))
