"""Independent oracles and randomized cross-checks of the core identities."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sieveval import (
    Observable,
    Ray,
    Sieve,
    build_extended_site,
    build_plain_site,
    build_scenario,
    bundled_scenario_path,
    close_monoid,
    close_universe,
    diagonal_matrix,
    flat,
    full_space,
    gaussian,
    load_scenario,
    make_bridge_context,
    restrict_down,
    sharp,
    subspace_from_vectors,
    trivial_observable,
    valuation,
    zero_space,
)
from sieveval.errors import UnknownObjectError
from sieveval.sieves import (
    atom_global_element,
    atom_presheaf,
    characteristic_table,
    is_sieve,
    proposition_presheaf,
    true_subobject,
)


def span(*vs):
    return subspace_from_vectors(len(vs[0]), list(vs))


def brute_force_sieves(site, obj):
    """Oracle: filter every subset of the outgoing arrows by closure under
    postcomposition, composing through `site.compose`."""
    arrows = site.arrows_from(obj)
    found = set()
    for k in range(len(arrows) + 1):
        for subset in itertools.combinations(arrows, k):
            members = frozenset(subset)
            if all(
                site.compose(g, m) in members
                for m in members
                for g in site.arrows_from(site.arrow_cod(m))
            ):
                found.add(members)
    return found


def _mask(site, obj, arrows) -> int:
    """The mask on obj of a set of arrows out of it."""
    out = site.arrows_from(obj)
    return sum(1 << out.index(a) for a in arrows)


def _arrows(site, s) -> frozenset[int]:
    """The arrows of a sieve, decoded through `arrows_from`."""
    out = site.arrows_from(s.base)
    return frozenset(out[i] for i in s)


def sample_sites():
    z = Observable("Z", (span([1, 0]), span([0, 1])))
    p1, p2, sz = diagonal_matrix([1, 0]), diagonal_matrix([0, 1]), diagonal_matrix([1, -1])
    monoid = close_monoid([p1, p2, sz], cap=16)
    psi = Ray(span([gaussian(1), gaussian(0, 1)]))
    yield build_plain_site(z, monoid, [psi], cap=16)
    coarse3 = Observable("R", (span([1, 0, 0]), span([0, 1, 0], [0, 0, 1])))
    q1 = diagonal_matrix([1, 0, 0])
    q23 = diagonal_matrix([0, 1, 1])
    monoid3 = close_monoid([q1, q23], cap=16)
    yield build_plain_site(coarse3, monoid3, [Ray(span([1, 1, 1]))], cap=16)
    built = build_scenario(load_scenario(bundled_scenario_path("qubit_extended")))
    yield built.runs[0].extended_full  # a multi-observable site


def test_sieve_enumeration_matches_subset_filtering():
    for site in sample_sites():
        for o in range(site.n_objects):
            fast = {_arrows(site, Sieve(o, m)) for m in site.stage(o).sieves(4096, o)}
            assert fast == brute_force_sieves(site, o)


def test_implication_is_the_maximum_sieve():
    from sieveval import heyting_implies

    for site in sample_sites():
        for o in range(site.n_objects):
            stage = site.stage(o)
            sieves = [_arrows(site, Sieve(o, m)) for m in stage.sieves(4096, o)]
            for s in sieves:
                for t in sieves:
                    imp = Sieve(o, heyting_implies(stage.principals, _mask(site, o, s) & ~_mask(site, o, t)))
                    biggest = frozenset()
                    for x in sieves:
                        if s & x <= t:
                            biggest |= x
                    assert _arrows(site, imp) == biggest


def test_restrict_down_extended_unknown_object():
    monoid = close_monoid([diagonal_matrix([1, 0]), diagonal_matrix([0, 1])], cap=8)
    z = Observable("Z", (span([1, 0]), span([0, 1])))
    site = build_extended_site([z], monoid, [Ray(span([1, 1]))], cap=8)
    with pytest.raises(UnknownObjectError):
        restrict_down(site, 99)


def test_close_monoid_is_deterministic():
    gens = [diagonal_matrix([1, 0]), diagonal_matrix([0, 1])]
    first = close_monoid(gens, cap=8)
    second = close_monoid(gens, cap=8)
    assert first.elements == second.elements
    assert first.table == second.table


# --- randomized integration checks --------------------------------------

nonzero_entries = st.tuples(
    st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)
).map(lambda ab: gaussian(ab[0], ab[1]))

vectors2 = st.lists(nonzero_entries, min_size=2, max_size=2).filter(
    lambda v: any(not e.is_zero for e in v)
)

propositions2 = st.lists(
    st.lists(st.lists(nonzero_entries, min_size=2, max_size=2), min_size=0, max_size=2),
    min_size=1,
    max_size=3,
).map(lambda raw: [subspace_from_vectors(2, vs) for vs in raw])


def build_fixture(state_vector, extra_props):
    z = Observable("Z", (span([1, 0]), span([0, 1])))
    unit = trivial_observable("unit", 2)
    monoid = close_monoid(
        [diagonal_matrix([1, 0]), diagonal_matrix([0, 1]), diagonal_matrix([1, -1])],
        cap=16,
    )
    state = Ray(subspace_from_vectors(2, [state_vector]))
    extended = build_extended_site([unit, z], monoid, [state], cap=32)
    stage_full = extended.object_index(state.space, 0)
    rest = restrict_down(extended, stage_full)
    stage = rest.object_index(state.space, 0)
    plain = build_plain_site(unit, monoid, [state], cap=32)
    ctx = make_bridge_context(rest, stage, plain)
    universe = {zero_space(2), full_space(2), state.space}
    universe.update(extra_props)
    for f in monoid.elements:
        from sieveval import apply_operator

        universe.update(apply_operator(f, p) for p in list(universe))
    ordered = sorted(universe, key=lambda s: (s.dim, s.rows))
    return ctx, state, ordered


@settings(max_examples=25, deadline=None)
@given(vectors2, propositions2)
def test_random_states_oracle_and_bridge(state_vector, extra_props):
    ctx, state, universe = build_fixture(state_vector, extra_props)
    plain = ctx.plain
    closed = close_universe(universe, plain.monoid.elements)
    propositions = proposition_presheaf(plain, closed)
    atoms = atom_presheaf(plain)
    r = full_space(2)
    sigma = atom_global_element(plain, atoms, r)
    true_t = true_subobject(sigma, propositions, closed)
    table = characteristic_table(true_t)
    for o in range(plain.n_objects):
        for p in universe:
            chi = table[o][propositions.index[o][p]]
            assert chi == valuation(plain, o, r, p)
    for m in plain.stage(ctx.plain_stage).sieves(4096, ctx.plain_stage):
        s = Sieve(ctx.plain_stage, m)
        assert flat(ctx, sharp(ctx, s)) == s
    for p in universe:
        plain_value = valuation(plain, ctx.plain_stage, r, p)
        ext_value = valuation(ctx.extended, ctx.stage, r, p)
        assert flat(ctx, ext_value) == plain_value
        natural = ctx.extended.stage(ctx.stage).natural[ext_value.mask]
        assert sharp(ctx, plain_value) == Sieve(ctx.stage, natural)


@settings(max_examples=25, deadline=None)
@given(vectors2, propositions2)
def test_random_states_fine_observable_floor_and_monotonicity(state_vector, extra_props):
    from sieveval import compute_atoms, leq
    from sieveval.sieves import bottom_annihilator, ib_condition_check

    z = Observable("Z", (span([1, 0]), span([0, 1])))
    monoid = close_monoid(
        [diagonal_matrix([1, 0]), diagonal_matrix([0, 1]), diagonal_matrix([1, -1])],
        cap=16,
    )
    state = Ray(subspace_from_vectors(2, [state_vector]))
    site = build_plain_site(z, monoid, [state], cap=32)
    stage = site.ray_index(state.space)
    universe = {zero_space(2), full_space(2), state.space}
    universe.update(extra_props)
    from sieveval import apply_operator

    for f in monoid.elements:
        universe.update(apply_operator(f, p) for p in list(universe))
    ordered = sorted(universe, key=lambda s: (s.dim, s.rows))
    atoms = compute_atoms(state, z)
    for atom, index in zip(atoms.atoms, atoms.eigenspace_indices):
        r = z.eigenspaces[index]
        floor = bottom_annihilator(site, stage, atom)
        assert is_sieve(site, floor)
        for p in ordered:
            value = valuation(site, stage, r, p)
            assert floor <= value
            for q in ordered:
                if leq(p, q):
                    assert value <= valuation(site, stage, r, q)
        row = [valuation(site, stage, r, p) for p in ordered]
        verdict = ib_condition_check(site, stage, r, close_universe(ordered, ()), row, floor)
        assert verdict["monotonicity"] and verdict["exclusivity"] and verdict["unit"]
        assert verdict["null_equals_floor"] and verdict["null_passes_in_delta"]
