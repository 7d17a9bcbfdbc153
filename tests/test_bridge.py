import pytest

from sieveval import (
    Observable,
    Sieve,
    build_extended_site,
    build_plain_site,
    close_monoid,
    close_universe,
    detector_tables,
    diagonal_matrix,
    equivalence_check,
    flat,
    full_space,
    heyting_iso_check,
    make_bridge_context,
    natural_characteristic,
    natural_omega,
    ray_from_vector,
    restrict_down,
    sharp,
    subspace_from_vectors,
    trivial_observable,
    zero_space,
)
from sieveval.bridge import (
    _lift_mask,
    sharp_by_intersection,
)
from sieveval.errors import InternalCheckError
from sieveval.sieves import (
    atom_global_element,
    atom_presheaf,
    bottom_sieve,
    characteristic_table,
    is_closed,
    omega_presheaf,
    principal_sieve,
    proposition_presheaf,
    subpresheaf,
    top_sieve,
    true_subobject,
    valuation,
)


def span(*vs):
    return subspace_from_vectors(len(vs[0]), list(vs))


UNIVERSE = [
    zero_space(2),
    full_space(2),
    span([1, 0]),
    span([0, 1]),
    span([1, 1]),
    span([1, -1]),
]


@pytest.fixture(scope="module")
def bridge_setup():
    monoid = close_monoid([diagonal_matrix([1, 0]), diagonal_matrix([0, 1])], cap=8)
    unit = trivial_observable("unit", 2)
    z = Observable("Z", (span([1, 0]), span([0, 1])))
    extended = build_extended_site([unit, z], monoid, [ray_from_vector([1, 1])], cap=16)
    stage_full = extended.object_index(span([1, 1]), 0)
    rest = restrict_down(extended, stage_full)
    stage = rest.object_index(span([1, 1]), 0)
    plain = build_plain_site(unit, monoid, [ray_from_vector([1, 1])], cap=16)
    ctx = make_bridge_context(rest, stage, plain)
    return ctx


def _named(ctx):
    """The arrow correspondence with each arrow named by its operator matrix
    and codomain ray, so that it reads the same whatever the numbering."""
    plain, ext = ctx.plain, ctx.extended

    def name(site, a):
        return site.operator_matrix(site.arrow_op(a)), site.object_ray(site.arrow_cod(a))

    plain_arrows, ext_arrows = plain.arrows_from(ctx.plain_stage), ext.arrows_from(ctx.stage)
    return {name(plain, plain_arrows[i]): name(ext, ext_arrows[j]) for i, j in ctx.plain_to_ext.items()}


def test_arrows_are_matched_by_operator_matrix(bridge_setup):
    """Twin arrows carry the same matrix and reach the same ray.  A plain site
    over a separately closed, equal monoid, or over one closed from the
    generators in the other order (so numbered differently), gets the same
    correspondence."""
    ctx = bridge_setup
    named = _named(ctx)
    assert len(named) == len(ctx.ext_to_plain) == 3
    assert all(plain == ext for plain, ext in named.items())
    unit, state = ctx.plain.observable, [ray_from_vector([1, 1])]
    p1, p2 = diagonal_matrix([1, 0]), diagonal_matrix([0, 1])
    for generators in ([p1, p2], [p2, p1]):
        monoid = close_monoid(generators, cap=8)
        assert monoid is not ctx.extended.monoid
        other = make_bridge_context(ctx.extended, ctx.stage, build_plain_site(unit, monoid, state, cap=16))
        assert _named(other) == named
    assert close_monoid([p2, p1], cap=8).elements != ctx.extended.monoid.elements


def test_a_plain_arrow_without_an_extended_twin_is_an_internal_error(bridge_setup):
    """The plain site's monoid also holds Z, which the extended site lacks."""
    ctx = bridge_setup
    generators = [diagonal_matrix([1, 0]), diagonal_matrix([0, 1]), diagonal_matrix([1, -1])]
    monoid = close_monoid(generators, cap=16)
    plain = build_plain_site(ctx.plain.observable, monoid, [ray_from_vector([1, 1])], cap=16)
    with pytest.raises(InternalCheckError, match="plain arrow without an extended twin"):
        make_bridge_context(ctx.extended, ctx.stage, plain)


def test_an_extended_arrow_without_a_plain_twin_is_an_internal_error(bridge_setup):
    """The plain site's monoid is the identity alone, so the projector arrows
    that stay at the stage observable have no plain twin."""
    ctx = bridge_setup
    monoid = close_monoid([], cap=1, dim=2)
    plain = build_plain_site(ctx.plain.observable, monoid, [ray_from_vector([1, 1])], cap=16)
    with pytest.raises(InternalCheckError, match="extended fixed-rho arrow without a plain twin"):
        make_bridge_context(ctx.extended, ctx.stage, plain)


def sieves_on(site, o, cap):
    """The sieves on o, as the site lists them."""
    return [Sieve(o, m) for m in site.stage(o).sieves(cap)]


def arrows_of(site, s):
    """The arrows of a sieve, decoded through `arrows_from`."""
    out = site.arrows_from(s.base)
    return frozenset(out[i] for i in s)


def plain_sieve_by_ops(ctx, ops):
    members = [
        i for i, a in enumerate(ctx.plain.arrows_from(ctx.plain_stage)) if ctx.plain.arrow_op(a) in ops
    ]
    return Sieve(ctx.plain_stage, sum(1 << i for i in members))


def lift_eta(ctx, s_e):
    """Relabel a plain sieve as fixed-rho extended arrows; usually not a sieve."""
    return arrows_of(ctx.extended, Sieve(ctx.stage, _lift_mask(ctx, s_e)))


def test_lift_eta(bridge_setup):
    ctx = bridge_setup
    assert lift_eta(ctx, bottom_sieve(ctx.plain_stage)) == frozenset()
    s_p1 = plain_sieve_by_ops(ctx, {1})
    lifted = lift_eta(ctx, s_p1)
    assert len(lifted) == 1
    (a,) = lifted
    assert ctx.extended.arrow_cod_rho(a) == ctx.rho
    top_lift = lift_eta(ctx, top_sieve(ctx.plain, ctx.plain_stage))
    ext_top = top_sieve(ctx.extended, ctx.stage)
    assert top_lift < arrows_of(ctx.extended, ext_top)  # proper subset: raising arrows exist


def test_sharp_examples(bridge_setup):
    ctx = bridge_setup
    assert sharp(ctx, bottom_sieve(ctx.plain_stage)) == bottom_sieve(ctx.stage)
    plain_top = top_sieve(ctx.plain, ctx.plain_stage)
    assert sharp(ctx, plain_top) == top_sieve(ctx.extended, ctx.stage)
    s_p2 = plain_sieve_by_ops(ctx, {2})
    sharped = sharp(ctx, s_p2)
    # the generated sieve holds the fixed arrow and its raise, nothing else
    assert len(arrows_of(ctx.extended, sharped)) == 2
    assert {ctx.extended.arrow_op(a) for a in arrows_of(ctx.extended, sharped)} == {2}
    assert {ctx.extended.arrow_cod_rho(a) for a in arrows_of(ctx.extended, sharped)} == {0, 1}
    # join preservation on the worked pair
    s_p1 = plain_sieve_by_ops(ctx, {1})
    joined = Sieve(ctx.plain_stage, s_p1.mask | s_p2.mask)
    assert sharp(ctx, joined) == Sieve(ctx.stage, sharp(ctx, s_p1).mask | sharp(ctx, s_p2).mask)


def test_sharp_matches_intersection_oracle(bridge_setup):
    ctx = bridge_setup
    for s in sieves_on(ctx.plain, ctx.plain_stage, 64):
        assert sharp(ctx, s) == sharp_by_intersection(ctx, s, 64)


def test_flat_examples(bridge_setup):
    ctx = bridge_setup
    assert flat(ctx, top_sieve(ctx.extended, ctx.stage)) == top_sieve(
        ctx.plain, ctx.plain_stage
    )
    assert flat(ctx, bottom_sieve(ctx.stage)) == bottom_sieve(ctx.plain_stage)
    for s in sieves_on(ctx.plain, ctx.plain_stage, 64):
        assert flat(ctx, sharp(ctx, s)) == s
    # a purely raising sieve flattens to nothing
    raising = [
        i
        for i, a in enumerate(ctx.extended.arrows_from(ctx.stage))
        if ctx.extended.arrow_cod_rho(a) != ctx.rho
    ]
    pure = Sieve(ctx.stage, 1 << raising[0])
    assert flat(ctx, pure).mask == 0


def round_trip(site, o, s):
    """♮ by its definition: the sieve generated by the members of s that
    stay at the observable of o."""
    members = 0
    for a in arrows_of(site, s):
        if site.arrow_cod_rho(a) == site.object_rho(o):
            members |= principal_sieve(site, a).mask
    return Sieve(o, members)


def natural(site, o, s):
    """♮ as the stage's table holds it."""
    return Sieve(o, site.stage(o).natural[s.mask])


def test_natural_map_and_fixpoints(bridge_setup):
    ctx = bridge_setup
    ext, stage = ctx.extended, ctx.stage
    ext_top = top_sieve(ext, stage)
    assert natural(ext, stage, ext_top) == ext_top
    assert natural(ext, stage, bottom_sieve(stage)) == bottom_sieve(stage)
    sieves = sieves_on(ext, stage, 64)
    assert len(sieves) == 10  # worked by hand for this stage
    for s in sieves:
        image = natural(ext, stage, s)
        assert image == round_trip(ext, stage, s)
        assert image <= s
        assert natural(ext, stage, image) == image  # idempotent
        fixed = sharp(ctx, flat(ctx, s))
        assert natural(ext, stage, fixed) == fixed
    fixpoints = [s for s in sieves if natural(ext, stage, s) == s]
    assert len(fixpoints) == 5
    raising = [a for a in ext.arrows_from(stage) if ext.arrow_cod_rho(a) != ctx.rho]
    pure = principal_sieve(ext, raising[0])
    assert pure.mask and natural(ext, stage, pure) != pure


def test_natural_omega_presheaf(bridge_setup):
    ctx = bridge_setup
    rest = ctx.extended
    omega = omega_presheaf(rest, cap=64)
    presheaf = natural_omega(omega)
    presheaf.validate()
    assert is_closed(presheaf)
    for o in range(rest.n_objects):
        fixed = tuple(s for s in omega.values[o] if round_trip(rest, o, s) == s)
        assert presheaf.values[o] == fixed


def test_heyting_iso(bridge_setup):
    report = heyting_iso_check(bridge_setup, cap=64)
    assert report["passed"]
    assert report["plain_count"] == 5
    assert report["extended_count"] == 10
    assert report["fixpoint_count"] == 5


def test_single_rho_site_is_trivially_natural():
    monoid = close_monoid([diagonal_matrix([1, 0]), diagonal_matrix([0, 1])], cap=8)
    z = Observable("Z", (span([1, 0]), span([0, 1])))
    extended = build_extended_site([z], monoid, [ray_from_vector([1, 1])], cap=16)
    stage = extended.object_index(span([1, 1]), 0)
    sieves = sieves_on(extended, stage, 64)
    assert all(natural(extended, stage, s) == s for s in sieves)
    assert len(sieves) == 5


@pytest.fixture(scope="module")
def extended_presheaves(bridge_setup):
    ctx = bridge_setup
    rest = ctx.extended
    universe = close_universe(UNIVERSE, rest.monoid.elements)
    propositions = proposition_presheaf(rest, universe)
    atoms = atom_presheaf(rest)
    sigma = atom_global_element(rest, atoms, full_space(2))
    true_t = true_subobject(sigma, propositions, universe)
    return rest, propositions, true_t


def test_true_subobject_is_projective(extended_presheaves):
    rest, propositions, true_t = extended_presheaves
    chi = characteristic_table(true_t)
    detectors = detector_tables(true_t, chi)
    # one (empty) witness list per value of every stage
    assert [len(stage) for stage in detectors["witnesses"]] == [len(s) for s in propositions.values]
    assert not any(any(stage) for stage in detectors["witnesses"])
    assert not detectors["mismatches"]


def adversarial_subpresheaf(rest, propositions):
    """Nonzero only at the fine stage of the first eigenray: its own span."""
    e1 = span([1, 0])
    target = rest.object_index(e1, 1)

    held = [0] * rest.n_objects
    held[target] = 1 << propositions.index[target][e1]
    return subpresheaf(propositions, held)


def test_adversarial_subpresheaf_trips_both_detectors(extended_presheaves):
    rest, propositions, _ = extended_presheaves
    bad = adversarial_subpresheaf(rest, propositions)
    stage = rest.object_index(span([1, 1]), 0)
    x = span([1, 0])
    i = propositions.index[stage][x]
    table = characteristic_table(bad)
    detectors = detector_tables(bad, table)
    assert detectors["witnesses"][stage][i]
    assert round_trip(rest, stage, table[stage][i]) != table[stage][i]
    assert detectors["natural_chi"][stage][i] != table[stage][i]
    assert not detectors["mismatches"]  # the two detectors fire together, never apart


def test_natural_characteristic_and_uniqueness(extended_presheaves):
    rest, propositions, true_t = extended_presheaves
    chi = characteristic_table(true_t)
    detectors = detector_tables(true_t, chi)
    result = natural_characteristic(true_t, chi, detectors, omega_presheaf(rest, cap=64))
    assert result["passed"]
    # perturbing one value breaks the pullback
    tau = {o: top_sieve(rest, o) for o in range(rest.n_objects)}
    stage = rest.object_index(span([1, 1]), 0)
    perturbed = [list(values) for values in detectors["natural_chi"]]
    perturbed[stage][propositions.values[stage].index(zero_space(2))] = tau[stage]
    broken = any(
        set(true_t.values[o])
        != {x for x, value in zip(propositions.values[o], perturbed[o]) if value == tau[o]}
        for o in range(rest.n_objects)
    )
    assert broken


def stage_rows(ctx, r, universe):
    """The plain and the extended bridge stage's valuations of the universe."""
    plain = [valuation(ctx.plain, ctx.plain_stage, r, p) for p in universe]
    extended = [valuation(ctx.extended, ctx.stage, r, p) for p in universe]
    return plain, extended


def test_equivalence_families_agree(bridge_setup):
    ctx = bridge_setup
    result = equivalence_check(ctx, UNIVERSE, *stage_rows(ctx, full_space(2), UNIVERSE))
    assert result["passed"]
    for row in result["rows"]:
        assert row["a"] and row["b"] and row["c"]


def test_equivalence_unit_and_zero_rows(bridge_setup):
    ctx = bridge_setup
    result = equivalence_check(ctx, UNIVERSE, *stage_rows(ctx, full_space(2), UNIVERSE))
    rows = {str(row["proposition"]): row for row in result["rows"]}
    unit_row = rows[str(full_space(2))]
    assert unit_row["plain"] == top_sieve(ctx.plain, ctx.plain_stage)
    assert unit_row["extended"] == top_sieve(ctx.extended, ctx.stage)
    zero_row = rows[str(zero_space(2))]
    assert zero_row["plain"].mask == 0  # no annihilating arrows here
