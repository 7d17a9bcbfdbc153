import pytest

from sieveval import (
    Observable,
    Ray,
    build_extended_site,
    build_scenario,
    build_plain_site,
    bundled_scenario_path,
    close_monoid,
    commutant,
    diagonal_matrix,
    identity_matrix,
    in_commutant,
    load_scenario,
    mat_mul,
    matrix_from_rows,
    ray_from_vector,
    restrict_down,
    subspace_from_vectors,
    trivial_observable,
    zero_matrix,
    zero_augmented_atom_set,
)
from sieveval.errors import (
    ClosureExceeded,
    InternalCheckError,
    OrbitExceeded,
    UnknownObjectError,
)
from sieveval import checks
from sieveval.sites import PlainSite, associativity_violations, identity_violations


def span(*vs):
    return subspace_from_vectors(len(vs[0]), list(vs))


def z_observable():
    return Observable("Z", (span([1, 0]), span([0, 1])))


def test_close_monoid_empty():
    monoid = close_monoid([], cap=4, dim=2)
    assert len(monoid) == 1
    assert monoid.elements[0] == identity_matrix(2)


def test_close_monoid_projectors():
    monoid = close_monoid([diagonal_matrix([1, 0]), diagonal_matrix([0, 1])], cap=8)
    assert len(monoid) == 4
    assert zero_matrix(2, 2) in monoid.elements


def test_close_monoid_involution():
    monoid = close_monoid([diagonal_matrix([1, -1])], cap=8)
    assert len(monoid) == 2


def test_close_monoid_table_is_total_product():
    monoid = close_monoid([diagonal_matrix([1, 0]), diagonal_matrix([0, 1])], cap=8)
    for i, a in enumerate(monoid.elements):
        for j, b in enumerate(monoid.elements):
            assert monoid.elements[monoid.mul(i, j)] == mat_mul(a, b)


def test_close_monoid_multiplies_each_ordered_pair_once(monkeypatch):
    import sieveval.sites as sites_module

    calls = []

    def counting_mat_mul(a, b):
        calls.append((a, b))
        return mat_mul(a, b)

    monkeypatch.setattr(sites_module, "mat_mul", counting_mat_mul)
    cycle = matrix_from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    monoid = close_monoid([cycle, diagonal_matrix([1, 0, 0])], cap=64)
    assert len(monoid) == 13  # grown over several frontier rounds
    assert len(calls) == len(monoid) ** 2
    for i, a in enumerate(monoid.elements):
        for j, b in enumerate(monoid.elements):
            assert monoid.elements[monoid.mul(i, j)] == mat_mul(a, b)


def test_close_monoid_cap():
    shift = matrix_from_rows([[0, 1], [2, 0]])  # powers keep growing
    with pytest.raises(ClosureExceeded):
        close_monoid([shift], cap=6)


def test_build_plain_site_qubit(qubit_site):
    site = qubit_site
    assert [r for r in site.rays] == [span([1, 1]), span([1, 0]), span([0, 1])]
    out = site.arrows_from(0)
    assert len(out) == 3  # identity and the two projectors; zero acts nowhere
    homs = {(site.arrow_op(a), site.arrow_cod(a)) for a in out}
    assert homs == {(0, 0), (1, 1), (2, 2)}


def test_build_plain_site_eigenray():
    monoid = close_monoid([diagonal_matrix([1, 0]), diagonal_matrix([0, 1])], cap=8)
    site = build_plain_site(z_observable(), monoid, [ray_from_vector([1, 0])], cap=8)
    assert site.n_objects == 1
    assert len(site.arrows) == 2  # identity and the fixing projector


def test_build_plain_site_discrete():
    monoid = close_monoid([], cap=2, dim=2)
    site = build_plain_site(z_observable(), monoid, [ray_from_vector([1, 0])], cap=8)
    assert site.n_objects == 1
    assert len(site.arrows) == 1


def test_build_plain_site_keeps_the_commutant():
    # the flip swaps Z's eigenspaces, so only the identity survives
    flip = matrix_from_rows([[0, 1], [1, 0]])
    monoid = close_monoid([flip], cap=8)
    site = build_plain_site(z_observable(), monoid, [ray_from_vector([1, 1])], cap=8)
    assert len(monoid) == 2
    assert site.monoid is monoid
    assert commutant(monoid, z_observable()) == (monoid.elements.index(identity_matrix(2)),)
    assert [site.arrow_op(a) for a in range(len(site.arrows))] == [monoid.identity_index]
    assert site.n_objects == 1


def test_orbit_cap():
    monoid = close_monoid([diagonal_matrix([1, 0]), diagonal_matrix([0, 1])], cap=8)
    with pytest.raises(OrbitExceeded):
        build_plain_site(z_observable(), monoid, [ray_from_vector([1, 1])], cap=1)
    # The cap counts rays beyond the seeds: distinct seeds that outnumber it
    # pass while no operator reaches a new ray, and fail once one does.
    seeds = [ray_from_vector(v) for v in ([1, 0], [0, 1], [1, 1], [1, 0])]
    trivial = close_monoid([], cap=1, dim=2)
    assert build_plain_site(z_observable(), trivial, seeds, cap=1).n_objects == 3
    assert build_plain_site(z_observable(), monoid, seeds, cap=1).n_objects == 3
    sign = close_monoid([diagonal_matrix([1, -1])], cap=2)  # reaches (1, -1) from (1, 1)
    with pytest.raises(OrbitExceeded):
        build_plain_site(z_observable(), sign, seeds, cap=3)


def test_plain_site_category_laws(qubit_site):
    assert associativity_violations(qubit_site) == []
    assert identity_violations(qubit_site) == []


def test_a_site_composes_a_stage_only_when_it_is_read(monkeypatch):
    compose, composed = PlainSite.compose, []

    def counted(site, g, f):
        composed.append((g, f))
        return compose(site, g, f)

    monkeypatch.setattr(PlainSite, "compose", counted)
    monoid = close_monoid([diagonal_matrix([1, 0]), diagonal_matrix([0, 1])], cap=8)
    site = build_plain_site(z_observable(), monoid, [ray_from_vector([1, 1])], cap=16)
    assert composed == []
    plus = site.ray_index(span([1, 1]))
    site.stage(plus)
    assert composed == [(g, f) for f in site.arrows_from(plus) for g in site.arrows_from(site.arrow_cod(f))]
    site.stage(plus)
    assert len(composed) == sum(len(site.arrows_from(site.arrow_cod(f))) for f in site.arrows_from(plus))


def test_restrict_down(qubit_site):
    whole = restrict_down(qubit_site, qubit_site.ray_index(span([1, 1])))
    assert whole.n_objects == qubit_site.n_objects
    single = restrict_down(qubit_site, qubit_site.ray_index(span([1, 0])))
    assert single.n_objects == 1
    with pytest.raises(UnknownObjectError):
        qubit_site.ray_index(span([2, 3]))
    with pytest.raises(UnknownObjectError):
        restrict_down(qubit_site, qubit_site.n_objects)


def extended_qubit():
    monoid = close_monoid([diagonal_matrix([1, 0]), diagonal_matrix([0, 1])], cap=8)
    return build_extended_site(
        [trivial_observable("unit", 2), z_observable()],
        monoid,
        [ray_from_vector([1, 1])],
        cap=16,
    )


def test_extended_site_membership_examples():
    site = extended_qubit()
    plus = span([1, 1])
    e1 = span([1, 0])
    stage = site.object_index(plus, 0)
    # the projector climbs to the finer observable at an eigenray
    p1_up = [
        a
        for a in site.arrows_from(stage)
        if site.arrow_op(a) == 1 and site.arrow_cod_rho(a) == 1
    ]
    assert len(p1_up) == 1
    assert site.objects[site.arrow_cod(p1_up[0])][0] == site.rays.index(e1)
    # identities stay put at every object
    for o in range(site.n_objects):
        ident = site.identity_arrow(o)
        assert site.arrow_dom(ident) == site.arrow_cod(ident) == o
    # the identity operator cannot climb at a superposed ray
    id_up = [
        a
        for a in site.arrows_from(stage)
        if site.arrow_op(a) == 0 and site.arrow_cod_rho(a) == 1
    ]
    assert id_up == []
    assert zero_augmented_atom_set(plus, site.observables[0]) != zero_augmented_atom_set(
        plus, site.observables[1]
    )


def test_extended_site_category_laws():
    site = extended_qubit()
    assert associativity_violations(site) == []
    assert identity_violations(site) == []


def test_a_site_missing_a_composite_raises_where_its_stage_is_read():
    # p1 from (plus, unit) to (e1, Z) is p1 to (e1, unit) followed by the
    # identity operator from (e1, unit) to (e1, Z).  Without it the site
    # still constructs, and only the stage that composes the pair raises.
    site = extended_qubit()
    plus, e1, e1_z = (site.object_index(span(v), k) for v, k in (([1, 1], 0), ([1, 0], 0), ([1, 0], 1)))
    p1 = site.monoid.elements.index(diagonal_matrix([1, 0]))
    dropped = next(a for a in site.arrows_from(plus) if (site.arrow_op(a), site.arrow_cod(a)) == (p1, e1_z))
    arrows = tuple(arrow for a, arrow in enumerate(site.arrows) if a != dropped)
    broken = type(site)(site.observables, site.monoid, site.rays, site.objects, arrows, site.rho_leq)
    broken.stage(e1)
    with pytest.raises(InternalCheckError, match="composition left the site"):
        broken.stage(plus)


def test_fixed_observable_slice_matches_plain():
    """Each ray category 𝒞_R sits in the extended site as its arrows that
    stay at R: the same triples as the plain site of R built on the same
    rays, and the hom-sets that §4.1 checks by the commutant's action."""
    site = extended_qubit()
    assert checks._hom_sets_are_the_action(site)
    for rho in (0, 1):
        plain = build_plain_site(
            site.observables[rho], site.monoid, [Ray(r) for r in site.rays], cap=len(site.rays)
        )
        fixed = {
            (site.objects[m.dom][0], site.operator_matrix(m.op), site.objects[m.cod][0])
            for m in site.arrows
            if site.object_rho(m.dom) == rho == site.object_rho(m.cod)
        }
        rebuilt = {(a.dom, plain.operator_matrix(a.op), a.cod) for a in plain.arrows}
        assert plain.rays == site.rays
        assert fixed == rebuilt
        # The slice shares the extended site's monoid, and its arrows use
        # exactly the nonzero operators that commute with observable rho.
        assert plain.monoid is site.monoid
        assert checks._hom_sets_are_the_action(plain)
        commuting = {
            i
            for i, f in enumerate(site.monoid.elements)
            if in_commutant(f, site.observables[rho]) and f != zero_matrix(2, 2)
        }
        assert {a.op for a in plain.arrows} == commuting


def arrow_keys(site):
    """Arrows as (dom object, operator, cod object), in arrow order."""
    return [(site.objects[a.dom], a.op, site.objects[a.cod]) for a in site.arrows]


def test_restrict_down_extended(qubit_site):
    site = extended_qubit()
    stage = site.object_index(span([1, 1]), 0)
    rest = restrict_down(site, stage)
    # the superposed ray never reaches the finer observable stage
    assert (site.rays.index(span([1, 1])), 1) not in rest.objects
    single = site.object_index(span([1, 0]), 1)
    assert restrict_down(site, single).n_objects == 1
    # the same restriction on both site kinds: surviving arrows, in their old order
    for whole, obj in [(s, o) for s in (site, qubit_site) for o in range(s.n_objects)]:
        rest = restrict_down(whole, obj)
        kept = set(rest.objects)
        assert type(rest) is type(whole)
        assert arrow_keys(rest) == [k for k in arrow_keys(whole) if k[0] in kept]
        assert associativity_violations(rest) == []


@pytest.mark.parametrize("name", ["qubit", "qutrit"])
def test_one_observable_extended_site_is_the_plain_site(name):
    scenario = load_scenario(bundled_scenario_path(name))
    seeds = list(scenario.states.values())
    for run in build_scenario(scenario).runs:
        plain = run.plain
        ext = build_extended_site([plain.observable], plain.monoid, seeds, scenario.caps["orbit"])

        def triples(s):
            return [(s.arrow_dom(a), s.arrow_op(a), s.arrow_cod(a)) for a in range(len(s.arrows))]

        assert ext.rays == plain.rays
        assert [ext.object_ray(o) for o in range(ext.n_objects)] == [
            plain.object_ray(o) for o in range(plain.n_objects)
        ]
        assert triples(ext) == triples(plain)


def test_site_tables_and_arrows_numbered_by_domain_in_object_order(qubit_site):
    site = qubit_site
    for o in range(site.n_objects):
        stage, arrows = site.stage(o), site.arrows_from(o)
        assert stage.top == (1 << len(arrows)) - 1
        assert len(stage.composites) == len(arrows)
        for i, (f, row) in enumerate(zip(arrows, stage.composites)):
            assert site.arrow_position(f) == i
            after = site.arrows_from(site.arrow_cod(f))
            assert [arrows[gf] for gf in row] == [site.compose(g, f) for g in after]
    # Stage masks and Ω's tables rely on arrows numbered by domain in object
    # order: interleaved domains fail, and so do whole objects out of order.
    a = site.arrows
    interleaved = a[:1] + a[3:4] + a[1:3] + a[4:]
    assert [x.dom for x in interleaved[:4]] == [0, 1, 0, 0]
    object_one_first = tuple(sorted(a, key=lambda x: x.dom != 1))
    assert [x.dom for x in object_one_first[:4]] == [1, 1, 0, 0]
    for arrows in (interleaved, object_one_first):
        with pytest.raises(InternalCheckError, match="numbered by domain in object order"):
            type(site)(site.observables, site.monoid, site.rays, site.objects, arrows, site.rho_leq)
