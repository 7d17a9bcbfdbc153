"""The shape of 𝒞: every arrow is a refinement after its fixed twin.

On a full extended site an arrow f: (i, k) -> (j, k2) has a twin t =
`rho_arrow_twin(f)`, the arrow out of (i, k) with f's operator that stays
at observable k.  The lemma: t ends at (j, k), and the site has the
identity-operator arrow g: (j, k) -> (j, k2), so f = g∘t.  The
identity-operator arrows are the refinement order on each ray: each joins
two objects of one ray whose observables are in order, each object's
identity arrow is one, and g∘g′ is the identity-operator arrow to the
farther observable.

Checked on every full extended site of the bundled scenarios, of the
`chain` workload in dims 3–5 and of the dim-3 coarse-graining family
(`tests/families.py`).  A site that has lost one identity-operator arrow
between two observables fails the lemma at that arrow.
"""

import pytest

from families import family_scenario
from sieveval import build_scenario, bundled_scenario_names, bundled_scenario_path, load_scenario, scenario_from_dict
from sieveval.errors import InternalCheckError

INPUTS = [
    *(pytest.param(name, id=name) for name in bundled_scenario_names()),
    *(pytest.param(f"chain {dim}", id=f"chain{dim}") for dim in (3, 4, 5)),
    pytest.param("family 3", id="family3"),
]


def full_extended_sites(name, workloads):
    """The full extended site of each family the input's runs declare."""
    kind, _, n = name.partition(" ")
    if kind == "chain":
        scenario = scenario_from_dict(workloads.chain_scenario(13, int(n)))
    elif kind == "family":
        scenario = scenario_from_dict(family_scenario(int(n)))
    else:
        scenario = load_scenario(bundled_scenario_path(name))
    built = build_scenario(scenario)
    return list({id(run.extended_full): run.extended_full for run in built.runs if run.extended_full}.values())


def composite(site, g, f):
    """g∘f on the site, or None where it leaves the site."""
    try:
        return site.compose(g, f)
    except InternalCheckError:
        return None


def refinements(site):
    """(dom, cod) -> the identity-operator arrow between them."""
    identity = site.monoid.identity_index
    return {(a.dom, a.cod): n for n, a in enumerate(site.arrows) if a.op == identity}


def factorization_failures(site):
    """The arrows f that are not g∘t, t f's fixed twin and g the
    identity-operator arrow from cod t to cod f."""
    refine = refinements(site)
    failures = []
    for f in range(len(site.arrows)):
        t = site.rho_arrow_twin(f)
        g = refine.get((site.arrow_cod(t), site.arrow_cod(f)))
        if g is None or composite(site, g, t) != f:
            failures.append(f)
    return failures


def refinement_failures(site):
    """Where the identity-operator arrows are not the refinement order on
    each ray: an arrow across rays or against the order, an object whose
    identity arrow is not one, or a composable pair whose composite is not
    the identity-operator arrow to the farther observable."""
    refine = refinements(site)
    failures = []
    for (a, b), g in refine.items():
        (ray_a, rho_a), (ray_b, rho_b) = site.objects[a], site.objects[b]
        if ray_a != ray_b or not site.rho_leq[rho_a][rho_b]:
            failures.append(("order", g))
    failures += [("identity", o) for o in range(site.n_objects) if refine.get((o, o)) != site.identity_arrow(o)]
    for (a, b), first in refine.items():
        for (b2, c), second in refine.items():
            if b2 == b and (refine.get((a, c)) is None or composite(site, second, first) != refine[a, c]):
                failures.append(("composite", second, first))
    return failures


@pytest.mark.parametrize("name", INPUTS)
def test_every_arrow_is_a_refinement_after_its_fixed_twin(name, workloads):
    sites = full_extended_sites(name, workloads)
    assert bool(sites) == (name not in ("qubit", "qutrit"))
    for site in sites:
        assert not factorization_failures(site)
        assert not refinement_failures(site)
        # past a one-observable family, some arrow leaves its observable
        leaves = any(site.arrow_cod(f) != site.arrow_cod(site.rho_arrow_twin(f)) for f in range(len(site.arrows)))
        assert leaves == (len(site.observables) > 1)


def test_a_site_missing_one_refinement_fails_the_lemma_at_it():
    (site,) = full_extended_sites("qutrit_extended", None)
    refine = refinements(site)
    g = next(g for (a, b), g in refine.items() if a != b)
    arrows = tuple(arrow for n, arrow in enumerate(site.arrows) if n != g)
    doctored = type(site)(site.observables, site.monoid, site.rays, site.objects, arrows, site.rho_leq)
    assert not refinement_failures(site) and not factorization_failures(site)
    failures = factorization_failures(doctored)
    lost = site.arrows[g]
    # an arrow into g's codomain whose twin ends at g's domain factored through g
    assert failures and any(
        doctored.arrow_cod(f) == lost.cod and doctored.arrow_cod(doctored.rho_arrow_twin(f)) == lost.dom
        for f in failures
    )
