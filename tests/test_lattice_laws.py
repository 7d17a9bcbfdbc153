"""The §2 lattice-law rows: the order certificate against the loops it replaced.

`oracle_lattice_laws` is the law check the row ran before the certificate:
idempotence, commutativity and absorption on every pair and associativity of
join and meet on every triple, here without a budget or sampling.
`oracle_orthomodular` is the orthomodularity witness with its own `leq`
loop.  The certificate must agree with both on every bundled scenario and
on the dim-2 MO_k sublattices generated by the rays (1, z), z = 1..k (the
rays, their complements, 0 and 1: 2k + 2 elements).

The certificate is the stricter check: the oracle never reads `leq`, so it
passes a doctored inclusion order (not reflexive, or not transitive) that
the certificate rejects, because the certificate also requires `join` and
`meet` to be the least upper and greatest lower bounds of that order.  The
doctored operations below are each wrong on one pair or one element.
"""

from collections import Counter

import pytest

from sieveval import (
    build_scenario,
    bundled_scenario_names,
    bundled_scenario_path,
    load_scenario,
    scenario_from_dict,
)
from sieveval import checks as checks_module
from sieveval.subspaces import generate_sublattice, join, leq, meet, ortho, subspace_from_vectors


def mo_scenario(k: int) -> dict:
    """Dimension 2, lattice seeds the rays (1, z) for z = 1..k."""
    return {
        "name": f"mo{k}",
        "dimension": 2,
        "observables": [{"name": "z", "eigenspaces": [[["1", "0"]], [["0", "1"]]]}],
        "generators": [],
        "states": {"up": ["1", "0"]},
        "propositions": {f"P{z}": [["1", str(z)]] for z in range(1, k + 1)},
        "lattice_seeds": [f"P{z}" for z in range(1, k + 1)],
        "runs": [{"name": "up", "state": "up", "observable": "z", "eigenspace": 0}],
    }


def oracle_lattice_laws(lattice, join=join, meet=meet) -> bool:
    for p in lattice:
        if join(p, p) != p or meet(p, p) != p:
            return False
    for p in lattice:
        for q in lattice:
            if join(p, q) != join(q, p) or meet(p, q) != meet(q, p):
                return False
            if join(p, meet(p, q)) != p or meet(p, join(p, q)) != p:
                return False
            for w in lattice:
                if join(join(p, q), w) != join(p, join(q, w)):
                    return False
                if meet(meet(p, q), w) != meet(p, meet(q, w)):
                    return False
    return True


def oracle_orthomodular(lattice) -> bool:
    return all(ortho(ortho(p)) == p for p in lattice) and all(
        join(p, meet(q, ortho(p))) == q for p in lattice for q in lattice if leq(p, q)
    )


def built_scenarios():
    for name in bundled_scenario_names():
        yield name, build_scenario(load_scenario(bundled_scenario_path(name)))
    for k in (1, 2, 3, 5):
        yield f"mo{k}", build_scenario(scenario_from_dict(mo_scenario(k)))


def sublattice(built):
    sc = built.scenario
    return generate_sublattice([sc.propositions[n] for n in sc.lattice_seeds], sc.caps["lattice"])


def an_incomparable_pair(lattice):
    return next((p, q) for p in lattice for q in lattice if not leq(p, q) and not leq(q, p))


def test_certificate_agrees_with_the_oracle():
    sizes = {}
    for name, built in built_scenarios():
        lattice = sublattice(built)
        laws, witness = checks_module._lattice_law_rows(built)
        sizes[name] = laws["details"]["size"]
        assert laws["details"] == {"size": len(lattice), "mode": "exhaustive"}
        assert laws["passed"] and oracle_lattice_laws(lattice), name
        assert witness["passed"] and oracle_orthomodular(lattice), name
    assert [sizes[f"mo{k}"] for k in (1, 2, 3, 5)] == [4, 6, 8, 12]


def test_rows_make_quadratically_many_lattice_calls(monkeypatch):
    built = build_scenario(scenario_from_dict(mo_scenario(5)))
    n = len(sublattice(built))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name, fn in (("join", join), ("meet", meet), ("leq", leq)):
        monkeypatch.setattr(checks_module, name, counted(name, fn))
    assert all(row["passed"] for row in checks_module._lattice_law_rows(built))
    assert calls["leq"] == n * n
    assert n * n <= calls["join"] <= 2 * n * n
    assert n * n <= calls["meet"] <= 2 * n * n


@pytest.mark.parametrize("operation", ["join", "meet"])
@pytest.mark.parametrize("member", [True, False], ids=["member", "outsider"])
def test_a_wrong_join_or_meet_on_one_incomparable_pair_fails_the_row(monkeypatch, operation, member):
    built = build_scenario(scenario_from_dict(mo_scenario(3)))
    lattice = sublattice(built)
    honest = {"join": join, "meet": meet}[operation]
    p, q = an_incomparable_pair(lattice)
    # a member of the sublattice that is not the bound, or a ray outside it
    wrong = p if member else subspace_from_vectors(2, [[1, 4]])
    assert wrong != honest(p, q) and (wrong in lattice) == member

    def doctored(a, b):
        return wrong if (a, b) == (p, q) else honest(a, b)

    monkeypatch.setattr(checks_module, operation, doctored)
    laws = checks_module._lattice_law_rows(built)[0]
    assert not laws["passed"]
    oracle_ops = {"join": join, "meet": meet, operation: doctored}
    assert not oracle_lattice_laws(lattice, **oracle_ops)


def _irreflexive_at_first(lattice):
    first = lattice[0]
    return lambda a, b: False if a is first and b is first else leq(a, b)


def _bottom_below_nothing_but_itself(lattice):
    bottom = next(p for p in lattice if p.dim == 0)
    return lambda a, b: b is bottom if a is bottom else leq(a, b)


def _bottom_not_below_top(lattice):
    """Not transitive: 0 <= r <= 1 for every ray r, but not 0 <= 1."""
    bottom, top = (next(p for p in lattice if p.dim == d) for d in (0, 2))
    return lambda a, b: not (a is bottom and b is top) and leq(a, b)


@pytest.mark.parametrize(
    "doctor", [_irreflexive_at_first, _bottom_below_nothing_but_itself, _bottom_not_below_top]
)
def test_a_wrong_inclusion_order_fails_only_the_certificate(monkeypatch, doctor):
    built = build_scenario(scenario_from_dict(mo_scenario(3)))
    lattice = sublattice(built)
    monkeypatch.setattr(checks_module, "leq", doctor(lattice))
    laws = checks_module._lattice_law_rows(built)[0]
    assert not laws["passed"]
    # the oracle's laws are stated in join and meet alone
    assert oracle_lattice_laws(lattice)


def test_two_equivalent_elements_fail_antisymmetry(monkeypatch):
    """Merge two rays r, s: each is below the other, and both their join and
    meet are r.  Every join and meet is then a least upper and greatest lower
    bound of the preorder, so only the antisymmetry test can reject it."""
    built = build_scenario(scenario_from_dict(mo_scenario(3)))
    lattice = sublattice(built)
    r, s = [p for p in lattice if p.dim == 1][:2]
    merged = {r, s}

    def merging(honest):
        return lambda a, b: r if {a, b} == merged else honest(a, b)

    monkeypatch.setattr(checks_module, "leq", lambda a, b: {a, b} == merged or leq(a, b))
    monkeypatch.setattr(checks_module, "join", merging(join))
    monkeypatch.setattr(checks_module, "meet", merging(meet))
    laws = checks_module._lattice_law_rows(built)[0]
    assert not laws["passed"]


def test_a_non_orthomodular_complement_fails_the_witness(monkeypatch):
    built = build_scenario(scenario_from_dict(mo_scenario(3)))
    rays = [p for p in sublattice(built) if p.dim == 1]
    # an involution that fixes every ray: r <= 1, yet r v (1 ^ r) = r
    monkeypatch.setattr(checks_module, "ortho", lambda p: p if p in rays else ortho(p))
    laws, witness = checks_module._lattice_law_rows(built)
    assert laws["passed"] and not witness["passed"]


def test_mo25_is_certified_exhaustively():
    built = build_scenario(scenario_from_dict(mo_scenario(25)))
    laws, witness = checks_module._lattice_law_rows(built)
    assert laws["passed"] and witness["passed"]
    assert laws["details"] == {"size": 52, "mode": "exhaustive"}
