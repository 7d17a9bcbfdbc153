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
the certificate rejects, because the certificate also requires the join
and meet of each pair to be its least upper and greatest lower bounds in
that order.  The rows read those joins and meets, and the orthocomplements,
from the position tables the closure records (`Sublattice`), so the
doctored tables below are each wrong on one pair or one element; every
entry of an honest table is the `join`, `meet` or `ortho` of its members.
"""

import json
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
from sieveval import subspaces as subspaces_module
from sieveval.errors import LatticeCapExceeded
from sieveval.subspaces import Sublattice, generate_sublattice, join, leq, meet, ortho, subspace_from_vectors
from test_exact_core import fraction_meet, naive_sublattice, tables_hold


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


def reference_join(p, q):
    """The span of the stacked bases, eliminated afresh: no memo shared with `join`."""
    return subspace_from_vectors(p.ambient_dim, p.vectors() + q.vectors())


def reference_meet(p, q):
    """The kernel of the stacked bases over Gaussian rationals: no memo shared with `meet`."""
    n = p.ambient_dim
    return subspace_from_vectors(n, fraction_meet(n, p.vectors(), q.vectors()))


def oracle_lattice_laws(lattice, join=join, meet=meet) -> bool:
    for p in lattice:
        if join(p, p) != p or meet(p, p) != p:
            return False
    for p in lattice:
        for q in lattice:
            # commutativity, with each order held to the unmemoised reference
            if join(p, q) != reference_join(p, q) or join(q, p) != reference_join(q, p):
                return False
            if meet(p, q) != reference_meet(p, q) or meet(q, p) != reference_meet(q, p):
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


def with_table_entry(lattice, table: str, p, q, wrong):
    """`lattice` with the entry of members p and q in its `table`, "joins"
    or "meets", replaced by the position of the member `wrong`."""
    i, j = sorted((lattice.members.index(p), lattice.members.index(q)))
    tables = {"joins": lattice.joins, "meets": lattice.meets}
    rows = [list(row) for row in tables[table]]
    rows[i][j - i] = lattice.members.index(wrong)
    tables[table] = tuple(map(tuple, rows))
    return Sublattice(lattice.members, tables["joins"], tables["meets"], lattice.orthos)


def rows_read(monkeypatch, lattice):
    """Make the §2 rows read `lattice` as the generated sublattice."""
    monkeypatch.setattr(checks_module, "generate_sublattice", lambda seeds, cap: lattice)


def test_every_table_entry_is_the_operation_on_its_members(workloads):
    """On MO_2..MO_5, every bundled scenario's sublattice and the benchmark's
    `lattice` scenario at seeds 1-3."""
    scenarios = [scenario_from_dict(mo_scenario(k)) for k in range(2, 6)]
    scenarios += [load_scenario(bundled_scenario_path(name)) for name in bundled_scenario_names()]
    scenarios += [scenario_from_dict(workloads.lattice_scenario(seed)) for seed in (1, 2, 3)]
    for sc in scenarios:
        lattice = generate_sublattice([sc.propositions[n] for n in sc.lattice_seeds], sc.caps["lattice"])
        assert tables_hold(lattice), sc.name


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


# In a fresh interpreter, so that no subspace operation is cached before the
# rows run; scenario parsing and the build are not counted.
COLD_LATTICE_ROWS = """
import importlib.util, json, sys
from sieveval import build_scenario, checks, linalg, scenario_from_dict, subspaces

spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
built = build_scenario(scenario_from_dict(workloads.lattice_scenario(73)))
calls = 0
insert = linalg.insert_rows


def counted(*args):
    global calls
    calls += 1
    return insert(*args)


linalg.insert_rows = subspaces.insert_rows = counted
rows = checks._lattice_law_rows(built)
passed = [row["passed"] for row in rows]
print(json.dumps({"size": rows[0]["details"]["size"], "passed": passed, "calls": calls}))
"""


def test_cold_lattice_rows_eliminate_each_unordered_pair_once(workloads, run_fresh):
    """The closure joins each unordered pair of the 36-element sublattice
    once and reads each meet from its join and ortho tables (1,356
    eliminations when each argument order of each join and meet ran its
    own).  Pairs are oriented by their canonical rows, not by address or
    interning order, so the count is exact.  Every elimination is one call
    of `insert_rows`: 546 by `join`, which inserts one operand's rows into
    the other's, and 48 from no rows, by `integer_rref`."""
    done = run_fresh(COLD_LATTICE_ROWS, workloads.__file__)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["size"] == 36 and result["passed"] == [True, True]
    assert result["calls"] == 594, result


# A cold check of the benchmark's `lattice_scenario(1)`, parse included, in
# a fresh interpreter: its `insert_rows` calls and the entries it leaves in
# the join and meet caches.
COLD_LATTICE_CHECK = """
import importlib.util, json, sys
from sieveval import linalg, run_check, scenario_from_dict, subspaces

spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
calls = 0
insert = linalg.insert_rows


def counted(*args):
    global calls
    calls += 1
    return insert(*args)


linalg.insert_rows = subspaces.insert_rows = counted
report = run_check(scenario_from_dict(workloads.lattice_scenario(1)))
print(json.dumps({
    "passed": report["passed"],
    "calls": calls,
    "join_entries": subspaces.join.cache_info().currsize,
    "meet_entries": subspaces.meet.cache_info().currsize,
}))
"""


def test_a_cold_lattice_check_asks_meet_only_outside_the_closure(workloads, run_fresh):
    """The closure asks `meet` of no pair, so the meet cache keeps only the
    entries of the universe's meet table and the atoms' projections (969
    while the closure asked `meet` of each of its 666 pairs); the
    eliminations are the same 723 (584 by `join`, 139 by `integer_rref`), and
    the join cache loses the joins of orthocomplements that only those meets
    asked (1,125 entries before)."""
    done = run_fresh(COLD_LATTICE_CHECK, workloads.__file__)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result == {"passed": True, "calls": 723, "join_entries": 988, "meet_entries": 55}


# A cold check of a generated chain after `argv[2]` allocations of assorted
# sizes, a third of them freed, so that later objects land at other addresses.
CHAIN_AFTER_ALLOCATIONS = """
import importlib.util, json, sys

junk = [bytearray(i % 97 + 1) for i in range(int(sys.argv[2]))]
del junk[::3]
from sieveval import linalg, run_check, scenario_from_dict, subspaces

spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
calls = 0
insert = linalg.insert_rows


def counted(*args):
    global calls
    calls += 1
    return insert(*args)


linalg.insert_rows = subspaces.insert_rows = counted
report = run_check(scenario_from_dict(workloads.chain_scenario(1)))
print(json.dumps({
    "passed": report["passed"],
    "calls": calls,
    "join_entries": subspaces.join.cache_info().currsize,
    "meet_entries": subspaces.meet.cache_info().currsize,
}))
"""


# One join and one meet of p and q, after interning them in the order
# `argv[1]` spells.
ONE_PAIR = """
import json, sys
from sieveval import subspace_from_vectors
from sieveval.subspaces import join, meet

vectors = {"p": [[1, 2, 3]], "q": [[3, 1, 7], [0, 5, 1]]}
spaces = {name: subspace_from_vectors(3, vectors[name]) for name in sys.argv[1]}
join(spaces["p"], spaces["q"])
meet(spaces["p"], spaces["q"])
print(json.dumps({
    "join_entries": join.cache_info().currsize,
    "meet_entries": meet.cache_info().currsize,
}))
"""


def test_pair_orientation_does_not_depend_on_allocation_history(workloads, run_fresh):
    """Two interpreters whose heaps differ before the package loads make the
    same eliminations and keep the same join and meet cache entries (with
    pairs oriented by address, the entries moved with the heap), and so do
    two that intern the operands of one pair in opposite orders (with pairs
    oriented by interning order, they kept 2/1 and 3/2 entries)."""
    results = []
    for allocations in ("0", "20000"):
        done = run_fresh(CHAIN_AFTER_ALLOCATIONS, workloads.__file__, allocations)
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout))
    assert results[0]["passed"] and results[0]["calls"]
    assert results[0] == results[1]
    pairs = []
    for order in ("pq", "qp"):
        done = run_fresh(ONE_PAIR, order)
        assert done.returncode == 0, done.stderr
        pairs.append(json.loads(done.stdout))
    assert pairs[0] == pairs[1]


def test_rows_make_quadratically_many_lattice_calls(monkeypatch):
    """N² `leq` calls, the oracle, and no `join`, `meet` or `ortho` call:
    the rows read those from the sublattice's tables."""
    built = build_scenario(scenario_from_dict(mo_scenario(5)))
    lattice = sublattice(built)
    n = len(lattice)
    rows_read(monkeypatch, lattice)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(checks_module, "leq", counted("leq", leq))
    for name, fn in (("join", join), ("meet", meet), ("ortho", ortho)):
        monkeypatch.setattr(subspaces_module, name, counted(name, fn))
        monkeypatch.setattr(checks_module, name, counted(name, fn), raising=False)
    assert all(row["passed"] for row in checks_module._lattice_law_rows(built))
    assert calls == Counter({"leq": n * n})


@pytest.mark.parametrize("operation", ["join", "meet"])
@pytest.mark.parametrize("member", [True, False], ids=["member", "outsider"])
def test_a_wrong_join_or_meet_on_one_incomparable_pair_fails_the_row(monkeypatch, operation, member):
    """The table entry of one incomparable pair names a member that is not
    its bound, or a ray outside the generated sublattice, which the tables
    hold only as a member: here of the sublattice it generates with the seeds."""
    built = build_scenario(scenario_from_dict(mo_scenario(3)))
    lattice = sublattice(built)
    honest = {"join": join, "meet": meet}[operation]
    p, q = an_incomparable_pair(lattice)
    # a member of the sublattice that is not the bound, or a ray outside it
    wrong = p if member else subspace_from_vectors(2, [[1, 4]])
    assert wrong != honest(p, q) and (wrong in lattice) == member
    tables = lattice
    if not member:
        sc = built.scenario
        tables = generate_sublattice([sc.propositions[n] for n in sc.lattice_seeds] + [wrong], sc.caps["lattice"])
    rows_read(monkeypatch, with_table_entry(tables, operation + "s", p, q, wrong))
    laws = checks_module._lattice_law_rows(built)[0]
    assert not laws["passed"]

    def doctored(a, b):
        return wrong if (a, b) == (p, q) else honest(a, b)

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

    monkeypatch.setattr(checks_module, "leq", lambda a, b: {a, b} == merged or leq(a, b))
    rows_read(monkeypatch, with_table_entry(with_table_entry(lattice, "joins", r, s, r), "meets", r, s, r))
    laws = checks_module._lattice_law_rows(built)[0]
    assert not laws["passed"]


def test_a_non_orthomodular_complement_fails_the_witness(monkeypatch):
    built = build_scenario(scenario_from_dict(mo_scenario(3)))
    lattice = sublattice(built)
    # an involution that fixes every ray: r <= 1, yet r v (1 ^ r) = r
    orthos = tuple(i if p.dim == 1 else c for i, (p, c) in enumerate(zip(lattice, lattice.orthos)))
    rows_read(monkeypatch, Sublattice(lattice.members, lattice.joins, lattice.meets, orthos))
    laws, witness = checks_module._lattice_law_rows(built)
    assert laws["passed"] and not witness["passed"]


def test_mo25_is_certified_exhaustively():
    built = build_scenario(scenario_from_dict(mo_scenario(25)))
    laws, witness = checks_module._lattice_law_rows(built)
    assert laws["passed"] and witness["passed"]
    assert laws["details"] == {"size": 52, "mode": "exhaustive"}


def test_semi_naive_closure_matches_the_naive_one(workloads):
    """Same list, same order, and `LatticeCapExceeded` at the same caps as
    the naive closure under join and ortho, on every bundled scenario,
    MO_1..MO_5 and the benchmark's 36-element `lattice` scenario; and the
    same members, and the same caps, as the naive closure under join, meet
    and ortho, which reaches them in another order on some of these."""
    scenarios = [load_scenario(bundled_scenario_path(name)) for name in bundled_scenario_names()]
    scenarios += [scenario_from_dict(mo_scenario(k)) for k in range(1, 6)]
    scenarios.append(scenario_from_dict(workloads.lattice_scenario(73)))
    sizes, reordered = [], []
    for sc in scenarios:
        seeds = [sc.propositions[n] for n in sc.lattice_seeds]
        expected = naive_sublattice(seeds, sc.caps["lattice"], (join,))
        with_meet = naive_sublattice(seeds, sc.caps["lattice"])
        assert list(generate_sublattice(seeds, sc.caps["lattice"])) == expected, sc.name
        assert set(with_meet) == set(expected) and len(with_meet) == len(expected), sc.name
        for cap in range(1, len(expected) + 1):
            outcomes = []
            for operations in ((join,), (join, meet)):
                try:
                    outcomes.append(naive_sublattice(seeds, cap, operations))
                except LatticeCapExceeded:
                    outcomes.append(None)
            naive, naive_with_meet = outcomes
            assert (naive is None) == (naive_with_meet is None) == (cap < len(expected)), (sc.name, cap)
            if naive is None:
                with pytest.raises(LatticeCapExceeded):
                    generate_sublattice(seeds, cap)
            else:
                assert list(generate_sublattice(seeds, cap)) == naive, (sc.name, cap)
        sizes.append(len(expected))
        if with_meet != expected:
            reordered.append(sc.name)
    assert sizes[-6:] == [4, 6, 8, 10, 12, 36]
    assert reordered == ["qutrit", "qutrit_extended", "lattice-73"]
