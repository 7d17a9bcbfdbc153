"""Each observable's table of answers (`Observable.answers`).

An observable answers `observable_leq(self, other)`, `in_commutant(f, self)`
and `zero_augmented_atom_set(ray, self)` once each and keeps the answer.
Differential: after a cold check of every bundled scenario, every kept
answer equals a fresh computation that reads no answer table.  Growth: repeated
checks of one loaded scenario ask nothing new.  Ownership: equal
observables keep separate tables.
"""

from collections import Counter

from sieveval import (
    Observable,
    bundled_scenario_names,
    bundled_scenario_path,
    load_scenario,
    matrix_from_rows,
    run_check,
    subspace_from_vectors,
    zero_space,
)
from sieveval.modal import (
    compute_atoms,
    in_commutant,
    non_invariant_eigenspace,
    observable_leq,
    zero_augmented_atom_set,
)
from sieveval.subspaces import Ray, leq


def span(*vs):
    return subspace_from_vectors(len(vs[0]), list(vs))


def fresh_refines(rho, eigenspaces):
    """rho <= rho' for orthogonal decompositions of one space: each
    eigenspace of rho' lies inside an eigenspace of rho."""
    return all(any(leq(rp, r) for r in rho.eigenspaces) for rp in eigenspaces)


def fresh_answer(observable, kind, key):
    if kind == "leq":
        return fresh_refines(observable, key)
    if kind == "commutant":
        return non_invariant_eigenspace(key, observable) is None
    assert kind == "atoms", kind
    return frozenset(compute_atoms(Ray(key), observable).zero_augmented)


def checked_scenarios():
    scenarios = [load_scenario(bundled_scenario_path(name)) for name in bundled_scenario_names()]
    for scenario in scenarios:
        assert run_check(scenario)["passed"]
    return scenarios


def test_every_kept_answer_equals_a_fresh_computation():
    kinds = Counter()
    for scenario in checked_scenarios():
        for observable in scenario.observables:
            for (kind, key), answer in observable.answers.items():
                assert answer == fresh_answer(observable, kind, key), (observable.name, kind)
                kinds[kind] += 1
    assert set(kinds) == {"leq", "commutant", "atoms"}, kinds


def test_repeated_checks_ask_no_new_question():
    scenarios = checked_scenarios()
    sizes = [[len(o.answers) for o in scenario.observables] for scenario in scenarios]
    assert all(all(row) for row in sizes)
    for _ in range(19):
        for scenario in scenarios:
            run_check(scenario)
    assert [[len(o.answers) for o in scenario.observables] for scenario in scenarios] == sizes


def test_equal_observables_keep_separate_tables():
    e1, e2, plus = span([1, 0]), span([0, 1]), span([1, 1])
    a, b = Observable("Z", (e1, e2)), Observable("Z", (e1, e2))
    assert a == b and hash(a) == hash(b) and a.answers is not b.answers
    flip = matrix_from_rows([[0, 1], [1, 0]])
    assert observable_leq(a, b)
    assert not in_commutant(flip, a)
    assert zero_augmented_atom_set(plus, a) == frozenset({e1, e2, zero_space(2)})
    assert len(a.answers) == 3 and b.answers == {}
