"""Each observable's table of answers (`Observable.answers`).

An observable answers `observable_leq(self, other)`,
`non_invariant_eigenspace(f, self)` (which `in_commutant` and the scenario's
`commutant_of` check read) and `zero_augmented_atom_set(ray, self)` once
each and keeps the answer.
Differential: after a cold check of every bundled scenario, every kept
answer equals a fresh computation that reads no answer table.  Growth: repeated
checks of one loaded scenario ask nothing new.  Ownership: equal
observables keep separate tables.
"""

import json
from collections import Counter
from pathlib import Path

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
from sieveval import modal
from sieveval.modal import (
    compute_atoms,
    in_commutant,
    non_invariant_eigenspace,
    observable_leq,
    zero_augmented_atom_set,
)
from sieveval.subspaces import Ray, apply_operator, leq


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
        images = [apply_operator(key, r) for r in observable.eigenspaces]
        return next((i for i, r in enumerate(observable.eigenspaces) if not leq(images[i], r)), None)
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


def test_a_cold_check_evaluates_each_commutant_question_once(monkeypatch):
    """Loading (each generator's `commutant_of`) and checking every bundled
    scenario evaluate each (operator, observable) pair once."""
    evaluations = Counter()
    evaluate = modal._first_non_invariant

    def counted(f, observable):
        # Equal observables of two scenarios are two keys; every scenario is
        # loaded before the first check, so no id is reused.
        evaluations[f, id(observable)] += 1
        return evaluate(f, observable)

    monkeypatch.setattr(modal, "_first_non_invariant", counted)
    checked_scenarios()
    assert sum(evaluations.values()) == 47
    assert set(evaluations.values()) == {1}


def test_a_declared_commutant_is_answered_by_the_table():
    """The `commutant_of` check at load keeps its answer, for the sites to
    read: each declared generator's entry says it commutes."""
    declared = 0
    for name in bundled_scenario_names():
        path = bundled_scenario_path(name)
        raw = json.loads(Path(path).read_text(encoding="utf-8"))["generators"]
        scenario = load_scenario(path)
        observables = {observable.name: observable for observable in scenario.observables}
        for entry, f in zip(raw, scenario.generators):
            if "commutant_of" in entry:
                assert observables[entry["commutant_of"]].answers[("commutant", f)] is None
                declared += 1
    assert declared == 13


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
