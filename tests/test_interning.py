"""Hash-consing of subspaces and matrices: equal values are one object,
and equality and hash are identity."""

import gc
import sys
import threading
import weakref

import pytest

from sieveval import (
    full_space,
    gaussian,
    identity_matrix,
    mat_mul,
    matrix_from_rows,
    projector_matrix,
    subspace_from_vectors,
    zero_space,
)
from sieveval.linalg import _MATRICES, ExactMatrix
from sieveval.subspaces import _INTERNED, Subspace


def test_equal_spanning_sets_give_one_object():
    assert subspace_from_vectors(3, [[1, 1, 0], [0, 0, 1]]) is subspace_from_vectors(
        3, [[2, 2, 2], [0, 0, -5]]
    )
    assert subspace_from_vectors(2, [[1, 0], [0, 3]]) is full_space(2)
    assert subspace_from_vectors(2, []) is zero_space(2)
    assert subspace_from_vectors(2, [[0, 0]]) is zero_space(2)
    assert zero_space(2) is not zero_space(3)
    assert subspace_from_vectors(2, [[1, 0]]) != subspace_from_vectors(2, [[0, 1]])


def test_equal_matrices_give_one_object():
    half = matrix_from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
    assert projector_matrix(subspace_from_vectors(2, [[1, 1]])) is half
    assert mat_mul(half, half) is half
    assert mat_mul(identity_matrix(2), half) is half
    assert matrix_from_rows([[1, 0], [0, 1]]) is identity_matrix(2)
    assert mat_mul(matrix_from_rows([[0, 1], [1, 0]]), matrix_from_rows([[0, 1], [1, 0]])) is identity_matrix(2)
    assert projector_matrix(full_space(2)) is identity_matrix(2)
    assert ExactMatrix(1, 1, (((6, 4),),), 2) is ExactMatrix(1, 1, (((3, 2),),))
    assert identity_matrix(2) is not identity_matrix(3)
    assert half != identity_matrix(2)


@pytest.mark.parametrize("cls", [Subspace, ExactMatrix])
def test_equality_and_hash_are_identity_at_c_speed(cls):
    # A Python-level __eq__ or __hash__ would run on every cache and dict
    # lookup keyed on an exact value; only object's slots may stand here.
    assert "_hash" not in cls.__slots__
    for name in ("__eq__", "__hash__"):
        assert cls.__dict__.get(name, object.__dict__[name]) is object.__dict__[name]


@pytest.mark.parametrize(
    "table, make",
    [
        (_INTERNED, lambda: subspace_from_vectors(5, [[1, 2, 3, 4, 7919]])),
        (_MATRICES, lambda: matrix_from_rows([[1, 2], [3, 7919]])),
    ],
    ids=["subspace", "matrix"],
)
def test_an_unreferenced_value_leaves_the_table(table, make):
    gc.collect()
    before = len(table)
    value = make()
    assert len(table) == before + 1
    ref = weakref.ref(value)
    del value
    gc.collect()
    assert ref() is None
    assert len(table) == before


def fresh_spanning_sets(rounds):
    # New scalar objects on every call, so no thread reuses another's input.
    sets = []
    for k in range(rounds):
        a, b = gaussian(k + 101, 1), gaussian(3, -k)
        sets.append([[a, b, gaussian(0), gaussian(1)]])
        sets.append([[a, gaussian(0), b, gaussian(0)], [gaussian(0), gaussian(1), gaussian(0), b]])
    return sets


@pytest.mark.parametrize(
    "build",
    [
        lambda vectors: subspace_from_vectors(4, vectors),
        # a product, so each thread interns both factors and the result
        lambda vectors: mat_mul(matrix_from_rows([[gaussian(1, 2)]]), matrix_from_rows(vectors[:1])),
    ],
    ids=["subspace", "matrix"],
)
def test_concurrent_builds_agree_on_one_object_per_value(build):
    n_threads, rounds = 8, 400
    barrier = threading.Barrier(n_threads, timeout=30)
    results: list = [None] * n_threads

    def run(slot):
        sets = fresh_spanning_sets(rounds)
        barrier.wait()
        results[slot] = [build(vectors) for vectors in sets]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r is not None and len(r) == 2 * rounds for r in results)
    for column in zip(*results):
        assert all(value is column[0] for value in column)
    assert len({id(value) for value in results[0]}) == 2 * rounds
