"""Hash-consing of subspaces: equal values are one object."""

import gc
import sys
import threading
import weakref

from sieveval import full_space, gaussian, subspace_from_vectors, zero_space
from sieveval.subspaces import _INTERNED


def test_equal_spanning_sets_give_one_object():
    assert subspace_from_vectors(3, [[1, 1, 0], [0, 0, 1]]) is subspace_from_vectors(
        3, [[2, 2, 2], [0, 0, -5]]
    )
    assert subspace_from_vectors(2, [[1, 0], [0, 3]]) is full_space(2)
    assert subspace_from_vectors(2, []) is zero_space(2)
    assert subspace_from_vectors(2, [[0, 0]]) is zero_space(2)
    assert zero_space(2) is not zero_space(3)
    assert subspace_from_vectors(2, [[1, 0]]) != subspace_from_vectors(2, [[0, 1]])


def test_unreferenced_subspace_leaves_the_table():
    gc.collect()
    before = len(_INTERNED)
    space = subspace_from_vectors(5, [[1, 2, 3, 4, 7919]])
    assert len(_INTERNED) == before + 1
    ref = weakref.ref(space)
    del space
    gc.collect()
    assert ref() is None
    assert len(_INTERNED) == before


def test_concurrent_builds_agree_on_one_object_per_value():
    n_threads, rounds = 8, 400

    def fresh_spanning_sets():
        # New scalar objects on every call, so no thread reuses another's input.
        sets = []
        for k in range(rounds):
            a, b = gaussian(k + 101, 1), gaussian(3, -k)
            sets.append([[a, b, gaussian(0), gaussian(1)]])
            sets.append([[a, gaussian(0), b, gaussian(0)], [gaussian(0), gaussian(1), gaussian(0), b]])
        return sets

    barrier = threading.Barrier(n_threads, timeout=30)
    results: list = [None] * n_threads

    def build(slot):
        sets = fresh_spanning_sets()
        barrier.wait()
        results[slot] = [subspace_from_vectors(4, vectors) for vectors in sets]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r is not None and len(r) == 2 * rounds for r in results)
    for column in zip(*results):
        assert all(space is column[0] for space in column)
    assert len({id(space) for space in results[0]}) == 2 * rounds
