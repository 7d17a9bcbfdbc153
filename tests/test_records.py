"""The package's records: what they compare, hash and refuse.

Value records (sieves, arrows, monoids, scenarios, run specs, atom sets,
global elements, bridge contexts) compare and hash by value; observables
and rays too, after validating their input.  Sites and presheaves are equal
only to themselves.  Every record that was declared immutable refuses
assignment to any field and to new names.  Importing the package loads
neither `dataclasses` nor `inspect`: the records are built without them.
"""

import copy
import operator
import pickle
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import sieveval
from sieveval import (
    ExactMatrix,
    Observable,
    Ray,
    Sieve,
    Subspace,
    atom_presheaf,
    build_plain_site,
    build_scenario,
    bundled_scenario_path,
    close_monoid,
    diagonal_matrix,
    full_space,
    gaussian,
    identity_matrix,
    load_scenario,
    ray_from_vector,
    subspace_from_vectors,
)
from sieveval.errors import InternalCheckError
from sieveval.sites import Arrow


def span(*vs):
    return subspace_from_vectors(len(vs[0]), list(vs))


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """In a fresh interpreter without `site`, since pytest itself loads both."""
    package_root = str(Path(sieveval.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        f"sys.path.insert(0, {package_root!r})\n"
        "import sieveval, sieveval.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_the_package_exports_exactly_its_public_names():
    """`__all__` lists every public name the package binds that is not a
    submodule, once, and each one resolves."""
    public = {
        name
        for name, value in vars(sieveval).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(sieveval.__all__)) == len(sieveval.__all__)
    assert set(sieveval.__all__) == public
    assert all(getattr(sieveval, name) is not None for name in sieveval.__all__)


def test_sieve_order_is_inclusion_in_all_four_directions():
    small, big, other = Sieve(0, 0b0011), Sieve(0, 0b0111), Sieve(0, 0b1100)
    assert small <= big and small < big and big >= small and big > small
    assert small <= small and small >= small
    assert not (small < small or small > small)
    assert not (big <= small or big < small or small >= big or small > big)
    # Incomparable, unlike tuples, which (0, 3) < (0, 12) would order.
    assert not (small <= other or small < other or small >= other or small > other)


@pytest.mark.parametrize("compare", [operator.le, operator.lt, operator.ge, operator.gt])
def test_sieves_on_different_bases_do_not_compare(compare):
    with pytest.raises(InternalCheckError, match="sieves based at"):
        compare(Sieve(0, 1), Sieve(1, 1))


def test_a_sieve_equals_the_plain_tuple_of_its_fields():
    """A sieve is a tuple (base, mask), so it equals and hashes like one.
    No stage mixes sieves with tuples, so no table can confuse them."""
    assert Sieve(0, 1) == (0, 1) and hash(Sieve(0, 1)) == hash((0, 1))


def test_a_sieve_copies_and_pickles_by_its_fields():
    """Iteration yields arrows, so a copy must not be rebuilt from it."""
    s = Sieve(2, 0b10100)
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(twin) is Sieve and twin == s and twin.mask == 0b10100


@pytest.mark.parametrize(
    "make",
    [
        lambda: gaussian(1, 2),
        lambda: identity_matrix(2),
        lambda: full_space(2),
        lambda: ray_from_vector([1, 1]),
        lambda: Observable("Z", (span([1, 0]), span([0, 1])), (Fraction(1), Fraction(-1))),
    ],
    ids=["GaussianRational", "ExactMatrix", "Subspace", "Ray", "Observable"],
)
def test_exact_values_copy_and_pickle_by_their_canonical_fields(make):
    """A hash-consed value copies and unpickles to itself; the others to an
    equal value.  An observable's answer table is not carried."""
    value = make()
    if isinstance(value, Observable):
        value.answers["asked"] = True
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        if isinstance(value, (ExactMatrix, Subspace)):
            assert twin is value
        if isinstance(value, Observable):
            assert twin.answers == {}


def _built_records():
    """One record of each immutable kind, from a bundled build, with the
    names of its fields."""
    built = build_scenario(load_scenario(bundled_scenario_path("qubit_extended")))
    run = next(run for run in built.runs if run.ext_side)
    site = run.plain
    return [
        (Sieve(0, 1), ("base", "mask")),
        (site.arrows[0], ("dom", "op", "cod")),
        (built.monoid, ("elements", "identity_index", "table")),
        (run.spec, ("name", "state", "observable", "eigenspace", "propositions", "extended", "remainder_rays")),
        (
            built.scenario,
            (
                "name", "dimension", "observables", "observable_index", "generators", "generator_names",
                "states", "propositions", "lattice_seeds", "caps", "runs",
            ),
        ),
        (run.atoms, ("state", "observable", "atoms", "eigenspace_indices")),
        (run.plain_side.sigma, ("presheaf", "values")),
        (run.ctx, ("extended", "stage", "rho", "plain", "plain_stage", "fixed")),
        (built.scenario.observables[0], ("name", "eigenspaces", "labels")),
        (run.state, ("space",)),
        (site, ("observables", "monoid", "rays", "objects", "arrows", "rho_leq")),
        (run.plain_side.true_t, ("site", "values", "positions", "index", "parent", "held")),
    ]


def test_immutable_records_refuse_assignment_to_every_field():
    for record, fields in _built_records():
        for name in fields:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            assert getattr(record, name) is value


def test_immutable_records_refuse_new_attributes():
    """AttributeError, not the TypeError that a frozen slotted dataclass
    raises for a name that is not one of its fields."""
    for record, _ in _built_records():
        with pytest.raises(AttributeError):
            record.unrelated = 0


def test_observables_rays_arrows_and_sieves_compare_and_hash_by_value():
    e1, e2, plus = span([1, 0]), span([0, 1]), span([1, 1])
    pairs = [
        (Observable("Z", (e1, e2)), Observable("Z", (e1, e2)), Observable("Z2", (e1, e2))),
        (Ray(plus), ray_from_vector([2, 2]), Ray(e1)),
        (Arrow(0, 1, 2), Arrow(0, 1, 2), Arrow(0, 2, 1)),
        (Sieve(0, 6), Sieve(0, 6), Sieve(1, 6)),
    ]
    for a, b, c in pairs:
        assert a is not b and a == b and hash(a) == hash(b) and not a != b
        assert a != c and len({a, b, c}) == 2


def test_sites_and_presheaves_are_equal_only_to_themselves():
    def site():
        z = Observable("Z", (span([1, 0]), span([0, 1])))
        monoid = close_monoid([diagonal_matrix([1, 0]), diagonal_matrix([0, 1])], cap=16)
        return build_plain_site(z, monoid, [ray_from_vector([1, 1])], cap=16)

    a, b = site(), site()
    assert a == a and a != b and len({a, b}) == 2
    p, q = atom_presheaf(a), atom_presheaf(a)
    assert p.values == q.values and p.positions == q.positions
    assert p == p and p != q and len({p, q}) == 2
