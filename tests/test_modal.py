from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sieveval import (
    Observable,
    bub_valuation,
    build_scenario,
    bundled_scenario_names,
    bundled_scenario_path,
    close_monoid,
    compute_atoms,
    conj_transpose,
    diagonal_matrix,
    enumerate_determinate_sublattice,
    full_space,
    gaussian,
    identity_matrix,
    in_commutant,
    in_determinate_sublattice,
    join,
    load_scenario,
    mat_mul,
    matrix_from_rows,
    observable_leq,
    ortho,
    projector_matrix,
    ray_from_vector,
    subspace_from_vectors,
    trivial_observable,
    zero_augmented_atom_set,
    zero_space,
)
from sieveval.errors import OrthogonalityViolation, ValidationError
from sieveval.modal import validate_matrix_decomposition
from test_lattice_laws import tables_hold


def span(*vs):
    return subspace_from_vectors(len(vs[0]), list(vs))


def z_observable():
    return Observable("Z", (span([1, 0]), span([0, 1])))


def qutrit_observable():
    return Observable("R", (span([1, 0, 0]), span([0, 1, 0], [0, 0, 1])))


def test_observable_validation():
    with pytest.raises(OrthogonalityViolation):
        Observable("bad", (span([1, 0]), span([1, 1])))
    with pytest.raises(OrthogonalityViolation):
        Observable("short", (span([1, 0, 0]),))
    with pytest.raises(ValidationError):
        Observable("labels", (span([1, 0]), span([0, 1])), (Fraction(1), Fraction(1)))


def test_compute_atoms_eigenstate():
    atoms = compute_atoms(ray_from_vector([1, 0]), z_observable())
    assert atoms.atoms == (span([1, 0]),)
    assert atoms.eigenspace_indices == (0,)


def test_compute_atoms_superposition():
    atoms = compute_atoms(ray_from_vector([1, 1]), z_observable())
    assert atoms.atoms == (span([1, 0]), span([0, 1]))


def test_compute_atoms_qutrit():
    atoms = compute_atoms(ray_from_vector([1, 1, 1]), qutrit_observable())
    assert atoms.atoms == (span([1, 0, 0]), span([0, 1, 1]))
    assert zero_space(3) in atoms.zero_augmented


def test_in_determinate_sublattice():
    atoms = compute_atoms(ray_from_vector([1, 1, 1]), qutrit_observable())
    assert in_determinate_sublattice(full_space(3), atoms)
    assert in_determinate_sublattice(zero_space(3), atoms)
    assert not in_determinate_sublattice(span([1, 1, 1]), atoms)


def test_enumerate_determinate_sublattice_boolean_eight():
    atoms = compute_atoms(ray_from_vector([1, 1, 1]), qutrit_observable())
    lattice = enumerate_determinate_sublattice(atoms, cap=64)
    assert len(lattice) == 8
    for p in lattice:
        assert in_determinate_sublattice(p, atoms)


def test_enumerate_full_span_block_algebra():
    atoms = compute_atoms(ray_from_vector([1, 1]), z_observable())
    lattice = enumerate_determinate_sublattice(atoms, cap=64)
    assert len(lattice) == 4  # 2^n elements for n orthogonal atoms spanning


def test_enumerate_single_atom_with_remainder():
    obs = trivial_observable("unit", 3)
    e = ray_from_vector([1, 0, 0])
    atoms = compute_atoms(e, obs)
    lattice = enumerate_determinate_sublattice(atoms, cap=64)
    assert set(lattice) == {
        zero_space(3),
        e.space,
        ortho(e.space),
        full_space(3),
    }


def test_enumerate_with_declared_remainder_ray():
    obs = trivial_observable("unit", 3)
    e = ray_from_vector([1, 0, 0])
    atoms = compute_atoms(e, obs)
    extra = span([0, 1, 0])
    lattice = enumerate_determinate_sublattice(atoms, cap=64, extra_rays=(extra,))
    assert extra in lattice
    assert span([0, 0, 1]) in lattice  # complements close the enumeration
    with pytest.raises(ValidationError):
        enumerate_determinate_sublattice(atoms, cap=64, extra_rays=(span([1, 1, 0]),))


def test_determinate_sublattice_tables_hold():
    """Every join, meet and ortho entry of the determinate sublattice of
    each bundled run, which Eqs 2.3–2.4 read, and of the qutrit example, is
    the operation on its members."""
    qutrit = Observable("R", (span([1, 0, 0]), span([0, 1, 0], [0, 0, 1])))
    lattices = [enumerate_determinate_sublattice(compute_atoms(ray_from_vector([1, 1, 1]), qutrit), cap=64)]
    for name in bundled_scenario_names():
        built = build_scenario(load_scenario(bundled_scenario_path(name)))
        for run in built.runs:
            extra = tuple(built.scenario.propositions[n] for n in run.spec.remainder_rays)
            lattices.append(enumerate_determinate_sublattice(run.atoms, built.scenario.caps["lattice"], extra))
    assert sorted(len(lattice) for lattice in lattices) == [2] + [4] * 7 + [8] * 6
    assert all(tables_hold(lattice) for lattice in lattices)


def test_bub_valuation():
    e_r = span([1, 0])
    assert bub_valuation(e_r, full_space(2)) == 1
    assert bub_valuation(e_r, zero_space(2)) == 0
    block = join(span([1, 0, 0]), span([0, 1, -1]))
    assert bub_valuation(span([1, 0, 0]), block) == 1


def test_in_commutant():
    z = z_observable()
    assert in_commutant(diagonal_matrix([1, 1]), z)
    assert in_commutant(diagonal_matrix([1, 0]), z)
    flip = matrix_from_rows([[0, 1], [1, 0]])
    assert not in_commutant(flip, z)


def commutes_with_every_eigenprojector(f, observable):
    """The reference predicate: f P_i = P_i f for every eigenprojector P_i."""
    projectors = [projector_matrix(r) for r in observable.eigenspaces]
    return all(mat_mul(f, p) == mat_mul(p, f) for p in projectors)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_in_commutant_matches_the_projector_oracle_on_bundled_monoids(name):
    # Every bundled monoid element commutes with every declared observable;
    # the random operators below supply the non-commuting verdicts.
    scenario = load_scenario(bundled_scenario_path(name))
    monoid = close_monoid(scenario.generators, scenario.caps["monoid"], dim=scenario.dimension)
    for f in monoid.elements:
        for observable in scenario.observables:
            assert in_commutant(f, observable) == commutes_with_every_eigenprojector(f, observable)


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
entries = st.one_of(st.just(gaussian(0)), st.builds(gaussian, small, small))


def unitary(n, kind):
    """Identity, or a Pythagorean rotation of the first two coordinates."""
    rows = [list(row) for row in identity_matrix(n).entries]
    if n >= 2 and kind != "identity":
        c, s, i_s = Fraction(3, 5), Fraction(4, 5), gaussian(0, Fraction(4, 5))
        rows[0][:2], rows[1][:2] = ([c, -s], [s, c]) if kind == "real" else ([c, i_s], [i_s, c])
    return matrix_from_rows(rows)


@st.composite
def operator_and_observable(draw):
    """An observable merged from the columns of a unitary U, and F = U B U*
    where B is random, block-diagonal over the merge half of the time."""
    n = draw(st.integers(1, 3))
    u = unitary(n, draw(st.sampled_from(["identity", "real", "complex"])))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = [[j for j in range(n) if labels[j] == b] for b in sorted(set(labels))]
    columns = list(zip(*u.entries))
    observable = Observable(
        "R", tuple(subspace_from_vectors(n, [columns[j] for j in block]) for block in blocks)
    )
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [
            [e if labels[i] == labels[j] else gaussian(0) for j, e in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    f = mat_mul(u, mat_mul(matrix_from_rows(rows), conj_transpose(u)))
    return f, observable


def test_in_commutant_matches_the_projector_oracle_on_random_operators():
    verdicts = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(operator_and_observable())
    def compare(pair):
        f, observable = pair
        expected = commutes_with_every_eigenprojector(f, observable)
        assert in_commutant(f, observable) == expected
        verdicts.add(expected)

    compare()
    assert verdicts == {True, False}


def test_observable_leq():
    coarse = qutrit_observable()
    fine = Observable("F", (span([1, 0, 0]), span([0, 1, 0]), span([0, 0, 1])))
    unit = trivial_observable("unit", 3)
    assert observable_leq(unit, coarse)
    assert observable_leq(coarse, coarse)
    assert observable_leq(coarse, fine)
    assert not observable_leq(fine, coarse)


def test_atom_set_inclusion_forces_equality():
    # the B1 statement at unit scale: comparable pair with inclusion
    coarse = qutrit_observable()
    fine = Observable("F", (span([1, 0, 0]), span([0, 1, 0]), span([0, 0, 1])))
    for ray in ([1, 0, 0], [0, 1, 0], [0, 1, 1], [1, 1, 1]):
        lower = zero_augmented_atom_set(span(ray), coarse)
        upper = zero_augmented_atom_set(span(ray), fine)
        if lower <= upper:
            assert lower == upper


def test_validate_matrix_decomposition():
    z = Observable("Z", (span([1, 0]), span([0, 1])), (Fraction(1), Fraction(-1)))
    validate_matrix_decomposition(diagonal_matrix([1, -1]), z)
    with pytest.raises(ValidationError):
        validate_matrix_decomposition(diagonal_matrix([1, 1]), z)
