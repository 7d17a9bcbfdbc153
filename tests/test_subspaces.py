import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sieveval import (
    Ray,
    apply_operator,
    diagonal_matrix,
    full_space,
    gaussian,
    identity_matrix,
    join,
    leq,
    mat_mul,
    meet,
    ortho,
    project_onto_eigenspace,
    projector_matrix,
    ray_from_vector,
    subspace_from_vectors,
    zero_space,
)
from sieveval.errors import AmbientMismatch, LatticeCapExceeded
from sieveval.linalg import conj_transpose
from sieveval.subspaces import generate_sublattice

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
entries = st.builds(gaussian, small, small)
vectors3 = st.lists(entries, min_size=3, max_size=3)
subspaces3 = st.lists(vectors3, min_size=0, max_size=3).map(
    lambda vs: subspace_from_vectors(3, vs)
)


def span(*vs):
    return subspace_from_vectors(len(vs[0]), list(vs))


def test_canonical_form_is_unique():
    a = span([1, 1, 0], [0, 0, 1])
    b = span([2, 2, 2], [0, 0, -5])
    assert a == b
    assert hash(a) == hash(b)


def test_join_examples():
    p = span([1, 0])
    assert join(p, zero_space(2)) == p
    assert join(span([1, 0]), span([0, 1])) == full_space(2)
    assert join(span([1, 1, 0]), span([1, -1, 0])) == span([1, 0, 0], [0, 1, 0])


def test_meet_examples():
    p = span([1, 0])
    assert meet(p, full_space(2)) == p
    assert meet(span([1, 0]), span([0, 1])) == zero_space(2)
    assert meet(span([1, 0, 0], [0, 1, 0]), span([1, 1, 1])) == zero_space(3)


def test_ortho_examples():
    assert ortho(zero_space(2)) == full_space(2)
    assert ortho(span([1, 0])) == span([0, 1])
    i = gaussian(0, 1)
    assert ortho(span([gaussian(1), i])) == span([gaussian(1), -i])


def test_leq_examples():
    assert leq(zero_space(3), span([1, 1, 1]))
    assert leq(span([1, 1, 0]), span([1, 0, 0], [0, 1, 0]))
    assert not leq(span([1, 0]), span([0, 1]))
    with pytest.raises(AmbientMismatch):
        leq(span([1, 0]), span([1, 0, 0]))


def test_apply_operator_examples():
    p = span([1, 1])
    assert apply_operator(identity_matrix(2), p) == p
    p2 = diagonal_matrix([0, 1])
    assert apply_operator(p2, span([1, 0])) == zero_space(2)
    pr23 = diagonal_matrix([0, 1, 1])
    assert apply_operator(pr23, span([1, 1, 1])) == span([0, 1, 1])


def test_projector_matrix_is_hermitian_idempotent():
    r = span([1, 1, 0], [0, 0, 1])
    pi = projector_matrix(r)
    assert mat_mul(pi, pi) == pi
    assert conj_transpose(pi) == pi
    assert apply_operator(pi, r) == r


def test_project_onto_eigenspace_examples():
    e1 = ray_from_vector([1, 0])
    assert project_onto_eigenspace(e1, span([1, 0])) == span([1, 0])
    assert project_onto_eigenspace(e1, span([0, 1])) == zero_space(2)
    w = ray_from_vector([1, 1, 1])
    r23 = span([0, 1, 0], [0, 0, 1])
    assert project_onto_eigenspace(w, r23) == span([0, 1, 1])


def test_projection_agrees_with_projector():
    w = ray_from_vector([1, 1, 1])
    for r in (span([1, 0, 0]), span([0, 1, 0], [0, 0, 1]), span([1, 1, 0])):
        assert project_onto_eigenspace(w, r) == apply_operator(projector_matrix(r), w.space)


def test_ray_requires_dim_one():
    from sieveval.errors import ValidationError

    with pytest.raises(ValidationError):
        Ray(span([1, 0], [0, 1]))


def test_generate_sublattice_boolean_block():
    rays = [span([1, 0, 0]), span([0, 1, 1]), span([0, 1, -1])]
    lattice = generate_sublattice(rays, cap=64)
    assert len(lattice) == 8


def test_generate_sublattice_cap():
    rays = [span([1, 0, 0]), span([0, 1, 1]), span([0, 1, -1])]
    with pytest.raises(LatticeCapExceeded):
        generate_sublattice(rays, cap=4)


@settings(max_examples=40)
@given(subspaces3, subspaces3)
def test_lattice_commutativity(p, q):
    assert join(p, q) == join(q, p)
    assert meet(p, q) == meet(q, p)


@settings(max_examples=40)
@given(subspaces3, subspaces3)
def test_absorption(p, q):
    assert join(p, meet(p, q)) == p
    assert meet(p, join(p, q)) == p


@settings(max_examples=40)
@given(subspaces3)
def test_ortho_involution_and_complement(p):
    assert ortho(ortho(p)) == p
    assert meet(p, ortho(p)) == zero_space(3)
    assert join(p, ortho(p)) == full_space(3)


@settings(max_examples=40)
@given(subspaces3, subspaces3)
def test_orthomodularity(p, q):
    if leq(p, q):
        assert join(p, meet(q, ortho(p))) == q


@settings(max_examples=40)
@given(subspaces3, subspaces3)
def test_leq_antisymmetry_is_equality(p, q):
    if leq(p, q) and leq(q, p):
        assert p == q


@settings(max_examples=60)
@given(subspaces3)
def test_sort_key_reads_the_basis_fractions(p):
    # The basis matrix entry by entry, coordinate by coordinate: each entry
    # as the numerators and denominators of its Fraction parts.
    vectors = p.vectors()
    key = tuple(
        (e.re.numerator, e.re.denominator, e.im.numerator, e.im.denominator)
        for i in range(3)
        for e in (v[i] for v in vectors)
    )
    assert p.sort_key() == (p.dim, key)
