"""Workload inputs: the bundled scenarios and two seeded generators.

`sieveval` only ever sees the scenario JSON written here.  The seed picks
Gaussian-rational amplitudes; it never changes the shape of a workload
(sublattice size, site object and arrow counts, row tags), and each
generator enforces the amplitude conditions that keep the shape fixed.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("bundled", "lattice", "chain")
CHAIN_DIMS = (2, 3, 4, 5)

UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))
# Amplitudes z of the rays (1, z) in each lattice plane: two seeds, then the state.
LATTICE_BASE_A = ((Fraction(-1), Fraction(1)), (Fraction(-3, 2), Fraction(2)), (Fraction(1), Fraction(-1)))
LATTICE_BASE_B = ((Fraction(-1), Fraction(3)), (Fraction(2, 3), Fraction(-3, 2)), (Fraction(2, 3), Fraction(-1, 3)))


def _amplitude(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A nonzero Gaussian rational p/q + (r/s) i with small, bounded digits.

    Bounded numerators and denominators keep the cost of exact arithmetic
    the same from seed to seed.
    """

    def part() -> Fraction:
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 3))

    return part(), part()


def _literal(z: tuple[Fraction, Fraction]) -> str:
    re, im = z
    return f"{re}{'+' if im > 0 else '-'}{abs(im)} i"


def _mul(u: tuple[Fraction, Fraction], v: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _conj(u: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    return (u[0], -u[1])


def _generic(zs: list[tuple[Fraction, Fraction]]) -> bool:
    """Whether the rays (1, z) in C^2 are pairwise distinct and pairwise
    non-orthogonal, so that k of them generate the orthomodular lattice MO_k
    with exactly 2k + 2 elements.  (1, u) is orthogonal to (1, v) exactly
    when conj(u) * v == -1."""
    return len(set(zs)) == len(zs) and all(
        _mul(_conj(u), v) != (-1, 0) for i, u in enumerate(zs) for v in zs[i + 1 :]
    )


def _vector(dim: int, entries: dict[int, str]) -> list[str]:
    return [entries.get(i, "0") for i in range(dim)]


def _projector(dim: int, support: set[int]) -> list[list[str]]:
    return [["1" if i == j and i in support else "0" for j in range(dim)] for i in range(dim)]


def lattice_scenario(seed: int) -> dict:
    """Dimension 4 split into two orthogonal planes A = <e1,e2>, B = <e3,e4>.

    Two generic rays (1, z) in each plane are the lattice seeds.  Each
    plane's rays generate MO2 (6 elements) there, and the generated
    sublattice of C^4 is the product: 36 elements for every seed.  The
    state's component in each plane is a third generic ray, so every seed
    gives the same sites and the same row outcomes.

    The seed picks one of 128 images of fixed base amplitudes under maps
    that keep the lattice and the size of every exact intermediate: a unit
    phase (1, i, -1 or -i) on the second coordinate of each plane, complex
    conjugation, and the order of the two seed rays in each plane.  Freely
    drawn amplitudes made one seed in five 13% dearer than the others.
    """
    rng = random.Random(f"lattice:{seed}")
    conjugate = rng.random() < 0.5
    a_rays, b_rays = [], []
    for base, rays in ((LATTICE_BASE_A, a_rays), (LATTICE_BASE_B, b_rays)):
        phase = rng.choice(UNITS)
        rays.extend(_mul(phase, _conj(z) if conjugate else z) for z in base)
        if rng.random() < 0.5:
            rays[0], rays[1] = rays[1], rays[0]
        assert _generic(rays)
    plane_a = [_vector(4, {0: "1"}), _vector(4, {1: "1"})]
    plane_b = [_vector(4, {2: "1"}), _vector(4, {3: "1"})]
    propositions = {}
    for k in range(2):
        propositions[f"a{k}"] = [_vector(4, {0: "1", 1: _literal(a_rays[k])})]
        propositions[f"b{k}"] = [_vector(4, {2: "1", 3: _literal(b_rays[k])})]
    return {
        "name": f"lattice-{seed}",
        "dimension": 4,
        "observables": [{"name": "split", "eigenspaces": [plane_a, plane_b]}],
        "generators": [
            {"name": "pa", "matrix": _projector(4, {0, 1}), "commutant_of": "split"},
            {"name": "pb", "matrix": _projector(4, {2, 3}), "commutant_of": "split"},
        ],
        "states": {
            "psi": _vector(
                4, {0: "1", 1: _literal(a_rays[2]), 2: "1", 3: _literal(b_rays[2])}
            )
        },
        "propositions": propositions,
        "lattice_seeds": sorted(propositions),
        "runs": [{"name": "psi-a", "state": "psi", "observable": "split", "eigenspace": 0}],
    }


def chain_scenario(seed: int, dim: int = 4, lattice_seeds: tuple[str, ...] | None = ("P_e1",)) -> dict:
    """A diagonal chain unit < coarse < fine in dimension `dim` (2 to 5).

    fine splits off every coordinate ray, coarse splits e1 from the rest.
    Generators are the fine projectors plus the coarse block projector, the
    state is all ones, and both runs carry the extended family.  The seed
    only sets the amplitudes of the two tilted rays in the <e2,e3> plane,
    which exist from dim 3 on.  `lattice_seeds=None` leaves the seeds to the
    default, every declared proposition, the all-ones ray included.
    """
    if dim not in CHAIN_DIMS:
        raise ValueError(f"chain dimension must be one of {CHAIN_DIMS}")
    rng = random.Random(f"chain:{seed}")
    tail = set(range(1, dim))
    coords = [_vector(dim, {i: "1"}) for i in range(dim)]
    generators = [
        {"name": f"p{i + 1}", "matrix": _projector(dim, {i}), "commutant_of": "fine"}
        for i in range(dim)
    ]
    generators.append({"name": "ptail", "matrix": _projector(dim, tail), "commutant_of": "coarse"})
    propositions = {f"P_e{i + 1}": [coords[i]] for i in range(dim)}
    if dim >= 3:
        # (0, 1, z) and (0, w, 1) are distinct rays unless z * w == 1.
        while True:
            z, w = _amplitude(rng), _amplitude(rng)
            if _mul(z, w) != (1, 0):
                break
        tilted = _vector(dim, {1: "1", 2: _literal(z)})
        propositions["P_e23"] = [tilted]
        propositions["P_e32"] = [_vector(dim, {1: _literal(w), 2: "1"})]
        propositions["B"] = [coords[0], tilted]
        propositions["plane23"] = [coords[1], coords[2]]
    propositions["P_w"] = [_vector(dim, {i: "1" for i in range(dim)})]
    family = ["unit", "coarse", "fine"]
    scenario = {
        "name": f"chain{dim}-{seed}",
        "dimension": dim,
        "observables": [
            {"name": "unit", "eigenspaces": [coords]},
            {"name": "coarse", "eigenspaces": [[coords[0]], coords[1:]]},
            {"name": "fine", "eigenspaces": [[c] for c in coords]},
        ],
        "generators": generators,
        "states": {"w": _vector(dim, {i: "1" for i in range(dim)})},
        "propositions": propositions,
        "runs": [
            {"name": "mid", "state": "w", "observable": "coarse", "eigenspace": 1, "extended": family},
            {"name": "fine-r2", "state": "w", "observable": "fine", "eigenspace": 1, "extended": family},
        ],
    }
    if lattice_seeds is not None:
        scenario["lattice_seeds"] = list(lattice_seeds)
    return scenario


def generated_scenarios(workload: str, seed: int) -> list[dict]:
    """The scenario dicts of a generated workload; empty for `bundled`."""
    if workload == "lattice":
        return [lattice_scenario(seed)]
    if workload == "chain":
        return [chain_scenario(seed)]
    if workload == "bundled":
        return []
    raise ValueError(f"unknown workload {workload!r}")
