"""The coarse-graining family of one dimension, as a scenario dict.

`family_scenario(dim)` declares one diagonal observable per set partition
of the coordinates, named by its blocks (`1|23` splits e1 from e2, e3),
every nonempty proper block projector as a generator, the all-ones state,
the propositions `P_e1`…`P_en` and `P_w` with `lattice_seeds: ["P_e1"]`,
and one run at `1|23`, eigenspace 1, whose family holds every observable.
Pytest does not collect this module; tests and `report_sweep.py` import it.
"""

from itertools import combinations


def set_partitions(items: list[int]) -> list[list[list[int]]]:
    """Every set partition of `items`, each block in ascending order."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for partition in set_partitions(rest):
        out.append([[first], *partition])
        for k in range(len(partition)):
            out.append([*partition[:k], [first, *partition[k]], *partition[k + 1:]])
    return out


def family_scenario(dim: int) -> dict:
    coords = range(dim)

    def vector(support) -> list[str]:
        return ["1" if i in support else "0" for i in coords]

    def projector(support) -> list[list[str]]:
        return [["1" if i == j and i in support else "0" for j in coords] for i in coords]

    partitions = sorted(
        (sorted(blocks) for blocks in set_partitions(list(coords))), key=lambda blocks: (len(blocks), blocks)
    )
    observables = [
        {
            "name": "|".join("".join(str(i + 1) for i in block) for block in blocks),
            "eigenspaces": [[vector({i}) for i in block] for block in blocks],
        }
        for blocks in partitions
    ]
    generators = [
        {"name": "P" + "".join(str(i + 1) for i in block), "matrix": projector(set(block))}
        for size in range(1, dim)
        for block in combinations(coords, size)
    ]
    propositions = {f"P_e{i + 1}": [vector({i})] for i in coords}
    propositions["P_w"] = [vector(set(coords))]
    return {
        "name": f"family{dim}",
        "dimension": dim,
        "observables": observables,
        "generators": generators,
        "states": {"w": vector(set(coords))},
        "propositions": propositions,
        "lattice_seeds": ["P_e1"],
        "runs": [
            {
                "name": "coarse",
                "state": "w",
                "observable": "1|" + "".join(str(i + 1) for i in range(1, dim)),
                "eigenspace": 1,
                "extended": [o["name"] for o in observables],
            }
        ],
    }
