"""One operator numbering per build.

A build closes one operator monoid, and every site it makes indexes it:
an arrow's `op` is the same number in `dump-site`'s plain and extended
morphisms and in every sieve `valuate --json` prints, also where the plain
site's commutant is a proper part of the monoid.

The input is a qubit whose generators are p1, declared in the commutant
of Z, and σ_x, declared in the commutant of the trivial observable only.
Their monoid has seven elements; Z commutes with four of them (the
identity, p1, p2 and 0), so Z's plain site draws its arrows from those
four.  The run sits at Z over the family {unit, Z}.
"""

import json
from types import SimpleNamespace

from sieveval import (
    Observable,
    build_plain_site,
    checks,
    close_monoid,
    commutant,
    matrix_from_rows,
    ray_from_vector,
    subspace_from_vectors,
)
from sieveval.cli import main
from sieveval.sites import Arrow, PlainSite

QUBIT_FLIP = {
    "name": "qubit_flip",
    "dimension": 2,
    "observables": [
        {"name": "unit", "eigenspaces": [[["1", "0"], ["0", "1"]]]},
        {"name": "Z", "eigenspaces": [[["1", "0"]], [["0", "1"]]], "labels": ["1", "-1"]},
    ],
    "generators": [
        {"name": "p1", "matrix": [["1", "0"], ["0", "0"]], "commutant_of": "Z"},
        {"name": "sx", "matrix": [["0", "1"], ["1", "0"]], "commutant_of": "unit"},
    ],
    "states": {"plus": ["1", "1"]},
    "propositions": {"P_e1": [["1", "0"]], "P_e2": [["0", "1"]]},
    "runs": [
        {"name": "z-up", "state": "plus", "observable": "Z", "eigenspace": 0, "extended": ["unit", "Z"]},
    ],
}
P2 = [["0", "0"], ["0", "1"]]


def _report(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_plain_and_extended_sieves_name_operators_by_the_build_monoid(tmp_path, capsys):
    path = tmp_path / "qubit_flip.json"
    path.write_text(json.dumps(QUBIT_FLIP), encoding="utf-8")
    dumped = _report(capsys, "dump-site", str(path))
    valuation = _report(capsys, "valuate", str(path), "--run", "z-up", "--json")["valuation"]

    elements = dumped["monoid"]["elements"]
    assert len(elements) == 7
    plain = dumped["runs"][0]["plain"]
    # The run's stage is the seed, the plain site's first object.
    stage = 0
    assert valuation["stage_objects"][stage] == plain["objects"][stage]
    out_of_stage = {(m["op"], m["cod"]) for m in plain["morphisms"] if m["dom"] == stage}
    zero = elements.index([["0", "0"], ["0", "0"]])
    assert {op for op, _ in out_of_stage} == set(plain["operator_indices"]) - {zero}
    # p2 takes the seed to e2: it is one number in the dump, whatever part
    # of the monoid the plain site draws from.
    p2 = elements.index(P2)
    assert p2 in plain["operator_indices"]
    assert p2 in {op for op, _ in out_of_stage}
    extended = dumped["runs"][0]["extended"]
    twins = {
        m["op"]
        for m in extended["morphisms"]
        if m["dom_ray"] == 0 and m["dom_rho"] == m["cod_rho"] == "Z"
    }
    assert twins == {op for op, _ in out_of_stage}

    plain_sieves = [row["sieve"] for row in valuation["propositions"]]
    plain_sieves += [row["extended"]["flat_image"] for row in valuation["propositions"]]
    plain_sieves += valuation["stage_heyting"]["plain_sieves"]
    assert any(sieve for sieve in plain_sieves)
    for sieve in plain_sieves:
        assert {tuple(arrow) for arrow in sieve} <= out_of_stage

    # The flat image of an extended sieve keeps the arrows that stay at Z:
    # the same operators, by the same numbers.
    for row in valuation["propositions"]:
        extended = row["extended"]
        at_z = {op for op, _, rho in extended["sieve"] if rho == "Z"}
        assert {op for op, _ in extended["flat_image"]} == at_z
        assert {op for op, _ in row["sieve"]} == at_z
    extended_ops = {
        op for sieve in valuation["stage_heyting"]["extended_sieves"] for op, _, rho in sieve if rho == "Z"
    }
    assert extended_ops == {op for sieve in valuation["stage_heyting"]["plain_sieves"] for op, _ in sieve}
    assert p2 in extended_ops


def test_eq_3_6_fails_an_arrow_outside_the_commutant():
    """The flip swaps Z's eigenrays, so it is no operator of Z's commutant.
    Arrows along it still compose (flip·flip is the identity), so §3.1
    passes, but Eq 3.6 fails: the hom-sets are the commutant's action."""
    flip = matrix_from_rows([[0, 1], [1, 0]])
    monoid = close_monoid([flip], cap=4)
    z = Observable("Z", (subspace_from_vectors(2, [[1, 0]]), subspace_from_vectors(2, [[0, 1]])))
    site = build_plain_site(z, monoid, [ray_from_vector([1, 0]), ray_from_vector([0, 1])], cap=4)
    assert commutant(monoid, z) == (monoid.identity_index,)

    def passed(plain):
        return {row["tag"]: row["passed"] for row in checks._plain_site_rows(SimpleNamespace(plain=plain), {})}

    assert passed(site) == {"§3.1": True, "Eq 3.6": True}
    op = monoid.elements.index(flip)
    arrows = sorted((*site.arrows, Arrow(0, op, 1), Arrow(1, op, 0)), key=lambda arrow: arrow.dom)
    doctored = PlainSite(site.observables, monoid, site.rays, site.objects, tuple(arrows), site.rho_leq)
    assert passed(doctored) == {"§3.1": True, "Eq 3.6": False}
