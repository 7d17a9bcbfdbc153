"""Acceptance criteria, one test per criterion, each printing a verdict line.

Everything is exact arithmetic, so every comparison below is equality, not a
tolerance.  Builds are shared per scenario to keep the suite fast.
"""

import json
import time

import pytest
from families import family_scenario

from sieveval import (
    bub_valuation,
    build_scenario,
    detector_tables,
    bundled_scenario_path,
    enumerate_determinate_sublattice,
    flat,
    heyting_iso_check,
    join,
    load_scenario,
    meet,
    restrict_down,
    sharp,
    valuation,
)
from sieveval.bridge import natural_omega
from sieveval.checks import _find_adversarial_subpresheaf, run_check
from sieveval.cli import main
from sieveval.modal import observable_leq, zero_augmented_atom_set
from sieveval.scenario import scenario_from_dict
from sieveval.sieves import (
    Sieve,
    bottom_annihilator,
    characteristic_table,
    delta_omega_presheaf,
    ib_condition_check,
    omega_presheaf,
    semiclassifier_check,
    tau_values,
)
from sieveval.subspaces import subspace_from_vectors

BUNDLED = [
    "qubit",
    "qutrit",
    "qubit_extended",
    "qutrit_extended",
    "qubit_complex",
    "minimal",
]


def span(*vs):
    return subspace_from_vectors(len(vs[0]), list(vs))


@pytest.fixture(scope="module")
def built():
    return {
        name: build_scenario(load_scenario(bundled_scenario_path(name)))
        for name in BUNDLED
    }


def arrows_of(site, s):
    """The arrows of a sieve, decoded through `arrows_from`."""
    out = site.arrows_from(s.base)
    return frozenset(out[i] for i in s)


def verdict(number: int, passed: bool, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'} — {text}")
    assert passed, text


def test_criterion_01_bub_layer(built):
    started = time.monotonic()
    run = next(r for r in built["qutrit"].runs if r.spec.name == "r1")
    lattice = enumerate_determinate_sublattice(run.atoms, cap=512)
    ok = len(lattice) == 8
    for atom in run.atoms.atoms:
        for p in lattice:
            for q in lattice:
                vp, vq = bub_valuation(atom, p), bub_valuation(atom, q)
                ok = ok and bub_valuation(atom, meet(p, q)) == vp * vq
                ok = ok and bub_valuation(atom, join(p, q)) == max(vp, vq)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 1.0
    verdict(1, ok, f"determinate sublattice of 8 with homomorphic 2-valuations ({elapsed:.3f}s)")


def test_criterion_02_sieve_census(built):
    started = time.monotonic()
    run = next(r for r in built["qubit"].runs if r.spec.name == "z-up")
    site, stage = run.plain, run.plain_side.stage
    sieves = [Sieve(stage, m) for m in site.stage(stage).sieves(4096, stage)]
    ok = len(sieves) == 5
    floor = bottom_annihilator(site, stage, run.e_r)
    delta = [s for s in sieves if floor <= s]
    ok = ok and len(delta) == 3
    chain = sorted(delta, key=lambda s: s.mask.bit_count())
    ok = ok and chain[0] == floor
    ok = ok and {site.arrow_op(a) for a in arrows_of(site, floor)} == {2}
    ok = ok and chain[0] < chain[1] < chain[2]
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 1.0
    verdict(2, ok, f"5 sieves at the base stage, 3-chain above the annihilator ({elapsed:.3f}s)")


def test_criterion_03_valuation_conditions(built):
    ok = True
    strict_seen = {}
    for name, scenario in built.items():
        strict_seen[name] = False
        for run in scenario.runs:
            stage = run.plain_side.stage
            floor = run.floors[stage]
            row = [valuation(run.plain, stage, run.r_space, p) for p in run.universe]
            v = ib_condition_check(run.plain, stage, run.r_space, run.universe, row, floor)
            ok = ok and v["monotonicity"] and v["exclusivity"] and v["unit"]
            ok = ok and v["null_equals_floor"] and v["null_passes_in_delta"]
            ok = ok and (v["null_fails_in_omega"] == v["floor_nonempty"])
            if v["floor_nonempty"]:
                strict_seen[name] = True
                ok = ok and v["null_fails_in_omega"]
    for name in ("qubit", "qutrit", "qubit_extended", "qutrit_extended", "qubit_complex"):
        ok = ok and strict_seen[name]
    verdict(
        3,
        ok,
        "monotonicity, exclusivity, unit pass; null fails in the classifier and "
        "is repaired by the semi-classifier wherever an annihilating arrow exists",
    )


def test_criterion_04_oracle_equality(built):
    ok = True
    checked = 0
    for scenario in built.values():
        for run in scenario.runs:
            site, propositions = run.plain, run.plain_side.propositions_l
            table = characteristic_table(run.plain_side.true_t)
            for o in range(site.n_objects):
                for p in run.universe:
                    chi = table[o][propositions.index[o][p]]
                    checked += 1
                    ok = ok and chi == valuation(site, o, run.r_space, p)
    verdict(4, ok, f"characteristic equals direct valuation on {checked} stage/proposition pairs")


def test_criterion_05_restriction_equivalence(built):
    ok = True
    for scenario in built.values():
        for run in scenario.runs:
            site, stage = run.plain, run.plain_side.stage
            restricted = restrict_down(site, stage)
            base = restricted.ray_index(run.state.space)
            for p in run.universe:
                full_keys = {
                    (site.arrow_op(a), site.object_ray(site.arrow_cod(a)))
                    for a in arrows_of(site, valuation(site, stage, run.r_space, p))
                }
                down_keys = {
                    (restricted.arrow_op(a), restricted.object_ray(restricted.arrow_cod(a)))
                    for a in arrows_of(restricted, valuation(restricted, base, run.r_space, p))
                }
                ok = ok and full_keys == down_keys
    verdict(5, ok, "restricted-site valuations equal full-site valuations arrow for arrow")


def test_criterion_06_bridge_identities(built):
    started = time.monotonic()
    run = next(r for r in built["qubit_extended"].runs if r.spec.name == "coarse")
    ctx = run.ctx
    report = heyting_iso_check(ctx, cap=4096)
    ok = report["passed"]
    ok = ok and report["plain_count"] == 5 and report["fixpoint_count"] == 5
    ext_sieves = [Sieve(ctx.stage, m) for m in ctx.extended.stage(ctx.stage).sieves(4096, ctx.stage)]
    natural = ctx.extended.stage(ctx.stage).natural
    images = set()
    for s in ext_sieves:
        image = Sieve(ctx.stage, natural[s.mask])
        ok = ok and image <= s
        images.add(image)
    fixpoints = {s for s in ext_sieves if natural[s.mask] == s.mask}
    ok = ok and images == fixpoints
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    verdict(6, ok, f"round trips, lattice preservation, Heyting isomorphism ({elapsed:.3f}s)")


def test_criterion_07_projectivity_biconditional(built):
    ok = True
    adversarial_found = False
    for name in ("qubit_extended", "qutrit_extended", "qubit_complex"):
        for run in built[name].runs:
            if run.ext_side is None:
                continue
            chi = characteristic_table(run.ext_side.true_t)
            detectors = detector_tables(run.ext_side.true_t, chi)
            ok = ok and not detectors["mismatches"]
            found = _find_adversarial_subpresheaf(run.ext_side.propositions_l)
            if found is None:
                continue
            adversarial_found = True
            candidate, obj, i, _ = found
            chi = characteristic_table(candidate)
            detectors = detector_tables(candidate, chi)
            # not projective at the seed value
            ok = ok and bool(detectors["witnesses"][obj][i])
            ok = ok and not detectors["mismatches"]
    ok = ok and adversarial_found
    verdict(7, ok, "both detectors agree on projective and adversarial subobjects alike")


def test_criterion_08_equivalence_theorem(built):
    ok = True
    checked = 0
    for scenario in built.values():
        for run in scenario.runs:
            if run.ext_side is None:
                continue
            ctx = run.ctx
            for p in run.universe:
                plain_value = valuation(ctx.plain, ctx.plain_stage, run.r_space, p)
                ext_value = valuation(ctx.extended, ctx.stage, run.r_space, p)
                nat_value = Sieve(ctx.stage, ctx.extended.stage(ctx.stage).natural[ext_value.mask])
                checked += 1
                ok = ok and flat(ctx, ext_value) == plain_value
                ok = ok and sharp(ctx, plain_value) == nat_value
                ok = ok and flat(ctx, nat_value) == plain_value
    verdict(8, ok, f"the two valuation families agree through the isomorphism ({checked} propositions)")


def test_criterion_09_appendix_suites(built):
    ok = True
    # semi-classifier pullback + uniqueness, set-level per object
    for scenario in built.values():
        for run in scenario.runs:
            site = run.plain
            cap = run.scenario.caps["sieve_enum"]
            omega = omega_presheaf(site, cap)
            delta = delta_omega_presheaf(omega, run.floors)
            true_t = run.plain_side.true_t
            rows = semiclassifier_check(delta, tau_values(site), [(true_t, characteristic_table(true_t))])
            ok = ok and all(r["passed"] for r in rows)
            if run.ext_side:
                rest = run.rest
                omega_ext = omega_presheaf(rest, cap)
                true_t = run.ext_side.true_t
                rows = semiclassifier_check(
                    natural_omega(omega_ext), tau_values(rest), [(true_t, characteristic_table(true_t))]
                )
                ok = ok and all(r["passed"] for r in rows)
    # atom-set identities over every ray and comparable chain
    for scenario in built.values():
        sc = scenario.scenario
        rays = set()
        for run in scenario.runs:
            rays.update(run.plain.rays)
            if run.ext_side:
                rays.update(run.rest.rays)
        for ray in rays:
            for a in sc.observables:
                for b in sc.observables:
                    if not observable_leq(a, b):
                        continue
                    lower = zero_augmented_atom_set(ray, a)
                    upper = zero_augmented_atom_set(ray, b)
                    if lower <= upper:
                        ok = ok and lower == upper
                        for mid in sc.observables:
                            if observable_leq(a, mid) and observable_leq(mid, b):
                                middle = zero_augmented_atom_set(ray, mid)
                                ok = ok and lower <= middle <= upper
    # natural sieves contain the fixed-observable twins of their members
    for scenario in built.values():
        for run in scenario.runs:
            if run.ext_side is None:
                continue
            rest = run.rest
            nat_omega = natural_omega(omega_presheaf(rest, run.scenario.caps["sieve_enum"]))
            for stage in nat_omega.values:
                for s in stage:
                    members = arrows_of(rest, s)
                    ok = ok and all(rest.rho_arrow_twin(a) in members for a in members)
    verdict(9, ok, "semi-classifier laws, atom-set chains, and twin closure all verified")


def test_criterion_10_determinism_and_speed(capsys):
    started = time.monotonic()
    outputs = {}
    for name in BUNDLED:
        path = str(bundled_scenario_path(name))
        assert main(["check", path, "--json"]) == 0
        outputs[name] = capsys.readouterr().out
    first_elapsed = time.monotonic() - started
    for name in BUNDLED:
        path = str(bundled_scenario_path(name))
        assert main(["check", path, "--json"]) == 0
        again = capsys.readouterr().out
        assert outputs[name] == again, f"nondeterministic report for {name}"
        assert json.loads(again)["passed"]
    elapsed = time.monotonic() - started
    ok = elapsed < 60.0
    with capsys.disabled():
        verdict(10, ok, f"full bundled suite green twice, byte-identical ({elapsed:.1f}s)")


def test_the_dim3_coarse_graining_family_passes_every_row():
    """`families.family_scenario(3)`: five observables, one extended run at `1|23`."""
    report = run_check(scenario_from_dict(family_scenario(3)))
    assert report["passed"] and len(report["rows"]) == 58
