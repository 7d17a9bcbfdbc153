"""Stage Heyting algebras: `is_heyting_family` against the audit loops it replaced.

The oracle below is the audit the rows ran before the helper: closure of
every pair, modus ponens, and the adjunction probed on every member of the
family, with no sampling.  The helper probes the adjunction on principal
sieves only (for Ω and δΩ), so the two must agree on every stage family of
the bundled scenarios and of a dim-4 chain, whose 85-sieve extended stage
the old audit sampled.  The distributivity triple loop the old audit also
ran holds for any family of ints; the rejection tests keep it as a foil.
"""

import pytest

from sieveval import (
    Sieve,
    build_scenario,
    bundled_scenario_names,
    bundled_scenario_path,
    enumerate_sieves,
    flat,
    heyting_implies,
    heyting_iso_check,
    load_scenario,
    omega_transition,
    run_check,
    scenario_from_dict,
    sharp,
)
from sieveval import bridge as bridge_module
from sieveval import checks as checks_module
from sieveval.bridge import natural_sieves_at
from sieveval.sieves import (
    build_presheaf,
    delta_omega_presheaf,
    is_heyting_family,
    stage_implies,
    top_sieve,
)

CAP = 4096


def _vector(entries: dict[int, str]) -> list[str]:
    return [entries.get(i, "0") for i in range(4)]


def _projector(support: set[int]) -> list[list[str]]:
    return [["1" if i == j and i in support else "0" for j in range(4)] for i in range(4)]


# A dim-4 unit < coarse < fine chain with both runs extended over the chain.
COORDS = [_vector({i: "1"}) for i in range(4)]
TILTED = _vector({1: "1", 2: "1/2+1 i"})
FAMILY = ["unit", "coarse", "fine"]
CHAIN = {
    "name": "chain4",
    "dimension": 4,
    "observables": [
        {"name": "unit", "eigenspaces": [COORDS]},
        {"name": "coarse", "eigenspaces": [[COORDS[0]], COORDS[1:]]},
        {"name": "fine", "eigenspaces": [[c] for c in COORDS]},
    ],
    "generators": [
        *({"name": f"p{i + 1}", "matrix": _projector({i}), "commutant_of": "fine"} for i in range(4)),
        {"name": "ptail", "matrix": _projector({1, 2, 3}), "commutant_of": "coarse"},
    ],
    "states": {"w": _vector({i: "1" for i in range(4)})},
    "propositions": {
        **{f"P_e{i + 1}": [COORDS[i]] for i in range(4)},
        "P_e23": [TILTED],
        "P_e32": [_vector({1: "2-1/3 i", 2: "1"})],
        "B": [COORDS[0], TILTED],
        "plane23": [COORDS[1], COORDS[2]],
        "P_w": [_vector({i: "1" for i in range(4)})],
    },
    "lattice_seeds": ["P_e1"],
    "runs": [
        {"name": "mid", "state": "w", "observable": "coarse", "eigenspace": 1, "extended": FAMILY},
        {"name": "fine-r2", "state": "w", "observable": "fine", "eigenspace": 1, "extended": FAMILY},
    ],
}


def oracle_is_heyting(masks, implies) -> bool:
    members = set(masks)
    for s in masks:
        for t in masks:
            imp = implies(s, t)
            if s | t not in members or s & t not in members or imp not in members:
                return False
            outside, not_imp = s & ~t, ~imp
            if imp & outside:
                return False
            for x in masks:
                if (not x & outside) != (not x & not_imp):
                    return False
    return True


def distributivity_loop(masks) -> bool:
    return all(s & (t | u) == (s & t) | (s & u) for s in masks for t in masks for u in masks)


def principal_probes(site, o):
    return [site.principal_masks[a] for a in site.arrows_from(o)]


def fixpoint_implies(ctx):
    """The plain implication carried to the fixpoints through flat and sharp."""

    def implies(s, t):
        down_s, down_t = (flat(ctx, Sieve(ctx.stage, m)) for m in (s, t))
        return sharp(ctx, heyting_implies(ctx.plain, down_s, down_t)).mask

    return implies


def stage_families():
    """(label, masks, implies, probes) for every Ω stage, δΩ stage and
    fixpoint family of the bundled scenarios and of the chain."""
    scenarios = [load_scenario(bundled_scenario_path(n)) for n in bundled_scenario_names()]
    scenarios.append(scenario_from_dict(CHAIN))
    families = []
    for scenario in scenarios:
        for run in build_scenario(scenario).runs:
            label = f"{scenario.name}/{run.spec.name}"
            delta = delta_omega_presheaf(run.plain, run.r_space, CAP)
            for kind, site in (("plain", run.plain), ("extended", run.rest)):
                if site is None:
                    continue
                for o in range(site.n_objects):
                    masks = [s.mask for s in enumerate_sieves(site, o, CAP)]
                    families.append(
                        (f"{label}/Ω {kind} {o}", masks, stage_implies(site, o), principal_probes(site, o))
                    )
            for o in range(run.plain.n_objects):
                masks = [s.mask for s in delta.values[o]]
                families.append(
                    (f"{label}/δΩ {o}", masks, stage_implies(run.plain, o), principal_probes(run.plain, o))
                )
            if run.ctx is not None:
                ctx = run.ctx
                masks = [s.mask for s in natural_sieves_at(ctx.extended, ctx.stage, CAP)]
                families.append((f"{label}/fixpoints", masks, fixpoint_implies(ctx), masks))
    return tuple(families)


def test_helper_agrees_with_the_exhaustive_oracle_on_every_stage_family():
    families = stage_families()
    kinds = {label.rsplit("/", 1)[1].split(" ")[0] for label, *_ in families}
    assert kinds == {"Ω", "δΩ", "fixpoints"}
    assert any(len(masks) == 85 for _, masks, _, _ in families)
    for label, masks, implies, probes in families:
        assert is_heyting_family(masks, implies, probes), label
        assert oracle_is_heyting(masks, implies), label


def _qutrit_extended_stage():
    """The largest stage of the first extended run of `qutrit_extended`."""
    built = build_scenario(load_scenario(bundled_scenario_path("qutrit_extended")))
    site = built.runs[0].rest
    o = max(range(site.n_objects), key=lambda o: len(enumerate_sieves(site, o, CAP)))
    masks = [s.mask for s in enumerate_sieves(site, o, CAP)]
    return site, o, masks


def test_helper_rejects_a_stage_missing_one_sieve():
    site, o, masks = _qutrit_extended_stage()
    members = set(masks)
    # a sieve that is the union of two smaller members
    dropped = next(
        s for s in masks if any(x | y == s for x in members for y in members if x != s and y != s)
    )
    family = [m for m in masks if m != dropped]
    assert not is_heyting_family(family, stage_implies(site, o), principal_probes(site, o))
    assert distributivity_loop(family)


@pytest.mark.parametrize(
    "wrong",
    [
        pytest.param(lambda top: lambda s, t: top, id="top"),  # modus ponens fails
        pytest.param(lambda top: lambda s, t: t, id="consequent"),  # adjunction fails
        pytest.param(lambda top: lambda s, t: (~s | t) & top, id="non-sieve"),  # not a member
    ],
)
def test_helper_rejects_a_wrong_implication(wrong):
    site, o, masks = _qutrit_extended_stage()
    implies = wrong(top_sieve(site, o).mask)
    assert not is_heyting_family(masks, implies, principal_probes(site, o))
    assert distributivity_loop(masks)


def test_helper_rejects_a_family_not_closed_under_meets():
    # subsets of {0, 1, 2} with the Boolean implication; {0,1} ∧ {1,2} is missing
    family = [0b011, 0b110, 0b111]

    def implies(s, t):
        return (~s | t) & 0b111

    assert all(implies(s, t) in family for s in family for t in family)
    assert not is_heyting_family(family, implies, [0b001, 0b010, 0b100])
    assert distributivity_loop(family)


def test_helper_rejects_a_family_not_closed_under_joins():
    # the four-element Boolean algebra {∅, {0}, {1}, {0,1,2}}: its join of
    # {0} and {1} is not their union; probed on itself, as the fixpoints are
    a, b, top = 0b001, 0b010, 0b111
    family = [0, a, b, top]

    def implies(s, t):
        return max((x for x in family if not x & s & ~t), key=int.bit_count)

    assert not is_heyting_family(family, implies, family)
    assert distributivity_loop(family)


def _rows(report, tag):
    return [row for row in report["rows"] if row["tag"] == tag]


def _without_principal_sieves(site, o, sieves):
    principal = {site.principal_masks[a] for a in site.arrows_from(o)}
    return tuple(s for s in sieves if s.mask == site.out_masks[o] or s.mask not in principal)


def _without_the_empty_sieve(site, o, sieves):
    return tuple(s for s in sieves if s.mask)


@pytest.mark.parametrize(
    "name, doctor",
    [("qubit", _without_principal_sieves), ("minimal", _without_the_empty_sieve)],
)
def test_audit_row_fails_on_a_stage_that_is_not_every_sieve(monkeypatch, name, doctor):
    # minimal's one stage has a single nonempty sieve, so only the
    # empty-sieve membership check sees it missing
    honest = checks_module.enumerate_sieves
    monkeypatch.setattr(
        checks_module, "enumerate_sieves", lambda site, o, cap: doctor(site, o, honest(site, o, cap))
    )
    report = run_check(load_scenario(bundled_scenario_path(name)))
    rows = _rows(report, "§3.1 Heyting")
    assert rows and not any(row["passed"] for row in rows)


def test_chain_extended_audit_is_exhaustive():
    report = run_check(scenario_from_dict(CHAIN))
    assert report["passed"]
    rows = _rows(report, "§3.1 Heyting")
    assert len(rows) == 4
    assert all(row["details"]["modes"] == ["exhaustive"] for row in rows)
    mid_extended = [row for row in rows if row["run"] == "mid" and row["title"].endswith("(extended)")]
    assert len(mid_extended) == 1


def test_modus_ponens_is_checked_without_probes():
    site, o, masks = _qutrit_extended_stage()
    top = top_sieve(site, o).mask
    assert is_heyting_family(masks, stage_implies(site, o), [])
    assert not is_heyting_family(masks, lambda s, t: top, [])


def test_fixpoint_adjunction_fails_under_a_wrong_plain_implication(monkeypatch):
    ctx = build_scenario(load_scenario(bundled_scenario_path("qubit_extended"))).runs[0].ctx
    honest = bridge_module.stage_implies

    def top_for_plain(site, base):
        if site is ctx.plain:
            return lambda s, t: site.out_masks[base]
        return honest(site, base)

    assert heyting_iso_check(ctx, CAP)["fixpoint_adjunction"]
    monkeypatch.setattr(bridge_module, "stage_implies", top_for_plain)
    assert not heyting_iso_check(ctx, CAP)["fixpoint_adjunction"]


def test_a_false_fixpoint_adjunction_fails_thm_5_6(monkeypatch):
    honest = checks_module.heyting_iso_check

    def doctored(ctx, cap):
        return {**honest(ctx, cap), "fixpoint_adjunction": False}

    monkeypatch.setattr(checks_module, "heyting_iso_check", doctored)
    report = run_check(load_scenario(bundled_scenario_path("qubit_extended")))
    rows = _rows(report, "Thm 5.6")
    assert rows and not any(row["passed"] for row in rows)


def test_a_semiclassifier_holding_the_empty_sieve_fails_section_3_4(monkeypatch):
    def with_empty_sieve(site, r, cap):
        honest = delta_omega_presheaf(site, r, cap)
        return build_presheaf(
            site,
            lambda o: tuple(dict.fromkeys((Sieve(o, 0), *honest.values[o]))),
            lambda a, s: omega_transition(site, a, s),
        )

    monkeypatch.setattr(checks_module, "delta_omega_presheaf", with_empty_sieve)
    # every run of the qubit scenario has a nonempty floor; the doctored
    # stages are not closed under the classifier's implication either
    report = run_check(load_scenario(bundled_scenario_path("qubit")))
    for tag in ("§3.4", "Prop 3.4"):
        rows = _rows(report, tag)
        assert rows and not any(row["passed"] for row in rows)


def test_a_semiclassifier_missing_a_transition_image_fails_prop_3_5(monkeypatch):
    def without_a_transition_image(site, r, cap):
        honest = delta_omega_presheaf(site, r, cap)
        a = next(a for a in range(len(site.arrows)) if a != site.identity_arrow(site.arrow_dom(a)))
        cod = site.arrow_cod(a)
        image = omega_transition(site, a, top_sieve(site, site.arrow_dom(a)))
        return build_presheaf(
            site,
            lambda o: tuple(s for s in honest.values[o] if o != cod or s != image),
            lambda b, s: omega_transition(site, b, s),
        )

    monkeypatch.setattr(checks_module, "delta_omega_presheaf", without_a_transition_image)
    report = run_check(load_scenario(bundled_scenario_path("qubit")))
    rows = _rows(report, "Prop 3.5")
    assert rows
    for row in rows:
        assert not row["passed"]
        assert row["details"]["error"] == "transition leaves the codomain value set"
