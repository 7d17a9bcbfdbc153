"""Each object that runs share is audited once per check.

Runs share sites, a restriction shares its parent's stages, the objects
of a build with equal composition tables and fixed masks share one stage,
and the functors L, A, Ω and ♮Ω exist once per site.  `run_check` keeps the
verdict on each such object in a table local to the check: a stage's
Heyting audit once per (stage, listing), a presheaf's validation once per
presheaf, and a site's laws and hom-sets once per site.  Every run's row
reads that one verdict.

Prop 5.10's adversarial cut of the extended propositions and Eq 5.4's
sharp-by-intersection oracle of a bridge context are built once per check
the same way.

Counts: a cold check of the bundled scenarios asks each audit once per
distinct object, no more.  Sharing: a doctor that fails each audit only
the first time its object is asked fails the rows of every run that reads
the object, as a second asking would have passed.
"""

import pytest

from sieveval import bundled_scenario_names, bundled_scenario_path, checks, load_scenario, run_check, sieves
from sieveval.errors import InternalCheckError


class Asked:
    """Calls of one audit and the distinct objects they asked about, each
    kept alive until the test ends, so that no two share an id."""

    def __init__(self):
        self.calls = 0
        self.objects = {}

    def ask(self, key, held):
        self.calls += 1
        first = key not in self.objects
        self.objects.setdefault(key, held)
        return first


def stage_key(masks, implication, probes):
    """A stage audit's object: the stage, by its implication table, and the listing."""
    return (id(implication), tuple(masks)), implication


def site_key(site):
    return id(site), site


def presheaf_key(presheaf):
    return id(presheaf), presheaf


# name -> (the attribute of `checks` or the method of `Presheaf` audited, its key)
AUDITS = {
    "stage": ("is_heyting_family", stage_key),
    "presheaf": ("validate", presheaf_key),
    "site laws": ("associativity_violations", site_key),
    "hom-sets": ("_hom_sets_are_the_action", site_key),
    "stage isomorphism": ("heyting_iso_check", lambda ctx, cap: ((ctx, cap), ctx)),
    "adversarial cut": ("_adversarial_detectors", presheaf_key),
    "sharp oracle": ("_sharp_oracle_holds", lambda ctx, cap: ((ctx, cap), ctx)),
}


def watch(monkeypatch, name, change=None):
    """Count the calls of one audit; with `change`, each call's verdict is
    `change(first, verdict)`, `first` saying whether its object is new."""
    attribute, key = AUDITS[name]
    owner = sieves.Presheaf if attribute == "validate" else checks
    original = getattr(owner, attribute)
    asked = Asked()

    def watched(*args):
        first = asked.ask(*key(*args))
        return original(*args) if change is None else change(first, lambda: original(*args))

    monkeypatch.setattr(owner, attribute, watched)
    return asked


def test_one_cold_check_audits_each_shared_object_once(monkeypatch):
    asked = {name: watch(monkeypatch, name) for name in AUDITS}
    for name in bundled_scenario_names():
        assert run_check(load_scenario(bundled_scenario_path(name)))["passed"]
    # Asked 128, 100, 20, 20, 7, 7 and 7 times while every run audited for
    # itself, and stages 80 times while each object had a stage of its own:
    # a build reads one stage per distinct composition table and fixed mask.
    counts = {name: (audit.calls, len(audit.objects)) for name, audit in asked.items()}
    assert counts == {
        "stage": (42, 42),
        "presheaf": (84, 84),
        "site laws": (13, 13),
        "hom-sets": (13, 13),
        "stage isomorphism": (6, 6),
        "adversarial cut": (6, 6),
        "sharp oracle": (6, 6),
    }


def fail_first(verdict):
    """A doctor's verdict: `verdict` on an object's first asking, else honest."""
    return lambda first, honest: verdict() if first else honest()


def raise_failure():
    raise InternalCheckError("doctored validation")


def rows_on(runs, *tags):
    return {(tag, run) for tag in tags for run in runs}


# name -> (scenario, audit, the verdict of a first asking, the failing (tag, run) rows)
FIRST_ASKING_FAILS = {
    "stage": ("qubit", "stage", lambda: False, rows_on(("z-up", "z-down"), "§3.1 Heyting", "Prop 3.4")),
    "site laws": ("qubit", "site laws", lambda: [(0, 0, 0)], rows_on(("z-up", "z-down"), "§3.1")),
    "extended site laws": (
        "qubit_extended",
        "site laws",
        lambda: [(0, 0, 0)],
        rows_on(("coarse", "fine"), "§3.1", "Eq 4.9"),
    ),
    "hom-sets": ("qubit_extended", "hom-sets", lambda: False, rows_on(("coarse", "fine"), "Eq 3.6", "§4.1")),
    "presheaf": (
        "qubit",
        "presheaf",
        raise_failure,
        rows_on(("z-up", "z-down"), "Eq 3.11", "Eq 3.9", "Eq 3.35", "Thm 3.6", "Prop 3.5"),
    ),
    # Three runs on two restricted sites and two bridge contexts; the
    # doctored adversarial cut has no projectivity witness at its seed value.
    "adversarial cut": (
        "qutrit_extended",
        "adversarial cut",
        lambda: ((), False, []),
        rows_on(("mid", "mid-r1", "fine-r2"), "Prop 5.10"),
    ),
    "sharp oracle": ("qutrit_extended", "sharp oracle", lambda: False, rows_on(("mid", "mid-r1", "fine-r2"), "Eq 5.4")),
}


@pytest.mark.parametrize("name", sorted(FIRST_ASKING_FAILS))
def test_a_shared_verdict_fails_every_run_that_reads_it(name, monkeypatch):
    scenario, audit, verdict, expected = FIRST_ASKING_FAILS[name]
    asked = watch(monkeypatch, audit, fail_first(verdict))
    report = run_check(load_scenario(bundled_scenario_path(scenario)))
    failing = {(row["tag"], row["run"]) for row in report["rows"] if not row["passed"]}
    assert failing == expected
    # Each object was asked once, so every verdict read was the doctored one.
    assert asked.calls == len(asked.objects) > 0
