"""Golden reports: the bytes `check --json`, `dump-site` and `valuate --json` print, pinned.

The digests are sha256 of each command's stdout for every bundled scenario
(for `check` and `dump-site`, the same values the benchmark pins in
`perfbench/expected.json`) and, for `valuate`, for every run of each, and of
`check --json` for the benchmark's generated `lattice` and `chain`
scenarios.  A change that alters any report byte fails here.  Two runs of
every command in a fresh interpreter show that the bytes depend neither on
the order in which lattice pairs are first asked nor on how exact values
hash.
"""

import hashlib
import json

import pytest

from sieveval import bundled_scenario_names, bundled_scenario_path, load_scenario
from sieveval.cli import main

# name -> (check --json sha256, dump-site sha256)
GOLDEN = {
    "minimal": (
        "5a67c8fca0b4f18f6f8e20fcbc7586a963a6b1bbe1c4e4c100d812557fb0b93f",
        "e6cdb22c3d8f6d7d6f2a865330b7c9e2d0a9bc7db0df0d2ce7226c4802f05332",
    ),
    "qubit": (
        "8b3cbda0fe75b2dce25776282c0db016efc54218384546a307422bcdd89dd056",
        "9d1289bc2eefa3487a63b0ff6b408e5642661035042a26af82f7ca096e008be3",
    ),
    "qubit_complex": (
        "a1e3c9600b1df32443dba4bc3fd7cf60f317aa5d8c3a7c0b930b06d39aff4f4a",
        "7709d0fe3cc3cbe91eec5848ec67954a5a9a586aff162ea564079e7450e4abbc",
    ),
    "qubit_extended": (
        "6c7ffe1ac82a1b90b4847b403f32ac6f208e98c37e030bb19489222ef311df61",
        "7b5bf60c3e2f1b65db326b252290a8dabd3bbfc0feae40ab84d6b4aa9ca875cc",
    ),
    "qutrit": (
        "541cf2f4a313e41f71b5d311ff2b7d35f60db08c9e42a4a6de6111000d3f6294",
        "93240036fad399734a79e77ec31c670453b97a7467f917905e7ff85dba004487",
    ),
    "qutrit_extended": (
        "bc22f214ecfbbcc18fe08977fe68998abe7044747ac72e534f4297d1bdb5792a",
        "39de66e32bbf2fcb0a3d5631aaaeb93938e1d7d612fb59fccd76e4310cf7148b",
    ),
}


def test_every_bundled_scenario_is_pinned():
    assert sorted(GOLDEN) == bundled_scenario_names()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reports_are_byte_identical(name, capsys):
    path = str(bundled_scenario_path(name))
    check_digest, dump_digest = GOLDEN[name]
    assert main(["check", path, "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == check_digest
    assert main(["dump-site", path]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == dump_digest


# (scenario, run) -> valuate --json sha256
GOLDEN_VALUATE = {
    ("minimal", "only"): "122a53943c2cee6a292269366649dffef44cd16580949e912d37e55ce05fefe5",
    ("qubit", "z-up"): "1e55f00df2fc2aaa93b9e8f4009878ff18d4d60b491ba1311a9c2179bdce956f",
    ("qubit", "z-down"): "bf2774f368993a1c742579faf849aa1690a587e7075196514f7d284d2f801ff1",
    ("qubit_complex", "z-up"): "790860384afdd22409c2d3cfc4d09c9cd0003064738e33e1d994b6cd71e95070",
    ("qubit_complex", "z-down"): "d0101ce1eaf3bd12aad8f6b375ebcaa205ff1671c246dcb386c156a8a1680314",
    ("qubit_complex", "coarse"): "4b2929a8a0ebc9b72a4c5b23f2f09dbff2911a771ba84361f52078f044bc7878",
    ("qubit_extended", "coarse"): "3bf892ec3200a1c3df5c34ef65c84581aac041175e2e8e2bf75037ba19a0e2d1",
    ("qubit_extended", "fine"): "b9cf3613296df9f342244b83c55aa6d068cbc6ed3295841bcf2dcf280e12b7cf",
    ("qutrit", "r1"): "a3711de7fec57a11ee1de7d299a0cbf042bcac3e6daffb04775347388a04ff71",
    ("qutrit", "r23"): "581662202608f5b3e951477d97eecf79906c5069190a303e273bdd59c46987ee",
    ("qutrit_extended", "mid"): "ffaaa0d84e1b9ef489a192ced58c6909dc121a5322b75104397edfc1fe0c7691",
    ("qutrit_extended", "mid-r1"): "e4b5e5bd30790232e0dc1295d657d67e96673e26bcaad65d552d1af46c0f2020",
    ("qutrit_extended", "fine-r2"): "c13e776734d92d9415b04f33735ec6aa8d059d9cf3d6d2f0d29dd1d5c67dc0df",
}


def test_every_bundled_run_is_pinned():
    runs = {
        (name, spec.name)
        for name in bundled_scenario_names()
        for spec in load_scenario(bundled_scenario_path(name)).runs
    }
    assert runs == set(GOLDEN_VALUATE)


@pytest.mark.parametrize("name, run", sorted(GOLDEN_VALUATE))
def test_valuate_reports_are_byte_identical(name, run, capsys):
    path = str(bundled_scenario_path(name))
    assert main(["valuate", path, "--run", run, "--json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_VALUATE[(name, run)]


# The benchmark's generated scenarios, larger than any bundled one (the
# `lattice` sublattice has 36 elements): (generator, argument) -> check --json
# sha256, for lattice_scenario(seed) and chain_scenario(13, dim).
GOLDEN_GENERATED = {
    ("lattice", 1): "2680446aeb1ca871a53992bfcf3f2781f85a0aa10069879b93f25312a4032146",
    ("lattice", 7): "904fa82612eb4a500fa660dd5e9efd6c601f9639738f67bc3df646604303e20b",
    ("lattice", 73): "de8e49598c3617b827202b70206ea47e3c0a5d45ef3729149c112b09dfaa8ce0",
    ("chain", 2): "6831d2bb3d14da33d866f776793268b1db0ccdb112b7a2b47e2608f93c19faa8",
    ("chain", 3): "f6d64c2b8d3e78d8e0d2aec3805ff92ff63fbda726b789acc7b025d8128c2164",
    ("chain", 4): "d18b4246d9a6677083ac69a76c8893863ae34364cc45417334e2fb760d60e41b",
    ("chain", 5): "39352211f66345301aa769ea117c41486074888a4c3fad4dd891b28d0109423d",
}


@pytest.mark.parametrize("generator, argument", sorted(GOLDEN_GENERATED))
def test_generated_check_reports_are_byte_identical(generator, argument, workloads, tmp_path, capsys):
    if generator == "lattice":
        scenario = workloads.lattice_scenario(argument)
    else:
        scenario = workloads.chain_scenario(13, argument)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["check", str(path), "--json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_GENERATED[(generator, argument)]


# Runs every (key, argv) job of the JSON spec in `argv[1]`, in order, and
# prints each exit code and stdout digest; a script puts its own set-up first.
RUN_JOBS = """
digests = {}
for key, argv in spec["jobs"]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    digests[key] = [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]
print(json.dumps(digests))
"""

# Join and meet are memoised once per unordered pair.  In a fresh
# interpreter, every pair of each scenario's proposition universe is first
# asked in the order opposite to its listing, and then every command runs,
# in reverse order.
REVERSED_PAIRS = """
import contextlib, hashlib, io, json, sys
from sieveval import build_scenario, load_scenario
from sieveval.cli import main
from sieveval.subspaces import join, meet

spec = json.loads(sys.argv[1])
for path in spec["paths"]:
    universe = build_scenario(load_scenario(path)).universe
    for i, p in enumerate(universe):
        for q in universe[i + 1:]:
            join(q, p)
            meet(q, p)
spec["jobs"].reverse()
""" + RUN_JOBS

# In a fresh interpreter, every exact value (subspace, matrix and scalar)
# hashes to a scrambled function of its usual hash before anything is built,
# so every set and dict of them iterates in another order.
SCRAMBLED_HASHES = """
import contextlib, hashlib, io, json, sys
from sieveval.cli import main
from sieveval.linalg import ExactMatrix
from sieveval.rationals import GaussianRational
from sieveval.subspaces import Subspace

for cls in (Subspace, ExactMatrix, GaussianRational):
    cls.__hash__ = lambda self, usual=cls.__hash__: hash((7, usual(self))) * 7919
spec = json.loads(sys.argv[1])
""" + RUN_JOBS


def golden_jobs(workloads, tmp_path):
    """The golden commands as `(key, argv)` jobs, with each key's expected
    `[exit code, stdout digest]`, and the scenario paths they read."""
    paths, jobs, expected = [], [], {}
    for name in sorted(GOLDEN):
        path = str(bundled_scenario_path(name))
        paths.append(path)
        jobs += [[f"check {name}", ["check", path, "--json"]], [f"dump-site {name}", ["dump-site", path]]]
        expected[f"check {name}"], expected[f"dump-site {name}"] = GOLDEN[name]
    for (name, run), digest in sorted(GOLDEN_VALUATE.items()):
        path = str(bundled_scenario_path(name))
        jobs.append([f"valuate {name} {run}", ["valuate", path, "--run", run, "--json"]])
        expected[f"valuate {name} {run}"] = digest
    for (generator, argument), digest in sorted(GOLDEN_GENERATED.items()):
        if generator == "lattice":
            scenario = workloads.lattice_scenario(argument)
        else:
            scenario = workloads.chain_scenario(13, argument)
        path = tmp_path / f"{generator}{argument}.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        paths.append(str(path))
        jobs.append([f"check {generator} {argument}", ["check", str(path), "--json"]])
        expected[f"check {generator} {argument}"] = digest
    return {"paths": paths, "jobs": jobs}, {key: [0, digest] for key, digest in expected.items()}


def test_reports_do_not_depend_on_pair_order(workloads, run_fresh, tmp_path):
    spec, expected = golden_jobs(workloads, tmp_path)
    done = run_fresh(REVERSED_PAIRS, json.dumps(spec))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == expected


def test_reports_do_not_depend_on_how_exact_values_hash(workloads, run_fresh, tmp_path):
    spec, expected = golden_jobs(workloads, tmp_path)
    done = run_fresh(SCRAMBLED_HASHES, json.dumps(spec))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == expected
