"""Tests of the benchmark itself: inputs, correctness gate, failure
accounting, tracing, and its contract with BENCHMARK.json.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import sieveval
from run import END_TO_END_UNITS, judge, per_layer_unit
from probe import SpeedProbe
from tracer import Tracer
from worker import ROOT, check_pass, digest, render_json, report_shape
from workloads import CHAIN_DIMS, WORKLOADS, chain_scenario, generated_scenarios, lattice_scenario

EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "sieveval.cli", *args], capture_output=True, env=env, check=False
    )


def _scenario(data: dict):
    return sieveval.scenario_from_dict(data)


# -- correctness gate -------------------------------------------------------


@pytest.mark.parametrize("name", sieveval.bundled_scenario_names())
def test_hashed_bytes_equal_cli_stdout(name):
    path = str(sieveval.bundled_scenario_path(name))
    scenario = sieveval.load_scenario(path)
    pinned = EXPECTED["bundled"][name]

    check = _cli("check", "--json", path)
    assert check.returncode == (0 if pinned["passed"] else 1)
    assert check.stdout == render_json(sieveval.run_check(scenario))
    assert digest(check.stdout) == pinned["check_sha256"]

    dump = _cli("dump-site", path)
    assert dump.returncode == 0
    assert dump.stdout == render_json(sieveval.dump_site(scenario))
    assert digest(dump.stdout) == pinned["dump_sha256"]


def test_every_bundled_scenario_is_pinned():
    assert sorted(EXPECTED["bundled"]) == sieveval.bundled_scenario_names()


# -- generated inputs -------------------------------------------------------


@pytest.mark.parametrize("workload", ["lattice", "chain"])
def test_seed_sets_amplitudes_not_structure(workload):
    (a,) = generated_scenarios(workload, 5)
    (again,) = generated_scenarios(workload, 5)
    (b,) = generated_scenarios(workload, 6)
    assert a == again
    assert a["propositions"] != b["propositions"]
    assert sorted(a["propositions"]) == sorted(b["propositions"])
    assert [g["name"] for g in a["generators"]] == [g["name"] for g in b["generators"]]


@pytest.mark.parametrize("workload", ["lattice", "chain"])
def test_unpinned_seed_keeps_the_pinned_shape(workload):
    (data,) = generated_scenarios(workload, 97)
    report = sieveval.run_check(_scenario(data))
    assert report["passed"]
    assert report_shape(report) == EXPECTED[workload]["shape"]


def test_lattice_shape_is_36_elements():
    shape = EXPECTED["lattice"]["shape"]
    assert shape[0][2] == {"size": 36}
    assert all(row[0] != "§4.1" for row in shape), "the lattice workload has no extended run"
    assert lattice_scenario(3)["runs"][0].get("extended") is None


@pytest.mark.parametrize("dim", [2, 3])
def test_chain_ladder_dims_pass(dim):
    report = sieveval.run_check(_scenario(chain_scenario(4, dim=dim)))
    assert report["passed"]
    assert report["dimension"] == dim


def test_chain_ladder_bounds():
    assert CHAIN_DIMS == (2, 3, 4, 5)
    assert _scenario(chain_scenario(4, dim=5)).dimension == 5
    with pytest.raises(ValueError):
        chain_scenario(4, dim=6)


# -- failure accounting -----------------------------------------------------


def test_lattice_cap_hit_is_a_verdict_not_a_crash():
    """All declared propositions seed the lattice, the all-ones ray among
    them; the sublattice passes the 512 cap and the report says so."""
    scenario = _scenario(chain_scenario(4, lattice_seeds=None))
    reports = []

    def run_check(s):
        reports.append(sieveval.run_check(s))
        return reports[-1]

    expectations = {"chain": {"passed": False}}
    result = check_pass([("chain", scenario)], expectations, run_check, {}, SpeedProbe())
    assert not result["failed"], result["errors"]
    first = reports[0]["rows"][0]
    assert (first["title"], first["passed"]) == ("sublattice generation", False)
    assert "512" in first["details"]["error"]

    expectations = {"chain": {"passed": True}}
    assert check_pass([("chain", scenario)], expectations, sieveval.run_check, {}, SpeedProbe())["failed"]


def test_malformed_scenario_fails_the_pass():
    # Loads fine, but the state has no component on the run's eigenspace.
    data = chain_scenario(1, dim=2)
    data["states"] = {"w": ["1", "0"]}
    scenario = _scenario(data)
    result = check_pass([("bad", scenario)], {"bad": {"passed": True}}, sieveval.run_check, {}, SpeedProbe())
    assert result["failed"]
    assert "ValidationError" in result["errors"][0]
    assert judge([{"passes": [result]}])[:2] == (1, 1)


def test_bytes_must_agree_across_workers():
    ok = {"seconds": 1.0, "failed": False, "errors": [], "digests": {"s": "a"}}
    other = dict(ok, digests={"s": "b"})
    assert judge([{"passes": [ok]}, {"passes": [ok]}])[:2] == (2, 0)
    assert judge([{"passes": [ok]}, {"passes": [other]}])[:2] == (2, 1)
    assert judge([{"passes": [ok], "dump_errors": ["x"]}])[:2] == (2, 1)


# -- tracing ----------------------------------------------------------------


def _namespaces():
    modules = [m for n, m in sorted(sys.modules.items()) if n == "sieveval" or n.startswith("sieveval.")]
    state = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for m in modules:
        for cls in vars(m).values():
            if isinstance(cls, type) and cls.__module__.startswith("sieveval"):
                state.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return state


def test_tracer_removes_every_wrapper():
    before = _namespaces()
    tracer = Tracer(sieveval)
    tracer.install()
    try:
        assert sieveval.checks.join is not before[("sieveval.subspaces", "join")]
        assert sieveval.checks.join is sieveval.subspaces.join
    finally:
        tracer.remove()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_report_bytes_and_metric_names():
    scenario = sieveval.load_scenario(sieveval.bundled_scenario_path("qubit_extended"))
    untraced = render_json(sieveval.run_check(scenario))
    tracer = Tracer(sieveval)
    tracer.install()
    try:
        for index in range(2):
            tracer.begin_pass()
            traced = render_json(sieveval.run_check(scenario))
            tracer.end_pass(index, 1.0)
    finally:
        tracer.remove()
    assert traced == untraced
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = 1.0
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {k: per_layer_unit(k) for k in metrics}
    assert metrics["checks.rows"] == len(sieveval.run_check(scenario)["rows"])
    assert metrics["bridge.sharp_calls"] > 0 and metrics["sites.compose_calls"] > 0
    assert metrics["modal.in_commutant_distinct"] <= metrics["modal.in_commutant_calls"]


# -- the contract with BENCHMARK.json ---------------------------------------


def test_benchmark_json_matches_the_harness():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_prices_every_stretch():
    probe = SpeedProbe()
    probe.start()
    deadline = time.perf_counter() + 0.05
    while time.perf_counter() < deadline:
        pass
    probe.stop()
    assert probe.probe_seconds > 0
    assert 0.04 < probe.wall_seconds + probe.probe_seconds < 0.5
    assert probe.seconds > 0
