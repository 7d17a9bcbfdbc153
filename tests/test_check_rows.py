"""How `run_check` assembles its rows: the run stamp, the bub valuation
table, the observable order on reordered decompositions, and the traced
row families of the benchmark's tracer."""

import importlib.util
import json
import time
from collections import Counter
from pathlib import Path

import sieveval
import sieveval.checks as checks_module
from sieveval import bundled_scenario_names, bundled_scenario_path, load_scenario
from sieveval.checks import run_check
from sieveval.cli import main


def test_run_check_stamps_each_run_row_with_its_run():
    scenario = load_scenario(bundled_scenario_path("qubit_extended"))
    rows = run_check(scenario)["rows"]
    # Scenario-wide rows come first and carry no run; then each run's rows, in run order.
    first = next(i for i, row in enumerate(rows) if row["run"] is not None)
    assert all(row["run"] is None for row in rows[:first])
    assert all(row["run"] is not None for row in rows[first:])
    assert list(dict.fromkeys(row["run"] for row in rows[first:])) == [run.name for run in scenario.runs]
    assert all(list(row)[:4] == ["tag", "title", "run", "passed"] for row in rows)


def test_a_reordered_decomposition_is_the_same_observable(tmp_path, capsys):
    """Eq 4.1's antisymmetry compares decompositions, not the order in which
    their eigenspaces are listed: Z with its eigenspaces swapped (say -Z) is
    below and above Z, and equal to it."""
    scenario = json.loads(bundled_scenario_path("qubit").read_text(encoding="utf-8"))
    scenario["observables"].append({"name": "Zswap", "eigenspaces": [[["0", "1"]], [["1", "0"]]]})
    path = tmp_path / "qubit_swapped.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["check", str(path), "--json"]) == 0
    rows = [row for row in json.loads(capsys.readouterr().out)["rows"] if row["tag"] == "Eq 4.1"]
    assert [row["passed"] for row in rows] == [True]


def test_bub_valuation_values_each_distinct_subspace_once_per_run(monkeypatch):
    """A cold check of the bundled scenarios values 42 distinct (atom,
    proposition) pairs; each run's two-valued table, read by Eqs 2.3–2.4
    and Prop 3.2, values a subspace once (1,812 calls when every pair
    re-valued its members, meet and join; 138 when Prop 3.2 re-valued)."""
    calls = Counter()
    honest = checks_module.bub_valuation

    def counted(e_r, p):
        calls[e_r, p] += 1
        return honest(e_r, p)

    monkeypatch.setattr(checks_module, "bub_valuation", counted)
    for name in bundled_scenario_names():
        assert run_check(load_scenario(bundled_scenario_path(name)))["passed"]
    assert (sum(calls.values()), len(calls)) == (70, 42)


def _tracer_module():
    """The benchmark's tracer, `perfbench/tracer.py`, loaded by path and only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_times_every_named_row_family_and_keeps_the_report(capsys):
    """The tracer spans row families by rebinding their module names in
    `checks`; a family called any other way would read 0 here."""
    tracer_module = _tracer_module()
    argv = ["check", str(bundled_scenario_path("qubit_extended")), "--json"]
    assert main(argv) == 0
    untraced = capsys.readouterr().out
    tracer = tracer_module.Tracer(sieveval)
    tracer.install()
    try:
        tracer.begin_pass()
        start = time.perf_counter()
        code = main(argv)
        tracer.end_pass(0, time.perf_counter() - start)
    finally:
        tracer.remove()
    assert code == 0
    assert capsys.readouterr().out == untraced
    metrics = tracer.metrics()
    assert metrics["checks.rows"] == len(json.loads(untraced)["rows"])
    assert [name for name in tracer_module.NAMED_ROW_FAMILIES if not metrics[name] > 0] == []
