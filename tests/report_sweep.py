"""The wider cap sweep: every report of a set of inputs at every sieve cap.

Run as `PYTHONPATH=src python tests/report_sweep.py > sweep.json`.  It calls
`sieveval.cli.main` in this process and prints one JSON object with one key
per (input, `SIEVEVAL_CAP_SIEVE_ENUM`, command): each cap from 1 to 64 and
the default, and the commands `check --json`, `dump-site` and, for each run
of the input, `valuate --json`.  A value is [exit code, sha256 of stdout,
stderr].  The inputs are the bundled scenarios, `chain_scenario(13, dim)`
for dim 3 to 5, `lattice_scenario(1)` (both from `perfbench/workloads.py`)
and the dim-3 coarse-graining family (`families.family_scenario`).

A refactor that must not move a byte compares this output at its parent
and at its change; the same tree must print the same output under any
`PYTHONHASHSEED`.  Pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from families import family_scenario
from sieveval import bundled_scenario_names, bundled_scenario_path
from sieveval.cli import main

CAPS = (*range(1, 65), None)  # None: the default cap
VARIABLE = "SIEVEVAL_CAP_SIEVE_ENUM"


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _inputs(directory: Path) -> dict[str, str]:
    """Input name -> scenario path; generated scenarios are written to `directory`."""
    paths = {name: str(bundled_scenario_path(name)) for name in bundled_scenario_names()}
    workloads = _workloads()
    generated = {f"chain {dim}": workloads.chain_scenario(13, dim) for dim in (3, 4, 5)}
    generated["lattice 1"] = workloads.lattice_scenario(1)
    generated["family 3"] = family_scenario(3)
    for name, scenario in generated.items():
        path = directory / (name.replace(" ", "") + ".json")
        path.write_text(json.dumps(scenario), encoding="utf-8")
        paths[name] = str(path)
    return paths


def _report(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), err.getvalue()]


def sweep() -> dict[str, list]:
    results = {}
    with tempfile.TemporaryDirectory() as directory:
        for name, path in _inputs(Path(directory)).items():
            runs = [run["name"] for run in json.loads(Path(path).read_text(encoding="utf-8"))["runs"]]
            commands = [["check", path, "--json"], ["dump-site", path]]
            commands += [["valuate", path, "--run", run, "--json"] for run in runs]
            for cap in CAPS:
                if cap is None:
                    os.environ.pop(VARIABLE, None)
                else:
                    os.environ[VARIABLE] = str(cap)
                for argv in commands:
                    words = [word for word in argv if word != path]
                    results[f"{name} | cap {cap or 'default'} | {' '.join(words)}"] = _report(argv)
    os.environ.pop(VARIABLE, None)
    return results


if __name__ == "__main__":
    lines = [f"{json.dumps(key, ensure_ascii=False)}: {json.dumps(value)}" for key, value in sweep().items()]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
