"""Benchmark of `sieveval check` on one workload.

Usage:
    python3 perfbench/run.py --workload {bundled,lattice,chain} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each worker is a fresh single process
(closed loop: one pass after another, no threads).  With --trace 0 the run
spawns workers until --seconds is spent and prints the end-to-end metrics,
medians over the workers, in seconds corrected for the host's speed (see
probe.py).  With --trace 1 it runs one untraced and one traced worker and
prints the per-layer metrics.  Every report is checked; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Exits 2 without a result when the checkout has no
`src/sieveval` to run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, generated_scenarios

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "sieveval"
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"

SETUP_PROBES = 10  # extra set-up-only spawns per run, so set-up has enough samples
MIN_WORKERS = 2
# Passes after the cold one in each worker.  A traced worker runs more, so
# that per-round cache growth is seen over more than one round.
WARM_PASSES = 1
TRACED_WARM_PASSES = 2
HARD_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "check_s": "s", "warm_check_s": "s", "peak_rss_mb": "MB"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def bundled_names() -> list[str]:
    # Same order as sieveval.bundled_scenario_names(), without importing it here.
    return sorted(p.stem for p in (PACKAGE / "scenarios").glob("*.json"))


def build_spec(workload: str, seed: int, directory: Path) -> dict:
    expected = json.loads(EXPECTED.read_text())
    scenarios = []
    if workload == "bundled":
        for name in bundled_names():
            pinned = expected["bundled"].get(name)
            if pinned is None:
                raise HarnessError(f"no pinned digests for bundled scenario {name!r}")
            path = PACKAGE / "scenarios" / f"{name}.json"
            scenarios.append({"name": name, "path": str(path), **pinned})
    else:
        pinned = expected[workload]
        for data in generated_scenarios(workload, seed):
            path = directory / f"{data['name']}.json"
            path.write_text(json.dumps(data, indent=2))
            scenarios.append({"name": data["name"], "path": str(path), **pinned})
    return {
        "scenarios": scenarios,
        "passes": 1 + WARM_PASSES,
        "trace": False,
        "check_dumps": workload == "bundled",
    }


class Runner:
    def __init__(self, directory: Path, deadline: float):
        self.directory = directory
        self.deadline = deadline
        self.count = 0

    def spawn(self, spec: dict, setup_only: bool = False) -> tuple[float, dict]:
        """Start one worker; return (spawn-to-ready seconds, its result)."""
        self.count += 1
        spec_path = self.directory / f"spec-{self.count}.json"
        spec_path.write_text(json.dumps(spec))
        args = [sys.executable, str(HERE / "worker.py"), str(spec_path)]
        if setup_only:
            args.append("--setup-only")
        env = dict(os.environ, PYTHONHASHSEED="0")
        start = time.perf_counter()
        # Unbuffered, so that reading the `ready` line leaves the rest to communicate().
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, bufsize=0, env=env, cwd=ROOT)
        try:
            line = proc.stdout.readline().decode()
            ready = time.perf_counter() - start
            remaining = self.deadline - time.perf_counter()
            out, _ = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise HarnessError("a worker overran the run's time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise HarnessError(f"worker exited with code {proc.returncode} before finishing")
        lines = out.decode().strip().splitlines()
        if not lines:
            raise HarnessError("worker printed no result")
        result = json.loads(lines[-1])
        return ready * result["setup_scale"], result


def judge(results: list[dict]) -> tuple[int, int, list[str]]:
    """Count passes and failures; bytes must also agree across workers."""
    attempted = failed = 0
    errors: list[str] = []
    reference: dict[str, str] = {}
    for result in results:
        for p in result["passes"]:
            attempted += 1
            mismatch = [
                f"{name}: report bytes differ between workers"
                for name, d in p["digests"].items()
                if reference.setdefault(name, d) != d
            ]
            if p["failed"] or mismatch:
                failed += 1
                errors.extend(p["errors"] + mismatch)
        if "dump_errors" in result:
            attempted += 1
            if result["dump_errors"]:
                failed += 1
                errors.extend(result["dump_errors"])
    return attempted, failed, errors


def run_untraced(runner: Runner, spec: dict, seconds: float) -> tuple[list[dict], dict]:
    setups = [runner.spawn(spec, setup_only=True)[0] for _ in range(SETUP_PROBES)]
    results: list[dict] = []
    durations: list[float] = []
    measure_end = time.perf_counter() + seconds
    # Start another worker only while it is expected to end in time.
    while len(results) < MIN_WORKERS or time.perf_counter() + statistics.median(durations) <= measure_end:
        start = time.perf_counter()
        ready, result = runner.spawn(spec)
        durations.append(time.perf_counter() - start)
        setups.append(ready)
        results.append(result)
    cold = [r["passes"][0]["seconds"] for r in results]
    warm = [p["seconds"] for r in results for p in r["passes"][1:]]
    values = {
        "setup_s": statistics.median(setups),
        "check_s": statistics.median(cold),
        "warm_check_s": statistics.median(warm),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
    }
    return results, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def run_traced(runner: Runner, spec: dict, spans_out: Path) -> tuple[list[dict], dict]:
    _, reference = runner.spawn(dict(spec, passes=1, check_dumps=False))
    _, traced = runner.spawn(dict(spec, passes=1 + TRACED_WARM_PASSES, trace=True, spans_out=str(spans_out)))
    values = dict(traced["metrics"])
    values["trace.overhead_ratio"] = traced["passes"][0]["seconds"] / reference["passes"][0]["seconds"]
    return [reference, traced], {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + HARD_LIMIT_S

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no sieveval package at {PACKAGE}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(PACKAGE), quiet=1)  # set-up is timed without bytecode compilation
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            runner = Runner(Path(tmp), deadline)
            spec = build_spec(args.workload, args.seed, Path(tmp))
            if args.trace:
                spans_out = WORK / f"spans-{args.workload}.json"  # the latest traced run only
                results, metrics = run_traced(runner, spec, spans_out)
            else:
                results, metrics = run_untraced(runner, spec, args.seconds)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, errors = judge(results)
    for line in errors:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
