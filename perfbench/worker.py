"""One benchmark process: load a workload's scenarios, then time passes.

Usage: python3 perfbench/worker.py SPEC.json [--setup-only]

The spec names the scenario files and what each report must look like.  The
worker prints `ready` once `sieveval` is imported and every scenario is
loaded, so the parent can time set-up from spawn; it then runs the passes
and prints one JSON line with the timings and the correctness verdicts.
A pass is `run_check` plus the rendering `sieveval check --json` prints,
for every scenario in order.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path

from probe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHAPE_DETAILS = ("size", "objects", "arrows", "stages")


def render_json(report: dict) -> bytes:
    """The exact stdout bytes of `sieveval check --json` and `dump-site`."""
    return (json.dumps(report, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_shape(report: dict) -> list:
    """Row tags in order, with the size details that fix a workload's shape."""
    shape = []
    for row in report["rows"]:
        details = row.get("details", {})
        shape.append([row["tag"], row["run"], {k: details[k] for k in SHAPE_DETAILS if k in details}])
    return shape


def check_pass(scenarios, expectations, run_check, first_digests: dict, timer: SpeedProbe) -> dict:
    """Time one pass and judge it; a pass fails on any raise or mismatch."""
    errors = []
    rendered = {}
    timer.start()
    for name, scenario in scenarios:
        try:
            report = run_check(scenario)
            rendered[name] = (report, render_json(report))
        except Exception as exc:  # a crash inside the program fails the pass
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
    timer.stop()
    digests = {}
    for name, (report, data) in rendered.items():
        expect = expectations[name]
        digests[name] = digest(data)
        if report["passed"] != expect["passed"]:
            errors.append(f"{name}: verdict {report['passed']}, expected {expect['passed']}")
        if expect.get("shape") is not None and report_shape(report) != expect["shape"]:
            errors.append(f"{name}: report shape differs from the pinned shape")
        if expect.get("check_sha256") and digests[name] != expect["check_sha256"]:
            errors.append(f"{name}: check --json digest differs from the pinned digest")
        if first_digests.setdefault(name, digests[name]) != digests[name]:
            errors.append(f"{name}: report bytes differ from the first pass")
    return {
        "seconds": timer.seconds,
        "failed": bool(errors),
        "errors": errors,
        "digests": digests,
    }


def check_dumps(scenarios, expectations, dump_site) -> list[str]:
    """Untimed: compare `dump-site` bytes with the pinned digests."""
    errors = []
    for name, scenario in scenarios:
        pinned = expectations[name].get("dump_sha256")
        if not pinned:
            continue
        try:
            data = render_json(dump_site(scenario))
        except Exception as exc:
            errors.append(f"{name}: dump-site raised {type(exc).__name__}: {exc}")
            continue
        if digest(data) != pinned:
            errors.append(f"{name}: dump-site digest differs from the pinned digest")
    return errors


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    setup_only = "--setup-only" in argv[1:]
    traced = spec["trace"] and not setup_only
    timer = SpeedProbe()
    timer.start()
    sys.path.insert(0, str(SRC))
    import sieveval

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer(sieveval)
        tracer.install()
    scenarios = [(s["name"], sieveval.load_scenario(s["path"])) for s in spec["scenarios"]]
    timer.stop()
    print("ready", flush=True)
    # The parent times set-up from spawn; this scales it for the host's speed.
    setup_scale = timer.seconds / timer.wall_seconds
    if setup_only:
        print(json.dumps({"setup_scale": setup_scale}), flush=True)
        return 0

    expectations = {s["name"]: s for s in spec["scenarios"]}
    first_digests: dict[str, str] = {}
    passes = []
    for index in range(spec["passes"]):
        if tracer is not None:
            tracer.begin_pass()
        passes.append(check_pass(scenarios, expectations, sieveval.run_check, first_digests, timer))
        if tracer is not None:
            # Spans record wall time, probes included; scale them like the pass.
            tracer.end_pass(index, timer.seconds, timer.seconds / (timer.wall_seconds + timer.probe_seconds))
    result = {
        "setup_scale": setup_scale,
        "passes": passes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.remove()
        result["metrics"] = tracer.metrics()
        if spec.get("spans_out"):
            tracer.write_spans(spec["spans_out"])
    if spec.get("check_dumps"):
        result["dump_errors"] = check_dumps(scenarios, expectations, sieveval.dump_site)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
