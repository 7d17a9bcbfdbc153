"""Command line interface.

Subcommands: validate, valuate, check, dump-site.  Exit codes: 0 all pass,
1 violations found, 2 input error, 3 internal error (a bug; the traceback is
printed).  Caps can be overridden per scenario or via
SIEVEVAL_CAP_{MONOID,ORBIT,SIEVE_ENUM,LATTICE}.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import run_check
from .errors import InternalCheckError, SievevalError
from .runner import dump_site, run_atoms, run_valuate
from .scenario import load_scenario

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, ensure_ascii=False))


def _render_valuation(report: dict) -> None:
    v = report["valuation"]
    print(f"scenario {report['scenario']} (dim {report['dimension']})")
    print(
        f"run {v['run']}: state {v['state']}, observable {v['observable']},"
        f" eigenspace {v['eigenspace']}"
    )
    for row in v["propositions"]:
        flags = row["flags"]
        marks = []
        if flags["is_top"]:
            marks.append("top")
        if flags["is_bottom_annihilator"]:
            marks.append("floor")
        if flags["in_delta_omega"]:
            marks.append("in-delta")
        bub = "-" if row["bub"] is None else str(row["bub"])
        line = f"  {row['name']:>12}  bub={bub}  sieve={row['sieve']}  [{', '.join(marks)}]"
        if "extended" in row:
            verdicts = row["extended"]["verdicts"]
            line += f"  extended(a={verdicts['a']}, b={verdicts['b']}, c={verdicts['c']})"
        print(line)


def _render_check(report: dict) -> None:
    print(f"scenario {report['scenario']} (dim {report['dimension']})")
    for row in report["rows"]:
        status = " ok " if row["passed"] else "FAIL"
        suffix = f" [{row['run']}]" if row["run"] else ""
        print(f"[{status}] {row['tag']:<28} {row['title']}{suffix}")
    verdict = "all checks passed" if report["passed"] else "violations found"
    print(f"{len(report['rows'])} rows; {verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sieveval",
        description="Exact sieve-valued truth valuations over finite operator sites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate a scenario file")
    p_validate.add_argument("scenario")

    p_valuate = sub.add_parser("valuate", help="valuate the propositions of one run")
    p_valuate.add_argument("scenario")
    p_valuate.add_argument("--run", required=True)
    p_valuate.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="run the full verification battery")
    p_check.add_argument("scenario")
    p_check.add_argument("--json", action="store_true")

    p_dump = sub.add_parser("dump-site", help="dump the built sites as JSON")
    p_dump.add_argument("scenario")

    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
        if args.command == "validate":
            for spec in scenario.runs:
                run_atoms(scenario, spec)
            print(
                f"{scenario.name}: dim {scenario.dimension}, "
                f"{len(scenario.observables)} observables, "
                f"{len(scenario.generators)} generators, "
                f"{len(scenario.runs)} runs — valid"
            )
            return EXIT_OK
        if args.command == "valuate":
            report = run_valuate(scenario, args.run)
            if args.json:
                _emit_json(report)
            else:
                _render_valuation(report)
            return EXIT_OK
        if args.command == "check":
            report = run_check(scenario)
            if args.json:
                _emit_json(report)
            else:
                _render_check(report)
            return EXIT_OK if report["passed"] else EXIT_VIOLATIONS
        if args.command == "dump-site":
            _emit_json(dump_site(scenario))
            return EXIT_OK
    except InternalCheckError:
        return _internal_error()
    except SievevalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception:
        return _internal_error()
    return EXIT_INPUT_ERROR  # pragma: no cover


def _internal_error() -> int:
    """Report an exception that is a bug, not bad input, with its traceback."""
    import traceback  # here, not at start-up: it loads linecache and tokenize

    print("internal error:", file=sys.stderr)
    traceback.print_exc()
    return EXIT_INTERNAL_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
