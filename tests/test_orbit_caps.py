"""Orbit-cap hits: where `check --json` stops when a seed's ray orbit is larger
than allowed.

Every bundled scenario and the benchmark's `chain_scenario(13, dim)` for dim
3 to 5 run `check --json` at each `SIEVEVAL_CAP_ORBIT` from 1 to 8 and at the
default cap.  A run whose orbit has more rays than the cap exits 2 with one
stderr line naming the cap; every other run exits 0 with an empty stderr.
The orbit is closed before the cap is compared, so the cap decides only
whether a build stops, never where: one digest covers every stdout.
"""

import hashlib
import json

from sieveval import bundled_scenario_names, bundled_scenario_path
from sieveval.cli import main

CAPS = (1, 2, 3, 4, 5, 6, 7, 8, None)  # None: the variable unset, the default cap

# scenario -> the smallest cap at which its check passes.
FIRST_PASSING = {
    "minimal": 1,
    "qubit": 3,
    "qubit_complex": 4,
    "qubit_extended": 3,
    "qutrit": 3,
    "qutrit_extended": 5,
    "chain 3": 5,
    "chain 4": 6,
    "chain 5": 7,
}

# sha256 of every run's stdout, concatenated in FIRST_PASSING order, caps in CAPS order.
STDOUT_DIGEST = "17a7adf10825cc80f0471581f69264b3c119e2fc4a0fa22fb24d2a357f73e9a1"


def test_every_bundled_scenario_is_swept():
    assert sorted(name for name in FIRST_PASSING if not name.startswith("chain")) == bundled_scenario_names()


def test_orbit_cap_hits_name_the_cap(monkeypatch, capsys, workloads, tmp_path):
    paths = {name: str(bundled_scenario_path(name)) for name in bundled_scenario_names()}
    for dim in (3, 4, 5):
        path = tmp_path / f"chain{dim}.json"
        path.write_text(json.dumps(workloads.chain_scenario(13, dim)), encoding="utf-8")
        paths[f"chain {dim}"] = str(path)
    expected, seen = {}, {}
    digest = hashlib.sha256()
    for name, first in FIRST_PASSING.items():
        for cap in CAPS:
            if cap is None:
                monkeypatch.delenv("SIEVEVAL_CAP_ORBIT", raising=False)
            else:
                monkeypatch.setenv("SIEVEVAL_CAP_ORBIT", str(cap))
            if cap is not None and cap < first:
                expected[name, cap] = (2, f"error: ray orbit closure exceeded the cap of {cap}\n")
            else:
                expected[name, cap] = (0, "")
            code = main(["check", paths[name], "--json"])
            out, err = capsys.readouterr()
            seen[name, cap] = (code, err)
            digest.update(out.encode("utf-8"))
    assert seen == expected
    assert digest.hexdigest() == STDOUT_DIGEST
