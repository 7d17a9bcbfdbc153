"""Cap hits: where `check --json` stops when a stage has more sieves, or a
generated sublattice more members, than allowed.

Every bundled scenario and the benchmark's `chain_scenario(13, dim)` for dim
3 to 5 run `check --json` at each `SIEVEVAL_CAP_SIEVE_ENUM` of 1, 2, 4, ...,
256.  A run that meets the cap exits 2 with one stderr line naming the cap,
the object and its arrow count; every other run exits 0 with an empty
stderr.  The order in which `run_check` calls its row families decides which
stage a cap hit names first, so a reordering shows here, and one digest
covers every stdout.

Every bundled scenario also runs at each `SIEVEVAL_CAP_LATTICE` from 1 to
13, and the benchmark's `lattice_scenario(1)` at 1, 8, 35 and 36.  A cap
below a run's determinate sublattice stops the build: exit 2 and one stderr
line naming the cap.  A cap below the §2 sublattice of the lattice seeds
fails the §2 row alone: exit 1, an empty stderr and the cap in the row's
error.  A closure that reached a different member set, or raised at another
size, would move a threshold here.
"""

import hashlib
import json

from sieveval import bundled_scenario_names, bundled_scenario_path
from sieveval.cli import main

CAPS = tuple(2**k for k in range(9))

# scenario -> the arrow count each cap hit names at object 0, smallest cap
# first; every cap after the last hit passes.
CAP_HITS = {
    "minimal": (1,),
    "qubit": (3, 3, 3),
    "qubit_complex": (5, 5, 5, 8),
    "qubit_extended": (3, 3, 3, 5),
    "qutrit": (3, 3, 3),
    "qutrit_extended": (5, 5, 5, 5, 8),
    "chain 3": (5, 5, 5, 5, 8),
    "chain 4": (6, 6, 6, 6, 6, 10, 10),
    "chain 5": (7, 7, 7, 7, 7, 7, 12, 12),
}

# sha256 of every run's stdout, concatenated in CAP_HITS order, caps ascending.
STDOUT_DIGEST = "0b23bb627d28fdc266efd88a74141779d73699e5b96b90e822b5b40d5d8ca167"


def test_every_bundled_scenario_is_swept():
    assert sorted(name for name in CAP_HITS if not name.startswith("chain")) == bundled_scenario_names()


def test_cap_hits_name_the_cap_object_and_arrows(monkeypatch, capsys, workloads, tmp_path):
    paths = {name: str(bundled_scenario_path(name)) for name in bundled_scenario_names()}
    for dim in (3, 4, 5):
        path = tmp_path / f"chain{dim}.json"
        path.write_text(json.dumps(workloads.chain_scenario(13, dim)), encoding="utf-8")
        paths[f"chain {dim}"] = str(path)
    expected, seen = {}, {}
    digest = hashlib.sha256()
    for name, hits in CAP_HITS.items():
        for k, cap in enumerate(CAPS):
            if k < len(hits):
                line = f"error: sieve enumeration exceeded the cap of {cap} at object 0 ({hits[k]} arrows)\n"
                expected[name, cap] = (2, line)
            else:
                expected[name, cap] = (0, "")
            monkeypatch.setenv("SIEVEVAL_CAP_SIEVE_ENUM", str(cap))
            code = main(["check", paths[name], "--json"])
            out, err = capsys.readouterr()
            seen[name, cap] = (code, err)
            digest.update(out.encode("utf-8"))
    assert seen == expected
    assert digest.hexdigest() == STDOUT_DIGEST


LATTICE_CAPS = tuple(range(1, 14))

# scenario -> (members of its largest determinate sublattice, members of
# its §2 sublattice): caps below the first exit 2, caps below the second
# exit 1 on §2 alone, and the rest exit 0.
LATTICE_SIZES = {
    "minimal": (2, 2),
    "qubit": (4, 6),
    "qubit_complex": (4, 6),
    "qubit_extended": (4, 6),
    "qutrit": (8, 8),
    "qutrit_extended": (8, 12),
    "lattice 1": (8, 36),
}

# sha256 of every run's stdout, concatenated in LATTICE_SIZES order, caps ascending.
LATTICE_STDOUT_DIGEST = "34085c46ff750a95a03e2d52353acbe03eed3a700b6dca347f0e95db97990ed3"


def test_lattice_cap_hits_stop_the_build_or_fail_section_2(monkeypatch, capsys, workloads, tmp_path):
    paths = {name: str(bundled_scenario_path(name)) for name in bundled_scenario_names()}
    path = tmp_path / "lattice1.json"
    path.write_text(json.dumps(workloads.lattice_scenario(1)), encoding="utf-8")
    paths["lattice 1"] = str(path)
    assert sorted(name for name in LATTICE_SIZES if name != "lattice 1") == bundled_scenario_names()
    expected, seen = {}, {}
    digest = hashlib.sha256()
    for name, (determinate, generated) in LATTICE_SIZES.items():
        for cap in (1, 8, 35, 36) if name == "lattice 1" else LATTICE_CAPS:
            if cap < determinate:
                expected[name, cap] = (2, f"error: sublattice generation exceeded the cap of {cap}\n", None)
            elif cap < generated:
                expected[name, cap] = (1, "", {("§2", None): f"sublattice generation exceeded the cap of {cap}"})
            else:
                expected[name, cap] = (0, "", {})
            monkeypatch.setenv("SIEVEVAL_CAP_LATTICE", str(cap))
            code = main(["check", paths[name], "--json"])
            out, err = capsys.readouterr()
            failing = None
            if out:
                failing = {
                    (row["tag"], row["run"]): row["details"].get("error")
                    for row in json.loads(out)["rows"]
                    if not row["passed"]
                }
            seen[name, cap] = (code, err, failing)
            digest.update(out.encode("utf-8"))
    assert seen == expected
    assert digest.hexdigest() == LATTICE_STDOUT_DIGEST
