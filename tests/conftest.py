import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import sieveval
from sieveval import (
    Observable,
    Ray,
    build_plain_site,
    close_monoid,
    diagonal_matrix,
    ray_from_vector,
    subspace_from_vectors,
)

# `--hypothesis-profile deep`: ten times Hypothesis's default 100 examples,
# and, through `test_exact_core.examples`, ten times the budget of each
# property test of the exact core that sets its own.
settings.register_profile("deep", max_examples=1000)


def qubit_observable():
    e1 = subspace_from_vectors(2, [[1, 0]])
    e2 = subspace_from_vectors(2, [[0, 1]])
    return Observable("Z", (e1, e2))


def qubit_monoid():
    p1 = diagonal_matrix([1, 0])
    p2 = diagonal_matrix([0, 1])
    return close_monoid([p1, p2], cap=16)


@pytest.fixture
def qubit_site():
    site = build_plain_site(
        qubit_observable(), qubit_monoid(), [ray_from_vector([1, 1])], cap=16
    )
    return site


@pytest.fixture
def qutrit_observable():
    r1 = subspace_from_vectors(3, [[1, 0, 0]])
    r23 = subspace_from_vectors(3, [[0, 1, 0], [0, 0, 1]])
    return Observable("R", (r1, r23))


@pytest.fixture
def w_state() -> Ray:
    return ray_from_vector([1, 1, 1])


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's scenario generators, `perfbench/workloads.py`, loaded
    by path (it is not a package) and only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def run_fresh():
    """`run_fresh(script, *args)` runs `script` in a fresh interpreter that
    imports this checkout's package, so no process-wide cache or intern
    table is warm, and returns the completed process."""
    package_root = str(Path(sieveval.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))

    def run(script: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", script, *args],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )

    return run
