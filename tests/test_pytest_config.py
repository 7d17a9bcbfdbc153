"""The repository's pytest configuration, run on a sample test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SAMPLE = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    # On failure Hypothesis writes a patch for the failing example through
    # libcst when that is installed.  Its import warns, and with warnings as
    # errors that ended the session inside pytest's report hook (INTERNALERROR,
    # exit 3) before the passing test ran.
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT)]
    result = subprocess.run(
        command + ["--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
