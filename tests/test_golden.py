"""Golden reports: the bytes `check --json` and `dump-site` print, pinned.

The digests are sha256 of each command's stdout for every bundled scenario
(the same values the benchmark pins in `perfbench/expected.json`).  A change
that alters any report byte fails here.
"""

import hashlib

import pytest

from sieveval import bundled_scenario_names, bundled_scenario_path
from sieveval.cli import main

# name -> (check --json sha256, dump-site sha256)
GOLDEN = {
    "minimal": (
        "5a67c8fca0b4f18f6f8e20fcbc7586a963a6b1bbe1c4e4c100d812557fb0b93f",
        "e6cdb22c3d8f6d7d6f2a865330b7c9e2d0a9bc7db0df0d2ce7226c4802f05332",
    ),
    "qubit": (
        "8b3cbda0fe75b2dce25776282c0db016efc54218384546a307422bcdd89dd056",
        "9d1289bc2eefa3487a63b0ff6b408e5642661035042a26af82f7ca096e008be3",
    ),
    "qubit_complex": (
        "a1e3c9600b1df32443dba4bc3fd7cf60f317aa5d8c3a7c0b930b06d39aff4f4a",
        "7709d0fe3cc3cbe91eec5848ec67954a5a9a586aff162ea564079e7450e4abbc",
    ),
    "qubit_extended": (
        "6c7ffe1ac82a1b90b4847b403f32ac6f208e98c37e030bb19489222ef311df61",
        "7b5bf60c3e2f1b65db326b252290a8dabd3bbfc0feae40ab84d6b4aa9ca875cc",
    ),
    "qutrit": (
        "541cf2f4a313e41f71b5d311ff2b7d35f60db08c9e42a4a6de6111000d3f6294",
        "93240036fad399734a79e77ec31c670453b97a7467f917905e7ff85dba004487",
    ),
    "qutrit_extended": (
        "bc22f214ecfbbcc18fe08977fe68998abe7044747ac72e534f4297d1bdb5792a",
        "39de66e32bbf2fcb0a3d5631aaaeb93938e1d7d612fb59fccd76e4310cf7148b",
    ),
}


def test_every_bundled_scenario_is_pinned():
    assert sorted(GOLDEN) == bundled_scenario_names()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reports_are_byte_identical(name, capsys):
    path = str(bundled_scenario_path(name))
    check_digest, dump_digest = GOLDEN[name]
    assert main(["check", path, "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == check_digest
    assert main(["dump-site", path]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == dump_digest
