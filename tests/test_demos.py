"""The demo scripts run to completion and print their headline results."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: lines each demo must print, by file name
EXPECTED = {
    "02_minors_and_chamber_ansatz.py": (
        "  same flag  : True",
        "round trip returns the same matrix: True",
    ),
    "03_components_and_euler.py": ("total Euler characteristic: 12",),
}

#: SHA-256 of each demo's full stdout, by file name
STDOUT_SHA256 = {
    "01_weyl_and_deodhar_cells.py":
        "a4b7c949d9dfc9e1568e0d9158d0a25bb0ddb37c3f1b335d40bfa0bb45dca74b",
    "02_minors_and_chamber_ansatz.py":
        "1f58e6bf92a8aaf3850d4238f4f01cd5d5673c919e69c2ce8ae0af95013d8528",
    "03_components_and_euler.py":
        "302be892ce109d02e6e25b05d2eef9c923b1389314684fcee49db661f7e3ed92",
}


def test_every_demo_is_listed():
    assert len(DEMOS) == 3 and set(EXPECTED) < {p.name for p in DEMOS} == set(STDOUT_SHA256)


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_cleanly(path, child_env):
    proc = subprocess.run(
        [sys.executable, str(path)],
        cwd=ROOT, env=child_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    for line in EXPECTED.get(path.name, ()):
        assert line in lines, line
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[path.name]
