"""The demo scripts run to completion and print their headline results."""

import os
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


def test_every_demo_is_listed():
    assert len(DEMOS) == 3 and set(EXPECTED) < {p.name for p in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_cleanly(path):
    paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    for line in EXPECTED.get(path.name, ()):
        assert line in lines, line
