import os
import subprocess
import sys
from pathlib import Path

import pytest

import posetcones

SRC = Path(posetcones.__file__).resolve().parent.parent
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_are_found():
    names = {p.name for p in DEMOS}
    assert {"bijections_tour.py", "cone_polynomials.py", "factorization_tour.py"} <= names


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout
