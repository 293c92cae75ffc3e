"""One untraced pass of the in-process benchmark workloads, every answer
checked: a library change that breaks a benchmark check, or renames a
function the workloads call, fails here.  Reads perfbench/ and writes
nothing there."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("name", ["wide", "deep", "chains"])
def test_workload_pass_checks_out(name):
    tasks = workloads.BUILDERS[name](7)
    assert tasks
    tr = Tracer()
    for task in tasks:
        tr.task = task.id
        task.run(tr)  # CheckFailed on a wrong answer
