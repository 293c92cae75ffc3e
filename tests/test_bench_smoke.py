"""One untraced pass of each benchmark workload, every answer checked: a
library change that breaks a benchmark check, renames a function the
workloads call, or changes a command's stdout or exit code fails here.
Reads perfbench/ and writes nothing there."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402
from run import child_env  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_tasks(tasks):
    assert tasks
    tr = Tracer()
    for task in tasks:
        tr.task = task.id
        task.run(tr)  # CheckFailed on a wrong answer


@pytest.mark.parametrize("name", ["wide", "deep", "chains"])
def test_workload_pass_checks_out(name):
    run_tasks(workloads.BUILDERS[name](7))


def test_cli_pass_checks_out(tmp_path):
    # about 20 fresh interpreters; each call's exit code and stdout bytes
    run_tasks(workloads.cli(7, ROOT, tmp_path, child_env(ROOT / "src")))
