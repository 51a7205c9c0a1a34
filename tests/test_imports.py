"""What importing tclgen loads, and what the benchmark's timed operations import.

A ``tclgen run`` is timed as a whole, start-up included, so the package loads
NumPy and nothing heavier (SciPy is a test dependency only), and no
numerical module is first imported inside a benchmark's timed operation,
where its import would count as work.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tclgen

SRC = Path(tclgen.__file__).resolve().parents[1]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _python(code: str, cwd: Path) -> list[str]:
    """Run ``code`` in a fresh interpreter; the words it printed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(PERFBENCH)]))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_importing_tclgen_loads_no_scipy(tmp_path):
    code = ("import sys, tclgen, tclgen.cli\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert _python(code, tmp_path) == []


@pytest.mark.parametrize("workload", ["run-o4", "run-o2-long", "routes-d3"])
def test_timed_operation_imports_no_numerical_module(workload, tmp_path):
    # set-up and operation as in perfbench/worker.py, one fresh process each
    code = ("import pathlib, sys, warnings, workloads\n"
            "warnings.simplefilter('ignore')\n"
            f"work = workloads.WORKLOADS[{workload!r}]\n"
            "op = pathlib.Path('op')\n"
            "op.mkdir()\n"
            "state = work.setup(1, op)\n"
            "before = set(sys.modules)\n"
            "work.run(state)\n"
            "print(*sorted(m for m in set(sys.modules) - before\n"
            "              if m.split('.')[0] in ('numpy', 'scipy')))\n")
    assert _python(code, tmp_path) == []
