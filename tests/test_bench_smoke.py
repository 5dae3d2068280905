"""The kernel microbenchmarks stay runnable.

A plain ``pytest`` run does not collect ``benchmarks/bench_kernels.py``, so
this runs it once, with timing off, in a child interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_kernel_microbenchmarks_run():
    pytest.importorskip("pytest_benchmark")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/bench_kernels.py",
         "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
