"""The benchmark tools stay runnable.

A plain ``pytest`` run does not collect ``benchmarks/bench_kernels.py``, so
this runs it once, with timing off, in a child interpreter; and
``benchmarks/compare_artifacts.py`` runs on the smallest workload.
"""

import os
import shutil
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


def test_compare_artifacts_finds_only_real_differences(tmp_path):
    """The artifact comparison finds this tree's skew outputs at seed 0
    identical to themselves, and names the manifest when a copy of the
    tree reports another version."""
    src = ROOT / "src"
    copy = tmp_path / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    init = copy / "disparity_audit" / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "', '__version__ = "0+'))

    def compare(change: Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "benchmarks/compare_artifacts.py", str(src), str(change),
             "--seeds", "0", "--workloads", "skew"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )

    same = compare(src)
    assert same.returncode == 0, same.stdout + same.stderr
    run, plan = same.stdout.splitlines()
    assert run.startswith("skew seed 0 run: identical, ")
    assert plan == "skew seed 0 sample-plan: identical, 1 file(s)"
    changed = compare(copy)
    assert changed.returncode == 1, changed.stdout + changed.stderr
    assert changed.stdout.splitlines() == ["skew seed 0 run: differ: manifest.json", plan]
