"""Check that two source trees write byte-identical artifacts.

    python3 benchmarks/compare_artifacts.py PARENT_SRC CHANGE_SRC [--seeds 0,3]
                                            [--workloads skew,wide,deep]

PARENT_SRC and CHANGE_SRC are ``src`` directories that hold a
``disparity_audit`` package. For each benchmark workload
(``perfbench/workloads.py``) and seed, the inputs are written once with
``write_inputs``. Then ``run`` and ``sample-plan`` run from each tree in
turn, into the same output directory: the manifest records ``output_dir``
and ``config_hash`` digests it, so outputs written to two paths would
differ on every run. Every file a command writes is compared, and so are
its standard output, standard error and exit code.

Each comparison prints one line, naming the outputs that differ. The exit
code is 0 when every output is identical and every command succeeded,
else 1.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("run", "sample-plan")


def outputs(src: Path, command: str, directory: Path) -> dict[str, bytes]:
    """Every file that ``command``, run from ``src`` on the inputs in
    ``directory``, writes under ``directory/out``, keyed by relative path,
    with its standard output, standard error and exit code."""
    out = directory / "out"
    shutil.rmtree(out, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "-m", "disparity_audit", command,
         "--config", str(directory / "config.json")],
        cwd=directory, env=dict(os.environ, PYTHONPATH=str(src)),
        stdin=subprocess.DEVNULL, capture_output=True, timeout=600,
    )
    files = {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    return {
        **files, "<stdout>": proc.stdout, "<stderr>": proc.stderr,
        "<exit code>": str(proc.returncode).encode(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the parent tree")
    parser.add_argument("change_src", type=Path, help="src directory of the changed tree")
    parser.add_argument("--seeds", default="0,3", help="comma-separated benchmark seeds")
    parser.add_argument("--workloads", default="skew,wide,deep",
                        help="comma-separated workload names")
    args = parser.parse_args(argv)
    srcs = [p.resolve() for p in (args.parent_src, args.change_src)]
    for src in srcs:
        if not (src / "disparity_audit" / "__init__.py").is_file():
            parser.error(f"no disparity_audit package under {src}")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from workloads import WORKLOADS, write_inputs

    names = args.workloads.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; expected among {sorted(WORKLOADS)}")

    failed = 0
    with tempfile.TemporaryDirectory(prefix="compare_artifacts_") as tmp:
        for name in names:
            for seed in seeds:
                directory = Path(tmp) / name
                write_inputs(WORKLOADS[name], seed, directory)
                for command in COMMANDS:
                    parent, change = (outputs(src, command, directory) for src in srcs)
                    differing = sorted(
                        k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k)
                    )
                    code = parent["<exit code>"].decode()
                    if differing:
                        status = "differ: " + ", ".join(differing)
                    elif code != "0":
                        status = f"identical, but both exited {code}"
                    else:
                        status = f"identical, {len(parent) - 3} file(s)"
                    print(f"{name} seed {seed} {command}: {status}", flush=True)
                    failed += bool(differing) or code != "0"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
