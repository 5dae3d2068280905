"""Record the reference artifacts that the correctness gate compares against.

    python3 perfbench/record.py [--workload NAME]

For every workload and scenario, generates the inputs (seed = scenario index),
runs ``disparity-audit run`` once and copies ``results.csv`` and
``manifest.json`` to ``perfbench/reference/<workload>/<scenario>/``.
Recording again replaces the baseline the gate holds later code to, so do it
only on purpose.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    args = parser.parse_args()
    run._require_source()
    from workloads import SCENARIOS, WORKLOADS, write_inputs

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        for scenario in range(SCENARIOS):
            directory = run.WORK / "record" / name
            shutil.rmtree(directory, ignore_errors=True)
            write_inputs(WORKLOADS[name], scenario, directory)
            child = run.spawn(
                "run",
                [sys.executable, "-m", "disparity_audit", "run",
                 "--config", str(directory / "config.json")],
                run.CHILD_TIMEOUT_S, directory / "run.log",
            )
            if child.code != 0:
                print(f"{name} scenario {scenario}: run exited {child.code}", file=sys.stderr)
                return 1
            target = run.REFERENCE / name / str(scenario)
            target.mkdir(parents=True, exist_ok=True)
            for artifact in ("results.csv", "manifest.json"):
                shutil.copyfile(directory / "out" / artifact, target / artifact)
            print(f"{name} scenario {scenario}: {child.wall_s:.2f} s -> {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
