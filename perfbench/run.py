"""Layered offline benchmark for disparity-audit.

    python3 perfbench/run.py --workload skew|wide|deep|all [--seed N]
                             [--seconds S] [--trace 0|1]

For one workload: generate the inputs from ``--seed`` (outside the timed
region), then for ``--seconds`` alternate two kinds of child process, one at a
time, each started from the checkout's ``src``:

* a set-up probe that loads the config and the dataset and exits;
* ``python3 -m disparity_audit run --config ...`` with the default ``--jobs``.

Every run's artifacts go through the correctness gate (``gate.py``): they are
compared with the reference recorded for the input scenario by ``record.py``,
and every repeat must be byte-identical to the first. A child that exits
non-zero, times out or fails the gate counts as failed. With ``--trace 1``
each set-up probe and run is followed by a traced run (``probe.py trace``),
whose artifacts must equal the untraced ones; the per-layer metrics come from
the traced runs.

Wall time, CPU time and peak RSS are taken per child from ``os.wait4``, and
each end-to-end metric is the median over the repeats. On a shared host the
speed of a vCPU drifts by up to 1.6x for minutes at a time, which spreads raw
times of the same code too far to gate on. So without ``--trace`` the
benchmark pins itself and its children to one vCPU, where they time-share
with a fixed reference loop (``speed.py``, at a lower priority) that measures
the host speed over each child's lifetime; the end-to-end times are CPU times
rescaled to the loop's nominal speed: ``cpu_s`` for a run and ``setup_s`` for
a set-up probe. The raw wall and CPU times are printed and kept in the report;
raw wall time includes the loop's share of the vCPU, about a tenth. Since a
run gets one vCPU, a change that parallelises the program shows here only as
a change in CPU time.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller report, with the input
hashes and the raw samples, is written to ``.perfbench/BENCH_<workload>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from speed import Speedometer, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference"

INVOCATION_LIMIT_S = 170.0  # one workload must finish within the 180 s allowed
CHILD_TIMEOUT_S = 150.0
MIN_RUNS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_wall_s": "s", "setup_cpu_s": "s", "speed": "x"}


@dataclass
class Child:
    kind: str
    code: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    # host speed relative to nominal over the child's lifetime, if measured
    speed: float | None = None

    @property
    def nominal_cpu_s(self) -> float | None:
        """CPU time at the reference loop's nominal host speed."""
        return None if self.speed is None else self.cpu_s * self.speed


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(kind: str, argv: list[str], timeout: float, log_path: Path,
          speedometer: Speedometer | None = None) -> Child:
    """Run one child to completion; rusage is that child's own, from wait4.
    With a speedometer, the host speed over the child's lifetime is recorded."""
    fired = threading.Event()
    with log_path.open("w", encoding="utf-8") as log:
        before = speedometer.read() if speedometer else None
        start = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=log,
        )

        def kill():
            fired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
        after = speedometer.read() if speedometer else None
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        kind=kind,
        code=proc.returncode,
        timed_out=fired.is_set(),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        speed=speed_factor(before, after) if speedometer else None,
    )


def _median(values):
    return statistics.median(values) if values else None


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (None, None)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class TraceView:
    """Lookups into one traced run's span file; ``None`` marks a name that
    this commit does not define (or a counter that no longer applies)."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.defined = set(doc["traced"])

    def _field(self, field: str, *names: str):
        present = [n for n in names if n in self.defined]
        if not present:
            return None
        return sum(self.doc["functions"].get(n, {}).get(field, 0) for n in present)

    def s(self, *names):
        return self._field("s", *names)

    def self_s(self, *names):
        return self._field("self_s", *names)

    def calls(self, *names):
        return self._field("calls", *names)

    def first(self, field: str, *names: str):
        for n in names:
            if n in self.defined:
                return self._field(field, n)
        return None

    def rows(self, *names):
        present = [n for n in names if n in self.defined and n not in self.doc["broken_counters"]]
        if not present:
            return None
        return sum(self.doc["rows"].get(n, 0) for n in present)

    def calls_not_under(self, name: str, parent: str):
        if name not in self.defined:
            return None
        return sum(
            e["calls"] for e in self.doc["edges"]
            if e["child"] == name and e["parent"] != parent
        )


def _dig(doc, *keys):
    for k in keys:
        if not isinstance(doc, dict) or k not in doc:
            return None
        doc = doc[k]
    return doc


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("data.load_annotations.s", "s", "lower"),
    ("data.load_predictions.s", "s", "lower"),
    ("data.validate_dataset.s", "s", "lower"),
    ("data.score_cells.count", "count", "lower"),
    ("data.input.mb", "MB", "lower"),
    ("groups.assign_groups.s", "s", "lower"),
    ("groups.assigned.count", "count", "higher"),
    ("concepts.build_concept_tables.s", "s", "lower"),
    ("concepts.image_target_set.calls", "count", "lower"),
    ("concepts.rows.count", "count", "lower"),
    ("concepts.retained.ratio", "ratio", "higher"),
    ("sampling.draw.s", "s", "lower"),
    ("sampling.draw.calls", "count", "lower"),
    ("sampling.draw_rows.s", "s", "lower"),
    ("sampling.rows_drawn.count", "count", "lower"),
    ("sampling.compute_budget.s", "s", "lower"),
    ("sampling.filter_rare_concepts.s", "s", "lower"),
    ("metrics.average_precision.s", "s", "lower"),
    ("metrics.average_precision.calls", "count", "lower"),
    ("metrics.average_precision.rows", "count", "lower"),
    ("metrics.auc_roc.s", "s", "lower"),
    ("metrics.auc_roc.calls", "count", "lower"),
    ("metrics.auc_roc.rows", "count", "lower"),
    ("metrics.confusion_at_threshold.s", "s", "lower"),
    ("metrics.confusion_at_threshold.calls", "count", "lower"),
    ("metrics.select_threshold.s", "s", "lower"),
    ("metrics.select_threshold.rows", "count", "lower"),
    ("metrics.split_validation_test.s", "s", "lower"),
    ("metrics.hit_vector.s", "s", "lower"),
    ("metrics.confusion_per_eval.ratio", "ratio", "lower"),
    ("disparity.per_concept_disparity.s", "s", "lower"),
    ("disparity.aggregate_disparity.s", "s", "lower"),
    ("disparity.bootstraps_used.ratio", "ratio", "higher"),
    ("pipeline.run_pipeline.s", "s", "lower"),
    ("pipeline.evaluate_concept.self_s", "s", "lower"),
    ("pipeline.evaluate_hit_rate.self_s", "s", "lower"),
    ("pipeline.write_outputs.s", "s", "lower"),
    ("pipeline.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("config.load_config.s", "s", "lower"),
]


def layer_metrics(t: TraceView, inputs: dict, manifest: dict,
                  results_csv: str) -> dict[str, float | None]:
    """Per-layer metrics of one traced run; ``None`` where absent.
    ``trace.overhead_s`` is set over all runs by ``Measurement.per_layer``."""
    m: dict[str, float | None] = {}
    for name in ("data.load_annotations", "data.load_predictions", "data.validate_dataset"):
        m[f"{name}.s"] = t.s(name)
    m["data.score_cells.count"] = inputs["score_cells"]
    m["data.input.mb"] = inputs["input_mb"]

    m["groups.assign_groups.s"] = t.first("s", "groups.assign_groups", "pipeline.assign_groups")
    m["groups.assigned.count"] = _dig(manifest, "stages", "group_assignment", "assigned_total")

    m["concepts.build_concept_tables.s"] = t.s("concepts.build_concept_tables")
    m["concepts.image_target_set.calls"] = t.calls("concepts.image_target_set")
    m["concepts.rows.count"] = t.rows("concepts.build_concept_tables")
    m["concepts.retained.ratio"] = _ratio(
        _dig(manifest, "stages", "concepts", "retained_after_rare_filter"),
        _dig(manifest, "stages", "concepts", "candidates"),
    )

    draws = ("sampling.draw_bootstrap", "sampling.draw_baseline_bootstrap")
    m["sampling.draw.s"] = t.s(*draws)
    m["sampling.draw.calls"] = t.calls(*draws)
    m["sampling.draw_rows.s"] = t.s("sampling.draw_rows")
    m["sampling.rows_drawn.count"] = t.rows(*draws)
    m["sampling.compute_budget.s"] = t.s("sampling.compute_budget")
    m["sampling.filter_rare_concepts.s"] = t.s("sampling.filter_rare_concepts")

    for name in ("average_precision", "auc_roc"):
        m[f"metrics.{name}.s"] = t.s(f"metrics.{name}")
        m[f"metrics.{name}.calls"] = t.calls(f"metrics.{name}")
        m[f"metrics.{name}.rows"] = t.rows(f"metrics.{name}")
    m["metrics.confusion_at_threshold.s"] = t.s("metrics.confusion_at_threshold")
    m["metrics.confusion_at_threshold.calls"] = t.calls("metrics.confusion_at_threshold")
    m["metrics.select_threshold.s"] = t.s("metrics.select_threshold")
    m["metrics.select_threshold.rows"] = t.rows("metrics.select_threshold")
    m["metrics.split_validation_test.s"] = t.s("metrics.split_validation_test")
    m["metrics.hit_vector.s"] = t.s("metrics.hit_vector")
    # Confusion passes outside threshold selection, per (draw or full sample)
    # x group evaluation of every evaluated concept.
    evaluated = _dig(manifest, "stages", "concepts", "retained_after_rare_filter")
    skipped = _dig(manifest, "stages", "concepts", "skipped")
    groups = _dig(manifest, "stages", "group_assignment", "groups")
    boots = _dig(manifest, "stages", "evaluation", "bootstraps")
    evals = None
    if None not in (evaluated, skipped, groups, boots):
        evals = (evaluated - len(skipped)) * len(groups) * (boots + 1)
    m["metrics.confusion_per_eval.ratio"] = _ratio(
        t.calls_not_under("metrics.confusion_at_threshold", "metrics.select_threshold"), evals
    )

    m["disparity.per_concept_disparity.s"] = t.s("disparity.per_concept_disparity")
    m["disparity.aggregate_disparity.s"] = t.s("disparity.aggregate_disparity")
    rows = list(csv.DictReader(io.StringIO(results_csv)))
    used = [int(r["bootstraps_used"]) for r in rows if r.get("bootstraps_used")]
    m["disparity.bootstraps_used.ratio"] = (
        _ratio(sum(used), len(used) * boots) if used and boots else None
    )

    m["pipeline.run_pipeline.s"] = t.s("pipeline.run_pipeline")
    m["pipeline.evaluate_concept.self_s"] = t.self_s("pipeline.evaluate_concept")
    m["pipeline.evaluate_hit_rate.self_s"] = t.self_s("pipeline.evaluate_hit_rate")
    m["pipeline.write_outputs.s"] = t.s("pipeline.write_outputs")
    m["pipeline.unattributed_s"] = t.self_s("pipeline.run_pipeline")
    m["config.load_config.s"] = t.s("config.load_config")
    return m


class Measurement:
    """One workload at one seed: inputs, children, gate outcomes, metrics."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / workload.name
        self.children: list[Child] = []
        self.failures: list[str] = []
        self.first_digest: dict | None = None
        self.layer_samples: list[dict] = []
        self.trace_docs: list[dict] = []
        self.speedometer: Speedometer | None = None

    def _remaining(self, start: float) -> float:
        return INVOCATION_LIMIT_S - (perf_counter() - start)

    def _launch(self, kind: str, argv: list[str], start: float) -> Child:
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self._remaining(start)))
        child = spawn(kind, argv, timeout, self.dir / f"{kind}.log", self.speedometer)
        self.children.append(child)
        if child.timed_out:
            self.failures.append(f"{kind} #{len(self.children)} timed out after {timeout:.0f} s")
        elif child.code != 0:
            log = (self.dir / f"{kind}.log").read_text(encoding="utf-8", errors="replace")
            self.failures.append(f"{kind} #{len(self.children)} exited {child.code}: {log[-400:]}")
        return child

    def _gate(self, child: Child) -> bool:
        """Reference and repeat checks on the artifacts a run just wrote."""
        from gate import artifact_digest, check_against_reference

        if child.code != 0 or child.timed_out:
            return False
        out = self.dir / "out"
        problems = check_against_reference(self.reference, out)
        digest = artifact_digest(out)
        if self.first_digest is None:
            if not problems:
                self.first_digest = digest
        elif digest != self.first_digest:
            changed = sorted(
                k for k in digest.keys() | self.first_digest.keys()
                if digest.get(k) != self.first_digest.get(k)
            )
            problems.append(f"artifacts differ from the first repeat: {', '.join(changed)}")
        if problems:
            self.failures.append(
                f"{child.kind} #{len(self.children)} failed the gate: " + "; ".join(problems[:5])
            )
            return False
        return True

    def run(self) -> None:
        from workloads import write_inputs

        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.inputs = write_inputs(self.workload, self.seed, self.dir)
        self.reference = REFERENCE / self.workload.name / str(self.inputs["scenario"])
        config = str(self.dir / "config.json")
        run_argv = [sys.executable, "-m", "disparity_audit", "run", "--config", config]
        setup_argv = [sys.executable, str(HERE / "probe.py"), "setup", config]
        trace_path = self.dir / "trace.json"
        trace_argv = [sys.executable, str(HERE / "probe.py"), "trace", config, str(trace_path)]

        start = perf_counter()
        with contextlib.nullcontext() if self.trace else self._time_shared():
            while self._remaining(start) > 0 and (
                perf_counter() - start < self.seconds
                or self.count("run") < MIN_RUNS
                or (self.trace and self.count("trace") == 0)
            ):
                self._launch("setup", setup_argv, start)
                shutil.rmtree(self.dir / "out", ignore_errors=True)
                self._gate(self._launch("run", run_argv, start))
                if self.trace:
                    shutil.rmtree(self.dir / "out", ignore_errors=True)
                    trace_path.unlink(missing_ok=True)
                    child = self._launch("trace", trace_argv, start)
                    self._gate(child)
                    if child.code == 0 and trace_path.is_file():
                        self._collect_trace(trace_path)

    @contextlib.contextmanager
    def _time_shared(self):
        """Pin this process, and so the children it starts, to one vCPU and
        run the reference loop there (each vCPU of a shared host drifts on
        its own)."""
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})
        try:
            with Speedometer(max(cpus), self.dir / "speed.bin") as self.speedometer:
                yield
        finally:
            self.speedometer = None
            os.sched_setaffinity(0, cpus)

    def count(self, kind: str) -> int:
        return sum(1 for c in self.children if c.kind == kind)

    def ok(self, kind: str) -> list[Child]:
        return [c for c in self.children if c.kind == kind and c.code == 0 and not c.timed_out]

    def _collect_trace(self, trace_path: Path) -> None:
        with trace_path.open(encoding="utf-8") as f:
            doc = json.load(f)
        out = self.dir / "out"
        with (out / "manifest.json").open(encoding="utf-8") as f:
            manifest = json.load(f)
        self.trace_docs.append(doc)
        self.layer_samples.append(layer_metrics(
            TraceView(doc), self.inputs, manifest,
            (out / "results.csv").read_text(encoding="utf-8"),
        ))

    @property
    def attempted(self) -> int:
        return len(self.children)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def end_to_end(self) -> dict[str, float | None]:
        """Medians over the untraced repeats: CPU times at nominal host speed
        (``None`` in a traced set, which runs no reference loop)."""
        runs, setups = self.ok("run"), self.ok("setup")
        return {
            "cpu_s": _median([c.nominal_cpu_s for c in runs if c.nominal_cpu_s is not None]),
            "setup_s": _median([c.nominal_cpu_s for c in setups if c.nominal_cpu_s is not None]),
            "peak_rss_mb": _median([c.peak_rss_mb for c in runs]),
        }

    def raw(self) -> dict[str, float | None]:
        """Medians of the times as the host ran them, for the report."""
        runs, setups = self.ok("run"), self.ok("setup")
        return {
            "wall_s": _median([c.wall_s for c in runs]),
            "cpu_s": _median([c.cpu_s for c in runs]),
            "setup_wall_s": _median([c.wall_s for c in setups]),
            "setup_cpu_s": _median([c.cpu_s for c in setups]),
            "speed": _median([c.speed for c in runs + setups if c.speed is not None]),
        }

    def per_layer(self) -> dict[str, float | None]:
        """Medians over the traced runs; tracing overhead is the median
        traced wall time minus the median untraced one, from interleaved runs."""
        out = {}
        for name, _, _ in PER_LAYER:
            values = [s[name] for s in self.layer_samples if s.get(name) is not None]
            out[name] = _median(values)
        traced = _median([c.wall_s for c in self.ok("trace")])
        untraced = _median([c.wall_s for c in self.ok("run")])
        if traced is not None and untraced is not None:
            out["trace.overhead_s"] = traced - untraced
        return out

    def report(self) -> dict:
        samples = {
            kind: [dict(c.__dict__, nominal_cpu_s=c.nominal_cpu_s)
                   for c in self.children if c.kind == kind]
            for kind in ("setup", "run", "trace")
        }
        return {
            "workload": self.workload.name,
            "why": self.workload.why,
            "inputs": self.inputs,
            "environment": environment(),
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_rate": self.failed / self.attempted if self.attempted else None,
            "failures": self.failures,
            "end_to_end": self.end_to_end(),
            "raw": self.raw(),
            "per_layer": self.per_layer() if self.trace else None,
            "samples": samples,
            "traces": self.trace_docs,
        }


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _print_workload(m: Measurement) -> None:
    runs = [c.wall_s for c in m.ok("run")]
    setups = [c.wall_s for c in m.ok("setup")]
    print(f"workload {m.workload.name}: seed {m.seed}, scenario {m.inputs['scenario']}, "
          f"{len(runs)} runs, {len(setups)} set-up probes, "
          f"{m.count('trace')} traced runs")
    env, sha = environment(), m.inputs["sha256"]
    print(f"  python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}; "
          f"input {m.inputs['input_mb']:.1f} MB, annotations sha256 "
          f"{sha['annotations.jsonl'][:12]}, predictions sha256 {sha['predictions.jsonl'][:12]}")
    e2e, raw = m.end_to_end(), m.raw()
    for name, unit in END_TO_END_UNITS.items():
        value = e2e[name]
        text = "n/a" if value is None else f"{value:.4f}"
        print(f"  {name:<14} {text:>12} {unit}")
    for name, unit in RAW_UNITS.items():
        value = raw[name]
        text = "n/a" if value is None else f"{value:.4f}"
        print(f"  {'raw ' + name:<18} {text:>8} {unit}")
    lo, hi = _quartiles(runs)
    if lo is not None:
        print(f"  {'raw wall q1-q3':<14} {lo:>12.4f} - {hi:.4f} s")
    print(f"  {'fail_rate':<14} {m.failed / max(m.attempted, 1):>12.4f} "
          f"({m.failed} of {m.attempted} children)")
    for failure in m.failures:
        print(f"  FAIL {failure}")
    if m.trace:
        layers = m.per_layer()
        for name, unit, _ in PER_LAYER:
            value = layers[name]
            text = "absent" if value is None else f"{value:.6g}"
            print(f"  {name:<38} {text:>12} {unit}")
        total, rest = layers["pipeline.run_pipeline.s"], layers["pipeline.unattributed_s"]
        if total and rest is not None:
            print(f"  unattributed share of run_pipeline: {rest / total:.2%}")


def _require_source() -> None:
    if not (ROOT / "src" / "disparity_audit" / "__init__.py").is_file():
        print(f"perfbench: no disparity_audit package under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import disparity_audit.cli  # noqa: F401  (also writes the bytecode the children use)

    origin = Path(disparity_audit.cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        print(f"perfbench: imported disparity_audit from {origin}, not {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="skew, wide, deep or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops the child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _require_source()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or args.seconds <= 0:
        parser.error(f"unknown workload {unknown[0]!r}" if unknown else "--seconds must be > 0")

    done = []
    for name in names:
        m = Measurement(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        m.run()
        with (WORK / f"BENCH_{name}.json").open("w", encoding="utf-8") as f:
            json.dump(m.report(), f, indent=1, sort_keys=True)
        _print_workload(m)
        done.append(m)

    units = END_TO_END_UNITS if not args.trace else {n: u for n, u, _ in PER_LAYER}
    metrics = {}
    for m in done:
        values = m.per_layer() if args.trace else m.end_to_end()
        prefix = f"{m.workload.name}." if len(done) > 1 else ""
        for name, unit in units.items():
            # an absent per-layer metric reads 0 here and "absent" above
            value = values[name]
            metrics[prefix + name] = {"value": 0 if value is None else value, "unit": unit}
    failed = sum(m.failed for m in done)
    e2e_missing = not args.trace and any(
        v is None for m in done for v in m.end_to_end().values()
    )
    correct = failed == 0 and not e2e_missing
    print(json.dumps({
        "correct": correct,
        "attempted": sum(m.attempted for m in done),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
