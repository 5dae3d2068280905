"""Child-process entry points for the benchmark.

    python3 probe.py setup CONFIG
        Load the config and the dataset, then exit at once. The parent times
        the whole process: interpreter start, imports, and ingest.

    python3 probe.py trace CONFIG TRACE_JSON
        Run ``disparity-audit run --config CONFIG`` with every public function
        of the layer modules wrapped in a timing span, then write the
        aggregated spans to TRACE_JSON.

The package is imported from ``PYTHONPATH``, which the parent points at the
checkout's ``src`` directory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("data", "groups", "concepts", "sampling", "metrics", "disparity", "pipeline", "config")


def _len_first(args, kwargs, result):
    return len(args[0] if args else kwargs["scores"])


def _rows_drawn(args, kwargs, result):
    return sum(
        len(d.positive_indices) + len(d.negative_indices) for d in result.values()
    )


def _table_rows(args, kwargs, result):
    return sum(t.n_pos(g) + t.n_neg(g) for t in result.values() for g in t.pools)


# Row counters, keyed by traced name. A counter that no longer fits the
# function's signature or return value is reported as absent.
ROW_COUNTERS = {
    "metrics.average_precision": _len_first,
    "metrics.auc_roc": _len_first,
    "metrics.select_threshold": _len_first,
    "sampling.draw_bootstrap": _rows_drawn,
    "sampling.draw_baseline_bootstrap": _rows_drawn,
    "concepts.build_concept_tables": _table_rows,
}


class Tracer:
    """Aggregated spans: per function calls, inclusive and self seconds;
    per (parent, child) edge calls and inclusive seconds."""

    def __init__(self):
        self.stack: list[list] = []
        self.functions: dict[str, list] = {}
        self.edges: dict[tuple[str, str], list] = {}
        self.rows: dict[str, int] = {}
        self.broken_counters: set[str] = set()

    def wrap(self, name: str, fn):
        counter = ROW_COUNTERS.get(name)
        stack, functions, edges = self.stack, self.functions, self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                stats = functions.setdefault(name, [0, 0.0, 0.0])
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                edge = edges.setdefault((parent[0] if parent else "", name), [0, 0.0])
                edge[0] += 1
                edge[1] += elapsed
            if counter is not None and name not in self.broken_counters:
                try:
                    self.rows[name] = self.rows.get(name, 0) + counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.broken_counters.add(name)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap the public functions of every layer module, in every
        package namespace that holds them. Returns the traced names."""
        importlib.import_module("disparity_audit.cli")
        originals: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"disparity_audit.{layer}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    originals[id(value)] = (f"{layer}.{attr}", value)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in originals.items()}
        namespaces = [
            m for n, m in sys.modules.items()
            if n == "disparity_audit" or n.startswith("disparity_audit.")
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
        return sorted(name for name, _ in originals.values())

    def dump(self, path: str, traced: list[str], exit_code: int) -> None:
        doc = {
            "exit_code": exit_code,
            "traced": traced,
            "functions": {
                n: {"calls": c, "s": s, "self_s": own}
                for n, (c, s, own) in sorted(self.functions.items())
            },
            "edges": [
                {"parent": p, "child": c, "calls": k, "s": s}
                for (p, c), (k, s) in sorted(self.edges.items())
            ],
            "rows": {n: r for n, r in sorted(self.rows.items()) if n not in self.broken_counters},
            "broken_counters": sorted(self.broken_counters),
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        from disparity_audit.config import load_config
        from disparity_audit.pipeline import load_dataset

        load_dataset(load_config(argv[1]))
        os._exit(0)  # skip interpreter teardown: it is not set-up work
    if mode == "trace":
        tracer = Tracer()
        traced = tracer.install()
        from disparity_audit.cli import main as cli_main

        code = cli_main(["run", "--config", argv[1]])
        tracer.dump(argv[2], traced, code)
        return code
    print(f"unknown probe mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
