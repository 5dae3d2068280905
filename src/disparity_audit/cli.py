"""Command-line interface.

Subcommands mirror the pipeline stages so each is independently runnable:
assign-groups, map, sample-plan, evaluate, compare, report, synth, and run
(the full pipeline).

Exit codes: 0 success, 2 config error, 3 data error or a file that cannot
be read or written, 4 internal invariant violation. Set DISPARITY_AUDIT_LOG
to control log verbosity.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .concepts import image_target_set
from .config import load_config
from .data import load_annotations, read_json_object
from .errors import AuditError, ConfigError, DataError
from .groups import assign_groups, assignment_summary
from .pipeline import (
    compare_results,
    load_dataset,
    plan_concepts,
    read_results_csv,
    render_report,
    run_pipeline,
    write_assignments_csv,
    write_compare_csv,
    write_outputs,
    write_plot_data,
    write_results_csv,
)

log = logging.getLogger("disparity_audit")


def _configure_logging() -> None:
    level_name = os.environ.get("DISPARITY_AUDIT_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load(args):
    cfg = load_config(
        args.config, preset=args.preset, seed=args.seed, output_dir=args.output
    )
    images = load_annotations(cfg.annotations)
    if cfg.drop_unlabeled:
        images = [img for img in images if img.has_labels]
    return cfg, images


def _cmd_assign_groups(args) -> int:
    cfg, images = _load(args)
    assignments = assign_groups(images, cfg.group_rule)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    path = out / "assignments.csv"
    write_assignments_csv(assignments, path)
    summary = assignment_summary(assignments, groups=cfg.group_rule.groups)
    print(json.dumps({"assignments": str(path), "summary": summary}, sort_keys=True, indent=2))
    return 0


def _cmd_map(args) -> int:
    cfg, images = _load(args)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    path = out / "targets.jsonl"
    with path.open("w", encoding="utf-8") as f:
        for img in sorted(images, key=lambda i: i.image_id):
            targets = sorted(image_target_set(img, cfg.mapping, strict=cfg.strict_mapping))
            f.write(json.dumps({"image_id": img.image_id, "targets": targets}) + "\n")
    print(f"wrote {path}")
    return 0


def _cmd_sample_plan(args) -> int:
    cfg = load_config(args.config, preset=args.preset, seed=args.seed, output_dir=args.output)
    images, predictions, _ = load_dataset(cfg)
    plan = plan_concepts(images, assign_groups(images, cfg.group_rule), predictions, cfg)
    plans: dict[str, dict] = {}
    for c, counts in plan.counts.items():
        entry: dict = {
            "retained": c in plan.sized or c in plan.skipped,
            "pools": {g: list(n) for g, n in counts.items()},
        }
        if c in plan.skipped:
            entry["skip_reason"] = plan.skipped[c]
        if c in plan.sized:
            entry["evaluated"] = {g: [p.n_pos, p.n_neg] for g, p in plan.sized[c].pools.items()}
            if plan.sized[c].budget is not None:
                entry["budget"] = list(plan.sized[c].budget)
        plans[c] = entry
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sample_plan.json"
    with path.open("w", encoding="utf-8") as f:
        json.dump(
            {"mode": cfg.sampling_mode, "ratio": list(cfg.ratio),
             "min_per_group": cfg.min_per_group, "concepts": plans},
            f, sort_keys=True, indent=2,
        )
        f.write("\n")
    print(f"wrote {path}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = load_config(args.config, preset=args.preset, seed=args.seed, output_dir=args.output)
    estimates, _, _ = run_pipeline(cfg)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.output_dir / "results.csv"
    write_results_csv(estimates, cfg.evaluation_version, path)
    print(f"wrote {path}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config, preset=args.preset, seed=args.seed, output_dir=args.output)
    paths = write_outputs(run_pipeline(cfg), cfg)
    report = paths["report"].read_text(encoding="utf-8")
    sys.stdout.write(report)
    print(json.dumps({k: str(v) for k, v in paths.items()}, sort_keys=True, indent=2))
    return 0


def _cmd_compare(args) -> int:
    rows_a = read_results_csv(args.a)
    rows_b = read_results_csv(args.b)
    delta = compare_results(rows_a, rows_b)
    out_path = Path(args.out) if args.out else None
    if out_path:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_compare_csv(delta, out_path)
        print(f"wrote {out_path}")
    flips = [d for d in delta if d["sign_flip"]]
    print(f"{len(delta)} shared rows, {len(flips)} sign flip(s)")
    for d in flips:
        print(
            f"  {d['metric']} {d['concept']} ({d['group_a']} vs {d['group_b']}): "
            f"{d['point_a']:+.4f} -> {d['point_b']:+.4f}"
        )
    return 0


def _manifest_accounting(path: str) -> dict:
    """A manifest file's image accounting (``stages.group_assignment.summary``),
    ``{}`` if it has none; a data error names the file and the first key on
    that path whose value is not an object."""
    node = read_json_object(path, "manifest")
    for key in ("stages", "group_assignment", "summary"):
        node = node.get(key, {})
        if not isinstance(node, dict):
            what = type(node).__name__
            raise DataError(f"manifest file {path}: {key!r} must hold a JSON object, got {what}")
    return node


def _cmd_report(args) -> int:
    if args.top_n < 0:
        raise ConfigError(f"--top-n must be >= 0, got {args.top_n}")
    rows = read_results_csv(args.results)
    accounting = _manifest_accounting(args.manifest) if args.manifest else None
    text = render_report(rows, top_n=args.top_n, accounting=accounting)
    if args.output:
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        write_plot_data(rows, out / "plotdata")
        (out / "report.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def _cmd_synth(args) -> int:
    from .synth import ScenarioSpec, generate  # only this subcommand needs it

    spec = ScenarioSpec.from_file(args.scenario)
    if args.seed is not None:
        spec = ScenarioSpec(concepts=spec.concepts, seed=args.seed)
    images, assignments, predictions = generate(spec)
    out = Path(args.output or "synth_out")
    out.mkdir(parents=True, exist_ok=True)
    ann_path = out / "annotations.jsonl"
    with ann_path.open("w", encoding="utf-8") as f:
        for img in images:
            f.write(json.dumps({
                "image_id": img.image_id,
                "labels": sorted(img.direct_labels),
                "metadata": dict(img.metadata),
            }, sort_keys=True) + "\n")
    pred_path = out / "predictions.jsonl"
    with pred_path.open("w", encoding="utf-8") as f:
        for p in predictions:
            f.write(json.dumps({"image_id": p.image_id, "scores": p.scores}, sort_keys=True) + "\n")
    write_assignments_csv(assignments, out / "assignments.csv")
    groups = sorted(set(assignments.values()))
    region_path = out / "region_identity.json"
    with region_path.open("w", encoding="utf-8") as f:
        json.dump({"country_to_group": {g: g for g in groups}}, f, sort_keys=True, indent=2)
        f.write("\n")
    print(json.dumps({
        "annotations": str(ann_path), "predictions": str(pred_path),
        "assignments": str(out / "assignments.csv"), "region": str(region_path),
        "images": len(images),
    }, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disparity-audit",
        description="Per-concept, per-group disparity audits for multi-label classifiers",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--output", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--preset", default=None,
                       help="evaluation version preset (baseline|v1|v2|v3|reliable)")

    add_common(sub.add_parser("assign-groups", help="write group assignments CSV"))
    add_common(sub.add_parser("map", help="write per-image target sets"))
    add_common(sub.add_parser("sample-plan", help="write the per-concept evaluation plan"))
    add_common(sub.add_parser("evaluate", help="compute results.csv only"))
    add_common(sub.add_parser("run", help="full pipeline with all artifacts"))

    p = sub.add_parser("compare", help="diff two results tables")
    p.add_argument("--a", required=True, help="first results.csv")
    p.add_argument("--b", required=True, help="second results.csv")
    p.add_argument("--out", default=None, help="write the delta table CSV here")

    p = sub.add_parser("report", help="summarize a results table")
    p.add_argument("--results", required=True, help="results.csv path")
    p.add_argument("--manifest", default=None, help="manifest.json for accounting")
    p.add_argument("--output", default=None, help="directory for report.txt and plotdata/")
    p.add_argument("--top-n", type=int, default=5, dest="top_n")

    p = sub.add_parser("synth", help="generate a synthetic dataset from a scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--output", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="seed override")

    return parser


_COMMANDS = {
    "assign-groups": _cmd_assign_groups,
    "map": _cmd_map,
    "sample-plan": _cmd_sample_plan,
    "evaluate": _cmd_evaluate,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "report": _cmd_report,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"[{args.command}] config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"[{args.command}] data error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        where = "" if e.filename is None else f"{e.filename}: "
        print(f"[{args.command}] file error: {where}{e.strerror or e}", file=sys.stderr)
        return 3
    except AuditError as e:
        print(f"[{args.command}] internal error: {e}", file=sys.stderr)
        return 4


def entry() -> int:
    """``main()`` for a process of its own: ``python -m disparity_audit`` and
    the ``disparity-audit`` script.

    The objects made by importing numpy, the stdlib and this package live
    until the process exits; freezing them first keeps every full collection,
    during the run and at exit, from walking them again. ``main()`` called
    as a library does not freeze its caller's heap.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
