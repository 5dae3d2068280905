"""Pipeline orchestration: assign groups, map concepts, filter and sample,
compute metrics, reduce to disparities, and write deterministic artifacts.

Every stage is a pure function of (inputs, config, seed); output files are
byte-identical across runs with the same inputs.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .concepts import map_targets
from .config import THRESHOLD_METRICS, RunConfig, config_hash
from .data import (
    EXCLUSION_REASONS,
    AnnotatedImage,
    ScoreMatrix,
    _check_utf8,
    load_annotations,
    load_predictions,
    validate_dataset,
)
from .disparity import MetricEstimate, pair_disparity, significance_flag
from .errors import DataError, InvariantError
from .groups import assign_groups, assignment_summary
from .metrics import (
    RankedPool,
    hit_vector,
    rank_pool,
    ranked_metrics,
    select_threshold,
    split_validation_test,
)
from .sampling import compute_budget, derive_seed, draw_rows

log = logging.getLogger("disparity_audit.pipeline")

RESULT_COLUMNS = [
    "metric", "concept", "group_a", "group_b", "point", "ci_low", "ci_high",
    "significant", "n_pos_per_group", "n_neg_per_group", "bootstraps_used",
    "evaluation_version", "full_sample",
]


def load_dataset(cfg: RunConfig) -> tuple[list[AnnotatedImage], ScoreMatrix, dict[str, int]]:
    """Load and cross-validate both files, then apply the unlabeled-image drop.

    Returns the images and predictions the run uses, and the manifest's
    ingest block. Predictions are resolved against the full ingested set
    first (referential integrity is a property of the files), and records
    for dropped images are discarded alongside them.
    """
    images = load_annotations(cfg.annotations)
    predictions = load_predictions(cfg.predictions, images)
    ingest = {"images_loaded": len(images), **validate_dataset(images, predictions)}
    unlabeled = ingest["images_without_labels"] if cfg.drop_unlabeled else 0
    if unlabeled:
        predictions = predictions.without({img.image_id for img in images if not img.has_labels})
        images = [img for img in images if img.has_labels]
        log.info("dropped %d image(s) without labels", unlabeled)
    ingest.update(
        images_dropped_unlabeled=unlabeled,
        images_used=len(images),
        prediction_records=len(predictions),
    )
    return images, predictions, ingest


def evaluate_concept(
    concept: str,
    sizing: ConceptSizing,
    *,
    metrics: Sequence[str],
    bootstraps: int,
    seed: int,
) -> tuple[dict[tuple[str, str], np.ndarray], dict[tuple[str, str], float | None]]:
    """Bootstrap one concept's metrics (ranking and threshold metrics, not
    ``hit_rate``) for every group, as its ``ConceptSizing`` says.

    Each group's ranked pool scores its draws and then the identity draw,
    the full sample, in one ``ranked_metrics`` call; nothing is ranked
    here. With a ``budget`` each draw takes that many positives and
    negatives from every group; without, each group is resampled whole.
    Returns the per-bootstrap values and the full-sample value (``None``
    where undefined), both keyed (metric, group).
    """
    values: dict[tuple[str, str], np.ndarray] = {}
    full_sample: dict[tuple[str, str], float | None] = {}
    for g, pool in sizing.pools.items():
        n = pool.rank_of_row.size
        if sizing.budget is not None:
            sizes = [(pool.n_pos, sizing.budget[0]), (pool.n_neg, sizing.budget[1])]
            draws = draw_rows((seed, "draw", concept, g), bootstraps, sizes)
        else:
            draws = draw_rows((seed, "baseline", concept, g), bootstraps, [(n, n)])
        try:
            scored = ranked_metrics(pool, itertools.chain(draws, [np.arange(n)[None]]), metrics)
        except InvariantError as e:
            raise InvariantError(f"concept {concept!r} group {g!r}: {e}") from e
        for m, v in scored.items():
            values[(m, g)] = v[:-1]
            full_sample[(m, g)] = None if np.isnan(v[-1]) else float(v[-1])
    return values, full_sample


def _pairs(groups: Sequence[str]) -> list[tuple[str, str]]:
    return [(a, b) for i, a in enumerate(groups) for b in groups[i + 1:]]


def evaluate_tables(plan: ConceptPlan, cfg: RunConfig) -> list[MetricEstimate]:
    """Evaluate the concepts the plan sized and reduce to per-concept and
    aggregate disparity estimates for every pair of the run's groups, in the
    group rule's order."""
    point_metrics = [m for m in cfg.metrics if m != "hit_rate"]
    evaluations = {
        c: evaluate_concept(c, s, metrics=point_metrics, bootstraps=cfg.bootstraps, seed=cfg.seed)
        for c, s in plan.sized.items()
    }
    estimates: list[MetricEstimate] = []
    for metric in point_metrics:
        for a, b in _pairs(cfg.group_rule.groups):
            for concept, (values, full_sample) in evaluations.items():
                s = plan.sized[concept]
                fs_a = full_sample[(metric, a)]
                fs_b = full_sample[(metric, b)]
                estimates.append(pair_disparity(
                    values[(metric, a)], values[(metric, b)],
                    metric=metric, concept=concept, group_a=a, group_b=b,
                    sample_sizes={g: s.budget or (p.n_pos, p.n_neg) for g, p in s.pools.items()},
                    full_sample=None if fs_a is None or fs_b is None else fs_a - fs_b,
                ))
            if evaluations:
                estimates.append(pair_disparity(
                    np.stack([values[(metric, a)] for values, _ in evaluations.values()]),
                    np.stack([values[(metric, b)] for values, _ in evaluations.values()]),
                    metric=metric, concept="aggregate", group_a=a, group_b=b,
                    sample_sizes={},
                ))
    return estimates


def evaluate_hit_rate(plan: ConceptPlan, cfg: RunConfig) -> list[MetricEstimate]:
    """Top-k hit rate per group, from the plan's hit values, with full-pool
    bootstrap CIs on pair differences; a plan without hit values gives no
    estimate."""
    # Draws are keyed per group, so each group's means serve every pair.
    boots: dict[str, np.ndarray] = {}
    for g, hits in plan.hits.items():
        if hits.size == 0:
            continue
        blocks = draw_rows((cfg.seed, "hit_rate", g), cfg.bootstraps, [(hits.size, hits.size)])
        boots[g] = np.concatenate([hits.take(rows).mean(axis=1) for rows in blocks])

    estimates: list[MetricEstimate] = []
    for a, b in _pairs(list(plan.hits)):
        if a not in boots or b not in boots:
            log.warning("hit rate: empty pool for pair (%s, %s); skipped", a, b)
            continue
        estimates.append(pair_disparity(
            boots[a], boots[b],
            metric="hit_rate", concept="aggregate", group_a=a, group_b=b,
            sample_sizes={a: (plan.hits[a].size, 0), b: (plan.hits[b].size, 0)},
            full_sample=float(plan.hits[a].mean() - plan.hits[b].mean()),
        ))
    return estimates


@dataclass(frozen=True)
class ConceptSizing:
    """How one concept is evaluated: each group's pool of the rows its
    draws sample from, ranked at the group's threshold, in the group rule's
    order; each group's decision threshold (``{}`` when no threshold metric
    is requested); and in a reliable run the per-group budget."""

    pools: dict[str, RankedPool]
    thresholds: dict[str, float]
    budget: tuple[int, int] | None


def size_concept(
    concept: str, pools: Mapping[str, tuple[np.ndarray, np.ndarray, int]], cfg: RunConfig
) -> ConceptSizing:
    """Split, threshold, budget and rank one concept's group pools, in the
    order given: the plan's, the group rule's.

    A group's pool is its scored rows' ``(scores, image_rows, n_pos)``: the
    ``n_pos`` positives come first, each class in image-id order, and
    ``image_rows`` index the target matrix, which is in image-id order, so
    they break score ties as the ids would. With threshold metrics, each
    group's rows are split into validation and test rows; thresholds are
    selected on the validation rows, of all groups at once (``pooled``) or
    of one group at a time (``per_group``), and only the test rows are kept.
    The split gives ascending rows, so the kept rows keep their positives
    first. The budget is computed from the kept rows. Only then is each
    group's pool of kept rows ranked, once (``rank_pool``), so a concept
    that is skipped ranks none.

    Raises:
        DataError: when threshold selection has no validation row or no
            positive one (naming the concept and the groups in scope), or
            else when no budget fits every group.
    """
    kept = {g: np.arange(scores.size) for g, (scores, _, _) in pools.items()}
    thresholds: dict[str, float] = {}
    if any(m in THRESHOLD_METRICS for m in cfg.metrics):
        validation: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for g, (scores, _, n_pos) in pools.items():
            val, kept[g] = split_validation_test(
                kept[g] < n_pos, cfg.validation_fraction, derive_seed(cfg.seed, "split", concept, g)
            )
            validation[g] = (scores[val], val < n_pos)
        scopes = [list(pools)] if cfg.threshold_scope == "pooled" else [[g] for g in pools]
        for scope in scopes:
            try:
                threshold, _ = select_threshold(
                    np.concatenate([validation[g][0] for g in scope]),
                    np.concatenate([validation[g][1] for g in scope]),
                )
            except DataError as e:
                named = f"group{'s' if len(scope) > 1 else ''} {', '.join(map(repr, scope))}"
                raise DataError(f"concept {concept!r}: {named}: {e}") from e
            thresholds.update(dict.fromkeys(scope, threshold))
    budget = None
    if cfg.sampling_mode == "reliable":
        kept_pos = {g: int(np.searchsorted(rows, pools[g][2])) for g, rows in kept.items()}
        budget = compute_budget(
            concept, {g: (p, kept[g].size - p) for g, p in kept_pos.items()}, cfg.ratio
        )
    ranked = {
        g: rank_pool(scores[kept[g]], kept[g] < n_pos, image_rows[kept[g]], thresholds.get(g))
        for g, (scores, image_rows, n_pos) in pools.items()
    }
    return ConceptSizing(pools=ranked, thresholds=thresholds, budget=budget)


@dataclass
class ConceptPlan:
    """How each concept is evaluated, and each group's top-k hits.

    ``counts`` maps each candidate and each group to the ``(n_pos, n_neg)``
    scored rows of its pool; ``unscored`` are the targets no prediction
    scores. Each candidate that passes the rare-label rule on those counts
    is retained, and then either ``sized`` for evaluation, its pools ranked
    (``size_concept``), or ``skipped`` with the reason. ``hits`` holds each group's ``hit_vector`` values, in
    the group rule's order, when ``hit_rate`` is requested, and is empty
    otherwise.
    """

    counts: dict[str, dict[str, tuple[int, int]]]
    unscored: tuple[str, ...]
    sized: dict[str, ConceptSizing]
    skipped: dict[str, str]
    hits: dict[str, np.ndarray]


def plan_concepts(
    images: Sequence[AnnotatedImage],
    assignments: Mapping[str, str],
    predictions: ScoreMatrix,
    cfg: RunConfig,
) -> ConceptPlan:
    """Decide which concepts get evaluated, and how.

    Candidates are the targets of group-assigned images that some prediction
    scores. The counts of each group of the run's rule are column sums of
    the scored and target masks under its rows. A concept is retained when
    every group has at least ``min_per_group`` scored positives; a run
    whose only metric is ``hit_rate`` evaluates no concept, so it retains
    none. Each retained concept's group pools are taken from those masks: a
    group's scored rows, positives then negatives, each in image-id order.
    An image that lacks the concept's score is omitted; one warning sums the
    omissions of every concept. The pools are sized and ranked with
    ``size_concept``; a concept that cannot be sized is skipped with a
    warning, and ranks no pool. With ``hit_rate``, each
    group's hits are then taken over every scored column.

    Raises:
        DataError: when a sized concept is named ``aggregate``, the name of
            the aggregate row.
    """
    targets = map_targets(
        images, assignments, predictions, cfg.mapping, strict=cfg.strict_mapping
    )
    if targets.unscored:
        log.warning(
            "%d target concept(s) have no scores and were dropped: %s",
            len(targets.unscored), ", ".join(targets.unscored[:10]),
        )
    scored = ~np.isnan(predictions.take_rows(targets.rows, targets.columns))
    positive = scored & targets.targets
    group_rows = {g: targets.groups == g for g in cfg.group_rule.groups}
    counts: dict[str, dict[str, tuple[int, int]]] = {c: {} for c in targets.concepts}
    for g, rows in group_rows.items():
        n_scored = np.count_nonzero(scored[rows], axis=0).tolist()
        n_pos = np.count_nonzero(positive[rows], axis=0).tolist()
        for c, p, n in zip(targets.concepts, n_pos, n_scored):
            counts[c][g] = (p, n - p)

    evaluates = any(m != "hit_rate" for m in cfg.metrics)
    retained = [
        c for c, by_group in counts.items()
        if evaluates and all(p >= cfg.min_per_group for p, _ in by_group.values())
    ]
    column_of = {c: j for j, c in enumerate(targets.concepts)}
    omitted = (len(scored) - np.count_nonzero(scored, axis=0)).tolist()
    gaps = {c: omitted[column_of[c]] for c in retained if omitted[column_of[c]]}
    if gaps:
        log.warning(
            "assigned images that lack a score were omitted from %d concept(s), %d in all: %s",
            len(gaps), sum(gaps.values()), ", ".join(list(gaps)[:10]),
        )
    for c, n in gaps.items():
        log.debug("concept %s: %d assigned image(s) lack a score and were omitted", c, n)
    sized: dict[str, ConceptSizing] = {}
    skipped: dict[str, str] = {}
    for c in retained:
        j = column_of[c]
        is_scored, is_pos = scored[:, j], positive[:, j]
        pools: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}
        for g, rows in group_rows.items():
            pos = np.flatnonzero(rows & is_pos)
            order = np.concatenate([pos, np.flatnonzero(rows & is_scored & ~is_pos)])
            pools[g] = (predictions.scores[targets.rows[order], targets.columns[j]], order, pos.size)
        try:
            sized[c] = size_concept(c, pools, cfg)
        except DataError as e:
            skipped[c] = str(e)
            log.warning("skipping concept %s: %s", c, e)
    if "aggregate" in sized:
        raise DataError(
            "concept 'aggregate' would be evaluated, but the name is reserved for the "
            "aggregate row"
        )
    hits: dict[str, np.ndarray] = {}
    if "hit_rate" in cfg.metrics:
        for g, rows in group_rows.items():
            scores = predictions.take_rows(targets.rows[rows])
            is_target = np.zeros(scores.shape, dtype=bool)
            is_target[:, targets.columns] = targets.targets[rows]
            hits[g] = hit_vector(scores, is_target, targets.has_targets[rows], cfg.k, group=g)
    return ConceptPlan(counts, targets.unscored, sized, skipped, hits)


def run_pipeline(cfg: RunConfig) -> tuple[list[MetricEstimate], dict[str, str], dict]:
    """Execute the full audit pipeline in memory: the estimates, each
    image's group outcome (``assign_groups``), and the manifest."""
    images, predictions, ingest = load_dataset(cfg)

    assignments = assign_groups(images, cfg.group_rule)
    groups = list(cfg.group_rule.groups)
    summary = assignment_summary(assignments, groups=groups)
    assigned = sum(summary[g] for g in groups)

    plan = plan_concepts(images, assignments, predictions, cfg)
    estimates = evaluate_tables(plan, cfg) + evaluate_hit_rate(plan, cfg)

    manifest = {
        "tool": "disparity-audit",
        "version": __version__,
        "config_hash": config_hash(cfg.raw),
        "config": cfg.raw,
        "seed": cfg.seed,
        "stages": {
            "ingest": ingest,
            "group_assignment": {
                "method": cfg.group_rule.method,
                "groups": groups,
                "summary": summary,
                "assigned_total": assigned,
                "excluded_total": len(assignments) - assigned,
            },
            "concepts": {
                "candidates": len(plan.counts),
                "unscored_targets": len(plan.unscored),
                "retained_after_rare_filter": len(plan.sized) + len(plan.skipped),
                "rare_filter_min_per_group": cfg.min_per_group,
                "skipped": plan.skipped,
            },
            "evaluation": {
                "metrics": list(cfg.metrics),
                "mode": cfg.sampling_mode,
                "ratio": list(cfg.ratio),
                "bootstraps": cfg.bootstraps,
                "evaluation_version": cfg.evaluation_version,
            },
        },
    }
    return estimates, assignments, manifest


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_sizes(sizes: Mapping[str, tuple[int, int]], which: int) -> str:
    if not sizes:
        return ""
    values = {g: s[which] for g, s in sizes.items()}
    distinct = set(values.values())
    if len(distinct) == 1:
        return str(next(iter(distinct)))
    return ";".join(f"{g}={values[g]}" for g in sorted(values))


def estimate_to_row(est: MetricEstimate, evaluation_version: str) -> dict[str, str]:
    return {
        "metric": est.metric,
        "concept": est.concept,
        "group_a": est.group_a,
        "group_b": est.group_b,
        "point": _fmt(est.point),
        "ci_low": _fmt(est.ci_low),
        "ci_high": _fmt(est.ci_high),
        "significant": _fmt(significance_flag(est)),
        "n_pos_per_group": _fmt_sizes(est.sample_sizes, 0),
        "n_neg_per_group": _fmt_sizes(est.sample_sizes, 1),
        "bootstraps_used": str(est.bootstraps_used),
        "evaluation_version": evaluation_version,
        "full_sample": _fmt(est.full_sample),
    }


def write_results_csv(
    estimates: Sequence[MetricEstimate], evaluation_version: str, path: Path
) -> None:
    rows = [estimate_to_row(e, evaluation_version) for e in estimates]
    rows.sort(key=lambda r: (r["metric"], r["concept"], r["group_a"], r["group_b"]))
    with path.open("w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=RESULT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _utf8_lines(lines: Iterable[str], path: Path) -> Iterator[str]:
    """The lines of a file read with ``errors="surrogateescape"``; the first
    that was not valid UTF-8 is a data error naming the file and line."""
    for line_no, line in enumerate(lines, 1):
        try:
            _check_utf8(line)
        except DataError as e:
            raise DataError(f"{path}:{line_no}: {e}") from None
        yield line


def read_results_csv(path: str | Path) -> list[dict]:
    """The rows of a results file, numbers parsed (``None`` when empty) and
    ``significant`` as a bool. Only the key columns (metric, concept, group
    pair) are required, so files written before a column was added load.

    Raises:
        DataError: naming the file, line and column of a missing key column
            or value, or of a value that is not a finite number; the file
            and line of a byte that is not valid UTF-8; or the file, line
            and earlier line of a repeated key row.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"results file not found: {path}")
    keys = ("metric", "concept", "group_a", "group_b")
    out: list[dict] = []
    line_of: dict[tuple[str, ...], int] = {}
    with path.open(encoding="utf-8", errors="surrogateescape", newline="") as f:
        reader = csv.DictReader(_utf8_lines(f, path))
        missing = [k for k in keys if k not in (reader.fieldnames or ())]
        if missing:
            raise DataError(f"{path}:1: missing column(s) {', '.join(map(repr, missing))}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            parsed = dict(row)
            for key in keys:
                if row[key] is None:
                    raise DataError(f"{where}: no value for column {key!r}")
            first = line_of.setdefault(tuple(row[k] for k in keys), reader.line_num)
            if first != reader.line_num:
                raise DataError(f"{where}: repeats the {', '.join(keys)} of line {first}")
            for key in ("point", "ci_low", "ci_high", "full_sample"):
                text = row.get(key)
                try:
                    parsed[key] = float(text) if text else None
                except ValueError:
                    parsed[key] = math.nan  # not a number: reported below, as nan is
                if parsed[key] is not None and not math.isfinite(parsed[key]):
                    raise DataError(f"{where}: column {key!r} is not a finite number: {text!r}")
            parsed["significant"] = row.get("significant") == "true"
            out.append(parsed)
    return out


def write_assignments_csv(
    assignments: Mapping[str, str], path: Path, only_excluded: bool = False
) -> None:
    items = assignments.items()
    if only_excluded:
        items = [(i, outcome) for i, outcome in items if outcome in EXCLUSION_REASONS]
    with path.open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["image_id", "outcome", "group_or_reason"])
        for image_id, outcome in sorted(items):
            excluded = outcome in EXCLUSION_REASONS
            writer.writerow([image_id, "excluded" if excluded else "assigned", outcome])


def _safe_name(text: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-._" else "_" for ch in text)


def write_plot_data(rows: Sequence[dict], out_dir: Path) -> list[Path]:
    """One CSV per (metric, group pair): (concept, point, ci_low, ci_high)
    sorted by point; the data behind ranked-disparity charts.

    Raises:
        DataError: before any file is written, naming the file and both
            keys when two (metric, group pair) keys map to one file name.
    """
    by_key: dict[tuple[str, str, str], list[dict]] = {}
    for row in rows:
        if row["concept"] == "aggregate" or row["point"] is None:
            continue
        by_key.setdefault((row["metric"], row["group_a"], row["group_b"]), []).append(row)
    key_of: dict[Path, tuple[str, str, str]] = {}
    for key in sorted(by_key):
        metric, a, b = key
        path = out_dir / f"{_safe_name(metric)}__{_safe_name(a)}_vs_{_safe_name(b)}.csv"
        other = key_of.setdefault(path, key)
        if other != key:
            raise DataError(f"plot data file {path} would hold both {other} and {key}")
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, key in key_of.items():
        items = sorted(by_key[key], key=lambda r: (r["point"], r["concept"]))
        with path.open("w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["concept", "point", "ci_low", "ci_high"])
            for r in items:
                writer.writerow([r["concept"], _fmt(r["point"]), _fmt(r["ci_low"]), _fmt(r["ci_high"])])
    return list(key_of)


def compare_results(rows_a: Sequence[dict], rows_b: Sequence[dict]) -> list[dict]:
    """Join two results tables on (metric, concept, group pair) and diff them."""
    def key(r):
        return (r["metric"], r["concept"], r["group_a"], r["group_b"])

    index_a = {key(r): r for r in rows_a}
    index_b = {key(r): r for r in rows_b}
    shared = sorted(set(index_a) & set(index_b))
    concepts_a = {k[1] for k in index_a}
    concepts_b = {k[1] for k in index_b}
    if not concepts_a & concepts_b:
        raise DataError("results share no concepts; nothing to compare")
    out: list[dict] = []
    for k in shared:
        pa = index_a[k]["point"]
        pb = index_b[k]["point"]
        if pa is None or pb is None:
            continue
        out.append(
            {
                "metric": k[0], "concept": k[1], "group_a": k[2], "group_b": k[3],
                "point_a": pa, "point_b": pb,
                "sign_flip": (pa > 0 > pb) or (pa < 0 < pb),
                "magnitude_delta": abs(pb) - abs(pa),
            }
        )
    return out


def write_compare_csv(rows: Sequence[dict], path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(
            ["metric", "concept", "group_a", "group_b", "point_a", "point_b",
             "sign_flip", "magnitude_delta"]
        )
        for r in rows:
            writer.writerow(
                [r["metric"], r["concept"], r["group_a"], r["group_b"],
                 _fmt(r["point_a"]), _fmt(r["point_b"]), _fmt(r["sign_flip"]),
                 _fmt(r["magnitude_delta"])]
            )


def _interval(row: dict) -> str:
    """``[ci_low, ci_high]`` of a results row; a bound the file leaves empty
    is blank."""
    low, high = ("" if v is None else f"{v:+.4f}" for v in (row["ci_low"], row["ci_high"]))
    return f"[{low}, {high}]"


def render_report(rows: Sequence[dict], top_n: int = 5, accounting: Mapping | None = None) -> str:
    """Human-readable summary: largest per-concept disparities per metric and
    group pair, aggregate rows, and the image ``accounting`` (a manifest's
    group-assignment summary) when available."""
    lines: list[str] = []
    if not rows:
        return "no results to report (empty results table)\n"
    by_metric_pair: dict[tuple[str, str, str], list[dict]] = {}
    aggregates: list[dict] = []
    for row in rows:
        if row["concept"] == "aggregate":
            aggregates.append(row)
        elif row["point"] is not None:
            by_metric_pair.setdefault(
                (row["metric"], row["group_a"], row["group_b"]), []
            ).append(row)

    for (metric, a, b), items in sorted(by_metric_pair.items()):
        items.sort(key=lambda r: (-abs(r["point"]), r["concept"]))
        lines.append(f"== {metric}: {a} vs {b} (positive favors {a}) ==")
        for r in items[:top_n]:
            star = " *" if r["significant"] else ""
            lines.append(f"  {r['concept']:<30} {r['point']:+.4f}  {_interval(r)}{star}")
        lines.append("")

    if aggregates:
        lines.append("== aggregate disparities ==")
        for r in sorted(aggregates, key=lambda r: (r["metric"], r["group_a"], r["group_b"])):
            if r["point"] is None:
                continue
            star = " *" if r["significant"] else ""
            lines.append(
                f"  {r['metric']:<10} {r['group_a']} vs {r['group_b']}: "
                f"{r['point']:+.4f}  {_interval(r)}{star}"
            )
        lines.append("")

    if accounting:
        lines.append("== image accounting ==")
        for key in sorted(accounting):
            lines.append(f"  {key:<22} {accounting[key]}")
        lines.append("")
    return "\n".join(lines) + "\n"


def write_outputs(
    result: tuple[list[MetricEstimate], dict[str, str], dict], cfg: RunConfig
) -> dict[str, Path]:
    """Write results.csv, plotdata/, manifest.json, and exclusions.csv from
    ``run_pipeline``'s result."""
    estimates, assignments, manifest = result
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    results_path = out / "results.csv"
    write_results_csv(estimates, cfg.evaluation_version, results_path)
    rows = read_results_csv(results_path)
    plot_dir = out / "plotdata"
    write_plot_data(rows, plot_dir)
    manifest_path = out / "manifest.json"
    with manifest_path.open("w", encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")
    exclusions_path = out / "exclusions.csv"
    write_assignments_csv(assignments, exclusions_path, only_excluded=True)
    report_path = out / "report.txt"
    accounting = manifest["stages"]["group_assignment"]["summary"]
    text = render_report(rows, top_n=cfg.top_n, accounting=accounting)
    report_path.write_text(text, encoding="utf-8")
    return {
        "results": results_path,
        "plotdata": plot_dir,
        "manifest": manifest_path,
        "exclusions": exclusions_path,
        "report": report_path,
    }
