"""Microbenchmarks of the metric kernels at the shapes of the ``skew`` and
``deep`` benchmark workloads, and of score ingest and top-k hit rate at the
shape of the ``wide`` workload.

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py --benchmark-only

The file name does not match pytest's ``test_*.py`` pattern, so a plain
``pytest`` run does not collect it.

* skew: fixed-ratio draws of 120 positives and 600 negatives from a
  2,400-row pool, 250 draws per group.
* deep: full-pool resamples of an 8,000-row pool, 20 draws per group.
* tied: the skew shape with every score rounded to a multiple of 1/20, so
  tie groups hold both labels and AUC takes its tie correction.

Each shape times the batched kernel on pre-drawn rows, the per-draw loop of
scalar kernels it replaced (the reference kernels of ``tests/oracles.py``),
and threshold selection on the pooled validation rows of three groups. The
batched kernel's first three draws must equal the reference kernels', which
``tests/test_bench_smoke.py`` checks at these shapes with timing off.

* draws: the bootstrap draws of one group at five shapes: skew, 250 draws
  of 120 rows from 720 positives and 600 from 1,680 negatives; deep
  baseline, 20 draws of 8,000 from 8,000; hit rate, 50 draws of 1,500 from
  1,500; rejection, 50 draws of 600 from 2**31 + 1, where about half the
  uint32 halves are rejected, so every row is continued; large pool, 20
  draws of 100,000 from 100,000, where about 80% of rows meet a rejection
  and are continued. Each times ``sampling.draw_rows`` against the
  per-bootstrap generators it replaced (``oracles.reference_rows``), and the
  first rows must be equal.

* disparity: ``disparity.pair_disparity`` on one concept's row of 250
  bootstraps and on an aggregate of 200 concepts x 250 bootstraps; on each
  side about 1% of the bootstraps hold a NaN. Each estimate must equal the
  reference reducer's (``oracles.per_concept_disparity`` or
  ``oracles.aggregate_disparity``).

* wide: 200 concepts scored on 3 x 1,500 images, written by ``synth`` as a
  predictions file; times ``load_predictions`` on that file,
  ``hit_vector`` (k 5) on the loaded matrix, and ``plan_concepts`` with
  metrics ``ap`` and ``hit_rate``, whose hit values must equal each
  group's ``hit_vector``.
* deep: 3 concepts labelled and scored on 3 x 10,000 images, written by
  ``synth`` as an annotations file (30,000 lines of id, labels and
  metadata, 8 distinct label sets) and a predictions file (30,000 records
  of 3 scores); times ``load_annotations`` and ``load_predictions`` on
  those files, then ``validate_dataset``, ``assign_groups`` (metadata
  method), ``map_targets`` and ``plan_concepts`` on the loaded dataset;
  also ``load_dataset`` with ``drop_unlabeled`` on, which drops the 19,318
  images that no concept labels (the benchmark workloads keep them). The
  plan runs with the deep workload's metrics (``ap``, ``auc_roc``, ``tpr``,
  ``fpr``), so it times the pools, the validation splits, the threshold
  selection and the ranking of every concept's pools.
* distinct: the deep images with no value repeated: each line carries its
  own 3 to 8 labels out of 21,000 classes and a metadata URL of its own;
  times ``load_annotations`` and ``map_targets``, the steps whose work is
  once per distinct value.
* vocabulary: 500 images, each scored on 50 of 21,000 classes and
  labelled with 3 of those, so the score matrix has 21,000 columns (84 MB
  dense), the scale of the paper's case-study vocabularies; times
  ``map_targets``, which picks the 1,482 candidates' columns out of the
  score matrix's concepts.
* corpus: the 30-image group corpus of ``tests/corpus.py`` 1,000 times
  over (30,000 images, 20,000 with boxes and 10,000 with captions); times
  ``assign_groups`` under the ``v3`` rule of the ``boxes`` and of the
  ``captions`` method, the paths the benchmark workloads (all ``metadata``)
  do not run.
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from disparity_audit.concepts import map_targets
from disparity_audit.config import load_config
from disparity_audit.data import (
    EXCLUSION_REASONS,
    AnnotatedImage,
    PredictionRecord,
    ScoreMatrix,
    load_annotations,
    load_predictions,
    validate_dataset,
)
from disparity_audit.disparity import pair_disparity
from disparity_audit.metrics import hit_vector, rank_pool, ranked_metrics, select_threshold
from disparity_audit.pipeline import load_dataset, plan_concepts
from disparity_audit.groups import assign_groups
from disparity_audit.sampling import draw_rows
from disparity_audit.synth import CellSpec, ScenarioSpec, generate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import (  # noqa: E402
    aggregate_disparity,
    auc_roc,
    average_precision,
    confusion_at_threshold,
    per_concept_disparity,
    rates_from_confusion,
    reference_rows,
)
from stubs import run_config  # noqa: E402
from corpus import (  # noqa: E402
    BOX_CASES,
    CAPTION_CASES,
    box_rule,
    caption_rule,
    expected_assignments,
)

METRICS = ("ap", "auc_roc", "tpr", "fpr")

# name: (positives, negatives, draw size (None: resample the whole pool),
#        draws, validation rows, score grid steps (None: unrounded))
SHAPES = {
    "skew": (120, 2280, (120, 600), 250, 1800, None),
    "deep": (400, 7600, None, 20, 6000, None),
    "tied": (120, 2280, (120, 600), 250, 1800, 20),
}


def _scores(rng, n, mu, grid=None):
    scores = 1.0 / (1.0 + np.exp(-rng.normal(mu, 1.0, size=n)))
    return scores if grid is None else np.round(scores * grid) / grid


def _ids(prefix, n):
    return np.array([f"{prefix}{k:06d}" for k in range(n)], dtype=object)


def _case(name):
    n_pos, n_neg, ratio, n_draws, n_val, grid = SHAPES[name]
    rng = np.random.default_rng(0)
    ids = np.concatenate([_ids("p", n_pos), _ids("n", n_neg)])
    pool = (  # scores, labels and image rows, positives first
        np.concatenate([_scores(rng, n_pos, 1.0, grid), _scores(rng, n_neg, 0.0, grid)]),
        (np.arange(n_pos + n_neg) < n_pos).astype(np.int8),
        np.argsort(np.argsort(ids)),  # each id's rank: rows in id order
    )
    if ratio is None:
        draws = [rng.integers(0, n_pos + n_neg, size=n_pos + n_neg) for _ in range(n_draws)]
    else:
        draws = [
            np.concatenate([rng.integers(0, n_pos, ratio[0]),
                            n_pos + rng.integers(0, n_neg, ratio[1])])
            for _ in range(n_draws)
        ]
    val_labels = (rng.random(n_val) < n_pos / (n_pos + n_neg)).astype(np.int8)
    val_scores = _scores(rng, n_val, 0.0, grid) + 0.2 * val_labels
    return pool, ids, draws, val_scores, val_labels


@pytest.fixture(scope="module", params=sorted(SHAPES))
def case(request):
    return request.param, _case(request.param)


def test_ranked_metrics(benchmark, case):
    name, (pool, ids, draws, _, _) = case
    benchmark.group = f"kernel-{name}"
    ranked = rank_pool(*pool, threshold=0.6)
    assert ranked.mixed_ties == (name == "tied")
    out = benchmark(ranked_metrics, ranked, [np.stack(draws)], METRICS)
    assert out["ap"].shape == (len(draws),)
    for b, rows in enumerate(draws[:3]):
        assert {m: out[m][b] for m in METRICS} == _scalar_metrics(pool, ids, rows)


def _scalar_metrics(pool, ids, rows):
    """The reference kernels' values of ``METRICS`` on one draw, ties
    broken by the id strings."""
    s, y = pool[0][rows], pool[1][rows]
    bundle = rates_from_confusion(confusion_at_threshold(s, y, 0.6))
    return {
        "ap": average_precision(s, y, tiebreak=ids[rows]),
        "auc_roc": auc_roc(s, y),
        "tpr": bundle.tpr,
        "fpr": bundle.fpr,
    }


def test_scalar_loop(benchmark, case):
    name, (pool, ids, draws, _, _) = case
    benchmark.group = f"kernel-{name}"

    def loop():
        for rows in draws:
            _scalar_metrics(pool, ids, rows)

    benchmark(loop)


def test_rank_pool(benchmark, case):
    name, (pool, _, _, _, _) = case
    benchmark.group = f"kernel-{name}"
    benchmark(rank_pool, *pool, threshold=0.6)


def test_select_threshold(benchmark, case):
    name, (_, _, _, val_scores, val_labels) = case
    benchmark.group = f"select_threshold-{name}"
    _, f1 = benchmark(select_threshold, val_scores, val_labels)
    assert 0.0 < f1 <= 1.0


# name: (each draw's classes as (class size, rows drawn), draws)
DRAW_SHAPES = {
    "skew": ([(720, 120), (1680, 600)], 250),
    "deep-baseline": ([(8000, 8000)], 20),
    "hit-rate": ([(1500, 1500)], 50),
    "rejection": ([(2**31 + 1, 600)], 50),
    "large-pool": ([(100000, 100000)], 20),
}


@pytest.fixture(params=sorted(DRAW_SHAPES))
def draw_shape(request):
    return (request.param, *DRAW_SHAPES[request.param])


def test_draw_rows(benchmark, draw_shape):
    name, sizes, n_draws = draw_shape
    benchmark.group = f"draws-{name}"
    key = (0, "draw", "c", name)

    def draw():
        # each block is read before the next, as the pipeline does; the first
        # three rows are kept, whatever the rows per block
        first, drawn = [], 0
        for block in draw_rows(key, n_draws, sizes):
            first.extend(block[:max(0, 3 - drawn)].copy())
            drawn += len(block)
        return np.array(first), drawn

    first, drawn = benchmark(draw)
    assert drawn == n_draws
    assert np.array_equal(first, reference_rows(key, 3, sizes))


def test_draw_reference(benchmark, draw_shape):
    name, sizes, n_draws = draw_shape
    benchmark.group = f"draws-{name}"
    rows = benchmark(reference_rows, (0, "draw", "c", name), n_draws, sizes)
    assert rows.shape == (n_draws, sum(k for _, k in sizes))


# name: (concepts (None: one concept's 1-D row), bootstraps)
REDUCER_SHAPES = {"per-concept": (None, 250), "aggregate": (200, 250)}


@pytest.mark.parametrize("name", sorted(REDUCER_SHAPES))
def test_pair_disparity(benchmark, name):
    concepts, n_boot = REDUCER_SHAPES[name]
    benchmark.group = f"disparity-{name}"
    rng = np.random.default_rng(0)
    shape = (n_boot,) if concepts is None else (concepts, n_boot)
    a, b = rng.random(shape), rng.random(shape)
    for side in (a, b):
        rows = np.atleast_2d(side)  # a view of ``side``
        undefined = np.flatnonzero(rng.random(n_boot) < 0.01)
        rows[rng.integers(0, rows.shape[0], undefined.size), undefined] = np.nan
    groups = dict(metric="ap", group_a="A", group_b="B")
    if concepts is None:
        want = per_concept_disparity(a, b, concept="c", **groups)
    else:
        names = [f"c{i:03d}" for i in range(concepts)]
        want = aggregate_disparity(dict(zip(names, a)), dict(zip(names, b)), **groups)
    got = benchmark(pair_disparity, a, b, concept=want.concept, sample_sizes={}, **groups)
    assert got == want
    assert 0.95 * n_boot < got.bootstraps_used < n_boot


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """The wide shape: predictions file, annotated images, each image's
    labels as a target mask over the sorted concepts, and each image's
    group assignment."""
    cells = {
        g: CellSpec(prevalence=p, mu_pos=1.0, sigma_pos=1.0, mu_neg=0.0, sigma_neg=1.0, n=1500)
        for g, p in (("alpha", 0.04), ("beta", 0.02), ("gamma", 0.05))
    }
    spec = ScenarioSpec(concepts={f"w{i:03d}": cells for i in range(200)}, seed=0)
    images, assignments, predictions = generate(spec)
    path = tmp_path_factory.mktemp("wide") / "predictions.jsonl"
    with path.open("w", encoding="utf-8") as f:
        for p in predictions:
            f.write(json.dumps({"image_id": p.image_id, "scores": p.scores}) + "\n")
    concepts = sorted(spec.concepts)
    targets = np.array([[c in img.direct_labels for c in concepts] for img in images])
    return path, images, targets, assignments


def test_load_predictions(benchmark, wide):
    path, images, _, _ = wide
    benchmark.group = "ingest-wide"
    matrix = benchmark(load_predictions, path, images)
    assert matrix.scores.shape == (4500, 200)


def test_hit_vector(benchmark, wide):
    path, images, targets, _ = wide
    benchmark.group = "ingest-wide"
    scores = load_predictions(path, images).scores
    hits = benchmark(hit_vector, scores, targets, targets.any(axis=1), 5, group="alpha")
    assert 0 < hits.size <= len(images)


def test_plan_concepts_wide(benchmark, wide):
    path, images, targets, assignments = wide
    benchmark.group = "ingest-wide"
    predictions = load_predictions(path, images)
    groups = ("alpha", "beta", "gamma")
    cfg = run_config(groups=groups, metrics=("ap", "hit_rate"), min_per_group=30)
    plan = benchmark(plan_concepts, images, assignments, predictions, cfg)
    assert len(plan.sized) == 200 and plan.skipped == {}
    # the images are in id order, and every scored concept is a candidate
    group_of = np.array(list(assignments.values()))
    for g in groups:
        rows = group_of == g
        want = hit_vector(
            predictions.scores[rows], targets[rows], targets[rows].any(axis=1), 5, group=g
        )
        assert np.array_equal(plan.hits[g], want)
        assert want.size == np.count_nonzero(targets[rows].any(axis=1))  # every image scored


def _deep_spec():
    cells = {
        g: CellSpec(prevalence=p, mu_pos=1.0, sigma_pos=1.0, mu_neg=0.0, sigma_neg=1.0, n=10000)
        for g, p in (("alpha", 0.3), ("beta", 0.1), ("gamma", 0.05))
    }
    return ScenarioSpec(concepts={f"d{i}": cells for i in range(3)}, seed=0)


def _write_run(directory, spec):
    """A run config that assigns groups from the ``group`` metadata key."""
    (directory / "predictions.jsonl").write_text("")
    (directory / "region.json").write_text(
        json.dumps({"country_to_group": {g: g for g in spec.groups}})
    )
    (directory / "run.json").write_text(json.dumps({
        "annotations": "annotations.jsonl", "predictions": "predictions.jsonl",
        "group_method": "metadata", "metadata_key": "group", "region": "region.json",
    }))
    return load_config(directory / "run.json")


@pytest.fixture(scope="module")
def deep(tmp_path_factory):
    """The deep shape: an annotations file of 30,000 lines, a run config that
    assigns groups from its metadata and reads the predictions file written
    beside it, and the scores as a matrix."""
    spec = _deep_spec()
    images, _, predictions = generate(spec)
    directory = tmp_path_factory.mktemp("deep")
    path = directory / "annotations.jsonl"
    with path.open("w", encoding="utf-8") as f:
        for img in images:
            f.write(json.dumps({"image_id": img.image_id, "labels": sorted(img.direct_labels),
                                "metadata": dict(img.metadata)}) + "\n")
    cfg = _write_run(directory, spec)
    with cfg.predictions.open("w", encoding="utf-8") as f:
        for p in predictions:
            f.write(json.dumps({"image_id": p.image_id, "scores": p.scores}) + "\n")
    return path, cfg, ScoreMatrix.from_records(predictions)


@pytest.fixture(scope="module")
def distinct(tmp_path_factory):
    """The deep images with a label list and a metadata URL of their own, a
    run config as for deep, and one score per image over 210 classes."""
    spec = _deep_spec()
    images, _, _ = generate(spec)
    rng = random.Random(0)
    classes = [f"c{k:05d}" for k in range(21000)]
    directory = tmp_path_factory.mktemp("distinct")
    path = directory / "annotations.jsonl"
    with path.open("w", encoding="utf-8") as f:
        for i, img in enumerate(images):
            metadata = {"group": img.metadata["group"], "url": f"https://img.example/{i}.jpg"}
            f.write(json.dumps({"image_id": img.image_id,
                                "labels": rng.sample(classes, rng.randint(3, 8)),
                                "metadata": metadata}) + "\n")
    predictions = ScoreMatrix.from_records(
        PredictionRecord(img.image_id, {classes[i % 210 * 100]: 0.5})
        for i, img in enumerate(images)
    )
    return path, _write_run(directory, spec), predictions


def test_load_annotations(benchmark, deep):
    path, _, _ = deep
    benchmark.group = "ingest-deep"
    images = benchmark(load_annotations, path)
    assert len(images) == 30000


def test_load_predictions_deep(benchmark, deep):
    path, cfg, _ = deep
    benchmark.group = "ingest-deep"
    images = load_annotations(path)
    matrix = benchmark(load_predictions, cfg.predictions, images)
    assert matrix.scores.shape == (30000, 3)


def test_validate_dataset(benchmark, deep):
    path, cfg, _ = deep
    benchmark.group = "ingest-deep"
    images = load_annotations(path)
    report = benchmark(validate_dataset, images, load_predictions(cfg.predictions, images))
    assert report == {
        "images_without_labels": 19318, "score_coverage_gaps": 0, "zero_positive_concepts": 0,
    }


def test_load_dataset_drop(benchmark, deep):
    _, cfg, _ = deep
    benchmark.group = "ingest-deep"
    cfg = dataclasses.replace(cfg, drop_unlabeled=True)
    images, predictions, ingest = benchmark(load_dataset, cfg)
    assert ingest == {
        "images_loaded": 30000, "images_without_labels": 19318,
        "images_dropped_unlabeled": 19318, "images_used": 10682, "prediction_records": 10682,
        "score_coverage_gaps": 0, "zero_positive_concepts": 0,
    }
    assert len(images) == len(predictions) == 10682


def test_assign_groups(benchmark, deep):
    path, cfg, _ = deep
    benchmark.group = "ingest-deep"
    images = load_annotations(path)
    assignments = benchmark(assign_groups, images, cfg.group_rule)
    assert not EXCLUSION_REASONS.intersection(assignments.values())
    assert len(assignments) == 30000


def test_map_targets(benchmark, deep):
    path, cfg, predictions = deep
    benchmark.group = "ingest-deep"
    images = load_annotations(path)
    assignments = assign_groups(images, cfg.group_rule)
    targets = benchmark(map_targets, images, assignments, predictions)
    assert targets.targets.shape == (30000, 3)


def test_plan_concepts(benchmark, deep):
    path, cfg, predictions = deep
    benchmark.group = "ingest-deep"
    cfg = dataclasses.replace(cfg, metrics=("ap", "auc_roc", "tpr", "fpr"), min_per_group=30)
    images = load_annotations(path)
    assignments = assign_groups(images, cfg.group_rule)
    plan = benchmark(plan_concepts, images, assignments, predictions, cfg)
    assert list(plan.sized) == ["d0", "d1", "d2"] and plan.skipped == {}
    for c, sizing in plan.sized.items():
        assert tuple(sizing.thresholds) == cfg.group_rule.groups
        for g, pool in sizing.pools.items():
            assert pool.rank_of_row.size < sum(plan.counts[c][g])  # test rows only


def test_load_annotations_distinct(benchmark, distinct):
    path, _, _ = distinct
    benchmark.group = "ingest-distinct"
    images = benchmark(load_annotations, path)
    assert len({img.direct_labels for img in images}) == 30000


def test_map_targets_distinct(benchmark, distinct):
    path, cfg, predictions = distinct
    benchmark.group = "ingest-distinct"
    images = load_annotations(path)
    assignments = assign_groups(images, cfg.group_rule)
    targets = benchmark(map_targets, images, assignments, predictions)
    assert targets.targets.shape[0] == 30000


def test_map_targets_vocabulary(benchmark):
    benchmark.group = "ingest-vocabulary"
    rng = random.Random(0)
    classes = [f"c{k:05d}" for k in range(21000)]
    images, assignments, records = [], {}, []
    for i in range(500):
        image_id = f"i{i:03d}"
        # consecutive windows of 50 classes, 42 apart: every class is scored
        scored = [classes[(42 * i + j) % 21000] for j in range(50)]
        images.append(AnnotatedImage(image_id, direct_labels=frozenset(rng.sample(scored, 3))))
        assignments[image_id] = "AB"[i % 2]
        records.append(PredictionRecord(image_id, dict.fromkeys(scored, 0.5)))
    predictions = ScoreMatrix.from_records(records)
    assert predictions.scores.shape == (500, 21000)
    targets = benchmark(map_targets, images, assignments, predictions)
    assert len(targets.concepts) == 1482 and targets.unscored == ()
    assert [predictions.concepts[j] for j in targets.columns] == list(targets.concepts)


@pytest.fixture(scope="module")
def corpus_images():
    """The group corpus 1,000 times over, each copy's ids suffixed ``-kkkk``."""
    return [
        dataclasses.replace(image, image_id=f"{image.image_id}-{k:04d}")
        for k in range(1000) for image, _ in BOX_CASES + CAPTION_CASES
    ]


@pytest.mark.parametrize("method", ["boxes", "captions"])
def test_assign_groups_corpus(benchmark, corpus_images, method):
    benchmark.group = "groups-corpus"
    rule = box_rule("v3") if method == "boxes" else caption_rule("v3")
    assignments = benchmark(assign_groups, corpus_images, rule)
    expected = expected_assignments(method, "v3")
    assert len(assignments) == 30000
    for image_id, a in assignments.items():
        outcome = ("excluded" if a in EXCLUSION_REASONS else "assigned", a)
        assert outcome == expected[image_id[:-5]], image_id
