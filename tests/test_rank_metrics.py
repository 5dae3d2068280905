"""Rank-space bootstrap scoring against the scalar reference kernels of
``oracles``.

``ranked_metrics`` must give, on every draw, exactly the values of
``average_precision`` (tie-broken by image id), ``auc_roc`` and
``rates_from_confusion(confusion_at_threshold(...))`` on the drawn rows, and
``select_threshold`` must choose what the per-candidate scan chose.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from disparity_audit import (
    compute_budget,
    load_annotations,
    load_predictions,
    select_threshold,
    split_validation_test,
)
from disparity_audit.config import THRESHOLD_METRICS
from disparity_audit.metrics import rank_pool, ranked_metrics
from disparity_audit.pipeline import evaluate_concept, plan_concepts, size_concept
from disparity_audit.sampling import derive_rng, derive_seed

from oracles import (
    auc_roc,
    average_precision,
    confusion_at_threshold,
    draw_baseline_group,
    draw_group,
    f1_at,
    rates_from_confusion,
    threshold_oracle_f1,
)
from stubs import run_config

ALL_METRICS = ("ap", "auc_roc") + THRESHOLD_METRICS


def scalar_metrics(scores, labels, ids, threshold):
    """Every metric of one batch of rows from the scalar kernels."""
    out = {
        "ap": average_precision(scores, labels, tiebreak=ids),
        "auc_roc": auc_roc(scores, labels),
    }
    if threshold is not None:
        bundle = rates_from_confusion(confusion_at_threshold(scores, labels, threshold))
        out.update({m: getattr(bundle, m) for m in THRESHOLD_METRICS})
    return out


def assert_same(batched, scalar):
    """NaN where the scalar kernel gives None, otherwise the same double."""
    if scalar is None:
        assert math.isnan(batched)
    else:
        assert batched == scalar and type(scalar) is float


def check_draws(scores, labels, ids, draws, threshold, tiebreak=None):
    """``rank_pool`` breaks ties by ``tiebreak`` (default ``ids``), the
    scalar kernels by ``ids``."""
    metrics = ALL_METRICS if threshold is not None else ("ap", "auc_roc")
    pool = rank_pool(scores, labels, ids if tiebreak is None else tiebreak, threshold=threshold)
    batched = ranked_metrics(pool, [np.stack(draws)], metrics)
    undefined = 0
    for b, rows in enumerate(draws):
        ref = scalar_metrics(scores[rows], labels[rows], ids[rows], threshold)
        for m in metrics:
            assert_same(batched[m][b], ref[m])
            undefined += ref[m] is None
    return undefined


def make_pool(n_pos, n_neg, rng, distinct=None):
    """A group's ``(scores, image_rows, n_pos)``, positives first and each
    class sorted by id, as ``plan_concepts`` gives it to ``size_concept``;
    with ``distinct`` set, scores take only that many values (heavy ties)."""
    def scores(n):
        if distinct is None:
            return rng.random(n)
        return rng.integers(0, distinct, size=n) / distinct

    def ids(prefix, n):
        # ids are not in score order, so the tie-break key matters
        return np.array(sorted(f"{prefix}{k:05d}" for k in rng.permutation(n)), dtype=object)

    parts = [(scores(n), ids(prefix, n)) for prefix, n in (("x", n_pos), ("m", n_neg))]
    return (
        np.concatenate([s for s, _ in parts]),
        # each id's rank among the pool's ids: image rows in id order
        np.argsort(np.argsort(np.concatenate([i for _, i in parts]))),
        n_pos,
    )


def rows_of(pool):
    """A pool's ``(scores, labels, ids)``: 1 for each of its positives,
    then 0, and image ids that sort as its image rows, the scalar kernels'
    tie-break, where the pipeline ranks by the rows themselves."""
    scores, image_rows, n_pos = pool
    labels = (np.arange(scores.size) < n_pos).astype(np.int8)
    return scores, labels, np.array([f"i{r:06d}" for r in image_rows], dtype=object)


class TestRankedMetricsEquivalence:
    @pytest.mark.parametrize("distinct", [None, 3, 40])
    @pytest.mark.parametrize("n_pos,n_neg", [(5, 30), (150, 750), (300, 12000)])
    def test_reliable_draws(self, n_pos, n_neg, distinct):
        rng = np.random.default_rng(n_pos + n_neg + (distinct or 0))
        pool = make_pool(n_pos, n_neg, rng, distinct)
        budget = compute_budget("c", {"A": (n_pos, n_neg)}, (1, 5))
        scores, labels, ids = rows_of(pool)
        draws = [
            draw_group((n_pos, n_neg), budget, derive_rng(3, "draw", "c", "A", b))
            for b in range(9 if n_neg > 1000 else 25)
        ]
        threshold = float(np.median(scores))
        check_draws(scores, labels, ids, draws, threshold, pool[1])

    @pytest.mark.parametrize("distinct", [None, 2, 25])
    @pytest.mark.parametrize("n_pos,n_neg", [(1, 5), (2, 40), (40, 900), (400, 9000)])
    def test_baseline_draws(self, n_pos, n_neg, distinct):
        rng = np.random.default_rng(7 * n_pos + n_neg + (distinct or 0))
        pool = make_pool(n_pos, n_neg, rng, distinct)
        scores, labels, ids = rows_of(pool)
        draws = [
            draw_baseline_group(n_pos + n_neg, derive_rng(11, "baseline", "c", "A", b))
            for b in range(6 if n_neg > 1000 else 40)
        ]
        threshold = float(np.quantile(scores, 0.8))
        undefined = check_draws(scores, labels, ids, draws, threshold, pool[1])
        if n_pos == 1:
            # a single positive is missed by about a third of the draws
            assert undefined > 0

    def test_zero_positive_or_negative_draws(self):
        scores = np.array([0.4, 0.4, 0.9, 0.1])
        labels = np.array([1, 1, 0, 0], dtype=np.int8)
        ids = np.array(["b", "a", "c", "d"], dtype=object)
        draws = [np.array(r) for r in ([0, 0, 1, 1], [2, 3, 3, 2], [1, 1, 1, 1], [0, 2, 2, 0])]
        assert check_draws(scores, labels, ids, draws, threshold=0.4) > 0
        pool = rank_pool(scores, labels, ids, threshold=0.4)
        values = ranked_metrics(pool, [np.stack(draws)], ALL_METRICS)
        assert math.isnan(values["ap"][1]) and math.isnan(values["auc_roc"][0])
        assert math.isnan(values["tpr"][1]) and math.isnan(values["fpr"][2])

    @pytest.mark.parametrize("label", [0, 1])
    def test_one_row_pool(self, label):
        scores = np.array([0.3])
        labels = np.array([label], dtype=np.int8)
        ids = np.array(["only"], dtype=object)
        draws = [np.zeros(1, dtype=np.int64)] * 3
        for threshold in (0.2, 0.3, 0.4):
            check_draws(scores, labels, ids, draws, threshold)

    def test_full_sample_is_identity_draw(self):
        rng = np.random.default_rng(5)
        pool = make_pool(60, 240, rng, distinct=10)
        scores, labels, ids = rows_of(pool)
        check_draws(scores, labels, ids, [np.arange(scores.size)], threshold=0.5, tiebreak=pool[1])

    @pytest.mark.parametrize("scores,labels,mixed", [
        ([0.9, 0.7, 0.5, 0.3, 0.1], [1, 0, 1, 0, 0], False),
        # ties within one label only
        ([0.9, 0.9, 0.5, 0.5, 0.5, 0.1], [1, 1, 0, 0, 0, 1], False),
        # a group of three holding both labels, and one of two
        ([0.9, 0.5, 0.5, 0.5, 0.1, 0.1], [1, 0, 1, 0, 1, 0], True),
        # 0.0 == -0.0, so they tie across labels
        ([0.5, 0.0, -0.0, -0.0, 0.0], [1, 1, 0, 1, 0], True),
    ])
    def test_tie_correction_only_where_labels_tie(self, scores, labels, mixed):
        scores = np.array(scores)
        labels = np.array(labels, dtype=np.int8)
        ids = np.array([f"i{k}" for k in range(scores.size)[::-1]], dtype=object)
        assert rank_pool(scores, labels, ids).mixed_ties is mixed
        rng = np.random.default_rng(scores.size)
        draws = [np.arange(scores.size)] + [
            rng.integers(0, scores.size, size=scores.size) for _ in range(30)
        ]
        check_draws(scores, labels, ids, draws, threshold=0.5)

    def test_repeated_rows_and_tied_ids(self):
        # equal scores on different ids, and one row drawn many times
        scores = np.array([0.5, 0.5, 0.5, 0.2, 0.5, 0.2])
        labels = np.array([1, 0, 1, 0, 0, 1], dtype=np.int8)
        ids = np.array(["e", "a", "c", "b", "d", "f"], dtype=object)
        draws = [np.array(r) for r in (
            [0, 0, 0, 1, 2, 3], [4, 4, 4, 4, 0, 5], [5, 3, 5, 3, 1, 1], [2, 1, 0, 4, 3, 5],
        )]
        check_draws(scores, labels, ids, draws, threshold=0.5)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 12).flatmap(lambda n: st.tuples(
            st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0]), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.permutations(range(n)),
            st.integers(1, 15).flatmap(lambda m: st.lists(
                st.lists(st.integers(0, n - 1), min_size=m, max_size=m), min_size=1, max_size=6,
            )),
            st.sampled_from([-1.0, 0.0, 0.125, 0.5, 0.6, 1.0, 2.0]),
        ))
    )
    def test_matches_scalar_kernels(self, case):
        scores, labels, order, draws, threshold = case
        ids = np.array([f"i{k:02d}" for k in order], dtype=object)
        event(f"mixed_ties={rank_pool(np.array(scores), np.array(labels), ids).mixed_ties}")
        check_draws(
            np.array(scores), np.array(labels, dtype=np.int8), ids,
            [np.array(r) for r in draws], threshold,
        )


def reference_evaluation(concept, pools, metric, mode, scope, bootstraps, seed, fraction=0.2):
    """What ``size_concept`` then ``evaluate_concept`` compute for one
    metric, from the scalar functions: for a threshold metric split, select
    and restrict first; then score every draw and the full sample."""
    groups = sorted(pools)
    thresholds = {}
    eval_rows = {g: rows_of(pool) for g, pool in pools.items()}
    if metric in THRESHOLD_METRICS:
        val = {}
        for g in groups:
            scores, labels, ids = eval_rows[g]
            split_seed = derive_seed(seed, "split", concept, g)
            v, test = split_validation_test(labels, fraction, split_seed)
            val[g] = (scores[v], labels[v])
            eval_rows[g] = (scores[test], labels[test], ids[test])
        if scope == "pooled":
            t, _ = select_threshold(
                np.concatenate([val[g][0] for g in groups]),
                np.concatenate([val[g][1] for g in groups]),
            )
            thresholds = {g: t for g in groups}
        else:
            thresholds = {g: select_threshold(*val[g])[0] for g in groups}
    # the split rows ascend, so each group's positives still come first
    sizes = {
        g: (np.count_nonzero(y), np.count_nonzero(y == 0)) for g, (_, y, _) in eval_rows.items()
    }
    budget = compute_budget(concept, sizes, (1, 4)) if mode == "reliable" else None

    def value(g, rows):
        scores, labels, ids = eval_rows[g]
        return scalar_metrics(scores[rows], labels[rows], ids[rows], thresholds.get(g))[metric]

    values = {g: [] for g in groups}
    for b in range(bootstraps):
        for g in groups:
            if budget is not None:
                rows = draw_group(sizes[g], budget, derive_rng(seed, "draw", concept, g, b))
            else:
                rng = derive_rng(seed, "baseline", concept, g, b)
                rows = draw_baseline_group(sum(sizes[g]), rng)
            values[g].append(value(g, rows))
    full = {g: value(g, np.arange(sum(sizes[g]))) for g in groups}
    return thresholds, values, full


class TestMetricsThroughEvaluateConcept:
    @pytest.mark.parametrize("mode", ["reliable", "baseline"])
    @pytest.mark.parametrize("scope", ["pooled", "per_group"])
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_matches_per_draw_reference(self, metric, scope, mode):
        rng = np.random.default_rng(42)
        # Scores tie across labels and every negative id sorts before every
        # positive id, so the AP tie-break matters; with two test positives
        # in B, some baseline draws have none.
        pools = {
            "A": make_pool(30, 90, rng, distinct=12),
            "B": make_pool(3, 70, rng, distinct=12),
        }
        cfg = run_config(
            metrics=(metric,), sampling_mode=mode, ratio=(1, 4), seed=8, threshold_scope=scope,
        )
        sizing = size_concept("c", pools, cfg)
        got_values, got_full = evaluate_concept(
            "c", sizing, metrics=[metric], bootstraps=40, seed=8
        )
        thresholds, values, full = reference_evaluation("c", pools, metric, mode, scope, 40, 8)
        assert sizing.thresholds == thresholds
        for g in sorted(pools):
            for b in range(40):
                assert_same(got_values[(metric, g)][b], values[g][b])
            assert got_full[(metric, g)] == full[g]
        if mode == "baseline" and metric in ("tpr", "recall", "f1"):
            assert None in values["B"]


class TestTiesFollowImageIds:
    # (id, group, positive, score), written neither in id order nor in
    # numeric order; ids order as strings ("img10" < "img9"). In each group
    # some score ties put a negative first in id order, some a positive.
    ROWS = [
        ("img9", "A", True, 0.5), ("img3", "B", True, 0.4), ("img100", "A", True, 0.8),
        ("img10", "A", False, 0.5), ("img2", "A", False, 0.3), ("img31", "B", False, 0.4),
        ("img11", "A", False, 0.8), ("img4", "B", False, 0.9), ("img30", "A", True, 0.3),
        ("img5", "B", True, 0.9), ("img6", "B", False, 0.1),
    ]

    def test_identity_draw_matches_oracles_with_id_tiebreak(self, tmp_path):
        ann, pred = tmp_path / "a.jsonl", tmp_path / "p.jsonl"
        ann.write_text("".join(
            json.dumps({"image_id": i, "labels": ["c"] if pos else ["other"]}) + "\n"
            for i, _, pos, _ in self.ROWS
        ))
        pred.write_text("".join(
            json.dumps({"image_id": i, "scores": {"c": s}}) + "\n"
            for i, _, _, s in reversed(self.ROWS)
        ))
        images = load_annotations(ann)
        cfg = run_config(
            groups=("A", "B"), metrics=("ap", "auc_roc"), min_per_group=1,
            sampling_mode="baseline",
        )
        plan = plan_concepts(
            images, {i: g for i, g, _, _ in self.ROWS},
            load_predictions(pred, images), cfg,
        )
        _, full_sample = evaluate_concept(
            "c", plan.sized["c"], metrics=["ap", "auc_roc"], bootstraps=1, seed=0
        )
        for g in ("A", "B"):
            rows = [(i, pos, s) for i, grp, pos, s in self.ROWS if grp == g]
            ids = np.array([i for i, _, _ in rows], dtype=object)
            labels = np.array([int(pos) for _, pos, _ in rows], dtype=np.int8)
            scores = np.array([s for _, _, s in rows])
            ap = average_precision(scores, labels, tiebreak=ids)
            # the tie-break decides AP here: positives-first order differs
            assert ap != average_precision(scores, labels, tiebreak=1 - labels)
            assert full_sample[("ap", g)] == ap
            assert full_sample[("auc_roc", g)] == auc_roc(scores, labels)


def scan_select_threshold(scores, labels):
    """The per-candidate scan: one confusion pass per candidate threshold.
    A candidate is the midpoint of two consecutive distinct scores, or the
    upper score where the midpoint rounds onto the lower."""
    s = np.asarray(scores, dtype=float)
    distinct = np.unique(s)
    candidates = [float(distinct[0]) - 1.0]
    for a, b in zip(distinct[:-1], distinct[1:]):
        mid = (a + b) / 2.0
        candidates.append(float(b if mid == a else mid))
    best_t, best_f1 = None, -1.0
    for t in candidates:
        f1 = rates_from_confusion(confusion_at_threshold(s, labels, t)).f1
        f1 = 0.0 if f1 is None else f1
        if f1 > best_f1:
            best_t, best_f1 = t, f1
    return best_t, best_f1


def check_threshold(scores, labels):
    threshold, f1 = select_threshold(scores, labels)
    assert (threshold, f1) == scan_select_threshold(scores, labels)
    assert type(threshold) is float and type(f1) is float
    assert abs(f1_at(list(scores), list(labels), threshold) - f1) < 1e-12
    assert abs(f1 - threshold_oracle_f1(list(scores), list(labels))) < 1e-12


class TestSelectThresholdSweep:
    @pytest.mark.parametrize("distinct", [2, 5, 20])
    @pytest.mark.parametrize("n", [1, 7, 60, 200])
    def test_heavy_ties(self, n, distinct):
        rng = np.random.default_rng(n * distinct)
        for _ in range(5):
            scores = (rng.integers(0, distinct, size=n) / distinct).tolist()
            labels = rng.integers(0, 2, size=n)
            labels[rng.integers(0, n)] = 1
            check_threshold(scores, labels.tolist())

    @pytest.mark.parametrize("n", [1, 2, 50, 200])
    def test_all_positive_takes_lowest_threshold(self, n):
        scores = np.random.default_rng(n).random(n).tolist()
        check_threshold(scores, [1] * n)
        assert select_threshold(scores, [1] * n)[0] < min(scores)

    @pytest.mark.parametrize(
        "labels", [[0, 1], [1, 0], [1, 1], [0, 1, 1], [1, 0, 1], [0, 0, 1], [1, 0, 0]]
    )
    def test_adjacent_doubles(self, labels):
        # The midpoint of two adjacent doubles rounds onto one of them; where
        # it rounds onto the lower, the upper score is the candidate, so the
        # cut between them is still reachable and the optimum is found.
        a = 0.5
        b = float(np.nextafter(a, 1.0))
        c = float(np.nextafter(b, 1.0))
        assert (a + b) / 2.0 == a
        scores = [a, b, c][:len(labels)]
        check_threshold(scores, labels)
        check_threshold(scores[::-1], labels)
