import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disparity_audit import DataError, select_threshold, split_validation_test
from disparity_audit.metrics import hit_vector, log as metrics_log

from oracles import (
    ConfusionCounts,
    accuracy_from_rates,
    ap_oracle,
    auc_oracle,
    auc_roc,
    average_precision,
    confusion_at_threshold,
    hit_vector as sorted_hit_vector,
    precision_from_rates,
    rates_from_confusion,
    threshold_oracle_f1,
)
from stubs import score_matrix


# The scalar reference kernels (``oracles``) against hand counts and brute
# force; ``test_rank_metrics`` holds the shipped rank kernels to them.

class TestConfusion:
    def test_separable(self):
        c = confusion_at_threshold([0.9, 0.2], [1, 0], 0.5)
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 0, 1, 0)

    def test_threshold_above_max(self):
        c = confusion_at_threshold([0.9, 0.2], [1, 0], 0.95)
        assert c.tp == 0 and c.fp == 0

    def test_hand_count(self):
        c = confusion_at_threshold([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0], 0.75)
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


class TestRates:
    def test_balanced_example(self):
        r = rates_from_confusion(ConfusionCounts(tp=1, fp=1, tn=1, fn=1))
        assert r.tpr == r.fpr == r.precision == r.accuracy == r.f1 == 0.5

    def test_precision_undefined_with_no_predicted_positives(self):
        r = rates_from_confusion(ConfusionCounts(tp=0, fp=0, tn=3, fn=2))
        assert r.precision is None and r.f1 is None

    def test_perfect_classifier(self):
        r = rates_from_confusion(ConfusionCounts(tp=5, fp=0, tn=5, fn=0))
        assert r.tpr == r.precision == r.accuracy == r.f1 == 1.0
        assert r.fpr == 0.0


class TestRateIdentities:
    def test_substitution(self):
        assert precision_from_rates(0.5, 0.8, 0.2) == pytest.approx(0.8)

    def test_no_false_positives(self):
        assert precision_from_rates(0.3, 0.7, 0.0) == 1.0

    def test_all_positive_population(self):
        assert precision_from_rates(1.0, 0.4, 0.0) == 1.0

    def test_accuracy_substitution(self):
        assert accuracy_from_rates(0.3, 0.9, 0.1) == pytest.approx(0.9)

    def test_accuracy_no_positives_no_fps(self):
        assert accuracy_from_rates(0.0, 0.0, 0.0) == 1.0

    def test_accuracy_perfect(self):
        for alpha in (0.0, 0.3, 1.0):
            assert accuracy_from_rates(alpha, 1.0, 0.0) == 1.0

    def test_zero_denominator_undefined(self):
        assert precision_from_rates(0.5, 0.0, 0.0) is None

    @given(
        tp=st.integers(0, 500), fp=st.integers(0, 500),
        tn=st.integers(0, 500), fn=st.integers(0, 500),
    )
    @settings(max_examples=300)
    def test_identities_match_confusion(self, tp, fp, tn, fn):
        c = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
        if c.positives == 0 or c.negatives == 0:
            return
        r = rates_from_confusion(c)
        alpha = c.prevalence
        p = precision_from_rates(alpha, r.tpr, r.fpr)
        if r.precision is None:
            assert p is None or p == 0.0
        else:
            assert abs(p - r.precision) < 1e-12
        assert abs(accuracy_from_rates(alpha, r.tpr, r.fpr) - r.accuracy) < 1e-12

    @given(
        tp=st.integers(0, 50), fp=st.integers(1, 50),
        tn=st.integers(0, 50), fn=st.integers(0, 50),
        m=st.sampled_from([2, 5, 10]),
    )
    @settings(max_examples=200)
    def test_prevalence_invariance_of_rates(self, tp, fp, tn, fn, m):
        """Duplicating every negative m times leaves TPR/FPR bit-identical
        while precision strictly decreases whenever fp > 0."""
        c1 = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
        c2 = ConfusionCounts(tp=tp, fp=fp * m, tn=tn * m, fn=fn)
        if c1.positives == 0:
            return
        r1, r2 = rates_from_confusion(c1), rates_from_confusion(c2)
        assert r1.tpr == r2.tpr
        assert r1.fpr == r2.fpr
        if r1.precision is not None and fp > 0 and tp > 0:
            assert r2.precision < r1.precision


class TestAveragePrecision:
    def test_hand_enumeration(self):
        ap = average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_zero_positives_undefined(self):
        assert average_precision([0.5, 0.4], [0, 0]) is None

    def test_tie_break_by_row_key(self):
        # same scores, tiebreak decides ranks: id "a" before "b"
        ap_pos_first = average_precision([0.5, 0.5], [1, 0], tiebreak=["a", "b"])
        ap_neg_first = average_precision([0.5, 0.5], [0, 1], tiebreak=["a", "b"])
        assert ap_pos_first == 1.0
        assert ap_neg_first == 0.5

    def test_matches_oracle_exhaustively(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            scores = rng.random(n)
            while len(set(scores.tolist())) < n:
                scores = rng.random(n)
            for labels in itertools.product([0, 1], repeat=n):
                expected = ap_oracle(scores.tolist(), list(labels))
                got = average_precision(scores, list(labels))
                if expected is None:
                    assert got is None
                else:
                    assert abs(got - expected) < 1e-12

    def test_adjacent_swap_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.sum() == 0:
                labels[0] = 1
            scores = np.sort(rng.random(n))[::-1]
            base = average_precision(scores, labels)
            for i in range(n - 1):
                if labels[i] == 1 and labels[i + 1] == 0:
                    swapped = labels.copy()
                    swapped[i], swapped[i + 1] = 0, 1
                    assert average_precision(scores, swapped) <= base + 1e-15

    @given(st.lists(st.tuples(st.integers(-5000, 5000), st.integers(0, 1)), min_size=2, max_size=20))
    @settings(max_examples=150)
    def test_monotone_transform_invariance(self, rows):
        # scores on a 1e-3 grid so the transforms stay strictly monotone in floats
        scores = [s / 1000.0 for s, _ in rows]
        labels = [y for _, y in rows]
        if sum(labels) == 0:
            return
        base = average_precision(scores, labels)
        squashed = average_precision([np.tanh(s) for s in scores], labels)
        scaled = average_precision([3.0 * s + 7.0 for s in scores], labels)
        assert base == pytest.approx(squashed, abs=1e-12)
        assert base == pytest.approx(scaled, abs=1e-12)


class TestAucRoc:
    def test_pair_enumeration(self):
        assert auc_roc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == 0.75

    def test_perfect_separation(self):
        assert auc_roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_equal_scores(self):
        assert auc_roc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5

    def test_degenerate_class_undefined(self):
        assert auc_roc([0.1, 0.2], [1, 1]) is None
        assert auc_roc([0.1, 0.2], [0, 0]) is None

    def test_matches_oracle_exhaustively_with_ties(self):
        rng = np.random.default_rng(7)
        grid = np.array([0.1, 0.2, 0.2, 0.5, 0.5, 0.9])
        for n in range(2, 9):
            scores = rng.choice(grid, size=n).tolist()
            for labels in itertools.product([0, 1], repeat=n):
                expected = auc_oracle(scores, list(labels))
                got = auc_roc(scores, list(labels))
                if expected is None:
                    assert got is None
                else:
                    assert abs(got - expected) < 1e-12

    @given(st.lists(st.tuples(st.integers(-5000, 5000), st.integers(0, 1)), min_size=2, max_size=20))
    @settings(max_examples=150)
    def test_monotone_transform_invariance(self, rows):
        scores = [s / 1000.0 for s, _ in rows]
        labels = [y for _, y in rows]
        if len(set(labels)) < 2:
            return
        base = auc_roc(scores, labels)
        assert auc_roc([np.exp(s) for s in scores], labels) == pytest.approx(base, abs=1e-12)


class TestSelectThreshold:
    def test_worked_example(self):
        threshold, f1 = select_threshold([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0])
        assert 0.1 < threshold <= 0.7
        assert f1 == pytest.approx(0.8)

    def test_perfectly_separable(self):
        _, f1 = select_threshold([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert f1 == 1.0

    def test_never_all_negative(self):
        # one positive with the lowest score: all-negative would be tempting
        scores = [0.9, 0.8, 0.7, 0.1]
        labels = [0, 0, 0, 1]
        threshold, _ = select_threshold(scores, labels)
        assert threshold <= max(scores)
        assert any(s >= threshold for s in scores)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(3)
        for n in range(1, 9):
            for labels in itertools.product([0, 1], repeat=n):
                if sum(labels) == 0:
                    continue
                scores = rng.random(n).tolist()
                threshold, f1 = select_threshold(scores, list(labels))
                assert f1 == pytest.approx(threshold_oracle_f1(scores, list(labels)))
                assert threshold <= max(scores)

    def test_requires_positive(self):
        with pytest.raises(DataError):
            select_threshold([0.3, 0.4], [0, 0])

    def test_ties_take_lowest_threshold(self):
        # both "all positive" and "top-1" give f1 = 1 when everything is positive
        threshold, _ = select_threshold([0.6, 0.4], [1, 1])
        assert threshold < 0.4


class TestSplit:
    def test_twenty_eighty(self):
        labels = [1, 1, 0, 0, 0, 0, 0, 1, 0, 0]
        val, test = split_validation_test(labels, 0.2, seed=4)
        assert len(val) == 2 and len(test) == 8

    def test_disjoint_union(self):
        labels = [1, 0] * 10
        val, test = split_validation_test(labels, 0.3, seed=1)
        assert set(val) | set(test) == set(range(20))
        assert set(val) & set(test) == set()

    def test_same_seed_same_split(self):
        labels = [1, 0, 0, 1, 0, 1, 0, 0]
        a = split_validation_test(labels, 0.25, seed=9)
        b = split_validation_test(labels, 0.25, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_stratified_counts(self):
        labels = [1] * 10 + [0] * 30
        val, _ = split_validation_test(labels, 0.2, seed=0)
        val_labels = [labels[i] for i in val]
        assert val_labels.count(1) == 2 and val_labels.count(0) == 6

    def test_tiny_positive_stratum_falls_back(self, caplog):
        labels = [1] + [0] * 9
        with caplog.at_level("WARNING"):
            val, test = split_validation_test(labels, 0.2, seed=0)
        assert len(val) == 2 and len(test) == 8
        assert "unstratified" in caplog.text

    def test_bad_fraction(self):
        with pytest.raises(DataError):
            split_validation_test([1, 0], 1.0, seed=0)

    @pytest.mark.parametrize("labels", [[1] * 10 + [0] * 30, [1] + [0] * 9])
    def test_both_parts_ascend(self, labels):
        """The plan keeps a pool's split rows in this order, so its
        positives stay first; the second labels fall back to an unstratified
        split."""
        for seed in range(5):
            for part in split_validation_test(labels, 0.2, seed=seed):
                assert np.all(np.diff(part) > 0)


def top_k_oracle(scores, k):
    """The per-dict rule the matrix top-k replaced: sort every score, ties by
    concept id, and keep the first k."""
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [concept for concept, _ in ranked[:k]]


def hit_oracle(score_maps, target_sets, k):
    """Hit values in image-id order, and the (empty targets, no scores,
    fewer than k scores) image counts, by the per-dict rule."""
    hits, skipped_empty, skipped_unscored, short_of_k = [], 0, 0, 0
    for image_id in sorted(target_sets):
        targets = target_sets[image_id]
        scores = score_maps.get(image_id)
        if not targets:
            skipped_empty += 1
        elif not scores:
            skipped_unscored += 1
        else:
            short_of_k += len(scores) < k
            hits.append(1.0 if set(top_k_oracle(scores, k)) & set(targets) else 0.0)
    return hits, (skipped_empty, skipped_unscored, short_of_k)


WARNINGS = ("empty target sets", "without scores", "fewer than k")


def matrix_hits(score_maps, target_sets, k):
    """``hit_vector`` on the matrix form of per-image score dicts, with rows
    in image-id order; returns the hits and the three warning counts."""
    matrix = score_matrix(score_maps)
    ids = sorted(target_sets)
    targets = np.array(
        [[c in target_sets[i] for c in matrix.concepts] for i in ids], dtype=bool
    ).reshape(len(ids), len(matrix.concepts))
    has_targets = np.array([bool(target_sets[i]) for i in ids], dtype=bool)
    with mock.patch.object(metrics_log, "warning") as warn:
        hits = hit_vector(
            matrix.take_rows(matrix.row_of(ids)), targets, has_targets, k, group="A"
        )
    logged = {args[0]: args[1] for args, _ in warn.call_args_list}
    counts = tuple(
        next((n for msg, n in logged.items() if key in msg), 0) for key in WARNINGS
    )
    return hits.tolist(), counts


class TestHitRate:
    SCORES = {
        "i1": {"shower": 0.9, "floor": 0.5, "wall": 0.4, "sink": 0.3, "door": 0.2, "cat": 0.1},
        "i2": {"shower": 0.1, "floor": 0.9, "wall": 0.8, "sink": 0.7, "door": 0.6, "cat": 0.5},
    }

    def test_direct_hit(self):
        hits, _ = matrix_hits({"i1": self.SCORES["i1"]}, {"i1": {"shower"}}, k=5)
        assert hits == [1.0]

    def test_any_mapped_class_counts(self):
        targets = {"i2": {"shower_room", "shower", "bathtub"}}
        scores = {"i2": {"bathtub": 0.9, "a": 0.8, "b": 0.7, "c": 0.6, "d": 0.5, "e": 0.4}}
        assert matrix_hits(scores, targets, k=5)[0] == [1.0]

    def test_mean_over_images(self):
        targets = {"i1": {"shower"}, "i2": {"shower"}}
        assert np.mean(matrix_hits(self.SCORES, targets, k=5)[0]) == 0.5

    def test_empty_target_excluded(self):
        targets = {"i1": {"shower"}, "i2": set()}
        hits, counts = matrix_hits(self.SCORES, targets, k=5)
        assert hits == [1.0]
        assert counts == (1, 0, 0)

    def test_top_k_tie_break_deterministic(self):
        # "a" and "b" tie above "c": k=2 keeps them by concept id, so "c" misses
        scores = {"i1": {"b": 0.5, "a": 0.5, "c": 0.4}}
        assert matrix_hits(scores, {"i1": {"c"}}, k=2)[0] == [0.0]
        assert matrix_hits(scores, {"i1": {"b"}}, k=1)[0] == [0.0]
        assert matrix_hits(scores, {"i1": {"a"}}, k=1)[0] == [1.0]

    def test_unscored_cell_never_hits(self):
        # i2 has one score, so its top 2 reaches into an unscored column
        scores = {"i1": {"a": 0.1, "b": 0.2}, "i2": {"b": 0.3}}
        hits, counts = matrix_hits(scores, {"i1": {"x"}, "i2": {"a"}}, k=2)
        assert hits == [0.0, 0.0]
        assert counts == (0, 0, 1)

    def test_peak_memory_at_a_wide_vocabulary(self):
        """At a 21,000-concept vocabulary with each image scored for a few
        hundred concepts, the call holds the negated kept rows and, only
        while partitioning, the partitioned copy: its traced peak stays
        within 2.1x the matrix's bytes. A view of the k-th column would keep
        the partitioned copy alive to the end, for 2.25x."""
        rng = np.random.default_rng(0)
        shape = (300, 21_000)
        scores = np.full(shape, np.nan)
        scored = rng.random(shape) < 0.02
        scores[scored] = rng.random(np.count_nonzero(scored))
        targets = scored & (rng.random(shape) < 0.1)
        has_targets = np.ones(shape[0], dtype=bool)
        want = sorted_hit_vector(scores, targets, has_targets, 5)
        tracemalloc.start()
        try:
            got = hit_vector(scores, targets, has_targets, 5, group="A")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak <= 2.1 * scores.nbytes, peak / scores.nbytes

    def test_bad_k(self):
        with pytest.raises(DataError, match="k must be"):
            hit_vector(
                np.zeros((1, 1)), np.ones((1, 1), bool), np.ones(1, bool), 0, group="A"
            )

    CONCEPTS = ("a", "b", "c", "d", "e")

    @settings(max_examples=300, deadline=None)
    @given(
        images=st.dictionaries(
            st.sampled_from(["i0", "i1", "i2", "i3", "i4", "i5"]),
            st.tuples(
                st.none() | st.dictionaries(
                    st.sampled_from(CONCEPTS),
                    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0])
                    | st.floats(-2, 2, allow_nan=False),
                    max_size=5,
                ),
                st.sets(st.sampled_from(CONCEPTS + ("unscored",)), max_size=3),
            ),
            max_size=6,
        ),
        k=st.integers(1, 6),
    )
    def test_matches_per_dict_rule(self, images, k):
        """Tied scores, 0.0 against -0.0, fewer than k scores, no scores and
        empty target sets all give the hits and warnings of the old rule."""
        score_maps = {i: s for i, (s, _) in images.items() if s is not None}
        target_sets = {i: t for i, (_, t) in images.items()}
        assert matrix_hits(score_maps, target_sets, k) == hit_oracle(
            score_maps, target_sets, k
        )

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(0, 12),
        columns=st.integers(1, 40),
        k=st.integers(1, 44),
        nan_share=st.floats(0, 1),
        grid_share=st.floats(0, 1),
        target_share=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=5, columns=40, k=1, nan_share=1.0, grid_share=0.5,
             target_share=0.5, seed=0)  # no row scored
    @example(rows=5, columns=40, k=1, nan_share=0.0, grid_share=0.5,
             target_share=0.0, seed=0)  # no row with a target
    @example(rows=8, columns=6, k=9, nan_share=0.5, grid_share=1.0,
             target_share=0.3, seed=1)  # k past the columns
    def test_selection_matches_stable_sort(
        self, rows, columns, k, nan_share, grid_share, target_share, seed
    ):
        """The selection kernel gives the bytes of one stable sort per row
        on wide matrices: scores tied on a grid of {0.0, -0.0, 0.25, 0.5}
        among uniform floats, any share of unscored cells, rows scored for
        fewer than k concepts, and rows without targets or without a target
        among the columns."""
        rng = np.random.default_rng(seed)
        shape = (rows, columns)
        scores = np.where(
            rng.random(shape) < grid_share,
            rng.choice([0.0, -0.0, 0.25, 0.5], size=shape),
            rng.random(shape),
        )
        scores[rng.random(shape) < nan_share] = np.nan
        targets = rng.random(shape) < target_share
        # an image's targets may all be unscored concepts
        has_targets = targets.any(axis=1) | (rng.random(rows) < 0.2)
        got = hit_vector(scores, targets, has_targets, k, group="A")
        want = sorted_hit_vector(scores, targets, has_targets, k)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
