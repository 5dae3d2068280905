import math
from dataclasses import replace

import numpy as np
import pytest

from disparity_audit import CellSpec, DataError, ScenarioSpec, closed_form_auc, generate
from disparity_audit.sampling import derive_seed
from disparity_audit.synth import logistic

from oracles import auc_roc, average_precision, confusion_at_threshold, rates_from_confusion


def scenario(prevalence=0.2, n=100, seed=1, mu_pos=1.0, mu_neg=0.0, sigma=1.0):
    cell = CellSpec(
        prevalence=prevalence, mu_pos=mu_pos, sigma_pos=sigma,
        mu_neg=mu_neg, sigma_neg=sigma, n=n,
    )
    return ScenarioSpec(concepts={"c": {"g": cell}}, seed=seed)


class TestGenerate:
    def test_exact_positive_counts(self):
        images, assignments, predictions = generate(scenario(prevalence=0.2, n=100))
        positives = [i for i in images if "c" in i.direct_labels]
        assert len(positives) == 20
        assert len(images) == 100 and len(predictions) == 100
        assert assignments == {img.image_id: "g" for img in images}

    def test_rounding_to_nearest_with_floor_half_up(self):
        images, _, _ = generate(scenario(prevalence=0.25, n=10))
        assert sum(1 for i in images if "c" in i.direct_labels) == 3  # 2.5 -> 3

    def test_zero_positive_rounding_rejected(self):
        with pytest.raises(DataError, match="zero positives"):
            generate(scenario(prevalence=0.04, n=10))

    def test_same_seed_identical_output(self):
        a = generate(scenario(seed=9))
        b = generate(scenario(seed=9))
        assert a == b

    def test_different_seed_differs(self):
        a = generate(scenario(seed=1))
        b = generate(scenario(seed=2))
        assert a != b

    def test_scores_in_unit_interval(self):
        _, _, predictions = generate(scenario(n=500))
        values = [p.scores["c"] for p in predictions]
        assert all(0 < v < 1 for v in values)

    def test_positive_score_mean_matches_monte_carlo(self):
        """Empirical positive-score mean ~ E[logistic(N(mu, sigma))]."""
        n = 100_000
        spec = scenario(prevalence=0.5, n=n, seed=3)
        images, _, predictions = generate(spec)
        pos_ids = {i.image_id for i in images if "c" in i.direct_labels}
        positive = np.array(
            [p.scores["c"] for p in predictions if p.image_id in pos_ids]
        )
        rng = np.random.default_rng(123456)
        reference = logistic(rng.normal(1.0, 1.0, size=400_000))
        se = math.sqrt(
            positive.var(ddof=1) / positive.size + reference.var(ddof=1) / reference.size
        )
        assert abs(positive.mean() - reference.mean()) < 4 * se

    def test_inconsistent_group_sizes_rejected(self):
        cell_a = CellSpec(prevalence=0.5, mu_pos=1, sigma_pos=1, mu_neg=0, sigma_neg=1, n=10)
        cell_b = CellSpec(prevalence=0.5, mu_pos=1, sigma_pos=1, mu_neg=0, sigma_neg=1, n=20)
        with pytest.raises(DataError, match="inconsistent"):
            ScenarioSpec(concepts={"c1": {"g": cell_a}, "c2": {"g": cell_b}}, seed=0)

    def test_group_named_after_exclusion_reason_rejected(self):
        """``generate`` maps each image id to its group, and a reason's name
        there would read as an exclusion."""
        cell = CellSpec(prevalence=0.5, mu_pos=1, sigma_pos=1, mu_neg=0, sigma_neg=1, n=10)
        with pytest.raises(DataError, match="'BoxTooSmall' has the name of an exclusion"):
            ScenarioSpec(concepts={"c": {"g": cell, "BoxTooSmall": cell}}, seed=0)


class TestClosedFormAuc:
    def test_equal_laws_half(self):
        assert closed_form_auc(0.5, 1.0, 0.5, 1.0) == 0.5

    def test_unit_shift(self):
        expected = 0.5 * (1 + math.erf((1 / math.sqrt(2)) / math.sqrt(2)))
        assert closed_form_auc(1, 1, 0, 1) == pytest.approx(expected)
        assert closed_form_auc(1, 1, 0, 1) == pytest.approx(0.7602, abs=2e-4)

    def test_swap_antisymmetry(self):
        a = closed_form_auc(1.3, 0.7, 0.2, 1.1)
        b = closed_form_auc(0.2, 1.1, 1.3, 0.7)
        assert a + b == pytest.approx(1.0)

    def test_empirical_convergence_at_1e4(self):
        """Empirical AUC on generated data within 3 MC SEs of the closed form."""
        truth = closed_form_auc(1, 1, 0, 1)
        n = 10_000
        aucs = []
        for seed in range(12):
            images, _, predictions = generate(scenario(prevalence=0.5, n=n, seed=seed))
            pos_ids = {i.image_id for i in images if "c" in i.direct_labels}
            scores = np.array([p.scores["c"] for p in predictions])
            labels = np.array([1 if p.image_id in pos_ids else 0 for p in predictions])
            aucs.append(auc_roc(scores, labels))
        aucs = np.array(aucs)
        se = aucs.std(ddof=1) / math.sqrt(len(aucs))
        assert abs(aucs.mean() - truth) < 3 * se


def cell_at_prevalence(cell, alpha, seed):
    """Scores and labels of one cell regenerated at prevalence ``alpha``; the
    score laws stay fixed."""
    spec = ScenarioSpec(concepts={"c": {"g": replace(cell, prevalence=alpha)}}, seed=seed)
    images, _, predictions = generate(spec)
    scores_of = {p.image_id: p.scores["c"] for p in predictions}
    scores = np.array([scores_of[img.image_id] for img in images])
    labels = np.array([1 if "c" in img.direct_labels else 0 for img in images])
    return scores, labels


class TestPrevalenceSweep:
    CELL = CellSpec(prevalence=0.5, mu_pos=1, sigma_pos=1, mu_neg=0, sigma_neg=1, n=4000)

    def test_tpr_fpr_stable_ap_moves(self):
        measured = {}
        for i, alpha in enumerate((0.5, 0.1)):
            scores, labels = cell_at_prevalence(self.CELL, alpha, seed=derive_seed(4, "sweep", i))
            rates = rates_from_confusion(confusion_at_threshold(scores, labels, 0.6))
            measured[alpha] = (average_precision(scores, labels), rates.tpr, rates.fpr)
        (ap_hi, tpr_hi, fpr_hi), (ap_lo, tpr_lo, fpr_lo) = measured[0.5], measured[0.1]
        # binomial 3-sigma bounds: 2000/2000 rows at alpha 0.5, 400/3600 at 0.1
        for v_hi, v_lo, n_hi, n_lo in ((tpr_hi, tpr_lo, 2000, 400),
                                       (fpr_hi, fpr_lo, 2000, 3600)):
            pooled = (v_hi + v_lo) / 2
            bound = 3 * math.sqrt(pooled * (1 - pooled) * (1 / n_hi + 1 / n_lo))
            assert abs(v_hi - v_lo) <= bound
        assert ap_hi - ap_lo > 0.1

    def test_perfect_separation_prevalence_proof(self):
        cell = CellSpec(prevalence=0.5, mu_pos=60, sigma_pos=0.5, mu_neg=-60,
                        sigma_neg=0.5, n=400)
        for i, alpha in enumerate((0.5, 0.1, 0.02)):
            scores, labels = cell_at_prevalence(cell, alpha, seed=derive_seed(5, "sweep", i))
            assert average_precision(scores, labels) == 1.0


class TestScenarioIO:
    def test_round_trip_from_dict(self):
        spec = ScenarioSpec.from_dict({
            "seed": 5,
            "concepts": {
                "c": {
                    "g1": {"prevalence": 0.5, "mu_pos": 1, "sigma_pos": 1,
                           "mu_neg": 0, "sigma_neg": 1, "n": 40},
                    "g2": {"prevalence": 0.1, "mu_pos": 1, "sigma_pos": 1,
                           "mu_neg": 0, "sigma_neg": 1, "n": 40},
                },
            },
        })
        assert spec.groups == ("g1", "g2")
        assert spec.group_size("g2") == 40

    def test_validation(self):
        with pytest.raises(DataError):
            CellSpec(prevalence=1.5, mu_pos=0, sigma_pos=1, mu_neg=0, sigma_neg=1, n=5)
        with pytest.raises(DataError):
            CellSpec(prevalence=0.5, mu_pos=0, sigma_pos=0, mu_neg=0, sigma_neg=1, n=5)
        with pytest.raises(DataError):
            ScenarioSpec(concepts={}, seed=0)
