import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disparity_audit import (
    DataError,
    aggregate_disparity,
    per_concept_disparity,
    percentile,
    significance_flag,
)


class TestPercentile:
    def test_interpolation_definition(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_extremes(self):
        data = [5.0, 1.0, 3.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 5.0

    def test_constant_samples(self):
        for q in (0, 12.5, 50, 97.5, 100):
            assert percentile([2.0, 2.0, 2.0], q) == 2.0

    def test_rank_bounds(self):
        with pytest.raises(DataError):
            percentile([1.0], 101)
        with pytest.raises(DataError):
            percentile([], 50)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.floats(0, 100),
    )
    @settings(max_examples=200)
    def test_matches_numpy_linear(self, samples, q):
        ours = percentile(samples, q)
        theirs = float(np.percentile(np.array(samples), q))
        assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-9)


def simple_estimate(a, b, **kw):
    defaults = dict(metric="ap", concept="c", group_a="A", group_b="B")
    defaults.update(kw)
    return per_concept_disparity(a, b, **defaults)


class TestPerConceptDisparity:
    def test_identical_streams_zero_disparity(self):
        vals = [0.4, 0.5, 0.6, 0.7]
        est = simple_estimate(vals, vals)
        assert est.point == 0.0
        assert est.ci_low == 0.0 and est.ci_high == 0.0
        assert not significance_flag(est)

    def test_percentiles_of_1_to_100(self):
        a = [float(x) for x in range(1, 101)]
        b = [0.0] * 100
        est = simple_estimate(a, b)
        assert est.point == pytest.approx(50.5)
        assert est.ci_low == pytest.approx(3.475)
        assert est.ci_high == pytest.approx(97.525)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(0)
        a = rng.random(257).tolist()
        b = rng.random(257).tolist()
        fwd = simple_estimate(a, b)
        rev = simple_estimate(b, a, group_a="B", group_b="A")
        assert rev.point == -fwd.point
        assert rev.ci_low == -fwd.ci_high
        assert rev.ci_high == -fwd.ci_low

    def test_undefined_dropped_pairwise_and_counted(self):
        a = [0.5, None, 0.7, 0.9]
        b = [0.1, 0.2, None, 0.3]
        est = simple_estimate(a, b)
        assert est.bootstrap_count == 4
        assert est.bootstraps_used == 2
        # exactly half dropped is not "more than half"
        assert not est.unreliable

    def test_unreliable_flag_over_half(self):
        est = simple_estimate([None, None, 0.5, None], [0.1, 0.2, 0.3, 0.4])
        assert est.unreliable
        ok = simple_estimate([0.5, 0.6, 0.7, None], [0.1, 0.2, 0.3, 0.4])
        assert not ok.unreliable

    def test_all_undefined_has_no_point(self):
        est = simple_estimate([None, None], [0.5, 0.5])
        assert est.point is None and est.ci_low is None
        assert est.unreliable and not significance_flag(est)

    def test_mismatched_lengths_rejected(self):
        from disparity_audit import InvariantError

        with pytest.raises(InvariantError):
            simple_estimate([0.1, 0.2], [0.3])


class TestAggregateDisparity:
    def test_singleton_equals_per_concept(self):
        a = [0.4, 0.5, 0.6]
        b = [0.1, 0.3, 0.2]
        agg = aggregate_disparity({"c": a}, {"c": b}, metric="ap", group_a="A", group_b="B")
        per = simple_estimate(a, b)
        assert agg.point == per.point
        assert agg.ci_low == per.ci_low and agg.ci_high == per.ci_high
        assert agg.concept == "aggregate"

    def test_opposite_concepts_cancel(self):
        x = [0.1, 0.2, 0.3]
        zeros = [0.0, 0.0, 0.0]
        a = {"c1": x, "c2": zeros}
        b = {"c1": zeros, "c2": x}
        agg = aggregate_disparity(a, b, metric="ap", group_a="A", group_b="B")
        assert agg.point == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_fixture(self):
        # 3 concepts x 4 bootstraps, worked out by hand
        a = {
            "c1": [0.9, 0.8, 0.7, 0.6],
            "c2": [0.5, 0.5, 0.5, 0.5],
            "c3": [0.1, 0.2, 0.3, 0.4],
        }
        b = {
            "c1": [0.3, 0.3, 0.3, 0.3],
            "c2": [0.6, 0.5, 0.4, 0.3],
            "c3": [0.0, 0.1, 0.2, 0.3],
        }
        # per-bootstrap group means: a = [0.5, 0.5, 0.5, 0.5], b = [0.3, 0.3, 0.3, 0.3]
        agg = aggregate_disparity(a, b, metric="ap", group_a="A", group_b="B")
        assert agg.point == pytest.approx(0.2)
        assert agg.ci_low == pytest.approx(0.2) and agg.ci_high == pytest.approx(0.2)

    def test_bootstrap_with_any_undefined_concept_dropped(self):
        a = {"c1": [0.5, None, 0.5], "c2": [0.5, 0.5, 0.5]}
        b = {"c1": [0.1, 0.1, 0.1], "c2": [0.1, 0.1, 0.1]}
        agg = aggregate_disparity(a, b, metric="ap", group_a="A", group_b="B")
        assert agg.bootstraps_used == 2

    def test_empty_concept_set_rejected(self):
        with pytest.raises(DataError):
            aggregate_disparity({}, {}, metric="ap", group_a="A", group_b="B")

    def test_differing_concept_sets_rejected(self):
        with pytest.raises(DataError):
            aggregate_disparity(
                {"c1": [0.1]}, {"c2": [0.1]}, metric="ap", group_a="A", group_b="B"
            )


class TestSignificance:
    def test_interval_excluding_zero(self):
        est = simple_estimate([0.12, 0.2], [0.1, 0.12])
        est = est.__class__(**{**est.__dict__, "ci_low": 0.02, "ci_high": 0.08})
        assert significance_flag(est)

    def test_interval_containing_zero(self):
        est = simple_estimate([0.1], [0.1])
        est = est.__class__(**{**est.__dict__, "ci_low": -0.01, "ci_high": 0.05})
        assert not significance_flag(est)

    def test_zero_width_at_zero_not_significant(self):
        est = simple_estimate([0.5, 0.5], [0.5, 0.5])
        assert est.ci_low == 0.0 == est.ci_high
        assert not significance_flag(est)


class TestConvergence:
    def test_more_bootstraps_agree_within_mc_error(self):
        """B=250 vs B=4000 on a fixed pool: same estimand, smaller MC noise."""
        rng = np.random.default_rng(42)
        pool_a = rng.normal(0.6, 0.1, size=80)
        pool_b = rng.normal(0.5, 0.1, size=80)

        def run(n_boot, seed):
            r = np.random.default_rng(seed)
            means_a = np.array([pool_a[r.integers(0, 80, 80)].mean() for _ in range(n_boot)])
            means_b = np.array([pool_b[r.integers(0, 80, 80)].mean() for _ in range(n_boot)])
            return simple_estimate(means_a, means_b)

        small = run(250, seed=1)
        large = run(4000, seed=2)
        d_sd = np.sqrt(pool_a.var(ddof=1) / 80 + pool_b.var(ddof=1) / 80)
        mc_se = d_sd * np.sqrt(1 / 250 + 1 / 4000)
        assert abs(small.point - large.point) < 3 * mc_se

