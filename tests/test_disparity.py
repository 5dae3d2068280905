import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from disparity_audit import (
    DataError,
    InvariantError,
    pair_disparity,
    percentile,
    significance_flag,
)

from oracles import aggregate_disparity, per_concept_disparity
from oracles import percentile as fraction_percentile


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

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                 -1.5e-310, 1.7976931348623157e308, -1.7976931348623157e308]),
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(-1.0, 1.0),
            ),
            min_size=1, max_size=300,
        ),
        st.one_of(st.sampled_from([0, 2.5, 97.5, 100]), st.floats(0, 100)),
    )
    @example([-0.0, 0.0], 50.0)
    @example([5e-324, 1e308], 2.5)
    @settings(max_examples=400)
    def test_matches_fraction_reference_bit_for_bit(self, samples, q):
        assert percentile(samples, q).hex() == fraction_percentile(samples, q).hex()


def simple_estimate(a, b, **kw):
    defaults = dict(metric="ap", concept="c", group_a="A", group_b="B", sample_sizes={})
    defaults.update(kw)
    return pair_disparity(a, b, **defaults)


def aggregate(rows_a, rows_b):
    """The aggregate row of concepts x bootstraps values."""
    return pair_disparity(
        np.array(rows_a, dtype=float), np.array(rows_b, dtype=float),
        metric="ap", concept="aggregate", group_a="A", group_b="B", sample_sizes={},
    )


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
        a = [0.5, np.nan, 0.7, 0.9]
        b = [0.1, 0.2, np.nan, 0.3]
        est = simple_estimate(a, b)
        assert est.bootstrap_count == 4
        assert est.bootstraps_used == 2
        # exactly half dropped is not "more than half"
        assert not est.unreliable

    def test_unreliable_flag_over_half(self):
        est = simple_estimate([np.nan, np.nan, 0.5, np.nan], [0.1, 0.2, 0.3, 0.4])
        assert est.unreliable
        ok = simple_estimate([0.5, 0.6, 0.7, np.nan], [0.1, 0.2, 0.3, 0.4])
        assert not ok.unreliable

    def test_all_undefined_has_no_point(self):
        est = simple_estimate([np.nan, np.nan], [0.5, 0.5])
        assert est.point is None and est.ci_low is None
        assert est.unreliable and not significance_flag(est)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvariantError):
            simple_estimate([0.1, 0.2], [0.3])


class TestAggregateDisparity:
    def test_singleton_equals_per_concept(self):
        a = [0.4, 0.5, 0.6]
        b = [0.1, 0.3, 0.2]
        agg = aggregate([a], [b])
        per = simple_estimate(a, b)
        assert agg.point == per.point
        assert agg.ci_low == per.ci_low and agg.ci_high == per.ci_high
        assert agg.concept == "aggregate"

    def test_opposite_concepts_cancel(self):
        x = [0.1, 0.2, 0.3]
        zeros = [0.0, 0.0, 0.0]
        agg = aggregate([x, zeros], [zeros, x])
        assert agg.point == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_fixture(self):
        # 3 concepts x 4 bootstraps, worked out by hand
        a = [
            [0.9, 0.8, 0.7, 0.6],
            [0.5, 0.5, 0.5, 0.5],
            [0.1, 0.2, 0.3, 0.4],
        ]
        b = [
            [0.3, 0.3, 0.3, 0.3],
            [0.6, 0.5, 0.4, 0.3],
            [0.0, 0.1, 0.2, 0.3],
        ]
        # per-bootstrap group means: a = [0.5, 0.5, 0.5, 0.5], b = [0.3, 0.3, 0.3, 0.3]
        agg = aggregate(a, b)
        assert agg.point == pytest.approx(0.2)
        assert agg.ci_low == pytest.approx(0.2) and agg.ci_high == pytest.approx(0.2)

    def test_bootstrap_with_any_undefined_concept_dropped(self):
        a = [[0.5, np.nan, 0.5], [0.5, 0.5, 0.5]]
        b = [[0.1, 0.1, 0.1], [0.1, 0.1, 0.1]]
        agg = aggregate(a, b)
        assert agg.bootstraps_used == 2

    def test_empty_concept_set_rejected(self):
        with pytest.raises(DataError):
            aggregate(np.empty((0, 3)), np.empty((0, 3)))

    def test_differing_concept_sets_rejected(self):
        """Concepts that differ between the groups show as differing shapes."""
        with pytest.raises(InvariantError):
            aggregate([[0.1]], [[0.1], [0.2]])


# metric-like values, -0.0 among them, or undefined
VALUES = st.one_of(st.just(np.nan), st.floats(-1, 1))
FIELDS = ("point", "ci_low", "ci_high", "bootstraps_used", "bootstrap_count", "unreliable")


@st.composite
def bootstrap_values(draw):
    """Both groups' values: 1-D, one concept's bootstraps, or concepts x
    bootstraps; NaNs at random, and up to two rows of a side NaN
    throughout (in 1-D, the whole side)."""
    n_boot = draw(st.integers(1, 300))
    shape = (n_boot,) if draw(st.booleans()) else (draw(st.integers(1, 6)), n_boot)
    sides = [draw(arrays(np.float64, shape, elements=VALUES)) for _ in range(2)]
    for side in sides:
        rows = np.atleast_2d(side)  # a view: NaN rows land in ``side``
        rows[draw(st.lists(st.integers(0, rows.shape[0] - 1), max_size=2))] = np.nan
    return sides


class TestMatchesReferenceReducers:
    """``pair_disparity`` against the two reducers it replaced, field by
    field; ``repr`` tells -0.0 from 0.0."""

    @given(bootstrap_values())
    @example([np.array([0.25]), np.array([0.5])])
    @example([np.array([[0.25]]), np.array([[np.nan]])])
    @example([np.array([-0.0]), np.array([0.0])])  # ci_low -0.0, which a mean loses
    @example([np.array([[-0.0, 0.5], [-0.0, 0.25]]), np.array([[0.0, 0.5], [0.0, 0.5]])])
    @settings(max_examples=300, deadline=None)
    def test_matches_per_concept_and_aggregate_reducers(self, values):
        a, b = values
        groups = dict(metric="ap", group_a="A", group_b="B")
        if a.ndim == 1:
            want = per_concept_disparity(a, b, concept="c", **groups)
            got = pair_disparity(a, b, concept="c", sample_sizes={}, **groups)
        else:
            names = [f"c{i}" for i in range(a.shape[0])]
            want = aggregate_disparity(dict(zip(names, a)), dict(zip(names, b)), **groups)
            got = pair_disparity(a, b, concept="aggregate", sample_sizes={}, **groups)
        assert [repr(getattr(got, f)) for f in FIELDS] == [
            repr(getattr(want, f)) for f in FIELDS
        ]


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

