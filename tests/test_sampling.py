import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disparity_audit import (
    DataError,
    compute_budget,
    draw_baseline_bootstrap,
    draw_bootstrap,
    filter_rare_concepts,
)
from disparity_audit.concepts import ConceptEvalTable, GroupPool
from disparity_audit.sampling import derive_rng, derive_seed


def make_pool(n_pos, n_neg, seed=0):
    rng = np.random.default_rng(seed)
    return GroupPool(
        pos_scores=rng.random(n_pos),
        pos_ids=np.array([f"p{i}" for i in range(n_pos)], dtype=object),
        neg_scores=rng.random(n_neg),
        neg_ids=np.array([f"n{i}" for i in range(n_neg)], dtype=object),
    )


def make_table(concept="c", **pools):
    return ConceptEvalTable(
        concept=concept,
        pools={g: make_pool(p, n, seed=hash(g) % 1000) for g, (p, n) in pools.items()},
    )


class TestRareFilter:
    """The filter reads concept -> group -> scored positive count."""

    def test_retained_when_all_groups_clear_k(self):
        assert filter_rare_concepts({"c": {"A": 60, "B": 55}}, 50) == ["c"]

    def test_boundary_one_short(self):
        assert filter_rare_concepts({"c": {"A": 49, "B": 80}}, 50) == []

    def test_single_positive_removed_at_k30(self):
        positives = {"musical_instrument": {"Africa": 1, "Europe": 7}}
        assert filter_rare_concepts(positives, 30) == []

    def test_missing_group_counts_as_zero(self):
        positives = {"c": {"A": 60, "B": 60}, "d": {"A": 60}}
        assert filter_rare_concepts(positives, 50) == ["c"]

    def test_explicit_group_list(self):
        assert filter_rare_concepts({"c": {"A": 60}}, 50, groups=["A", "B"]) == []

    def test_k_below_one_errors(self):
        with pytest.raises(DataError):
            filter_rare_concepts({}, 0)


class TestComputeBudget:
    def test_fixture_budget(self):
        table = make_table(A=(40, 300), B=(60, 180))
        plan = compute_budget(table, (1, 5))
        assert plan.positives_per_group == 36
        assert plan.negatives_per_group == 180

    def test_budget_optimality(self):
        # p* + 1 = 37 would need 185 negatives in B, which has 180
        table = make_table(A=(40, 300), B=(60, 180))
        plan = compute_budget(table, (1, 5))
        p_next = plan.positives_per_group + 1
        feasible = all(
            table.pools[g].n_pos >= p_next and table.pools[g].n_neg >= 5 * p_next
            for g in table.groups
        )
        assert not feasible

    def test_exact_fit(self):
        table = make_table(A=(10, 50), B=(10, 50))
        plan = compute_budget(table, (1, 5))
        assert (plan.positives_per_group, plan.negatives_per_group) == (10, 50)

    def test_insufficient_negatives_names_group(self):
        table = make_table(A=(5, 3), B=(5, 40))
        with pytest.raises(DataError, match="'A'"):
            compute_budget(table, (1, 4))

    def test_zero_positives_names_group(self):
        table = make_table(A=(0, 30), B=(5, 30))
        with pytest.raises(DataError, match="'A'"):
            compute_budget(table, (1, 5))

    @given(
        pa=st.integers(1, 200), na=st.integers(5, 400),
        pb=st.integers(1, 200), nb=st.integers(5, 400),
    )
    @settings(max_examples=100, deadline=None)
    def test_budget_is_maximal(self, pa, na, pb, nb):
        table = make_table(A=(pa, na), B=(pb, nb))
        plan = compute_budget(table, (1, 5))
        p = plan.positives_per_group
        assert plan.negatives_per_group == 5 * p
        for g, (pp, nn) in {"A": (pa, na), "B": (pb, nb)}.items():
            assert p <= pp and 5 * p <= nn
        assert any(
            p + 1 > pp or 5 * (p + 1) > nn for pp, nn in [(pa, na), (pb, nb)]
        )


class TestDraws:
    def test_cardinality(self):
        table = make_table(A=(5, 40), B=(5, 40))
        plan = compute_budget(table, (1, 5), seed=1, bootstrap_count=3)
        draws = draw_bootstrap(table, plan, 0)
        for g in ("A", "B"):
            assert draws[g].positive_indices.shape == (plan.positives_per_group,)
            assert draws[g].negative_indices.shape == (plan.negatives_per_group,)

    def test_prevalence_exact_every_draw(self):
        table = make_table(A=(13, 90), B=(20, 70))
        plan = compute_budget(table, (1, 5), seed=2, bootstrap_count=50)
        for b in range(50):
            for g, draw in draw_bootstrap(table, plan, b).items():
                n_pos = draw.positive_indices.size
                n_tot = n_pos + draw.negative_indices.size
                assert n_pos / n_tot == pytest.approx(1 / 6)

    def test_determinism(self):
        table = make_table(A=(5, 40))
        plan = compute_budget(table, (1, 5), seed=7, bootstrap_count=2)
        a = draw_bootstrap(table, plan, 1)["A"]
        b = draw_bootstrap(table, plan, 1)["A"]
        assert np.array_equal(a.positive_indices, b.positive_indices)
        assert np.array_equal(a.negative_indices, b.negative_indices)

    def test_uniformity_against_binomial_oracle(self):
        # 10,000 draws from 5 positives: each positive's frequency ~ Binomial(T, 1/5)
        table = make_table(A=(5, 40))
        plan = compute_budget(table, (1, 5), seed=3, bootstrap_count=10_000)
        counts = np.zeros(5)
        for b in range(10_000):
            draw = draw_bootstrap(table, plan, b)["A"]
            counts += np.bincount(draw.positive_indices, minlength=5)
        total = counts.sum()
        expected = total / 5
        sigma = np.sqrt(total * 0.2 * 0.8)
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_order_and_parallelism_independence(self):
        table = make_table(A=(8, 30), B=(9, 31))
        plan = compute_budget(table, (1, 3), seed=11, bootstrap_count=4)
        forward = [draw_bootstrap(table, plan, b) for b in range(4)]
        backward = [draw_bootstrap(table, plan, b) for b in reversed(range(4))][::-1]
        for f, r in zip(forward, backward):
            for g in ("A", "B"):
                assert np.array_equal(f[g].positive_indices, r[g].positive_indices)
                assert np.array_equal(f[g].negative_indices, r[g].negative_indices)


class TestBaseline:
    def test_bootstrap_draw_size_is_pool_size(self):
        table = make_table(A=(7, 13))
        for b in range(20):
            draw = draw_baseline_bootstrap(table, seed=5, bootstrap_index=b)["A"]
            assert draw.positive_indices.size + draw.negative_indices.size == 20

    def test_prevalence_matches_binomial_expectation(self):
        table = make_table(A=(7, 13))
        n_draws = 4000
        frac = np.empty(n_draws)
        for b in range(n_draws):
            draw = draw_baseline_bootstrap(table, seed=6, bootstrap_index=b)["A"]
            frac[b] = draw.positive_indices.size / 20
        se = np.sqrt(0.35 * 0.65 / (20 * n_draws))
        assert abs(frac.mean() - 0.35) < 4 * se

    def test_zero_bootstrap_count_rejected(self):
        table = make_table(A=(5, 20))
        with pytest.raises(DataError):
            compute_budget(table, (1, 4), bootstrap_count=0)


class TestDeriveRng:
    def test_distinct_keys_distinct_streams(self):
        a = derive_rng(1, "draw", "c", "A", 0).integers(0, 1000, 10)
        b = derive_rng(1, "draw", "c", "A", 1).integers(0, 1000, 10)
        c = derive_rng(1, "draw", "c", "B", 0).integers(0, 1000, 10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_derivation_stable(self):
        assert derive_seed(3, "x", 4) == derive_seed(3, "x", 4)
        assert derive_seed(3, "x", 4) != derive_seed(3, "x", 5)

