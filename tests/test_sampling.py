from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disparity_audit import DataError, InvariantError, compute_budget
from disparity_audit.metrics import rank_pool
from disparity_audit.pipeline import ConceptSizing, evaluate_concept
from disparity_audit import sampling
from disparity_audit.sampling import _BLOCK_ELEMENTS, derive_rng, derive_seed, draw_rows

from oracles import derive_rngs, draw_baseline_group, draw_group, reference_rows


def make_pool(n_pos, n_neg, seed=0):
    """A ranked pool of ``n_pos`` positives, then ``n_neg`` negatives, which
    interleave in image order: the k-th positive is image row 2k + 1, the
    k-th negative image row 2k."""
    rng = np.random.default_rng(seed)
    return rank_pool(
        np.concatenate([rng.random(n_pos), rng.random(n_neg)]),
        np.arange(n_pos + n_neg) < n_pos,
        np.concatenate([2 * np.arange(n_pos) + 1, 2 * np.arange(n_neg)]),
    )


def make_pools(**pools):
    """One pool per group, from its (positives, negatives)."""
    return {g: make_pool(p, n, seed=derive_seed(g) % 1000) for g, (p, n) in pools.items()}


def sizes(pools):
    return {g: (pool.n_pos, pool.n_neg) for g, pool in pools.items()}


def draw_all(pools, budget, seed, b):
    """One fixed-prevalence draw of concept ``c`` per group, split into
    (positive, negative) indices into that group's positives and negatives."""
    out = {}
    for g in sorted(pools):
        pool = pools[g]
        rows = draw_group((pool.n_pos, pool.n_neg), budget, derive_rng(seed, "draw", "c", g, b))
        out[g] = (rows[rows < pool.n_pos], rows[rows >= pool.n_pos] - pool.n_pos)
    return out


class TestComputeBudget:
    def test_fixture_budget(self):
        assert compute_budget("c", {"A": (40, 300), "B": (60, 180)}, (1, 5)) == (36, 180)

    def test_budget_optimality(self):
        # p* + 1 = 37 would need 185 negatives in B, which has 180
        pools = {"A": (40, 300), "B": (60, 180)}
        p_next = compute_budget("c", pools, (1, 5))[0] + 1
        feasible = all(n_pos >= p_next and n_neg >= 5 * p_next for n_pos, n_neg in pools.values())
        assert not feasible

    def test_exact_fit(self):
        assert compute_budget("c", {"A": (10, 50), "B": (10, 50)}, (1, 5)) == (10, 50)

    def test_insufficient_negatives_names_group(self):
        with pytest.raises(DataError, match="'A'"):
            compute_budget("c", {"A": (5, 3), "B": (5, 40)}, (1, 4))

    def test_zero_positives_names_group(self):
        with pytest.raises(DataError, match="'A'"):
            compute_budget("c", {"A": (0, 30), "B": (5, 30)}, (1, 5))

    def test_first_failing_group_in_given_order(self):
        with pytest.raises(DataError, match="group 'B' has 0 positive"):
            compute_budget("c", {"B": (0, 30), "A": (0, 30)}, (1, 5))

    def test_no_groups(self):
        with pytest.raises(DataError, match="no groups to sample"):
            compute_budget("c", {}, (1, 5))

    @given(
        pa=st.integers(1, 200), na=st.integers(5, 400),
        pb=st.integers(1, 200), nb=st.integers(5, 400),
    )
    @settings(max_examples=100, deadline=None)
    def test_budget_is_maximal(self, pa, na, pb, nb):
        p, n = compute_budget("c", {"A": (pa, na), "B": (pb, nb)}, (1, 5))
        assert n == 5 * p
        for g, (pp, nn) in {"A": (pa, na), "B": (pb, nb)}.items():
            assert p <= pp and 5 * p <= nn
        assert any(
            p + 1 > pp or 5 * (p + 1) > nn for pp, nn in [(pa, na), (pb, nb)]
        )


class TestDraws:
    def test_cardinality(self):
        pools = make_pools(A=(5, 40), B=(5, 40))
        budget = compute_budget("c", sizes(pools), (1, 5))
        draws = draw_all(pools, budget, 1, 0)
        for g in ("A", "B"):
            assert draws[g][0].shape == (budget[0],)
            assert draws[g][1].shape == (budget[1],)

    def test_prevalence_exact_every_draw(self):
        pools = make_pools(A=(13, 90), B=(20, 70))
        budget = compute_budget("c", sizes(pools), (1, 5))
        for b in range(50):
            for g, (pos, neg) in draw_all(pools, budget, 2, b).items():
                n_pos = pos.size
                n_tot = n_pos + neg.size
                assert n_pos / n_tot == pytest.approx(1 / 6)

    def test_determinism(self):
        pools = make_pools(A=(5, 40))
        budget = compute_budget("c", sizes(pools), (1, 5))
        a = draw_all(pools, budget, 7, 1)["A"]
        b = draw_all(pools, budget, 7, 1)["A"]
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_uniformity_against_binomial_oracle(self):
        # 10,000 draws from 5 positives: each positive's frequency ~ Binomial(T, 1/5)
        pools = make_pools(A=(5, 40))
        budget = compute_budget("c", sizes(pools), (1, 5))
        counts = np.zeros(5)
        for b in range(10_000):
            pos, _ = draw_all(pools, budget, 3, b)["A"]
            counts += np.bincount(pos, minlength=5)
        total = counts.sum()
        expected = total / 5
        sigma = np.sqrt(total * 0.2 * 0.8)
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_order_and_parallelism_independence(self):
        pools = make_pools(A=(8, 30), B=(9, 31))
        budget = compute_budget("c", sizes(pools), (1, 3))
        forward = [draw_all(pools, budget, 11, b) for b in range(4)]
        backward = [draw_all(pools, budget, 11, b) for b in reversed(range(4))][::-1]
        for f, r in zip(forward, backward):
            for g in ("A", "B"):
                assert np.array_equal(f[g][0], r[g][0])
                assert np.array_equal(f[g][1], r[g][1])


class TestBaseline:
    def test_bootstrap_draw_size_is_pool_size(self):
        for b in range(20):
            rows = draw_baseline_group(20, derive_rng(5, "baseline", "c", "A", b))
            assert rows.size == 20

    def test_prevalence_matches_binomial_expectation(self):
        # 7 positives, the first rows, among 20
        n_draws = 4000
        frac = np.empty(n_draws)
        for b in range(n_draws):
            rows = draw_baseline_group(20, derive_rng(6, "baseline", "c", "A", b))
            frac[b] = np.count_nonzero(rows < 7) / 20
        se = np.sqrt(0.35 * 0.65 / (20 * n_draws))
        assert abs(frac.mean() - 0.35) < 4 * se

    def test_empty_pool_error_names_concept_and_group(self):
        sizing = ConceptSizing(pools=make_pools(A=(3, 5), B=(0, 0)), thresholds={}, budget=None)
        with pytest.raises(InvariantError, match="concept 'c' group 'B': cannot resample"):
            evaluate_concept("c", sizing, metrics=["ap"], bootstraps=2, seed=0)


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

    @pytest.mark.parametrize("prefix", [
        (0, "draw", "c", "A"), (2**64 + 7, "baseline", "d0", "gamma"), (5, "hit_rate", "B"),
        (-1, 3, "x"), ("seed", 0), (),
    ])
    def test_prefix_hashed_once_gives_the_same_seeds(self, prefix):
        rngs = derive_rngs(*prefix)
        for last in [*range(300), 2**63, -5, "b", ""]:
            assert rngs(last).bit_generator.seed_seq.entropy == derive_seed(*prefix, last)
        for last in (0, 7, "z"):
            assert np.array_equal(rngs(last).integers(0, 2**62, 8),
                                  derive_rng(*prefix, last).integers(0, 2**62, 8))


def drawn_blocks(key, bootstraps, sizes):
    """``draw_rows``' blocks, each checked for shape, and their rows."""
    width = sum(k for _, k in sizes)
    per_block = max(1, _BLOCK_ELEMENTS // max(width, 1))
    blocks = [block.copy() for block in draw_rows(key, bootstraps, sizes)]
    assert [b.shape for b in blocks] == [
        (min(per_block, bootstraps - start), width) for start in range(0, bootstraps, per_block)
    ]
    assert all(b.dtype == np.int64 for b in blocks)
    return np.concatenate(blocks) if blocks else np.empty((0, width), dtype=np.int64)


def assert_same_rows(key, bootstraps, sizes):
    got = drawn_blocks(key, bootstraps, sizes)
    want = reference_rows(key, bootstraps, sizes)
    differ = np.flatnonzero((got != want).any(axis=1)) if got.shape == want.shape else None
    assert differ is not None and differ.size == 0, (
        f"numpy {np.__version__}: draw_rows{(key, bootstraps, sizes)} differs from "
        f"the per-bootstrap generator in rows {differ}; numpy keeps SeedSequence and "
        f"PCG64 streams stable, but not Generator.integers"
    )


# Class sizes: 1 reads no bits; 2**31 + 1 redraws about half of all values,
# so nearly every row is redrawn; 2**32 is the widest emulated range, and
# beyond it every row is redrawn.
# 2**32 is the widest range numpy draws from a half with no rejection;
# 2**31 + 1 rejects about half the halves, 3 * 2**30 a quarter (a threshold
# of 2**30, far below n)
CLASS_SIZES = st.one_of(
    st.sampled_from([1, 2, 3, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]),
    st.integers(1, 50_000),
)
KEYS = st.lists(
    st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=4)), max_size=4
).map(tuple)


class TestDrawRows:
    """``draw_rows`` against the per-bootstrap generators of ``oracles``."""

    @given(
        key=KEYS,
        bootstraps=st.integers(0, 40),
        sizes=st.lists(st.tuples(CLASS_SIZES, st.integers(0, 3000)), min_size=1, max_size=3),
    )
    @example(key=(0, "draw", "c", "A"), bootstraps=25, sizes=[(720, 120), (1680, 600)])
    @example(key=(5, "x"), bootstraps=7, sizes=[(5, 3), (1, 4), (2**31 + 1, 5), (9, 3)])
    @example(key=(), bootstraps=1, sizes=[(2**32, 1), (2, 1)])
    @example(key=("q",), bootstraps=5, sizes=[(3 * 2**30, 40), (7, 9)])
    @example(key=("k",), bootstraps=0, sizes=[(7, 2)])
    @example(key=("one",), bootstraps=3, sizes=[(1, 4), (1, 2)])
    @settings(max_examples=150, deadline=None)
    def test_matches_per_bootstrap_reference(self, key, bootstraps, sizes):
        assert_same_rows(key, bootstraps, sizes)

    @pytest.mark.parametrize(
        "window", [lambda short, threshold: short, lambda short, threshold: 1],
        ids=["shortfall", "one-half"],
    )
    @given(
        key=KEYS,
        bootstraps=st.integers(1, 12),
        sizes=st.lists(st.tuples(CLASS_SIZES, st.integers(0, 300)), min_size=1, max_size=3),
    )
    @example(key=(5, "x"), bootstraps=7, sizes=[(5, 3), (1, 4), (2**31 + 1, 5), (9, 3)])
    @example(key=("w",), bootstraps=4, sizes=[(2**31 + 1, 300), (3, 7), (2**31 + 1, 41)])
    @settings(max_examples=60, deadline=None)
    def test_rows_do_not_depend_on_the_window(self, window, key, bootstraps, sizes):
        # windows with no room for rejections fall short at each one, so the
        # continuation reads on round after round
        with mock.patch.object(sampling, "_window", window):
            assert_same_rows(key, bootstraps, sizes)

    @pytest.mark.parametrize("width", [100, 719, 720, 8000, _BLOCK_ELEMENTS + 1])
    def test_counts_around_a_block_boundary(self, width):
        per_block = max(1, _BLOCK_ELEMENTS // width)
        sizes = [(2 * width + 1, width // 2), (width + 3, width - width // 2)]
        for bootstraps in (per_block - 1, per_block, per_block + 1, 2 * per_block + 1):
            assert_same_rows((3, "b", width), bootstraps, sizes)

    def test_deep_baseline_draws_take_the_redraw_path(self, monkeypatch):
        # about 1.4% of 8,000-value rows meet a Lemire rejection at n = 8,000:
        # this key's first 600 draws meet two, its first 6,000 draws 63
        continued = []
        continue_row = sampling._continue_row
        monkeypatch.setattr(
            sampling, "_continue_row", lambda *a: continued.append(a) or continue_row(*a)
        )
        assert_same_rows((0, "baseline", "d0", "alpha"), 600, [(8000, 8000)])
        assert len(continued) == 2
        continued.clear()
        for _ in draw_rows((0, "baseline", "d0", "alpha"), 6000, [(8000, 8000)]):
            pass
        assert len(continued) == 63

    @pytest.mark.parametrize("n", [2**32 + 1, 2**40])
    @pytest.mark.parametrize("k", [0, 3])
    def test_class_over_2_32_rows_is_an_invariant_error(self, n, k):
        with pytest.raises(InvariantError, match=f"pool of {n} rows"):
            next(draw_rows(("c", "A"), 2, [(5, 2), (n, k)]))

    @pytest.mark.parametrize("sizes", [[(0, 0)], [(3, 1), (0, 2)]])
    def test_empty_class_is_an_invariant_error(self, sizes):
        with pytest.raises(InvariantError, match="cannot resample an empty pool"):
            next(draw_rows(("c", "A"), 2, sizes))

    def test_empty_reliable_class_error_names_concept_and_group(self):
        pools = make_pools(A=(3, 5), B=(0, 8))
        sizing = ConceptSizing(pools=pools, thresholds={}, budget=(1, 2))
        with pytest.raises(InvariantError, match="concept 'c' group 'B': cannot resample"):
            evaluate_concept("c", sizing, metrics=["ap"], bootstraps=2, seed=0)
