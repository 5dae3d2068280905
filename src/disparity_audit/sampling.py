"""Rare-label filtering and prevalence-controlled bootstrap sampling.

Every draw's RNG stream is derived from (seed, concept, group, bootstrap
index), so results are identical regardless of evaluation order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .concepts import ConceptEvalTable, GroupPool
from .errors import DataError, InvariantError


def _part_hash(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(str(part).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a mixed tuple of ints and strings."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(_part_hash(part).to_bytes(8, "big"))
    return int.from_bytes(h.digest(), "big")


def derive_rng(*parts) -> np.random.Generator:
    """Deterministic generator keyed on the given parts; platform-independent."""
    return np.random.default_rng(np.random.SeedSequence(derive_seed(*parts)))


@dataclass(frozen=True)
class SamplingPlan:
    """Fixed-prevalence per-group budget for one concept's bootstrap draws.

    The budget is identical for every group: ``positives_per_group``
    positives and ``negatives_per_group`` negatives per draw, realizing the
    pos:neg ratio exactly.
    """

    concept: str
    pos_parts: int
    neg_parts: int
    positives_per_group: int
    negatives_per_group: int
    groups: tuple[str, ...]
    seed: int
    bootstrap_count: int

    def __post_init__(self):
        if self.positives_per_group < 1:
            raise DataError("sampling plan needs at least one positive per group")
        if self.bootstrap_count < 1:
            raise DataError("bootstrap_count must be >= 1")


@dataclass(frozen=True)
class BootstrapDraw:
    """Row indices (with repetition) into one group's positive/negative pools."""

    concept: str
    group: str
    bootstrap_index: int
    positive_indices: np.ndarray
    negative_indices: np.ndarray


def filter_rare_concepts(
    positives: Mapping[str, Mapping[str, int]],
    k: int,
    groups: Iterable[str] | None = None,
) -> list[str]:
    """Concepts retained under the rare-label rule: every group has >= k positives.

    ``positives`` maps concept -> group -> scored positive count. ``groups``
    defaults to the union of groups seen across all concepts, so a concept
    missing a group entirely is removed.
    """
    if k < 1:
        raise DataError(f"rare-label threshold must be >= 1, got {k}")
    if groups is None:
        required = sorted({g for per_group in positives.values() for g in per_group})
    else:
        required = sorted(groups)
    retained = [
        c for c in sorted(positives)
        if all(positives[c].get(g, 0) >= k for g in required)
    ]
    return retained


def compute_budget(
    table: ConceptEvalTable,
    ratio: tuple[int, int],
    *,
    seed: int = 0,
    bootstrap_count: int = 1,
) -> SamplingPlan:
    """Largest per-group budget achieving the exact pos:neg ratio in every group.

    With ratio 1:r this is p* = min over groups of min(P_g, floor(N_g / r)),
    and each draw takes (p*, r*p*) rows.

    Raises:
        DataError: naming the first group whose pool cannot host even one
            ratio unit.
    """
    pos_parts, neg_parts = int(ratio[0]), int(ratio[1])
    if pos_parts < 1 or neg_parts < 1:
        raise DataError(f"ratio parts must be positive integers, got {ratio}")
    units = None
    for g in table.groups:
        pool = table.pools[g]
        if pool.n_pos < pos_parts:
            raise DataError(
                f"concept {table.concept!r}: group {g!r} has {pool.n_pos} positive(s), "
                f"fewer than the {pos_parts} required per ratio unit"
            )
        if pool.n_neg < neg_parts:
            raise DataError(
                f"concept {table.concept!r}: group {g!r} has {pool.n_neg} negative(s), "
                f"fewer than the {neg_parts} required per ratio unit"
            )
        g_units = min(pool.n_pos // pos_parts, pool.n_neg // neg_parts)
        units = g_units if units is None else min(units, g_units)
    if units is None:
        raise DataError(f"concept {table.concept!r} has no groups to sample")
    return SamplingPlan(
        concept=table.concept,
        pos_parts=pos_parts,
        neg_parts=neg_parts,
        positives_per_group=units * pos_parts,
        negatives_per_group=units * neg_parts,
        groups=table.groups,
        seed=seed,
        bootstrap_count=bootstrap_count,
    )


def draw_group(
    pool: GroupPool, plan: SamplingPlan, group: str, bootstrap_index: int
) -> np.ndarray:
    """One group's fixed-prevalence draw, uniform with replacement from each
    class: row indices into ``pool.all_rows()``, the plan's positives first."""
    rng = derive_rng(plan.seed, "draw", plan.concept, group, bootstrap_index)
    pos = rng.integers(0, pool.n_pos, size=plan.positives_per_group)
    neg = rng.integers(0, pool.n_neg, size=plan.negatives_per_group)
    return np.concatenate([pos, neg + pool.n_pos])


def draw_baseline_group(
    pool: GroupPool, seed: int, concept: str, group: str, bootstrap_index: int
) -> np.ndarray:
    """One group's standard bootstrap draw: row indices into
    ``pool.all_rows()``, the whole pool resampled at its own size."""
    n = pool.n_pos + pool.n_neg
    if n == 0:
        raise InvariantError(f"empty pool for concept {concept!r} group {group!r}")
    rng = derive_rng(seed, "baseline", concept, group, bootstrap_index)
    return rng.integers(0, n, size=n)


def draw_bootstrap(
    table: ConceptEvalTable, plan: SamplingPlan, bootstrap_index: int
) -> dict[str, BootstrapDraw]:
    """One fixed-prevalence draw per group: uniform with replacement from each pool."""
    draws: dict[str, BootstrapDraw] = {}
    for g in plan.groups:
        pool = table.pools[g]
        idx = draw_group(pool, plan, g, bootstrap_index)
        draws[g] = BootstrapDraw(
            concept=plan.concept, group=g, bootstrap_index=bootstrap_index,
            positive_indices=idx[:plan.positives_per_group],
            negative_indices=idx[plan.positives_per_group:] - pool.n_pos,
        )
    return draws


def draw_baseline_bootstrap(
    table: ConceptEvalTable, seed: int, bootstrap_index: int
) -> dict[str, BootstrapDraw]:
    """Standard bootstrap draw per group: the full pool resampled at its own size.

    Prevalence is not controlled; the positive count of a draw is random
    with expectation P_g / (P_g + N_g).
    """
    draws: dict[str, BootstrapDraw] = {}
    for g in table.groups:
        pool = table.pools[g]
        idx = draw_baseline_group(pool, seed, table.concept, g, bootstrap_index)
        draws[g] = BootstrapDraw(
            concept=table.concept, group=g, bootstrap_index=bootstrap_index,
            positive_indices=idx[idx < pool.n_pos],
            negative_indices=idx[idx >= pool.n_pos] - pool.n_pos,
        )
    return draws
