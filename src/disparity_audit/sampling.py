"""Rare-label filtering and prevalence-controlled bootstrap sampling.

Every draw's RNG stream is derived from (seed, concept, group, bootstrap
index), so results are identical regardless of evaluation order.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Mapping

import numpy as np

from .concepts import GroupPool
from .errors import DataError, InvariantError


def _part_hash(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(str(part).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _hashed(parts) -> "hashlib.blake2b":
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(_part_hash(part).to_bytes(8, "big"))
    return h


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a mixed tuple of ints and strings."""
    return int.from_bytes(_hashed(parts).digest(), "big")


def derive_rng(*parts) -> np.random.Generator:
    """Deterministic generator keyed on the given parts; platform-independent."""
    return np.random.default_rng(np.random.SeedSequence(derive_seed(*parts)))


def derive_rngs(*parts) -> Callable[[int | str], np.random.Generator]:
    """``last -> derive_rng(*parts, last)``, hashing ``parts`` once for
    every ``last``: the streams of one group's bootstraps."""
    prefix = _hashed(parts)

    def rng(last: int | str) -> np.random.Generator:
        h = prefix.copy()
        h.update(_part_hash(last).to_bytes(8, "big"))
        return np.random.default_rng(np.random.SeedSequence(int.from_bytes(h.digest(), "big")))

    return rng


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
    concept: str, sizes: Mapping[str, tuple[int, int]], ratio: tuple[int, int]
) -> tuple[int, int]:
    """Largest per-group budget achieving the exact pos:neg ratio in every group.

    ``sizes`` maps group -> (positives, negatives) in its pool. With ratio
    1:r this is p* = min over groups of min(P_g, floor(N_g / r)), and each
    draw takes ``(p*, r*p*)`` rows from every group.

    Raises:
        DataError: naming the first group whose pool cannot host even one
            ratio unit.
    """
    pos_parts, neg_parts = int(ratio[0]), int(ratio[1])
    if pos_parts < 1 or neg_parts < 1:
        raise DataError(f"ratio parts must be positive integers, got {ratio}")
    units = None
    for g in sorted(sizes):
        n_pos, n_neg = sizes[g]
        if n_pos < pos_parts:
            raise DataError(
                f"concept {concept!r}: group {g!r} has {n_pos} positive(s), "
                f"fewer than the {pos_parts} required per ratio unit"
            )
        if n_neg < neg_parts:
            raise DataError(
                f"concept {concept!r}: group {g!r} has {n_neg} negative(s), "
                f"fewer than the {neg_parts} required per ratio unit"
            )
        g_units = min(n_pos // pos_parts, n_neg // neg_parts)
        units = g_units if units is None else min(units, g_units)
    if units is None:
        raise DataError(f"concept {concept!r} has no groups to sample")
    return units * pos_parts, units * neg_parts


def draw_group(
    pool: GroupPool, budget: tuple[int, int], rng: np.random.Generator
) -> np.ndarray:
    """One group's fixed-prevalence draw, uniform with replacement from each
    class: row indices into ``pool``, the budget's positives first.

    The pipeline draws bootstrap ``b`` of ``group`` with
    ``derive_rng(seed, "draw", concept, group, b)``."""
    pos = rng.integers(0, pool.n_pos, size=budget[0])
    neg = rng.integers(0, pool.n_neg, size=budget[1])
    return np.concatenate([pos, neg + pool.n_pos])


def draw_baseline_group(pool: GroupPool, rng: np.random.Generator) -> np.ndarray:
    """One group's standard bootstrap draw: row indices into ``pool``, the
    whole pool resampled at its own size, so prevalence is not controlled.

    The pipeline draws bootstrap ``b`` of ``group`` with
    ``derive_rng(seed, "baseline", concept, group, b)``."""
    n = pool.n_pos + pool.n_neg
    if n == 0:
        raise InvariantError("cannot resample an empty pool")
    return rng.integers(0, n, size=n)
