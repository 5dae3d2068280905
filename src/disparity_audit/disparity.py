"""Bootstrap disparity estimates with percentile confidence intervals.

The sign convention is fixed: a positive disparity means the metric is
higher for the first-listed group. Bootstraps where either group's metric
is undefined are dropped pairwise and counted; an estimate losing more than
half its bootstraps is flagged unreliable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, InvariantError

CI = (2.5, 97.5)  # percentile ranks of the 95% interval


@dataclass(frozen=True)
class MetricEstimate:
    """Point estimate (mean over bootstraps) plus a 95% percentile interval."""

    metric: str
    concept: str
    group_a: str
    group_b: str
    point: float | None
    ci_low: float | None
    ci_high: float | None
    bootstrap_count: int
    bootstraps_used: int
    sample_sizes: Mapping[str, tuple[int, int]]
    full_sample: float | None = None
    unreliable: bool = False


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile on the sorted samples.

    Interpolation is done in exact rational arithmetic and rounded once, so
    percentile(-x, 100-q) == -percentile(x, q) exactly.
    """
    a = np.sort(np.asarray(samples, dtype=float))
    if a.size == 0:
        raise DataError("percentile of an empty sample is undefined")
    if not 0 <= q <= 100:
        raise DataError(f"percentile rank must be in [0, 100], got {q}")
    pos = Fraction(float(q)) * (a.size - 1) / 100
    i = int(pos)
    frac = pos - i
    if frac == 0:
        return float(a[i])
    lo = Fraction(float(a[i]))
    hi = Fraction(float(a[i + 1]))
    return float((1 - frac) * lo + frac * hi)


def _as_float_array(values: Sequence[float | None]) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return values.astype(float)
    return np.array([np.nan if v is None else float(v) for v in values], dtype=float)


def _estimate(d: np.ndarray, total: int, **fields) -> MetricEstimate:
    """The estimate from the finite disparities ``d`` of ``total``
    bootstraps: their mean and percentile interval, or no value when none
    survived. ``fields`` names the metric, concept, groups and sizes."""
    used = int(d.size)
    if used == 0:
        return MetricEstimate(
            point=None, ci_low=None, ci_high=None,
            bootstrap_count=total, bootstraps_used=0, unreliable=True, **fields,
        )
    return MetricEstimate(
        point=float(d.mean()),
        ci_low=percentile(d, CI[0]),
        ci_high=percentile(d, CI[1]),
        bootstrap_count=total, bootstraps_used=used,
        unreliable=(total - used) * 2 > total, **fields,
    )


def per_concept_disparity(
    values_a: Sequence[float | None],
    values_b: Sequence[float | None],
    *,
    metric: str,
    concept: str,
    group_a: str,
    group_b: str,
    sample_sizes: Mapping[str, tuple[int, int]] | None = None,
    full_sample: float | None = None,
) -> MetricEstimate:
    """Disparity of one metric for one concept between two groups.

    Per bootstrap b the disparity is ``values_a[b] - values_b[b]``; the point
    estimate is the mean over surviving bootstraps and the interval the
    (2.5, 97.5) percentiles.
    """
    a = _as_float_array(values_a)
    b = _as_float_array(values_b)
    if a.shape != b.shape:
        raise InvariantError(
            f"bootstrap streams differ in length: {a.shape} vs {b.shape}"
        )
    total = int(a.size)
    if total == 0:
        raise DataError("need at least one bootstrap value per group")
    mask = np.isfinite(a) & np.isfinite(b)
    return _estimate(
        a[mask] - b[mask], total,
        metric=metric, concept=concept, group_a=group_a, group_b=group_b,
        sample_sizes=dict(sample_sizes or {}), full_sample=full_sample,
    )


def aggregate_disparity(
    values_a: Mapping[str, Sequence[float | None]],
    values_b: Mapping[str, Sequence[float | None]],
    *,
    metric: str,
    group_a: str,
    group_b: str,
) -> MetricEstimate:
    """Aggregate disparity over a shared concept set.

    Per bootstrap, the metric is first averaged over concepts within each
    group, then differenced between groups. A bootstrap with any undefined
    concept value in either group is dropped pairwise.
    """
    concepts = sorted(values_a)
    if not concepts:
        raise DataError("aggregate disparity needs a non-empty concept set")
    if sorted(values_b) != concepts:
        raise DataError("aggregate disparity needs the same concept set for both groups")
    mat_a = np.vstack([_as_float_array(values_a[c]) for c in concepts])
    mat_b = np.vstack([_as_float_array(values_b[c]) for c in concepts])
    if mat_a.shape != mat_b.shape:
        raise InvariantError("bootstrap streams differ in length across groups")
    mask = np.all(np.isfinite(mat_a), axis=0) & np.all(np.isfinite(mat_b), axis=0)
    return _estimate(
        mat_a[:, mask].mean(axis=0) - mat_b[:, mask].mean(axis=0), mat_a.shape[1],
        metric=metric, concept="aggregate", group_a=group_a, group_b=group_b,
        sample_sizes={},
    )


def significance_flag(estimate: MetricEstimate) -> bool:
    """True iff the 95% interval excludes zero (zero-width at 0 is not significant)."""
    if estimate.ci_low is None or estimate.ci_high is None:
        return False
    return not (estimate.ci_low <= 0.0 <= estimate.ci_high)
