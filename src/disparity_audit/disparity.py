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


def pair_disparity(
    values_a: np.ndarray,
    values_b: np.ndarray,
    *,
    metric: str,
    concept: str,
    group_a: str,
    group_b: str,
    sample_sizes: Mapping[str, tuple[int, int]],
    full_sample: float | None = None,
) -> MetricEstimate:
    """Disparity of one metric between two groups, ``values_a - values_b``.

    Each side holds float values, NaN where undefined: 1-D, one concept's
    bootstraps, or 2-D, concepts x bootstraps, where each bootstrap is
    averaged over the concepts before the difference. A bootstrap with an
    undefined value on either side is dropped. The point estimate is the
    mean of the kept bootstraps' disparities and the interval their
    (2.5, 97.5) percentiles. A 1-D side is differenced as it is: numpy's
    mean of one row would turn a -0.0 into 0.0.

    Raises:
        InvariantError: when the two sides differ in shape.
        DataError: when there is no concept or no bootstrap.
    """
    a, b = np.asarray(values_a), np.asarray(values_b)
    if a.shape != b.shape:
        raise InvariantError(f"bootstrap values differ in shape: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise DataError(f"a disparity needs a concept and a bootstrap, got shape {a.shape}")
    kept = np.isfinite(a) & np.isfinite(b)
    if a.ndim == 2:
        kept = kept.all(axis=0)
        a, b = a[:, kept].mean(axis=0), b[:, kept].mean(axis=0)
    else:
        a, b = a[kept], b[kept]
    return _estimate(
        a - b, kept.size,
        metric=metric, concept=concept, group_a=group_a, group_b=group_b,
        sample_sizes=dict(sample_sizes), full_sample=full_sample,
    )


def significance_flag(estimate: MetricEstimate) -> bool:
    """True iff the 95% interval excludes zero (zero-width at 0 is not significant)."""
    if estimate.ci_low is None or estimate.ci_high is None:
        return False
    return not (estimate.ci_low <= 0.0 <= estimate.ci_high)
