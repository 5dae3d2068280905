"""Reference implementations that the shipped metric kernels are tested against.

The package scores every metric in rank space (``metrics.rank_pool`` and
``metrics.ranked_metrics``; threshold selection by ``select_threshold``).
This module holds the independent definitions those kernels must match:

* scalar kernels, one call per batch of rows, which ``ranked_metrics``
  must equal bit for bit: ``average_precision``, ``auc_roc`` and
  ``rates_from_confusion(confusion_at_threshold(...))``; undefined values
  are ``None``, where the rank kernels give NaN;
* the prevalence identities ``precision_from_rates`` and
  ``accuracy_from_rates``;
* brute-force enumerators, kept deliberately naive: ``ap_oracle``,
  ``auc_oracle``, ``f1_at`` and ``threshold_oracle_f1``;
* ``box_outcome_oracle``, the README's box rule for group assignment, one
  box at a time;
* the per-bootstrap draws that ``sampling.draw_rows`` must equal bit for
  bit: one numpy generator per bootstrap (``derive_rngs``), drawn by
  ``draw_group``, ``draw_baseline_group`` or, for any class sizes,
  ``reference_rows``;
* the two disparity reducers that ``disparity.pair_disparity`` must equal
  exactly: ``per_concept_disparity`` on one concept's bootstraps and
  ``aggregate_disparity`` on a concept set's; undefined values may be
  ``None``;
* ``build_score_matrix``, which checks and loads one score record at a
  time, and whose matrix or first error ``data.load_predictions`` must
  equal for any file of those records;
* ``hit_vector``, top-k hit rate by one stable sort of every row, whose
  hit values ``metrics.hit_vector`` must equal bit for bit;
* ``take_rows``, a matrix's rows gathered by one ``np.ix_`` index, which
  ``ScoreMatrix.take_rows`` must equal bit for bit;
* ``percentile`` in ``fractions.Fraction`` arithmetic, which
  ``disparity.percentile`` must equal bit for bit;
* ``validate_counts``, ``data.validate_dataset``'s three counts taken one
  image and one concept at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from disparity_audit.data import ScoreMatrix
from disparity_audit.disparity import MetricEstimate, _estimate
from disparity_audit.errors import DataError, InvariantError
from disparity_audit.sampling import derive_rng


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise DataError(f"confusion count {name} must be >= 0")

    @property
    def positives(self) -> int:
        return self.tp + self.fn

    @property
    def negatives(self) -> int:
        return self.fp + self.tn

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def prevalence(self) -> float:
        if self.total == 0:
            raise DataError("prevalence of an empty confusion matrix is undefined")
        return self.positives / self.total


@dataclass(frozen=True)
class RateBundle:
    """Confusion-derived rates; ``None`` marks an undefined rate."""

    tpr: float | None
    fpr: float | None
    precision: float | None
    recall: float | None
    accuracy: float | None
    f1: float | None
    prevalence: float


def confusion_at_threshold(
    scores: Sequence[float], labels: Sequence[int], threshold: float
) -> ConfusionCounts:
    """Counts with the rule: predict positive iff score >= threshold."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    pred = s >= threshold
    pos = y == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )


def rates_from_confusion(c: ConfusionCounts) -> RateBundle:
    tpr = c.tp / c.positives if c.positives > 0 else None
    fpr = c.fp / c.negatives if c.negatives > 0 else None
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else None
    accuracy = (c.tp + c.tn) / c.total if c.total > 0 else None
    recall = tpr
    if precision is None or recall is None:
        f1 = None
    elif precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return RateBundle(
        tpr=tpr, fpr=fpr, precision=precision, recall=recall,
        accuracy=accuracy, f1=f1, prevalence=c.prevalence,
    )


def precision_from_rates(prevalence: float, tpr: float, fpr: float) -> float | None:
    """Precision from prevalence and the class-conditional rates:

        precision = a*TPR / (a*TPR + (1-a)*FPR)

    Undefined (``None``) when the denominator is zero.
    """
    if not 0 <= prevalence <= 1:
        raise DataError(f"prevalence must be in [0, 1], got {prevalence}")
    denom = prevalence * tpr + (1 - prevalence) * fpr
    if denom <= 0:
        return None
    return prevalence * tpr / denom


def accuracy_from_rates(prevalence: float, tpr: float, fpr: float) -> float:
    """Accuracy identity: a*TPR + (1-a)*(1-FPR)."""
    if not 0 <= prevalence <= 1:
        raise DataError(f"prevalence must be in [0, 1], got {prevalence}")
    return prevalence * tpr + (1 - prevalence) * (1 - fpr)


def average_precision(
    scores: Sequence[float], labels: Sequence[int], tiebreak: Sequence | None = None
) -> float | None:
    """Non-interpolated AP: mean over positives of precision at their rank.

    Rows rank by score descending, ties by the tiebreak key ascending (row
    position when no key is given). Equals the mean precision at each
    threshold where recall increments when scores are distinct. ``None``
    with zero positive rows.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    n_pos = int(np.sum(y == 1))
    if n_pos == 0:
        return None
    tb = np.arange(s.shape[0]) if tiebreak is None else np.asarray(tiebreak)
    order = np.lexsort((tb, -s))
    y_sorted = (y[order] == 1)
    cum_pos = np.cumsum(y_sorted)
    ranks = np.arange(1, s.shape[0] + 1)
    prec_at_pos = cum_pos[y_sorted] / ranks[y_sorted]
    return float(prec_at_pos.sum() / n_pos)


def _average_ranks(s: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    return ((starts + ends) / 2.0)[inverse]


def auc_roc(scores: Sequence[float], labels: Sequence[int]) -> float | None:
    """Area under the ROC curve via the rank-sum identity.

    Equals the fraction of (positive, negative) pairs ranked correctly, ties
    counting one half. ``None`` when either class is empty.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = int(s.shape[0] - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(s)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def ap_oracle(scores, labels):
    """Precision at every distinct threshold with a recall increment, averaged."""
    n_pos = sum(labels)
    if n_pos == 0:
        return None
    precisions = []
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        recall = tp / n_pos
        if recall > prev_recall:
            precisions.append(tp / (tp + fp))
            prev_recall = recall
    return sum(precisions) / len(precisions)


def auc_oracle(scores, labels):
    """Exhaustive (positive, negative) pair comparison; ties count one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    total = 0.0
    for sp in pos:
        for sn in neg:
            total += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
    return total / (len(pos) * len(neg))


def f1_at(scores, labels, t):
    tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
    fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
    fn = sum(1 for s, y in zip(scores, labels) if s < t and y == 1)
    if tp == 0:
        return 0.0
    p = tp / (tp + fp)
    r = tp / (tp + fn)
    return 2 * p * r / (p + r)


def threshold_oracle_f1(scores, labels):
    """Best F1 over every achievable non-all-negative prediction set."""
    return max(f1_at(scores, labels, t) for t in set(scores))


def box_outcome_oracle(boxes, width, height, terms, min_area, use_min, ignore_max):
    """One image's outcome under the ``boxes`` method, as the README states
    it. ``boxes`` are ``(label, w, h)`` on a ``width`` x ``height`` canvas,
    ``terms`` maps each group to its active terms. A term box is evidence
    when its area is at least ``min_area`` and its area fraction at least
    ``use_min``; mid-size when ``ignore_max <= fraction < use_min``; else
    too small. Returns ``("assigned", group)`` or ``("excluded", reason)``."""
    kinds = []
    for label, w, h in boxes:
        label = label.strip().lower()
        groups = [g for g, active in terms.items() if label in active]
        if not groups:
            continue
        fraction = (w * h) / (width * height)
        if w * h >= min_area and fraction >= use_min:
            kinds.append((groups[0], "evidence"))
        elif ignore_max <= fraction < use_min:
            kinds.append((groups[0], "mid-size"))
        else:
            kinds.append((groups[0], "too small"))
    evidence = sorted({g for g, kind in kinds if kind == "evidence"})
    if len(evidence) > 1:
        return ("excluded", "MultipleGroups")
    if any(kind == "mid-size" for _, kind in kinds):
        return ("excluded", "MidSizeAmbiguous")
    if evidence:
        return ("assigned", evidence[0])
    if kinds:
        return ("excluded", "BoxTooSmall")
    return ("excluded", "NoGroupEvidence")


def derive_rngs(*parts):
    """``last -> derive_rng(*parts, last)``: the generator of each of one
    group's bootstraps."""
    return lambda last: derive_rng(*parts, last)


def draw_group(sizes, budget, rng):
    """One group's fixed-prevalence draw, uniform with replacement from each
    class: row indices into a pool of ``sizes``, ``(n_pos, n_neg)``, whose
    positives come first; the budget's positives first.

    The pipeline draws bootstrap ``b`` of ``group`` as
    ``derive_rng(seed, "draw", concept, group, b)`` would."""
    n_pos, n_neg = sizes
    pos = rng.integers(0, n_pos, size=budget[0])
    neg = rng.integers(0, n_neg, size=budget[1])
    return np.concatenate([pos, neg + n_pos])


def draw_baseline_group(n, rng):
    """One group's standard bootstrap draw: row indices into a pool of ``n``
    rows, the whole pool resampled at its own size, so prevalence is not
    controlled.

    The pipeline draws bootstrap ``b`` of ``group`` as
    ``derive_rng(seed, "baseline", concept, group, b)`` would."""
    if n == 0:
        raise InvariantError("cannot resample an empty pool")
    return rng.integers(0, n, size=n)


def reference_rows(key, bootstraps, sizes):
    """``draw_rows(key, bootstraps, sizes)`` one bootstrap at a time: row
    ``b`` is the consecutive ``integers(0, n, size=k)`` calls of
    ``derive_rng(*key, b)``, each offset by the class sizes before it."""
    rngs = derive_rngs(*key)
    rows = np.empty((bootstraps, sum(k for _, k in sizes)), dtype=np.int64)
    for b in range(bootstraps):
        rng, offset = rngs(b), 0
        parts = []
        for n, k in sizes:
            parts.append(rng.integers(0, n, size=k) + offset)
            offset += n
        rows[b] = np.concatenate(parts)
    return rows


def _as_float_array(values: Sequence[float | None]) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return values.astype(float)
    return np.array([np.nan if v is None else float(v) for v in values], dtype=float)


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


_FLOAT_ONLY = frozenset({float})
_CHUNK_CELLS = 1 << 16


def _checked_scores(
    scores: Mapping[str, float], where: Callable[[object], str], key: object
) -> list[float]:
    """Every score of one record as a finite float, or the error naming the
    record (``where(key)``) and the first bad score."""
    values = []
    for concept, score in scores.items():
        if not isinstance(score, (int, float)) or isinstance(score, bool):
            raise DataError(f"{where(key)}: score for {concept!r} is not a number")
        try:
            value = float(score)
        except OverflowError:
            raise DataError(
                f"{where(key)}: score for {concept!r} is too large for a float"
            ) from None
        if not math.isfinite(value):
            raise DataError(f"{where(key)}: non-finite score {score!r} for {concept!r}")
        values.append(value)
    return values


def build_score_matrix(
    records: Iterable[tuple[object, tuple[str, Mapping[str, float]]]],
    where: Callable[[object], str],
) -> ScoreMatrix:
    """The score matrix of ``(key, (image_id, scores))`` records.

    Each score must be an int or float (not a bool), finite as a float, and
    keyed by a non-empty concept id; each image id may occur once. A key's
    concept, the matrix's column name, is the key stripped and lowercased;
    it may not be empty, nor any other key's concept.
    ``where(key)`` names a bad record in its error, e.g. as ``file:line``;
    it is called only then.

    Raises:
        DataError: on the first bad record, naming it and the concept.
    """
    row_of: dict[str, int] = {}
    column_of: dict[str, int] = {}  # in order of first appearance
    key_of: dict[str, str] = {}  # each concept's key
    # Cells are gathered in Python lists and moved into arrays every
    # _CHUNK_CELLS, so the parsed float objects do not all live at once.
    chunks: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
    lengths: list[int] = []
    columns: list[int] = []
    values: list[float] = []

    def flush() -> None:
        chunks.append((
            len(row_of) - len(lengths),
            np.array(lengths, dtype=np.intp),
            np.array(columns, dtype=np.int32),
            np.array(values, dtype=float),
        ))
        lengths.clear()
        columns.clear()
        values.clear()

    for key, (image_id, scores) in records:
        if image_id in row_of:
            raise DataError(f"{where(key)}: duplicate prediction for image {image_id!r}")
        if "" in scores:
            raise DataError(f"{where(key)}: empty concept key in scores")
        cells = scores.values()
        # Floats with a finite sum are all finite: one C-level check per record.
        if not _FLOAT_ONLY.issuperset(map(type, cells)) or not math.isfinite(sum(cells)):
            cells = _checked_scores(scores, where, key)
        start = len(columns)
        try:
            columns.extend(map(column_of.__getitem__, scores))
        except KeyError:
            del columns[start:]
            for c in scores:
                if c in column_of:
                    continue
                concept = c.strip().lower()
                if not concept:
                    raise DataError(
                        f"{where(key)}: concept key {c!r} in scores is empty after canonicalization"
                    )
                if concept in key_of:
                    raise DataError(
                        f"{where(key)}: score keys {key_of[concept]!r} and {c!r} are one concept, "
                        f"{concept!r}"
                    )
                key_of[concept] = c
                column_of[c] = len(column_of)
            columns.extend(map(column_of.__getitem__, scores))
        values.extend(cells)
        lengths.append(len(cells))
        row_of[image_id] = len(row_of)
        if len(values) >= _CHUNK_CELLS:
            flush()
    flush()

    concepts = sorted(key_of)
    sorted_column = np.empty(len(concepts), dtype=np.intp)
    sorted_column[np.array([column_of[key_of[c]] for c in concepts], dtype=np.intp)] = np.arange(
        len(concepts)
    )
    matrix = np.full((len(row_of), len(concepts)), np.nan)
    for first_row, chunk_lengths, chunk_columns, chunk_values in chunks:
        rows = np.repeat(np.arange(first_row, first_row + chunk_lengths.size), chunk_lengths)
        matrix[rows, sorted_column[chunk_columns]] = chunk_values
    matrix.setflags(write=False)
    return ScoreMatrix(rows=row_of, concepts=tuple(concepts), scores=matrix)


def hit_vector(
    scores: np.ndarray, targets: np.ndarray, has_targets: np.ndarray, k: int
) -> np.ndarray:
    """Top-k hit values of the images with a target and a score, in row
    order, by one stable sort of each row on -score: ties keep column order,
    and NaN sorts last and is never a hit."""
    kept = has_targets & (np.count_nonzero(~np.isnan(scores), axis=1) > 0)
    kept_scores = scores[kept]
    top = np.argsort(-kept_scores, axis=1, kind="stable")[:, :k]
    hit = np.take_along_axis(targets[kept], top, axis=1) & ~np.isnan(
        np.take_along_axis(kept_scores, top, axis=1)
    )
    return hit.any(axis=1).astype(float)


def take_rows(
    matrix: ScoreMatrix, rows: np.ndarray, columns: np.ndarray | None = None
) -> np.ndarray:
    """The scores of ``matrix`` at ``rows`` (all NaN for row -1) over
    ``columns`` or all, gathered by one ``np.ix_`` index."""
    if columns is None:
        columns = np.arange(len(matrix.concepts))
    out = np.full((rows.size, columns.size), np.nan)
    scored = rows >= 0
    out[scored] = matrix.scores[np.ix_(rows[scored], columns)]
    return out


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile on the sorted samples, interpolated
    in ``Fraction`` arithmetic and rounded once."""
    a = np.sort(np.asarray(samples, dtype=float))
    pos = Fraction(float(q)) * (a.size - 1) / 100
    i = int(pos)
    frac = pos - i
    if frac == 0:
        return float(a[i])
    lo = Fraction(float(a[i]))
    hi = Fraction(float(a[i + 1]))
    return float((1 - frac) * lo + frac * hi)


def validate_counts(images, predictions: ScoreMatrix) -> dict:
    """``validate_dataset``'s counts, one image and one concept at a time."""
    without_labels = 0
    raw_labels: set[str] = set()
    for img in images:
        if not img.direct_labels and not img.boxes:
            without_labels += 1
        raw_labels.update(img.direct_labels)
        raw_labels.update(b.raw_label for b in img.boxes)
    universe = {label.strip().lower() for label in raw_labels}
    gaps = zero_positive = 0
    for j, concept in enumerate(predictions.concepts):
        scored = sum(not math.isnan(row[j]) for row in predictions.scores.tolist())
        gaps += 0 < scored < len(images)
        zero_positive += concept not in universe
    return {
        "images_without_labels": without_labels,
        "score_coverage_gaps": gaps,
        "zero_positive_concepts": zero_positive,
    }
