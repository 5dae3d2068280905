"""Classification and ranking metrics for one (concept, group) pool of rows.

A pool is sorted once (``rank_pool``); ``ranked_metrics`` then scores every
bootstrap draw, and the full sample as the identity draw, in rank space,
where AP, AUC and the threshold counts all read where each draw's positives
land in its sorted ranks. Undefined values (e.g. precision with no
predicted positives, AUC with a degenerate class) are NaN and must be
handled explicitly by callers; they are never silently coerced to 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

log = logging.getLogger("disparity_audit.metrics")


def _rate_arrays(
    tp: np.ndarray, fp: np.ndarray, tn: np.ndarray, fn: np.ndarray
) -> dict[str, np.ndarray]:
    """Confusion-derived rates over arrays of counts; NaN marks an undefined
    rate, and F1 is 0 where precision and recall are both 0. Each rate takes
    the IEEE operations of the scalar reference, so it equals it bit for bit."""
    with np.errstate(divide="ignore", invalid="ignore"):
        tpr = tp / (tp + fn)
        precision = tp / (tp + fp)
        f1 = 2 * precision * tpr / (precision + tpr)
        return {
            "tpr": tpr,
            "fpr": fp / (fp + tn),
            "precision": precision,
            "recall": tpr,
            "accuracy": (tp + tn) / (tp + fp + tn + fn),
            "f1": np.where(precision + tpr == 0, 0.0, f1),
        }


def select_threshold(
    scores: Sequence[float], labels: Sequence[int]
) -> tuple[float, float]:
    """F1-maximizing decision threshold over the given validation rows, and
    the F1 it achieves there.

    Candidates are the midpoints between consecutive distinct scores plus one
    value below the minimum (predict everything positive); the all-negative
    candidate above the maximum is disallowed. Where a midpoint rounds onto
    the lower of two adjacent doubles, the upper one is the candidate, so
    every cut between distinct scores is reachable. Ties go to the lowest
    threshold.

    One sort per class, then every candidate's confusion counts come from a
    ``searchsorted`` (Lipton et al., ECML 2014): O(n log n) instead of one
    confusion pass per candidate.

    Raises:
        DataError: when the labels hold no row or no positive row.
    """
    s = np.asarray(scores, dtype=float)
    pos = np.asarray(labels) == 1
    if pos.shape[0] == 0:
        raise DataError("select_threshold needs at least one row")
    if not pos.any():
        raise DataError("select_threshold needs at least one positive row")
    s_sorted = np.sort(s)
    distinct = s_sorted[np.concatenate(([True], s_sorted[1:] != s_sorted[:-1]))]
    lower, upper = distinct[:-1], distinct[1:]
    mid = (lower + upper) / 2.0
    candidates = np.concatenate([distinct[:1] - 1.0, np.where(mid == lower, upper, mid)])
    pos_sorted = np.sort(s[pos])
    neg_sorted = np.sort(s[~pos])
    # rows predicted positive (score >= t) per class, for every candidate t
    tp = pos_sorted.size - np.searchsorted(pos_sorted, candidates, side="left")
    fp = neg_sorted.size - np.searchsorted(neg_sorted, candidates, side="left")
    f1 = _rate_arrays(tp, fp, neg_sorted.size - fp, pos_sorted.size - tp)["f1"]
    best = int(np.argmax(np.nan_to_num(f1, nan=0.0)))  # first maximum: lowest t
    return float(candidates[best]), float(f1[best])


@dataclass(frozen=True)
class RankedPool:
    """One group's pool sorted once by (score desc, tie-break key asc).

    A row's rank is its position in that order, so a bootstrap draw is a
    vector of ranks, and sorting it gives the drawn rows' ranking order.
    The arrays are read-only.
    """

    n_pos: int  # rows labelled positive
    rank_of_row: np.ndarray  # int32, per row in pool order
    label_at_rank: np.ndarray  # bool, positive label
    tie_at_rank: np.ndarray  # int32, equal scores share an id; ids ascend with rank
    mixed_ties: bool  # some tie group holds both labels, so ties can move AUC
    cut: int | None  # ranks below it score >= the decision threshold

    @property
    def n_neg(self) -> int:
        return self.rank_of_row.size - self.n_pos


def rank_pool(
    scores: Sequence[float],
    labels: Sequence[int],
    tiebreak: Sequence | None = None,
    threshold: float | None = None,
) -> RankedPool:
    """Sort a pool once for ``ranked_metrics``; ``threshold`` enables the
    threshold metrics."""
    s = np.asarray(scores, dtype=float)
    tb = np.arange(s.shape[0]) if tiebreak is None else np.asarray(tiebreak)
    order = np.lexsort((tb, -s))
    rank_of_row = np.empty(s.shape[0], dtype=np.int32)
    rank_of_row[order] = np.arange(s.shape[0], dtype=np.int32)
    s_desc = s[order]
    label_at_rank = np.asarray(labels)[order] == 1
    new_tie = s_desc[1:] != s_desc[:-1]
    tie = np.zeros(s.shape[0], dtype=np.int32)
    np.cumsum(new_tie, out=tie[1:])
    # a tie group is a run of ranks, so it holds both labels iff two
    # neighbours inside it differ
    mixed = bool(np.any(~new_tie & (label_at_rank[1:] != label_at_rank[:-1])))
    # score >= threshold is a prefix of the descending order
    cut = None if threshold is None else int(np.count_nonzero(s >= threshold))
    for a in (rank_of_row, label_at_rank, tie):
        a.setflags(write=False)
    return RankedPool(
        n_pos=int(np.count_nonzero(label_at_rank)),
        rank_of_row=rank_of_row,
        label_at_rank=label_at_rank,
        tie_at_rank=tie,
        mixed_ties=mixed,
        cut=cut,
    )


def _row_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of ``values``, run i ``counts[i]`` long.

    Each run is summed as an array of its own, so every sum takes numpy's
    pairwise order for that length, as a ``sum()`` over that run alone.
    """
    if (counts == counts[0]).all():
        return values.reshape(counts.size, int(counts[0])).sum(axis=1)
    return np.array([run.sum() for run in np.split(values, np.cumsum(counts)[:-1])])


def _ap_rows(row: np.ndarray, at: np.ndarray, n_pos: np.ndarray) -> np.ndarray:
    """Non-interpolated AP of each draw from its positives' row and 0-based
    position ``at`` (row-major): the k-th positive of a row adds precision
    k / (at + 1), and AP is the mean of those."""
    k = np.arange(1, row.size + 1) - (np.cumsum(n_pos) - n_pos)[row]
    with np.errstate(invalid="ignore"):
        return np.where(n_pos > 0, _row_sums(k / (at + 1), n_pos) / n_pos, np.nan)


def _auc_rows(
    pool: RankedPool, sorted_ranks: np.ndarray, row: np.ndarray, at: np.ndarray,
    n_pos: np.ndarray,
) -> np.ndarray:
    """AUC-ROC of each draw from its positives' row and 0-based position
    ``at``, by the rank-sum identity (ties count one half).

    Untied, U = n_pos n_neg + n_pos (n_pos - 1) / 2 - sum(at). A tie group
    over positions [start, end] gives each positive in it the group's
    average rank, which adds (2 at - start - end) / 2 to U; that sums to
    zero over a group of one label, so it is computed only for a pool with
    mixed ties. 2U is an integer, so every step up to the final division is
    exact.
    """
    n_rows, m = sorted_ranks.shape
    n_neg = m - n_pos
    twice_u = 2 * n_pos * n_neg + n_pos * (n_pos - 1) - 2 * np.bincount(
        row, weights=at, minlength=n_rows
    )
    if pool.mixed_ties:
        # Tie ids ascend along each sorted row; offsetting each row past the
        # pool's last id makes them ascend across the flattened block, so a
        # search finds each positive's group bounds as flat indices. Their
        # row offsets cancel in 2 flat - start - end.
        offset = np.arange(n_rows, dtype=np.int64) * (int(pool.tie_at_rank[-1]) + 1)
        ties = (pool.tie_at_rank.take(sorted_ranks) + offset[:, None]).ravel()
        flat = row * m + at
        start = np.searchsorted(ties, ties[flat], side="left")
        end = np.searchsorted(ties, ties[flat], side="right") - 1
        twice_u += np.bincount(row, weights=2 * flat - start - end, minlength=n_rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((n_pos > 0) & (n_neg > 0), twice_u / 2.0 / (n_pos * n_neg), np.nan)


def ranked_metrics(
    pool: RankedPool, draws: Iterable[np.ndarray], metrics: Sequence[str]
) -> dict[str, np.ndarray]:
    """Metric values of every draw from ``pool``, in draw order.

    ``draws`` yields 2-D blocks of draws, one draw per row; a draw is row
    indices into the pool's rows (repeats allowed), all draws of the same
    length. Each block is scored as it comes (``sampling.draw_rows`` sizes
    them): it becomes a matrix of ranks, one row per draw, sorted along rows
    once; one ``np.flatnonzero`` of its labels gives every positive's row
    and 0-based position, and each metric reads those. ``ap`` ranks ties by
    the pool's key, ``auc_roc`` counts them one half, and the threshold
    metrics predict positive iff score >= the pool's threshold. Each value
    equals the scalar reference kernel (``tests/oracles.py``) on the drawn
    rows bit for bit. NaN marks an undefined value.
    """
    parts: dict[str, list[np.ndarray]] = {metric: [] for metric in metrics}
    for rows in draws:
        ranks = pool.rank_of_row.take(rows)
        sorted_ranks = np.sort(ranks, axis=1)
        labels = pool.label_at_rank.take(sorted_ranks)
        row, at = np.divmod(np.flatnonzero(labels), ranks.shape[1])
        n_pos = np.bincount(row, minlength=ranks.shape[0])
        block: dict[str, np.ndarray] = {}
        if "ap" in parts:
            block["ap"] = _ap_rows(row, at, n_pos)
        if "auc_roc" in parts:
            block["auc_roc"] = _auc_rows(pool, sorted_ranks, row, at, n_pos)
        if pool.cut is not None:
            # the predicted rows are a prefix of each sorted row
            predicted = np.count_nonzero(sorted_ranks < pool.cut, axis=1)
            tp = np.bincount(row[at < predicted[row]], minlength=ranks.shape[0])
            fp = predicted - tp
            block.update(_rate_arrays(tp, fp, ranks.shape[1] - n_pos - fp, n_pos - tp))
        for metric, values in parts.items():
            values.append(block[metric])
    return {
        metric: np.concatenate(values) if values else np.empty(0)
        for metric, values in parts.items()
    }


def split_validation_test(
    labels: Sequence[int], fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint (validation, test) row indices, stratified by label.

    ``fraction`` of each stratum (rounded to nearest) goes to validation. If
    rounding would put no positive row in validation, falls back to an
    unstratified split with a warning. Deterministic per seed.
    """
    if not 0 < fraction < 1:
        raise DataError(f"fraction must be in (0, 1), got {fraction}")
    y = np.asarray(labels)
    n = y.shape[0]
    rng = np.random.default_rng(seed)
    pos_idx = np.flatnonzero(y == 1)
    neg_idx = np.flatnonzero(y != 1)
    n_val_pos = int(np.floor(fraction * pos_idx.size + 0.5))
    n_val_neg = int(np.floor(fraction * neg_idx.size + 0.5))
    if pos_idx.size > 0 and n_val_pos == 0:
        log.warning(
            "stratum too small for a stratified split (%d positives); "
            "falling back to an unstratified split", pos_idx.size,
        )
        perm = rng.permutation(n)
        n_val = int(np.floor(fraction * n + 0.5))
        val = np.sort(perm[:n_val])
        test = np.sort(perm[n_val:])
        return val, test
    val_parts = [
        rng.permutation(pos_idx)[:n_val_pos],
        rng.permutation(neg_idx)[:n_val_neg],
    ]
    val = np.sort(np.concatenate(val_parts).astype(np.int64))
    mask = np.ones(n, dtype=bool)
    mask[val] = False
    test = np.flatnonzero(mask)
    return val, test


def hit_vector(
    scores: np.ndarray, targets: np.ndarray, has_targets: np.ndarray, k: int, *, group: str
) -> np.ndarray:
    """Per-image top-k hit indicators over images with usable targets/scores.

    ``scores`` is ``images x concepts`` with NaN where an image has no score
    and columns sorted by concept id; ``targets`` marks each image's targets
    among those columns, and ``has_targets`` is False for an image whose
    target set is empty. An image is a hit when one of its k highest-scored
    concepts is a target; score ties break by concept id, and an unscored
    cell is never among the top k. Images with an empty target set or no
    scores are excluded with a warning that names their ``group``. Returns
    the 0/1 hit values of the kept images, in row order.

    Each row's top k is selected, not sorted: one partition finds its k-th
    highest score, the cells above it are in, and its tied cells fill the
    remaining slots in column order. A row with fewer than k scores keeps
    them all.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    n_scored = scores.shape[1] - np.count_nonzero(np.isnan(scores), axis=1)
    kept = has_targets & (n_scored > 0)
    for rows, what in (
        (~has_targets, "with empty target sets excluded"),
        (has_targets & (n_scored == 0), "without scores excluded"),
        (kept & (n_scored < k), "scored for fewer than k concepts"),
    ):
        if rows.any():
            log.warning(f"hit rate: %d image(s) of group %s {what}", np.count_nonzero(rows), group)
    neg = scores[kept]
    if neg.shape[0] == 0:
        return np.empty(0)
    np.negative(neg, out=neg)  # NaN stays NaN, and partitions last
    kth = min(k, neg.shape[1]) - 1
    # a copy of the column, so the partitioned copy is freed at once
    cut = np.partition(neg, kth, axis=1)[:, [kth]]
    # NaN where a row has fewer than k scores, which are then all in
    cut[np.isnan(cut)] = np.inf
    top = neg <= cut
    n_top = np.count_nonzero(top, axis=1)
    over = np.flatnonzero(n_top > k)
    if over.size:
        # ties at the cut overflow these rows' k slots: keep the first
        # tied cells in column order, dropping the last n_top - k
        tied = neg[over] == cut[over]
        keep = np.count_nonzero(tied, axis=1) - (n_top[over] - k)
        top[over] &= ~tied | (np.cumsum(tied, axis=1) <= keep[:, None])
    top &= targets[kept]
    return top.any(axis=1).astype(float)
