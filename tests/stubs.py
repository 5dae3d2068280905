"""A run config for tests that build their records in memory, and a spy on
the pools the pipeline ranks."""

from pathlib import Path
from typing import Sequence

from disparity_audit import pipeline
from disparity_audit.config import RunConfig
from disparity_audit.groups import GroupRule


def run_config(groups: Sequence[str] = (), **fields) -> RunConfig:
    """A ``RunConfig`` with stub paths, metadata ``groups`` in that order
    and no class mapping; ``fields`` override the defaults."""
    stub = Path(".")
    defaults = dict(
        raw={}, annotations=stub, predictions=stub,
        group_rule=GroupRule("metadata", tuple(groups), {}, metadata_key="group"),
        mapping=None, strict_mapping=True, metrics=("ap",), k=5,
        validation_fraction=0.2, threshold_scope="pooled", ratio=(1, 5),
        bootstraps=250, seed=0, min_per_group=50, sampling_mode="reliable",
        evaluation_version="custom", drop_unlabeled=False, top_n=5, output_dir=stub,
    )
    return RunConfig(**{**defaults, **fields})


def spy_rank_pool(monkeypatch) -> list[tuple]:
    """Spy on ``pipeline.rank_pool``: the list returned gets the
    ``(scores, labels, image_rows)`` of each pool the pipeline ranks, in
    the order it ranks them."""
    calls = []
    rank_pool = pipeline.rank_pool

    def spy(scores, labels, tiebreak=None, threshold=None):
        calls.append((scores, labels, tiebreak))
        return rank_pool(scores, labels, tiebreak, threshold)

    monkeypatch.setattr(pipeline, "rank_pool", spy)
    return calls
