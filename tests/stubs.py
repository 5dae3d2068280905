"""A run config for tests that build their records in memory, a score
matrix loaded the way a run loads one, and a spy on the pools the pipeline
ranks."""

import json
import tempfile
from pathlib import Path
from typing import Mapping, Sequence

from disparity_audit import pipeline
from disparity_audit.config import RunConfig
from disparity_audit.data import AnnotatedImage, ScoreMatrix, load_predictions
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


def score_matrix(scores: Mapping[str, Mapping[str, float]]) -> ScoreMatrix:
    """The score matrix of ``{image_id: scores}``: the records are written,
    in that order, to a predictions file in a temporary directory, which
    ``load_predictions`` loads against a bare ``AnnotatedImage`` per id. A
    JSON float reads back as the same double, so every cell is the one
    given."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "predictions.jsonl"
        with path.open("w", encoding="utf-8") as f:
            for image_id, row in scores.items():
                f.write(json.dumps({"image_id": image_id, "scores": row}) + "\n")
        return load_predictions(path, [AnnotatedImage(i) for i in scores])


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
