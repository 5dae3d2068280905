"""Synthetic datasets with controllable score distributions and prevalences.

Scores are logistic-squashed Gaussians: the squash keeps scores in (0, 1)
while preserving rank order, so the Gaussian closed-form AUC remains exact
ground truth for the generated data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .data import EXCLUSION_REASONS, AnnotatedImage, PredictionRecord, read_json_object
from .errors import DataError
from .sampling import derive_rng


@dataclass(frozen=True)
class CellSpec:
    """Score laws and prevalence for one (concept, group) cell."""

    prevalence: float
    mu_pos: float
    sigma_pos: float
    mu_neg: float
    sigma_neg: float
    n: int

    def __post_init__(self):
        if not 0 < self.prevalence < 1:
            raise DataError(f"prevalence must be in (0, 1), got {self.prevalence}")
        if self.sigma_pos <= 0 or self.sigma_neg <= 0:
            raise DataError("score law sigmas must be > 0")
        if self.n < 1:
            raise DataError(f"cell count must be >= 1, got {self.n}")

    @property
    def n_pos(self) -> int:
        k = int(math.floor(self.prevalence * self.n + 0.5))
        if k < 1:
            raise DataError(
                f"prevalence {self.prevalence} with n={self.n} rounds to zero positives"
            )
        return k


_SCORE_LAW = ("prevalence", "mu_pos", "sigma_pos", "mu_neg", "sigma_neg")


def _cell(raw: object, where: str) -> CellSpec:
    """A scenario cell from its JSON object: every score-law field a number
    and ``n`` an integer.

    Raises:
        DataError: naming ``where`` and the first missing or mistyped field.
    """
    if not isinstance(raw, dict):
        raise DataError(f"{where} must be an object, got {raw!r}")
    for key in (*_SCORE_LAW, "n"):
        if key not in raw:
            raise DataError(f"{where} has no {key!r}")
        value = raw[key]
        kinds = int if key == "n" else (int, float)
        if not isinstance(value, kinds) or isinstance(value, bool):
            kind = "an integer" if key == "n" else "a number"
            raise DataError(f"{where}: {key!r} must be {kind}, got {value!r}")
    return CellSpec(**{key: float(raw[key]) for key in _SCORE_LAW}, n=raw["n"])


@dataclass(frozen=True)
class ScenarioSpec:
    """Full scenario: per-concept, per-group cells plus the master seed.

    Within a group, every concept must agree on the group's image count,
    because images are shared across concepts (labels are independent
    across concepts; co-occurrence structure is out of scope).
    """

    concepts: Mapping[str, Mapping[str, CellSpec]]
    seed: int

    def __post_init__(self):
        if not self.concepts:
            raise DataError("scenario needs at least one concept")
        sizes: dict[str, int] = {}
        for concept, cells in self.concepts.items():
            if not cells:
                raise DataError(f"concept {concept!r} has no group cells")
            for group, cell in cells.items():
                if group in EXCLUSION_REASONS:
                    raise DataError(f"group {group!r} has the name of an exclusion reason")
                if group in sizes and sizes[group] != cell.n:
                    raise DataError(
                        f"group {group!r} has inconsistent image counts across concepts"
                    )
                sizes[group] = cell.n

    @property
    def groups(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for cells in self.concepts.values():
            for g in cells:
                seen.setdefault(g)
        return tuple(seen)

    def group_size(self, group: str) -> int:
        for cells in self.concepts.values():
            if group in cells:
                return cells[group].n
        raise DataError(f"unknown group {group!r}")

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioSpec":
        seed = obj.get("seed")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise DataError("scenario requires an integer 'seed'")
        concepts_raw = obj.get("concepts")
        if not isinstance(concepts_raw, dict) or not concepts_raw:
            raise DataError("scenario requires a non-empty 'concepts' object")
        concepts = {}
        for concept, cells_raw in concepts_raw.items():
            if not isinstance(cells_raw, dict):
                raise DataError(
                    f"scenario concept {concept!r} must map groups to cells, got {cells_raw!r}"
                )
            concepts[str(concept)] = {
                str(group): _cell(cell, f"scenario cell ({concept!r}, {group!r})")
                for group, cell in cells_raw.items()
            }
        return cls(concepts=concepts, seed=seed)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioSpec":
        return cls.from_dict(read_json_object(path, "scenario"))


def logistic(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def generate(
    spec: ScenarioSpec,
) -> tuple[list[AnnotatedImage], dict[str, str], list[PredictionRecord]]:
    """Materialize a scenario: the images, each one's group by id, the predictions.

    Per group, ``n`` images are generated and shared by all concepts; each
    concept independently marks exactly round(n * prevalence) of them
    positive (a seeded draw without replacement) and scores every image from
    its positive or negative law. Deterministic per seed.
    """
    images: list[AnnotatedImage] = []
    assignments: dict[str, str] = {}
    scores: dict[str, dict[str, float]] = {}
    labels: dict[str, set[str]] = {}

    for group in spec.groups:
        n = spec.group_size(group)
        ids = [f"{group}-{i:06d}" for i in range(n)]
        for image_id in ids:
            scores[image_id] = {}
            labels[image_id] = set()
            assignments[image_id] = group

        for concept in spec.concepts:
            cell = spec.concepts[concept].get(group)
            if cell is None:
                continue
            n_pos = cell.n_pos
            label_rng = derive_rng(spec.seed, "labels", concept, group)
            positive_rows = set(label_rng.permutation(n)[:n_pos].tolist())
            score_rng = derive_rng(spec.seed, "scores", concept, group)
            pos_values = logistic(score_rng.normal(cell.mu_pos, cell.sigma_pos, size=n_pos))
            neg_values = logistic(score_rng.normal(cell.mu_neg, cell.sigma_neg, size=n - n_pos))
            pos_iter = iter(pos_values.tolist())
            neg_iter = iter(neg_values.tolist())
            for row, image_id in enumerate(ids):
                if row in positive_rows:
                    labels[image_id].add(concept)
                    scores[image_id][concept] = next(pos_iter)
                else:
                    scores[image_id][concept] = next(neg_iter)

        images.extend(
            AnnotatedImage(
                image_id=image_id,
                direct_labels=frozenset(labels[image_id]),
                metadata={"group": group},
            )
            for image_id in ids
        )

    predictions = [
        PredictionRecord(image_id=img.image_id, scores=scores[img.image_id])
        for img in images
    ]
    return images, assignments, predictions


def closed_form_auc(
    mu_pos: float, sigma_pos: float, mu_neg: float, sigma_neg: float
) -> float:
    """Exact AUC of two Gaussian score laws (squash-invariant):

        Phi((mu_pos - mu_neg) / sqrt(sigma_pos^2 + sigma_neg^2))
    """
    if sigma_pos <= 0 or sigma_neg <= 0:
        raise DataError("score law sigmas must be > 0")
    z = (mu_pos - mu_neg) / math.sqrt(sigma_pos**2 + sigma_neg**2)
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

