"""Label canonicalization, dataset-to-model class mapping, and per-concept
evaluation tables.

Concept reporting is done in model-class space; several dataset labels may
collapse onto one model concept, in which case their positives are unioned.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import AnnotatedImage, GroupAssignment, PredictionRecord
from .errors import DataError

log = logging.getLogger("disparity_audit.concepts")

ConceptId = str


def canonicalize_label(raw: str) -> ConceptId:
    """Canonical form of a dataset label or model class key.

    Lowercases and strips surrounding whitespace; synset keys such as
    ``"male_child.n.01"`` pass through otherwise unchanged. Idempotent.
    """
    if not isinstance(raw, str):
        raise DataError(f"label must be a string, got {raw!r}")
    out = raw.strip().lower()
    if not out:
        raise DataError(f"label {raw!r} is empty after canonicalization")
    return out


@dataclass(frozen=True)
class ClassMapping:
    """Association from dataset labels to one or more model class ids."""

    name: str
    table: Mapping[ConceptId, tuple[ConceptId, ...]]

    def __post_init__(self):
        for label, classes in self.table.items():
            if not classes:
                raise DataError(
                    f"mapping {self.name!r}: label {label!r} maps to an empty class list"
                )

    @classmethod
    def from_dict(cls, obj: dict) -> "ClassMapping":
        name = obj.get("name")
        if not isinstance(name, str) or not name:
            raise DataError("mapping requires a non-empty 'name'")
        raw_map = obj.get("map")
        if not isinstance(raw_map, dict) or not raw_map:
            raise DataError(f"mapping {name!r} requires a non-empty 'map' object")
        whitelist = obj.get("model_class_whitelist")
        allowed: set[str] | None = None
        if whitelist is not None:
            allowed = {canonicalize_label(c) for c in whitelist}
        table: dict[str, tuple[str, ...]] = {}
        for label, classes in raw_map.items():
            if not isinstance(classes, list) or not classes:
                raise DataError(f"mapping {name!r}: label {label!r} must map to a non-empty list")
            canon = [canonicalize_label(c) for c in classes]
            if allowed is not None:
                kept = [c for c in canon if c in allowed]
                dropped = [c for c in canon if c not in allowed]
                if dropped:
                    log.warning(
                        "mapping %s: label %r: dropping classes outside the model's "
                        "predictable set: %s", name, label, ", ".join(sorted(set(dropped))),
                    )
                canon = kept
            if not canon:
                log.warning(
                    "mapping %s: label %r has no compatible model classes left; removed",
                    name, label,
                )
                continue
            table[canonicalize_label(label)] = tuple(dict.fromkeys(canon))
        return cls(name=name, table=table)

    @classmethod
    def from_file(cls, path: str | Path) -> "ClassMapping":
        path = Path(path)
        if not path.exists():
            raise DataError(f"mapping file not found: {path}")
        with path.open(encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def map_to_model_classes(
    labels: Iterable[str], mapping: ClassMapping, strict: bool = True
) -> frozenset[ConceptId]:
    """Union of model classes mapped from the given dataset labels.

    Unmapped labels raise in strict mode and are skipped with a warning
    otherwise.
    """
    out: set[str] = set()
    for label in labels:
        canon = canonicalize_label(label)
        classes = mapping.table.get(canon)
        if classes is None:
            if strict:
                raise DataError(
                    f"label {label!r} has no entry in mapping {mapping.name!r}"
                )
            log.warning("mapping %s: skipping unmapped label %r", mapping.name, label)
            continue
        out.update(classes)
    return frozenset(out)


def image_target_set(
    image: AnnotatedImage, mapping: ClassMapping | None = None, strict: bool = True
) -> frozenset[ConceptId]:
    """The image's multi-label target set in model-class space.

    Dataset labels are the union of direct labels and box labels,
    canonicalized; with no mapping the canonical labels are the targets
    (zero-shot identity mapping).
    """
    raw = set(image.direct_labels)
    raw.update(b.raw_label for b in image.boxes)
    canon = {canonicalize_label(x) for x in raw}
    if mapping is None:
        return frozenset(canon)
    return map_to_model_classes(canon, mapping, strict=strict)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GroupPool:
    """Scored rows for one (concept, group), split into positives/negatives.

    Rows are sorted by image_id so downstream ranking tie-breaks and
    bootstrap draws are deterministic.
    """

    pos_scores: np.ndarray
    pos_ids: np.ndarray
    neg_scores: np.ndarray
    neg_ids: np.ndarray

    @property
    def n_pos(self) -> int:
        return int(self.pos_scores.shape[0])

    @property
    def n_neg(self) -> int:
        return int(self.neg_scores.shape[0])

    def all_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(scores, labels, ids) for the whole pool, positives first."""
        scores = np.concatenate([self.pos_scores, self.neg_scores])
        labels = np.concatenate(
            [np.ones(self.n_pos, dtype=np.int8), np.zeros(self.n_neg, dtype=np.int8)]
        )
        ids = np.concatenate([self.pos_ids, self.neg_ids])
        return scores, labels, ids

    def take(self, pos_idx: np.ndarray, neg_idx: np.ndarray) -> "GroupPool":
        return GroupPool(
            pos_scores=_readonly(self.pos_scores[pos_idx]),
            pos_ids=_readonly(self.pos_ids[pos_idx]),
            neg_scores=_readonly(self.neg_scores[neg_idx]),
            neg_ids=_readonly(self.neg_ids[neg_idx]),
        )


def _make_pool(rows: list[tuple[str, float, int]]) -> GroupPool:
    rows.sort(key=lambda r: r[0])
    pos = [(i, s) for i, s, y in rows if y == 1]
    neg = [(i, s) for i, s, y in rows if y == 0]
    return GroupPool(
        pos_scores=_readonly(np.array([s for _, s in pos], dtype=float)),
        pos_ids=_readonly(np.array([i for i, _ in pos], dtype=object)),
        neg_scores=_readonly(np.array([s for _, s in neg], dtype=float)),
        neg_ids=_readonly(np.array([i for i, _ in neg], dtype=object)),
    )


@dataclass(frozen=True)
class ConceptEvalTable:
    """Aligned score/label rows for one concept, partitioned by group."""

    concept: ConceptId
    pools: Mapping[str, GroupPool]

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(sorted(self.pools))

    def n_pos(self, group: str) -> int:
        return self.pools[group].n_pos if group in self.pools else 0

    def n_neg(self, group: str) -> int:
        return self.pools[group].n_neg if group in self.pools else 0

    def restrict(self, indices: Mapping[str, tuple[np.ndarray, np.ndarray]]) -> "ConceptEvalTable":
        """New table keeping only the given (pos, neg) row indices per group."""
        return ConceptEvalTable(
            concept=self.concept,
            pools={g: self.pools[g].take(p, n) for g, (p, n) in indices.items()},
        )


def build_concept_tables(
    images: Sequence[AnnotatedImage],
    assignments: Sequence[GroupAssignment],
    predictions: Sequence[PredictionRecord],
    concepts: Iterable[ConceptId],
    mapping: ClassMapping | None = None,
    strict: bool = True,
) -> dict[ConceptId, ConceptEvalTable]:
    """Build per-concept evaluation tables over group-assigned images.

    An image contributes a row to concept ``c``'s table iff it was assigned
    a group and carries a score for ``c``; the row is positive iff the
    image's (mapped) target set contains ``c``. Images lacking a score for a
    concept are omitted from that concept's table with a coverage warning.

    Raises:
        DataError: if any requested concept ends up with zero scored rows.
    """
    concept_list = sorted({canonicalize_label(c) for c in concepts})
    group_of = {a.image_id: a.group for a in assignments if a.assigned}
    scores_of = {p.image_id: p.scores for p in predictions}

    rows: dict[str, dict[str, list[tuple[str, float, int]]]] = {
        c: {} for c in concept_list
    }
    coverage_gaps: dict[str, int] = {c: 0 for c in concept_list}
    for img in images:
        group = group_of.get(img.image_id)
        if group is None:
            continue
        targets = image_target_set(img, mapping, strict=strict)
        scores = scores_of.get(img.image_id, {})
        for c in concept_list:
            score = scores.get(c)
            if score is None:
                coverage_gaps[c] += 1
                continue
            rows[c].setdefault(group, []).append(
                (img.image_id, float(score), 1 if c in targets else 0)
            )

    for c, gaps in coverage_gaps.items():
        if gaps:
            log.warning(
                "concept %s: %d assigned image(s) lack a score and were omitted", c, gaps
            )

    tables: dict[str, ConceptEvalTable] = {}
    for c in concept_list:
        n_rows = sum(len(v) for v in rows[c].values())
        if n_rows == 0:
            raise DataError(f"concept {c!r} has no scored images")
        tables[c] = ConceptEvalTable(
            concept=c, pools={g: _make_pool(v) for g, v in rows[c].items()}
        )
    return tables
