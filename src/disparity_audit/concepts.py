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
from .errors import DataError, InvariantError

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
    """Scored rows for one (concept, group): the ``n_pos`` positives first,
    then the negatives, each class sorted by image id.

    Splits, ranks and bootstrap draws all index these rows, so the order
    makes them deterministic; ``draw_group`` relies on positives coming first.
    """

    scores: np.ndarray
    labels: np.ndarray
    ids: np.ndarray
    n_pos: int

    def __post_init__(self):
        n = self.labels.shape[0]
        if not (0 <= self.n_pos <= n and np.array_equal(self.labels, np.arange(n) < self.n_pos)):
            raise InvariantError(
                f"pool labels must be {self.n_pos} positive(s) followed by negatives"
            )

    @property
    def n_neg(self) -> int:
        return int(self.labels.shape[0]) - self.n_pos

    def take(self, rows: np.ndarray) -> "GroupPool":
        """The pool of the given ascending row indices."""
        labels = self.labels[rows]
        return GroupPool(
            scores=_readonly(self.scores[rows]),
            labels=_readonly(labels),
            ids=_readonly(self.ids[rows]),
            n_pos=int(np.count_nonzero(labels)),
        )


def _make_pool(rows: list[tuple[str, float, int]]) -> GroupPool:
    rows.sort(key=lambda r: (-r[2], r[0]))
    return GroupPool(
        scores=_readonly(np.array([s for _, s, _ in rows], dtype=float)),
        labels=_readonly(np.array([y for _, _, y in rows], dtype=np.int8)),
        ids=_readonly(np.array([i for i, _, _ in rows], dtype=object)),
        n_pos=sum(y for _, _, y in rows),
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

    def restrict(self, rows: Mapping[str, np.ndarray]) -> "ConceptEvalTable":
        """New table keeping only the given ascending row indices per group."""
        return ConceptEvalTable(
            concept=self.concept,
            pools={g: self.pools[g].take(r) for g, r in rows.items()},
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
