"""Side files' label lists in canonical form (``data.canonicalize_label``),
dataset-to-model class mapping, and the targets of the group-assigned images.

Concept reporting is done in model-class space; several dataset labels may
collapse onto one model concept, in which case their positives are unioned.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import (
    EXCLUSION_REASONS,
    AnnotatedImage,
    ScoreMatrix,
    canonicalize_label,
    read_json_object,
)
from .errors import DataError

log = logging.getLogger("disparity_audit.concepts")

ConceptId = str


def canonicalize_labels(values: object, where: str) -> list[ConceptId]:
    """The canonical form of each label in a side file's list.

    Raises:
        DataError: naming ``where`` when ``values`` is not a list of strings
            or a label is empty after canonicalization.
    """
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise DataError(f"{where} must be a list of strings, got {values!r}")
    try:
        return [canonicalize_label(v) for v in values]
    except DataError as e:
        raise DataError(f"{where}: {e}") from None


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
            where = f"mapping {name!r}: model_class_whitelist"
            allowed = set(canonicalize_labels(whitelist, where))
        table: dict[str, tuple[str, ...]] = {}
        key_of: dict[str, str] = {}  # canonical label -> its raw key
        for label, classes in raw_map.items():
            if not isinstance(classes, list) or not classes:
                raise DataError(f"mapping {name!r}: label {label!r} must map to a non-empty list")
            canon = canonicalize_labels(classes, f"mapping {name!r}: label {label!r}")
            try:
                key = canonicalize_label(label)
            except DataError as e:
                raise DataError(f"mapping {name!r}: {e}") from None
            if key_of.setdefault(key, label) != label:
                raise DataError(
                    f"mapping {name!r}: map keys {key_of[key]!r} and {label!r} "
                    f"are one label, {key!r}"
                )
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
            table[key] = tuple(dict.fromkeys(canon))
        return cls(name=name, table=table)

    @classmethod
    def from_file(cls, path: str | Path) -> "ClassMapping":
        return cls.from_dict(read_json_object(path, "mapping"))


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
    canon = frozenset(map(canonicalize_label, image.direct_labels))
    if image.boxes:
        canon = canon.union(map(canonicalize_label, (b.raw_label for b in image.boxes)))
    if mapping is None:
        return canon
    return map_to_model_classes(canon, mapping, strict=strict)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TargetMatrix:
    """The group-assigned images in image-id order, mapped to their
    model-class targets once per distinct label set.

    ``concepts`` are the candidates: targets of these images that some
    prediction scores, sorted, and ``columns`` their columns in the score
    matrix. ``targets`` marks each image's targets among them;
    ``has_targets`` is False only for an image with no target at all,
    scored or not. ``unscored`` are the targets no prediction scores.
    ``rows`` gives each image's row in the score matrix (``ScoreMatrix.row_of``).
    """

    groups: np.ndarray
    concepts: tuple[ConceptId, ...]
    columns: np.ndarray
    targets: np.ndarray
    has_targets: np.ndarray
    unscored: tuple[ConceptId, ...]
    rows: np.ndarray


def map_targets(
    images: Sequence[AnnotatedImage],
    assignments: Mapping[str, str],
    predictions: ScoreMatrix,
    mapping: ClassMapping | None = None,
    strict: bool = True,
) -> TargetMatrix:
    """Map the images that ``assignments`` (``assign_groups``' outcome for
    each of ``images``) puts in a group with ``image_target_set``, once per
    distinct label set: an image's targets depend only on its direct labels
    and its box labels."""
    kept = [img for img in images if assignments[img.image_id] not in EXCLUSION_REASONS]
    assigned = sorted(kept, key=attrgetter("image_id"))
    keys = [
        (img.direct_labels, tuple(b.raw_label for b in img.boxes)) if img.boxes
        else img.direct_labels
        for img in assigned
    ]
    key_of: dict[object, int] = {}
    target_sets: list[frozenset[ConceptId]] = []
    for key, img in zip(keys, assigned):
        if key not in key_of:
            key_of[key] = len(target_sets)
            target_sets.append(image_target_set(img, mapping, strict=strict))
    universe = frozenset().union(*target_sets)
    # the score matrix's concepts are sorted, so the candidates are too
    columns = [j for j, c in enumerate(predictions.concepts) if c in universe]
    concepts = [predictions.concepts[j] for j in columns]
    column = {c: j for j, c in enumerate(concepts)}
    sizes = np.fromiter(map(len, target_sets), dtype=np.intp, count=len(target_sets))
    # each target's column, and len(concepts) for a target no prediction scores
    cells = np.fromiter(
        map(column.get, chain.from_iterable(target_sets), repeat(len(concepts))),
        dtype=np.intp, count=int(sizes.sum()),
    )
    scored = cells < len(concepts)
    key_targets = np.zeros((len(target_sets), len(concepts)), dtype=bool)
    key_targets[np.repeat(np.arange(len(target_sets)), sizes)[scored], cells[scored]] = True
    key_has_targets = sizes > 0
    if len(target_sets) < len(keys):  # else each image has its own key, in image order
        image_key = np.fromiter(map(key_of.__getitem__, keys), dtype=np.intp, count=len(keys))
        key_targets, key_has_targets = key_targets[image_key], key_has_targets[image_key]
    return TargetMatrix(
        groups=_readonly(np.array([assignments[img.image_id] for img in assigned], dtype=object)),
        concepts=tuple(concepts),
        columns=_readonly(np.array(columns, dtype=np.intp)),
        targets=_readonly(key_targets),
        has_targets=_readonly(key_has_targets),
        unscored=tuple(sorted(universe.difference(concepts))),
        rows=_readonly(predictions.row_of([img.image_id for img in assigned])),
    )

