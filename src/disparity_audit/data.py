"""Core data model and JSONL ingestion for annotations and predictions.

All types are immutable after load. Loaders are single-threaded per file;
downstream modules receive read-only views.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DataError

@dataclass(frozen=True)
class BoxAnnotation:
    """One rectangular object annotation in pixel coordinates."""

    raw_label: str
    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if not self.raw_label:
            raise DataError("box has an empty label")
        for name in ("x", "y", "w", "h"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise DataError(f"box field {name!r} must be an integer, got {v!r}")
        if self.x < 0 or self.y < 0:
            raise DataError(f"box origin must be non-negative, got ({self.x}, {self.y})")
        if self.w <= 0 or self.h <= 0:
            raise DataError(f"box must have positive extent, got {self.w}x{self.h}")

    @property
    def area(self) -> int:
        return self.w * self.h

    def area_fraction(self, width: int, height: int) -> float:
        """Fraction of the image this box covers; in (0, 1] for in-bounds boxes."""
        if width <= 0 or height <= 0:
            raise DataError("area_fraction requires positive image dimensions")
        return self.area / (width * height)


@dataclass(frozen=True)
class AnnotatedImage:
    """One image's boxes, captions, direct labels, and source metadata.

    ``width``/``height`` may be omitted only for images without boxes
    (caption- or metadata-only sources).
    """

    image_id: str
    width: int | None = None
    height: int | None = None
    boxes: tuple[BoxAnnotation, ...] = ()
    captions: tuple[str, ...] = ()
    direct_labels: frozenset[str] = frozenset()
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.image_id:
            raise DataError("image_id must be a non-empty string")
        for name in ("width", "height"):
            v = getattr(self, name)
            if v is not None and (not isinstance(v, int) or isinstance(v, bool) or v <= 0):
                raise DataError(f"{name} must be a positive integer, got {v!r}")
        if self.boxes:
            if self.width is None or self.height is None:
                raise DataError(
                    f"image {self.image_id!r} has boxes but no width/height"
                )
            for b in self.boxes:
                if b.x + b.w > self.width or b.y + b.h > self.height:
                    raise DataError(
                        f"image {self.image_id!r}: box {b.raw_label!r} at "
                        f"({b.x},{b.y},{b.w},{b.h}) exceeds {self.width}x{self.height} bounds"
                    )

    @property
    def has_labels(self) -> bool:
        """True if the image carries any label evidence (direct labels or boxes)."""
        return bool(self.direct_labels) or bool(self.boxes)


@dataclass(frozen=True)
class PredictionRecord:
    """Per-image confidence scores keyed by concept id; any finite scale."""

    image_id: str
    scores: Mapping[str, float]

    def __post_init__(self):
        for concept, score in self.scores.items():
            if not concept:
                raise DataError(f"image {self.image_id!r}: empty concept key in scores")
            if not isinstance(score, (int, float)) or isinstance(score, bool) or not math.isfinite(score):
                raise DataError(
                    f"image {self.image_id!r}: non-finite score {score!r} for {concept!r}"
                )


class ExclusionReason(Enum):
    """Why an image was excluded from group assignment."""

    MULTIPLE_GROUPS = "MultipleGroups"
    NO_GROUP_EVIDENCE = "NoGroupEvidence"
    BOX_TOO_SMALL = "BoxTooSmall"
    MID_SIZE_AMBIGUOUS = "MidSizeAmbiguous"
    NEUTRAL_TERM_PRESENT = "NeutralTermPresent"


@dataclass(frozen=True)
class GroupAssignment:
    """Outcome of group operationalization for one image.

    Exactly one of ``group`` (assigned) or ``reason`` (excluded) is set.
    """

    image_id: str
    group: str | None = None
    reason: ExclusionReason | None = None

    def __post_init__(self):
        if (self.group is None) == (self.reason is None):
            raise DataError(
                f"assignment for {self.image_id!r} must carry exactly one of group/reason"
            )

    @property
    def assigned(self) -> bool:
        return self.group is not None

    @property
    def group_or_reason(self) -> str:
        return self.group if self.group is not None else self.reason.value


def _req_str(obj: dict, key: str, ctx: str) -> str:
    v = obj.get(key)
    if not isinstance(v, str) or not v:
        raise DataError(f"{ctx}: missing or invalid {key!r}")
    return v


def _opt_int(obj: dict, key: str, ctx: str) -> int | None:
    v = obj.get(key)
    if v is None:
        return None
    if not isinstance(v, int) or isinstance(v, bool):
        raise DataError(f"{ctx}: {key!r} must be an integer, got {v!r}")
    return v


def _iter_jsonl(path: Path) -> Iterable[tuple[int, dict]]:
    with path.open(encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{line_no}: malformed JSON ({e.msg})") from e
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{line_no}: expected a JSON object")
            yield line_no, obj


def _parse_image(obj: dict, ctx: str) -> AnnotatedImage:
    image_id = _req_str(obj, "image_id", ctx)
    boxes = []
    for i, b in enumerate(obj.get("boxes") or []):
        if not isinstance(b, dict):
            raise DataError(f"{ctx}: box #{i} is not an object")
        try:
            boxes.append(
                BoxAnnotation(
                    raw_label=_req_str(b, "label", f"{ctx} box #{i}"),
                    x=b.get("x", 0), y=b.get("y", 0), w=b.get("w"), h=b.get("h"),
                )
            )
        except DataError as e:
            raise DataError(f"{ctx}: {e}") from e
    captions = obj.get("captions") or []
    labels = obj.get("labels") or []
    metadata = obj.get("metadata") or {}
    if not all(isinstance(c, str) for c in captions):
        raise DataError(f"{ctx}: captions must be strings")
    if not all(isinstance(s, str) and s for s in labels):
        raise DataError(f"{ctx}: labels must be non-empty strings")
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise DataError(f"{ctx}: metadata must map strings to strings")
    try:
        return AnnotatedImage(
            image_id=image_id,
            width=_opt_int(obj, "width", ctx),
            height=_opt_int(obj, "height", ctx),
            boxes=tuple(boxes),
            captions=tuple(captions),
            direct_labels=frozenset(labels),
            metadata=dict(metadata),
        )
    except DataError as e:
        raise DataError(f"{ctx}: {e}") from e


def load_annotations(path: str | Path) -> list[AnnotatedImage]:
    """Load an annotations file into AnnotatedImage records.

    An image_id may appear on several lines only when the repeated records
    differ in nothing but their ``labels``; those label sets are collapsed
    into a single record. Any other repetition is an error.

    Args:
        path: JSON Lines file, one object per image.

    Raises:
        DataError: on malformed lines (with line number), conflicting
            duplicate image_ids, or boxes outside image bounds.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"annotations file not found: {path}")
    by_id: dict[str, AnnotatedImage] = {}
    order: list[str] = []
    for line_no, obj in _iter_jsonl(path):
        img = _parse_image(obj, f"{path}:{line_no}")
        prev = by_id.get(img.image_id)
        if prev is None:
            by_id[img.image_id] = img
            order.append(img.image_id)
            continue
        merged_labels = prev.direct_labels | img.direct_labels
        if (
            dataclasses.replace(prev, direct_labels=frozenset())
            != dataclasses.replace(img, direct_labels=frozenset())
        ):
            raise DataError(
                f"{path}:{line_no}: duplicate image_id {img.image_id!r} with "
                "conflicting fields (only label-only repetitions are collapsed)"
            )
        by_id[img.image_id] = dataclasses.replace(prev, direct_labels=merged_labels)
    return [by_id[i] for i in order]


def load_predictions(
    path: str | Path, images: Sequence[AnnotatedImage]
) -> list[PredictionRecord]:
    """Load a predictions file; every record must resolve to a loaded image.

    Args:
        path: JSON Lines file of ``{"image_id": ..., "scores": {...}}``.
        images: the already-loaded annotation records.

    Raises:
        DataError: malformed line, duplicate image_id, non-finite score, or
            image_ids absent from ``images`` (all offenders listed).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"predictions file not found: {path}")
    known = {img.image_id for img in images}
    records: list[PredictionRecord] = []
    seen: set[str] = set()
    unknown: list[str] = []
    for line_no, obj in _iter_jsonl(path):
        ctx = f"{path}:{line_no}"
        image_id = _req_str(obj, "image_id", ctx)
        scores = obj.get("scores")
        if not isinstance(scores, dict):
            raise DataError(f"{ctx}: missing or invalid 'scores' object")
        if image_id in seen:
            raise DataError(f"{ctx}: duplicate prediction for image {image_id!r}")
        seen.add(image_id)
        clean: dict[str, float] = {}
        for concept, score in scores.items():
            if not isinstance(score, (int, float)) or isinstance(score, bool):
                raise DataError(f"{ctx}: score for {concept!r} is not a number")
            clean[str(concept)] = float(score)
        try:
            rec = PredictionRecord(image_id=image_id, scores=clean)
        except DataError as e:
            raise DataError(f"{ctx}: {e}") from e
        if image_id not in known:
            unknown.append(image_id)
        records.append(rec)
    if unknown:
        raise DataError(
            "prediction image_ids do not resolve to any annotated image: "
            + ", ".join(sorted(unknown))
        )
    return records


def validate_dataset(
    images: Sequence[AnnotatedImage], predictions: Sequence[PredictionRecord]
) -> dict:
    """Cross-check annotations against predictions; reporting only, never mutates.

    Returns a dict with keys:
      - ``images_without_labels``: ids with no direct labels and no boxes
        (candidates for removal downstream);
      - ``unscored``: concept -> sorted ids lacking a score for it, for every
        concept with partial coverage;
      - ``zero_positive_concepts``: scored concepts that appear in no image's
        labels (compared in raw label space, before any class mapping).
    """
    without_labels = sorted(img.image_id for img in images if not img.has_labels)
    scores_by_id = {p.image_id: p.scores for p in predictions}
    concept_universe: set[str] = set()
    for p in predictions:
        concept_universe.update(p.scores)
    # Count first; only a partially covered concept needs its ids listed.
    n_scored = Counter(
        chain.from_iterable(scores_by_id.get(img.image_id, ()) for img in images)
    )
    unscored: dict[str, list[str]] = {}
    for concept in sorted(concept_universe):
        if 0 < n_scored[concept] < len(images):
            unscored[concept] = sorted(
                img.image_id
                for img in images
                if concept not in scores_by_id.get(img.image_id, {})
            )
    label_universe: set[str] = set()
    for img in images:
        label_universe.update(img.direct_labels)
        label_universe.update(b.raw_label for b in img.boxes)
    zero_positive = sorted(c for c in concept_universe if c not in label_universe)
    return {
        "images_without_labels": without_labels,
        "unscored": unscored,
        "zero_positive_concepts": zero_positive,
    }
