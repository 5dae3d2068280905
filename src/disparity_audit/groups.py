"""Group operationalization from proxy annotations.

Three evidence sources are supported: object-box labels, caption terms, and
trusted metadata (e.g. country of origin). A run's choices (the method, its
term or country table, the box filter, the metadata key) are one
``GroupRule``, built once from the config: term exclusions are applied when
the terms file is read, so assignment only looks terms up.

Exclusion reasons are checked in a fixed order so the outcome is auditable:
neutral terms before group evidence, multi-group evidence before mid-size
ambiguity, and both before a single group; an image with none of these is
``BoxTooSmall`` when a term box was filtered out, else ``NoGroupEvidence``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .concepts import canonicalize_label, canonicalize_labels
from .data import AnnotatedImage, ExclusionReason
from .errors import DataError

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)

# (min_area, use_min, ignore_max): a term box is evidence when its area is at
# least min_area pixels and its area fraction at least use_min; a term box
# with ignore_max <= fraction < use_min makes the image ambiguous. All zero
# accepts every term box.
NO_BOX_FILTER = (0.0, 0.0, 0.0)


def parse_box_filter(obj: dict | None) -> tuple[float, float, float]:
    """``(min_area, use_min, ignore_max)`` from the config's ``box_filter``.

    Raises:
        DataError: naming the ``box_filter`` value when it is not an object,
            its variant is unknown, or one of the variant's numbers is
            missing, not a finite number, or out of range.
    """
    if obj is None:
        return NO_BOX_FILTER
    if not isinstance(obj, dict):
        raise DataError(f"box_filter must be an object, got {obj!r}")

    def number(key: str) -> float:
        value = obj.get(key)
        if (
            not isinstance(value, (int, float)) or isinstance(value, bool)
            or not math.isfinite(value)
        ):
            raise DataError(
                f"box_filter {obj!r}: {key!r} must be a finite number, got {value!r}"
            )
        return float(value)

    variant = obj.get("variant", "none")
    if variant == "none":
        return NO_BOX_FILTER
    if variant == "min_area_pixels":
        threshold = number("threshold")
        if threshold <= 0:
            raise DataError(f"box_filter {obj!r}: 'threshold' must be > 0, got {threshold}")
        return (threshold, 0.0, 0.0)
    if variant == "relative_area":
        use_min, ignore_max = number("use_min"), number("ignore_max")
        if not 0 < ignore_max < use_min <= 1:
            raise DataError(
                f"box_filter {obj!r}: requires 0 < ignore_max < use_min <= 1, got "
                f"use_min={use_min}, ignore_max={ignore_max}"
            )
        return (0.0, use_min, ignore_max)
    raise DataError(f"unknown box filter variant {variant!r}")


@dataclass(frozen=True)
class GroupRule:
    """How a run assigns each image one group or one exclusion reason.

    ``table`` maps each active group term (``boxes``, ``captions``) or each
    metadata value (``metadata``) to its group; ``groups`` is the group
    order; none may take an exclusion reason's name (a ``DataError``).
    ``box_filter`` is ``(min_area, use_min, ignore_max)``; ``metadata_key``
    is the key ``metadata`` looks up.
    """

    method: str
    groups: tuple[str, ...]
    table: Mapping[str, str]
    neutral_terms: frozenset[str] = frozenset()
    box_filter: tuple[float, float, float] = NO_BOX_FILTER
    metadata_key: str = ""

    def __post_init__(self):
        # an image's outcome is one string, its group or its exclusion reason;
        # checked in enum order, so a clash is named the same on every run
        for reason in ExclusionReason:
            if reason.value in self.groups:
                raise DataError(f"group {reason.value!r} has the name of an exclusion reason")


def terms_rule(
    obj: dict, method: str, *, exclusions: bool,
    box_filter: tuple[float, float, float] = NO_BOX_FILTER,
) -> GroupRule:
    """The rule of a terms file (``groups``, ``excluded_terms``,
    ``neutral_exclusion_terms``), with each group's excluded terms dropped
    from the table when ``exclusions`` is set. Groups keep declaration order.

    Raises:
        DataError: naming the key when a group name is empty, a value has
            the wrong type, two groups share a term, or an excluded term is
            not in its group.
    """
    groups_raw = obj.get("groups")
    if not isinstance(groups_raw, dict) or not groups_raw:
        raise DataError("terms config requires a non-empty 'groups' object")
    if "" in groups_raw:
        raise DataError("terms config: 'groups' has a group with an empty name")
    excluded_raw = obj.get("excluded_terms")
    if excluded_raw is None:
        excluded_raw = {}
    elif not isinstance(excluded_raw, dict):
        raise DataError(
            f"terms config: 'excluded_terms' must be an object, got {excluded_raw!r}"
        )

    def terms(key: str, values: object) -> frozenset[str]:
        return frozenset(canonicalize_labels(values, f"terms config: {key}"))

    groups = {str(g): terms(f"groups[{g!r}]", t) for g, t in groups_raw.items()}
    excluded = {str(g): terms(f"excluded_terms[{g!r}]", t) for g, t in excluded_raw.items()}
    neutral_raw = obj.get("neutral_exclusion_terms")
    neutral = terms("'neutral_exclusion_terms'", [] if neutral_raw is None else neutral_raw)
    names = list(groups)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            overlap = groups[a] & groups[b]
            if overlap:
                raise DataError(f"groups {a!r} and {b!r} share terms: {sorted(overlap)}")
    for g, dropped in excluded.items():
        if g not in groups:
            raise DataError(f"excluded_terms references unknown group {g!r}")
        extra = dropped - groups[g]
        if extra:
            raise DataError(
                f"excluded_terms for {g!r} not in the group's term set: {sorted(extra)}"
            )
    table = {
        t: g for g in names
        for t in (groups[g] - excluded.get(g, frozenset()) if exclusions else groups[g])
    }
    return GroupRule(method, tuple(names), table, neutral, box_filter)


def region_rule(obj: dict, metadata_key: str) -> GroupRule:
    """The ``metadata`` rule of a region file: a total map from metadata
    values to group ids. Groups are sorted.

    Raises:
        DataError: when ``country_to_group`` is missing or empty, or maps a
            value to something other than a non-empty string.
    """
    table = obj.get("country_to_group")
    if not isinstance(table, dict) or not table:
        raise DataError("region config requires a non-empty 'country_to_group' object")
    for country, group in table.items():
        if not isinstance(group, str) or not group:
            raise DataError(
                f"region config: country_to_group[{country!r}] must be a "
                f"non-empty string, got {group!r}"
            )
    return GroupRule(
        "metadata", tuple(sorted(set(table.values()))), {str(k): v for k, v in table.items()},
        metadata_key=metadata_key,
    )


def _from_boxes(image: AnnotatedImage, rule: GroupRule) -> str:
    """Evidence is a term box that passes the box filter. Multi-group
    evidence excludes the image; so does any term box in the mid range.
    When term boxes existed but the filter removed all of them, the reason
    is BoxTooSmall rather than NoGroupEvidence."""
    min_area, use_min, ignore_max = rule.box_filter
    evidence: set[str] = set()
    midsize = False
    saw_term_box = False
    for box in image.boxes:
        group = rule.table.get(canonicalize_label(box.raw_label))
        if group is None:
            continue
        saw_term_box = True
        frac = box.area_fraction(image.width, image.height)
        if box.area >= min_area and frac >= use_min:
            evidence.add(group)
        elif ignore_max <= frac < use_min:
            midsize = True

    if len(evidence) > 1:
        return ExclusionReason.MULTIPLE_GROUPS.value
    if midsize:
        return ExclusionReason.MID_SIZE_AMBIGUOUS.value
    if evidence:
        return next(iter(evidence))
    if saw_term_box:
        return ExclusionReason.BOX_TOO_SMALL.value
    return ExclusionReason.NO_GROUP_EVIDENCE.value


def caption_tokens(captions: Iterable[str]) -> set[str]:
    """Lowercased whole tokens, split on any non-alphanumeric run."""
    tokens: set[str] = set()
    for caption in captions:
        tokens.update(_TOKEN.findall(caption.lower()))
    return tokens


def _from_captions(image: AnnotatedImage, rule: GroupRule) -> str:
    """Whole-token matching; neutral terms are checked before group
    evidence, then the single-group rule applies as for boxes."""
    tokens = caption_tokens(image.captions)
    if not rule.neutral_terms.isdisjoint(tokens):
        return ExclusionReason.NEUTRAL_TERM_PRESENT.value
    evidence = {rule.table[t] for t in tokens if t in rule.table}
    if len(evidence) > 1:
        return ExclusionReason.MULTIPLE_GROUPS.value
    if evidence:
        return next(iter(evidence))
    return ExclusionReason.NO_GROUP_EVIDENCE.value


def _from_metadata(image: AnnotatedImage, rule: GroupRule) -> str:
    """Metadata lookup; uploader-provided, so no filtering."""
    country = image.metadata.get(rule.metadata_key)
    if country is None:
        raise DataError(f"image {image.image_id!r} has no metadata key {rule.metadata_key!r}")
    group = rule.table.get(country)
    if group is None:
        raise DataError(
            f"image {image.image_id!r}: country {country!r} missing from region config"
        )
    return group


_ASSIGN = {"boxes": _from_boxes, "captions": _from_captions, "metadata": _from_metadata}


def assign_groups(images: Iterable[AnnotatedImage], rule: GroupRule) -> dict[str, str]:
    """Each image's outcome under ``rule``, by image id in image order: its
    group, or its ``ExclusionReason`` value (``EXCLUSION_REASONS``).

    Raises:
        DataError: under ``metadata``, for an image without the metadata key
            or with a value the region table lacks.
    """
    assign = _ASSIGN[rule.method]
    return {image.image_id: assign(image, rule) for image in images}


def assignment_summary(
    assignments: Mapping[str, str], groups: Iterable[str] = ()
) -> dict[str, int]:
    """Counts per group and per exclusion reason; the counts partition the input."""
    summary: dict[str, int] = {g: 0 for g in groups}
    for reason in ExclusionReason:
        summary[reason.value] = 0
    for outcome in assignments.values():
        summary[outcome] = summary.get(outcome, 0) + 1
    return summary
