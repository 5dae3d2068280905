"""Group operationalization from proxy annotations.

Three evidence sources are supported: object-box labels, caption terms, and
trusted metadata (e.g. country of origin). Box-based assignment supports a
ladder of size filters; term-based assignment supports per-configuration
term exclusions and neutral terms that disqualify an image outright.

Exclusion reasons are checked in a fixed order so the outcome is auditable:
neutral terms before group evidence, and multi-group evidence before
mid-size ambiguity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping

from .concepts import canonicalize_label, canonicalize_labels
from .data import AnnotatedImage, ExclusionReason, GroupAssignment, read_json_object
from .errors import DataError

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class NoBoxFilter:
    """Accept every group-term box as evidence."""


@dataclass(frozen=True)
class MinAreaPixels:
    """Boxes below ``threshold`` square pixels do not count as evidence."""

    threshold: float

    def __post_init__(self):
        if self.threshold <= 0:
            raise DataError(f"MinAreaPixels threshold must be > 0, got {self.threshold}")


@dataclass(frozen=True)
class RelativeArea:
    """Relative-size filter: evidence needs area fraction >= ``use_min``.

    Boxes under ``ignore_max`` are ignored entirely; a group-term box in
    between makes the whole image ambiguous.
    """

    use_min: float
    ignore_max: float

    def __post_init__(self):
        if not 0 < self.ignore_max < self.use_min <= 1:
            raise DataError(
                "RelativeArea requires 0 < ignore_max < use_min <= 1, got "
                f"use_min={self.use_min}, ignore_max={self.ignore_max}"
            )


BoxFilterRule = NoBoxFilter | MinAreaPixels | RelativeArea


def parse_box_filter(obj: dict | None) -> BoxFilterRule:
    """Build a filter rule from its config dict form.

    Raises:
        DataError: naming the ``box_filter`` value when it is not an object,
            its variant is unknown, or one of the variant's numbers is
            missing or not a number.
    """
    if obj is None:
        return NoBoxFilter()
    if not isinstance(obj, dict):
        raise DataError(f"box_filter must be an object, got {obj!r}")

    def number(key: str) -> float:
        value = obj.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise DataError(f"box_filter {obj!r}: {key!r} must be a number, got {value!r}")
        return float(value)

    variant = obj.get("variant", "none")
    if variant == "none":
        return NoBoxFilter()
    if variant == "min_area_pixels":
        return MinAreaPixels(threshold=number("threshold"))
    if variant == "relative_area":
        return RelativeArea(use_min=number("use_min"), ignore_max=number("ignore_max"))
    raise DataError(f"unknown box filter variant {variant!r}")


@dataclass(frozen=True)
class GroupTermConfig:
    """Group taxonomy defined by term sets (synset keys or caption words).

    ``excluded_terms`` lists, per group, terms disabled in this
    configuration; ``neutral_exclusion_terms`` disqualify an image when any
    of them appears in its captions.
    """

    groups: Mapping[str, frozenset[str]]
    excluded_terms: Mapping[str, frozenset[str]]
    neutral_exclusion_terms: frozenset[str]

    def __post_init__(self):
        names = list(self.groups)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                overlap = self.groups[a] & self.groups[b]
                if overlap:
                    raise DataError(
                        f"groups {a!r} and {b!r} share terms: {sorted(overlap)}"
                    )
        for g, excluded in self.excluded_terms.items():
            if g not in self.groups:
                raise DataError(f"excluded_terms references unknown group {g!r}")
            extra = excluded - self.groups[g]
            if extra:
                raise DataError(
                    f"excluded_terms for {g!r} not in the group's term set: {sorted(extra)}"
                )

    @property
    def group_order(self) -> tuple[str, ...]:
        return tuple(self.groups)

    def active_terms(self, group: str) -> frozenset[str]:
        return self.groups[group] - self.excluded_terms.get(group, frozenset())

    def without_exclusions(self) -> "GroupTermConfig":
        return replace(self, excluded_terms={g: frozenset() for g in self.groups})

    @classmethod
    def from_dict(cls, obj: dict) -> "GroupTermConfig":
        groups_raw = obj.get("groups")
        if not isinstance(groups_raw, dict) or not groups_raw:
            raise DataError("terms config requires a non-empty 'groups' object")
        excluded_raw = obj.get("excluded_terms") or {}
        if not isinstance(excluded_raw, dict):
            raise DataError(
                f"terms config: 'excluded_terms' must be an object, got {excluded_raw!r}"
            )

        def terms(key: str, values: object) -> frozenset[str]:
            return frozenset(canonicalize_labels(values, f"terms config: {key}"))

        return cls(
            groups={str(g): terms(f"groups[{g!r}]", t) for g, t in groups_raw.items()},
            excluded_terms={
                str(g): terms(f"excluded_terms[{g!r}]", t) for g, t in excluded_raw.items()
            },
            neutral_exclusion_terms=terms(
                "'neutral_exclusion_terms'", obj.get("neutral_exclusion_terms") or []
            ),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "GroupTermConfig":
        return cls.from_dict(read_json_object(path, "terms"))


@dataclass(frozen=True)
class RegionGroupConfig:
    """Total map from metadata country values to region group ids."""

    country_to_group: Mapping[str, str]

    def groups(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.country_to_group.values())))

    @classmethod
    def from_dict(cls, obj: dict) -> "RegionGroupConfig":
        table = obj.get("country_to_group")
        if not isinstance(table, dict) or not table:
            raise DataError("region config requires a non-empty 'country_to_group' object")
        for country, group in table.items():
            if not isinstance(group, str) or not group:
                raise DataError(
                    f"region config: country_to_group[{country!r}] must be a "
                    f"non-empty string, got {group!r}"
                )
        return cls(country_to_group={str(k): v for k, v in table.items()})

    @classmethod
    def from_file(cls, path: str | Path) -> "RegionGroupConfig":
        return cls.from_dict(read_json_object(path, "region"))


def assign_group_from_boxes(
    image: AnnotatedImage,
    terms: GroupTermConfig,
    box_filter: BoxFilterRule = NoBoxFilter(),
) -> GroupAssignment:
    """Assign a group from box labels, applying the configured size filter.

    Evidence is a group-term box that passes the filter. Multi-group
    evidence excludes the image; so does any group-term box in the
    relative-area mid range. When term boxes existed but all were removed by
    the size filter, the exclusion reason is BoxTooSmall rather than
    NoGroupEvidence.
    """
    term_to_group = {
        t: g for g in terms.group_order for t in terms.active_terms(g)
    }
    evidence: set[str] = set()
    midsize = False
    saw_term_box = False
    for box in image.boxes:
        group = term_to_group.get(canonicalize_label(box.raw_label))
        if group is None:
            continue
        saw_term_box = True
        if isinstance(box_filter, NoBoxFilter):
            evidence.add(group)
        elif isinstance(box_filter, MinAreaPixels):
            if box.area >= box_filter.threshold:
                evidence.add(group)
        elif isinstance(box_filter, RelativeArea):
            if image.width is None or image.height is None:
                raise DataError(
                    f"image {image.image_id!r}: relative-area filtering needs width/height"
                )
            frac = box.area_fraction(image.width, image.height)
            if frac >= box_filter.use_min:
                evidence.add(group)
            elif frac >= box_filter.ignore_max:
                midsize = True
            # below ignore_max: ignored entirely
        else:
            raise DataError(f"unknown box filter {box_filter!r}")

    if len(evidence) > 1:
        return GroupAssignment(image.image_id, reason=ExclusionReason.MULTIPLE_GROUPS)
    if midsize:
        return GroupAssignment(image.image_id, reason=ExclusionReason.MID_SIZE_AMBIGUOUS)
    if len(evidence) == 1:
        return GroupAssignment(image.image_id, group=next(iter(evidence)))
    if saw_term_box and not isinstance(box_filter, NoBoxFilter):
        return GroupAssignment(image.image_id, reason=ExclusionReason.BOX_TOO_SMALL)
    return GroupAssignment(image.image_id, reason=ExclusionReason.NO_GROUP_EVIDENCE)


def caption_tokens(captions: Iterable[str]) -> set[str]:
    """Lowercased whole tokens, split on any non-alphanumeric run."""
    tokens: set[str] = set()
    for caption in captions:
        tokens.update(_TOKEN.findall(caption.lower()))
    return tokens


def assign_group_from_captions(
    image: AnnotatedImage, terms: GroupTermConfig
) -> GroupAssignment:
    """Assign a group from caption terms via whole-token matching.

    Neutral exclusion terms are checked before group evidence; then the
    single-group rule applies as for boxes.
    """
    tokens = caption_tokens(image.captions)
    if tokens & terms.neutral_exclusion_terms:
        return GroupAssignment(image.image_id, reason=ExclusionReason.NEUTRAL_TERM_PRESENT)
    evidence = {
        g for g in terms.group_order if tokens & terms.active_terms(g)
    }
    if len(evidence) > 1:
        return GroupAssignment(image.image_id, reason=ExclusionReason.MULTIPLE_GROUPS)
    if len(evidence) == 1:
        return GroupAssignment(image.image_id, group=next(iter(evidence)))
    return GroupAssignment(image.image_id, reason=ExclusionReason.NO_GROUP_EVIDENCE)


def assign_group_from_metadata(
    image: AnnotatedImage, config: RegionGroupConfig, key: str = "country"
) -> GroupAssignment:
    """Assign a group by metadata lookup; uploader-provided, so no filtering."""
    country = image.metadata.get(key)
    if country is None:
        raise DataError(f"image {image.image_id!r} has no metadata key {key!r}")
    group = config.country_to_group.get(country)
    if group is None:
        raise DataError(
            f"image {image.image_id!r}: country {country!r} missing from region config"
        )
    return GroupAssignment(image.image_id, group=group)


def assignment_summary(
    assignments: Iterable[GroupAssignment], groups: Iterable[str] = ()
) -> dict[str, int]:
    """Counts per group and per exclusion reason; the counts partition the input."""
    summary: dict[str, int] = {g: 0 for g in groups}
    for reason in ExclusionReason:
        summary[reason.value] = 0
    for a in assignments:
        key = a.group_or_reason
        summary[key] = summary.get(key, 0) + 1
    return summary
