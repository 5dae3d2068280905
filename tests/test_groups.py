import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disparity_audit import (
    AnnotatedImage,
    BoxAnnotation,
    DataError,
    ExclusionReason,
    GroupAssignment,
    GroupTermConfig,
    RegionGroupConfig,
    assign_group_from_boxes,
    assign_group_from_captions,
    assign_group_from_metadata,
    assignment_summary,
)
from disparity_audit.groups import MinAreaPixels, RelativeArea, parse_box_filter

from corpus import (
    BOX_CASES,
    BOX_FILTERS,
    CAPTION_CASES,
    VERSIONS,
    box_terms,
    caption_terms,
)


def outcome_of(assignment: GroupAssignment):
    if assignment.assigned:
        return ("assigned", assignment.group)
    return ("excluded", assignment.reason.value)


class TestBoxAssignment:
    @pytest.mark.parametrize("version", VERSIONS)
    def test_corpus_expectations(self, version):
        terms = box_terms(version)
        rule = BOX_FILTERS[version]
        for image, expected in BOX_CASES:
            got = outcome_of(assign_group_from_boxes(image, terms, rule))
            assert got == expected[version], f"{image.image_id} under {version}"

    def test_relative_area_single_qualifying_box(self):
        img = AnnotatedImage(
            image_id="i", width=100, height=100,
            boxes=(BoxAnnotation("man.n.01", 0, 0, 40, 20),),  # 8%
        )
        rule = RelativeArea(use_min=0.05, ignore_max=0.02)
        a = assign_group_from_boxes(img, box_terms("v2"), rule)
        assert a.group == "man"

    def test_600px_equals_six_percent_on_100x100(self):
        img = AnnotatedImage(
            image_id="i", width=100, height=100,
            boxes=(BoxAnnotation("man.n.01", 0, 0, 30, 20),),
        )
        frac = img.boxes[0].area_fraction(100, 100)
        assert img.boxes[0].area == 600 and frac == pytest.approx(0.06)
        a = assign_group_from_boxes(img, box_terms("v2"), RelativeArea(0.05, 0.02))
        assert a.group == "man"

    def test_determinism(self):
        for version in VERSIONS:
            terms = box_terms(version)
            rule = BOX_FILTERS[version]
            for image, _ in BOX_CASES:
                first = assign_group_from_boxes(image, terms, rule)
                second = assign_group_from_boxes(image, terms, rule)
                assert first == second

    @given(
        threshold_low=st.integers(min_value=1, max_value=2000),
        bump=st.integers(min_value=1, max_value=2000),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_raising_min_area_shrinks_evidence(self, threshold_low, bump, data):
        terms = box_terms("baseline")
        term_pool = sorted(terms.groups["man"] | terms.groups["woman"]) + ["dog.n.01"]
        n_boxes = data.draw(st.integers(min_value=0, max_value=5))
        boxes = []
        for _ in range(n_boxes):
            label = data.draw(st.sampled_from(term_pool))
            w = data.draw(st.integers(min_value=1, max_value=60))
            h = data.draw(st.integers(min_value=1, max_value=60))
            boxes.append(BoxAnnotation(label, 0, 0, w, h))
        img = AnnotatedImage(
            image_id="i", width=60, height=60, boxes=tuple(boxes)
        ) if boxes else AnnotatedImage(image_id="i", width=60, height=60)

        def evidence(threshold):
            groups = set()
            for b in img.boxes:
                g = "man" if b.raw_label in terms.groups["man"] else (
                    "woman" if b.raw_label in terms.groups["woman"] else None)
                if g and b.area >= threshold:
                    groups.add(g)
            return groups

        t1, t2 = threshold_low, threshold_low + bump
        assert evidence(t2) <= evidence(t1)
        # and the op agrees with the evidence-set semantics at each threshold
        for t in (t1, t2):
            got = assign_group_from_boxes(img, terms, MinAreaPixels(t))
            ev = evidence(t)
            if len(ev) > 1:
                assert got.reason is ExclusionReason.MULTIPLE_GROUPS
            elif len(ev) == 1:
                assert got.group == next(iter(ev))

    def test_never_assigned_to_two_groups(self):
        # disjoint term sets make the single-assignment property structural
        with pytest.raises(DataError, match="share terms"):
            GroupTermConfig.from_dict({
                "groups": {"man": ["man.n.01"], "woman": ["man.n.01", "woman.n.01"]},
            })

    def test_no_boxes_skips_dimension_requirement(self):
        img = AnnotatedImage(image_id="j", captions=("x",))
        a = assign_group_from_boxes(img, box_terms("v2"), RelativeArea(0.05, 0.02))
        assert a.reason is ExclusionReason.NO_GROUP_EVIDENCE

    def test_filter_validation(self):
        with pytest.raises(DataError):
            MinAreaPixels(0)
        with pytest.raises(DataError):
            RelativeArea(use_min=0.02, ignore_max=0.05)
        with pytest.raises(DataError, match="variant"):
            parse_box_filter({"variant": "bogus"})


class TestCaptionAssignment:
    @pytest.mark.parametrize("version", VERSIONS)
    def test_corpus_expectations(self, version):
        terms = caption_terms(version)
        for image, expected in CAPTION_CASES:
            got = outcome_of(assign_group_from_captions(image, terms))
            assert got == expected[version], f"{image.image_id} under {version}"

    def test_whole_token_matching_only(self):
        img = AnnotatedImage(image_id="i", captions=("the woman's bike, she said",))
        a = assign_group_from_captions(img, caption_terms("baseline"))
        # "woman" and "she" both match as whole tokens after splitting on "'"
        assert a.group == "woman"

    def test_no_captions_means_no_evidence(self):
        img = AnnotatedImage(image_id="i")
        a = assign_group_from_captions(img, caption_terms("baseline"))
        assert a.reason is ExclusionReason.NO_GROUP_EVIDENCE


class TestRegionConfig:
    @pytest.mark.parametrize("group", [None, 5, "", ["Europe"]])
    def test_group_must_be_a_name(self, group):
        with pytest.raises(DataError) as info:
            RegionGroupConfig.from_dict({"country_to_group": {"FR": "Europe", "US": group}})
        assert f"country_to_group['US'] must be a non-empty string, got {group!r}" in str(
            info.value
        )

    @pytest.mark.parametrize("text,message", [
        (None, "region file not found"),
        ('{"country_to_group": {', "is not valid JSON"),
        ('["FR"]', "must hold a JSON object, got list"),
        (b'{"country_to_group": {"caf\xe9": "Europe"}}', "is not valid JSON"),
    ], ids=["missing", "malformed", "not-object", "not-utf8"])
    def test_unreadable_file_names_it(self, tmp_path, text, message):
        path = tmp_path / "region.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        with pytest.raises(DataError) as info:
            RegionGroupConfig.from_file(path)
        assert message in str(info.value) and str(path) in str(info.value)


class TestMetadataAssignment:
    CONFIG = RegionGroupConfig.from_dict({
        "country_to_group": {"Kenya": "Africa", "Brazil": "Americas", "United States": "Americas"},
    })

    def test_simple_lookup(self):
        img = AnnotatedImage(image_id="i", metadata={"country": "Kenya"})
        assert assign_group_from_metadata(img, self.CONFIG).group == "Africa"

    def test_americas_merge(self):
        img = AnnotatedImage(image_id="i", metadata={"country": "Brazil"})
        assert assign_group_from_metadata(img, self.CONFIG).group == "Americas"

    def test_missing_country_errors(self):
        img = AnnotatedImage(image_id="i", metadata={"country": "Atlantis"})
        with pytest.raises(DataError, match="Atlantis"):
            assign_group_from_metadata(img, self.CONFIG)

    def test_missing_key_errors(self):
        img = AnnotatedImage(image_id="i", metadata={})
        with pytest.raises(DataError, match="country"):
            assign_group_from_metadata(img, self.CONFIG)

    def test_group_listing_sorted(self):
        assert self.CONFIG.groups() == ("Africa", "Americas")


class TestAssignmentSummary:
    def test_counts(self):
        assignments = [
            GroupAssignment("a", group="man"),
            GroupAssignment("b", group="man"),
            GroupAssignment("c", group="man"),
            GroupAssignment("d", reason=ExclusionReason.MULTIPLE_GROUPS),
        ]
        summary = assignment_summary(assignments)
        assert summary["man"] == 3
        assert summary["MultipleGroups"] == 1
        assert summary["NoGroupEvidence"] == 0

    def test_empty_input_all_zero(self):
        summary = assignment_summary([], groups=["man", "woman"])
        assert set(summary.values()) == {0}
        assert summary["man"] == 0 and summary["woman"] == 0

    def test_rerun_identical(self):
        assignments = [GroupAssignment("a", group="x")]
        assert assignment_summary(assignments) == assignment_summary(assignments)

    def test_counts_partition_input(self):
        assignments = [
            GroupAssignment("a", group="man"),
            GroupAssignment("b", reason=ExclusionReason.BOX_TOO_SMALL),
            GroupAssignment("c", reason=ExclusionReason.NEUTRAL_TERM_PRESENT),
        ]
        summary = assignment_summary(assignments)
        assert sum(summary.values()) == len(assignments)


class TestTermConfig:
    @pytest.mark.parametrize("obj,message", [
        ({"groups": {"man": "man"}}, "groups['man'] must be a list of strings, got 'man'"),
        ({"groups": {"man": 5}}, "groups['man'] must be a list of strings, got 5"),
        ({"groups": {"man": ["man", 5]}}, "groups['man'] must be a list of strings"),
        ({"groups": {"man": ["man"]}, "excluded_terms": ["man"]},
         "'excluded_terms' must be an object, got ['man']"),
        ({"groups": {"man": ["man"]}, "excluded_terms": {"man": "man"}},
         "excluded_terms['man'] must be a list of strings, got 'man'"),
        ({"groups": {"man": ["man"]}, "neutral_exclusion_terms": "people"},
         "'neutral_exclusion_terms' must be a list of strings, got 'people'"),
        ({"groups": {"man": ["man"]}, "neutral_exclusion_terms": 3},
         "'neutral_exclusion_terms' must be a list of strings, got 3"),
    ])
    def test_wrong_value_type_names_the_key(self, obj, message):
        with pytest.raises(DataError) as info:
            GroupTermConfig.from_dict(obj)
        assert message in str(info.value)

    def test_excluded_terms_must_be_subset(self):
        with pytest.raises(DataError, match="not in the group's term set"):
            GroupTermConfig.from_dict({
                "groups": {"man": ["man.n.01"]},
                "excluded_terms": {"man": ["woman.n.01"]},
            })

    def test_without_exclusions_restores_full_sets(self):
        cfg = box_terms("v3")
        assert "mother.n.01" not in cfg.active_terms("woman")
        assert "mother.n.01" in cfg.without_exclusions().active_terms("woman")

    def test_group_order_is_declaration_order(self):
        assert box_terms("baseline").group_order == ("man", "woman")
