import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from disparity_audit import (
    AnnotatedImage,
    BoxAnnotation,
    DataError,
    ExclusionReason,
    assign_groups,
    assignment_summary,
    region_rule,
    terms_rule,
)
from disparity_audit.data import EXCLUSION_REASONS, read_json_object
from disparity_audit.groups import parse_box_filter

from corpus import (
    BOX_CASES,
    CAPTION_CASES,
    VERSIONS,
    VG_TERMS,
    box_rule,
    caption_rule,
)
from oracles import box_outcome_oracle


def assign(image, rule):
    return assign_groups([image], rule)[image.image_id]


def outcome_of(outcome: str):
    return ("excluded" if outcome in EXCLUSION_REASONS else "assigned", outcome)


@pytest.mark.parametrize("build", [
    lambda: ([image for image, _ in BOX_CASES[::-1]], box_rule("v3")),
    lambda: ([image for image, _ in CAPTION_CASES[::-1]], caption_rule("v3")),
    lambda: (
        [AnnotatedImage(image_id=i, metadata={"country": c})
         for i, c in [("z", "Kenya"), ("b", "Brazil"), ("m", "Kenya"), ("a", "Brazil")]],
        region_rule({"country_to_group": {"Kenya": "Africa", "Brazil": "Americas"}}, "country"),
    ),
], ids=["boxes", "captions", "metadata"])
def test_outcomes_are_keyed_by_image_id_in_image_order(build):
    images, rule = build()
    assignments = assign_groups(images, rule)
    assert list(assignments) == [image.image_id for image in images]
    assert list(assignments) != sorted(assignments)
    assert assignments == {image.image_id: assign(image, rule) for image in images}


class TestBoxAssignment:
    @pytest.mark.parametrize("version", VERSIONS)
    def test_corpus_expectations(self, version):
        rule = box_rule(version)
        for image, expected in BOX_CASES:
            got = outcome_of(assign(image, rule))
            assert got == expected[version], f"{image.image_id} under {version}"

    def test_relative_area_single_qualifying_box(self):
        img = AnnotatedImage(
            image_id="i", width=100, height=100,
            boxes=(BoxAnnotation("man.n.01", 0, 0, 40, 20),),  # 8%
        )
        assert assign(img, box_rule("v2")) == "man"

    def test_600px_equals_six_percent_on_100x100(self):
        img = AnnotatedImage(
            image_id="i", width=100, height=100,
            boxes=(BoxAnnotation("man.n.01", 0, 0, 30, 20),),
        )
        frac = img.boxes[0].area_fraction(100, 100)
        assert img.boxes[0].area == 600 and frac == pytest.approx(0.06)
        assert assign(img, box_rule("v2")) == "man"

    def test_determinism(self):
        for version in VERSIONS:
            rule = box_rule(version)
            for image, _ in BOX_CASES:
                first = assign(image, rule)
                second = assign(image, rule)
                assert first == second

    @given(
        threshold_low=st.integers(min_value=1, max_value=2000),
        bump=st.integers(min_value=1, max_value=2000),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_raising_min_area_shrinks_evidence(self, threshold_low, bump, data):
        terms = {g: set(t) for g, t in VG_TERMS["groups"].items()}
        term_pool = sorted(terms["man"] | terms["woman"]) + ["dog.n.01"]
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
                g = "man" if b.raw_label in terms["man"] else (
                    "woman" if b.raw_label in terms["woman"] else None)
                if g and b.area >= threshold:
                    groups.add(g)
            return groups

        t1, t2 = threshold_low, threshold_low + bump
        assert evidence(t2) <= evidence(t1)
        # and the op agrees with the evidence-set semantics at each threshold
        for t in (t1, t2):
            rule = terms_rule(VG_TERMS, "boxes", exclusions=False, box_filter=parse_box_filter(
                {"variant": "min_area_pixels", "threshold": t}))
            got = assign(img, rule)
            ev = evidence(t)
            if len(ev) > 1:
                assert got == ExclusionReason.MULTIPLE_GROUPS.value
            elif len(ev) == 1:
                assert got == next(iter(ev))

    @given(data=st.data(), exclusions=st.booleans(),
           variant=st.sampled_from(["none", "min_area", "relative_area", "both"]))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, data, exclusions, variant):
        """Assignment equals the reference on random boxes and filters; a
        filter bound is often exactly some box's area or area fraction."""
        width = data.draw(st.integers(min_value=1, max_value=40))
        height = data.draw(st.integers(min_value=1, max_value=40))
        labels = sorted(t for ts in VG_TERMS["groups"].values() for t in ts)
        boxes = data.draw(st.lists(st.tuples(
            st.sampled_from(labels + ["dog.n.01", " Man.N.01 "]),
            st.integers(min_value=1, max_value=width),
            st.integers(min_value=1, max_value=height),
        ), max_size=5))
        fractions = [w * h / (width * height) for _, w, h in boxes]
        bound = st.floats(min_value=1e-6, max_value=1.0)
        if fractions:
            bound = st.one_of(st.sampled_from(fractions), bound)
        low, high = sorted((data.draw(bound), data.draw(bound)))
        assume(low < high)
        min_area = data.draw(st.one_of(
            st.integers(min_value=1, max_value=width * height),
            st.sampled_from([w * h for _, w, h in boxes] or [1]),
        ))
        box_filter = {
            "none": (0.0, 0.0, 0.0),
            "min_area": (float(min_area), 0.0, 0.0),
            "relative_area": (0.0, high, low),
            "both": (float(min_area), high, low),
        }[variant]
        image = AnnotatedImage(
            image_id="i", width=width, height=height,
            boxes=tuple(BoxAnnotation(label, 0, 0, w, h) for label, w, h in boxes),
        )
        rule = terms_rule(VG_TERMS, "boxes", exclusions=exclusions, box_filter=box_filter)
        excluded = VG_TERMS["excluded_terms"] if exclusions else {}
        terms = {g: set(ts) - set(excluded.get(g, ())) for g, ts in VG_TERMS["groups"].items()}
        expected = box_outcome_oracle(boxes, width, height, terms, *box_filter)
        assert outcome_of(assign(image, rule)) == expected

    def test_never_assigned_to_two_groups(self):
        # disjoint term sets make the single-assignment property structural
        with pytest.raises(DataError, match="share terms"):
            terms_rule({
                "groups": {"man": ["man.n.01"], "woman": ["man.n.01", "woman.n.01"]},
            }, "boxes", exclusions=True)

    def test_no_boxes_skips_dimension_requirement(self):
        img = AnnotatedImage(image_id="j", captions=("x",))
        assert assign(img, box_rule("v2")) == ExclusionReason.NO_GROUP_EVIDENCE.value

    def test_filter_validation(self):
        with pytest.raises(DataError):
            parse_box_filter({"variant": "min_area_pixels", "threshold": 0})
        with pytest.raises(DataError):
            parse_box_filter({"variant": "relative_area", "use_min": 0.02, "ignore_max": 0.05})
        with pytest.raises(DataError, match="variant"):
            parse_box_filter({"variant": "bogus"})


class TestCaptionAssignment:
    @pytest.mark.parametrize("version", VERSIONS)
    def test_corpus_expectations(self, version):
        rule = caption_rule(version)
        for image, expected in CAPTION_CASES:
            got = outcome_of(assign(image, rule))
            assert got == expected[version], f"{image.image_id} under {version}"

    def test_whole_token_matching_only(self):
        img = AnnotatedImage(image_id="i", captions=("the woman's bike, she said",))
        # "woman" and "she" both match as whole tokens after splitting on "'"
        assert assign(img, caption_rule("baseline")) == "woman"

    def test_no_captions_means_no_evidence(self):
        img = AnnotatedImage(image_id="i")
        assert assign(img, caption_rule("baseline")) == ExclusionReason.NO_GROUP_EVIDENCE.value


class TestRegionConfig:
    @pytest.mark.parametrize("group", [None, 5, "", ["Europe"]])
    def test_group_must_be_a_name(self, group):
        with pytest.raises(DataError) as info:
            region_rule({"country_to_group": {"FR": "Europe", "US": group}}, "country")
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
            region_rule(read_json_object(path, "region"), "country")
        assert message in str(info.value) and str(path) in str(info.value)


class TestMetadataAssignment:
    CONFIG = region_rule({
        "country_to_group": {"Kenya": "Africa", "Brazil": "Americas", "United States": "Americas"},
    }, "country")

    def test_simple_lookup(self):
        img = AnnotatedImage(image_id="i", metadata={"country": "Kenya"})
        assert assign(img, self.CONFIG) == "Africa"

    def test_americas_merge(self):
        img = AnnotatedImage(image_id="i", metadata={"country": "Brazil"})
        assert assign(img, self.CONFIG) == "Americas"

    def test_missing_country_errors(self):
        img = AnnotatedImage(image_id="i", metadata={"country": "Atlantis"})
        with pytest.raises(DataError, match="Atlantis"):
            assign(img, self.CONFIG)

    def test_missing_key_errors(self):
        img = AnnotatedImage(image_id="i", metadata={})
        with pytest.raises(DataError, match="country"):
            assign(img, self.CONFIG)

    def test_group_listing_sorted(self):
        assert self.CONFIG.groups == ("Africa", "Americas")


class TestAssignmentSummary:
    def test_counts(self):
        assignments = {
            "a": "man", "b": "man", "c": "man", "d": ExclusionReason.MULTIPLE_GROUPS.value,
        }
        summary = assignment_summary(assignments)
        assert summary["man"] == 3
        assert summary["MultipleGroups"] == 1
        assert summary["NoGroupEvidence"] == 0

    def test_empty_input_all_zero(self):
        summary = assignment_summary({}, groups=["man", "woman"])
        assert set(summary.values()) == {0}
        assert summary["man"] == 0 and summary["woman"] == 0

    def test_rerun_identical(self):
        assignments = {"a": "x"}
        assert assignment_summary(assignments) == assignment_summary(assignments)

    def test_counts_partition_input(self):
        assignments = {
            "a": "man",
            "b": ExclusionReason.BOX_TOO_SMALL.value,
            "c": ExclusionReason.NEUTRAL_TERM_PRESENT.value,
        }
        summary = assignment_summary(assignments)
        assert sum(summary.values()) == len(assignments)

    def test_keys_are_the_groups_then_the_reasons_in_enum_order(self):
        summary = assignment_summary({"a": "woman"}, groups=["woman", "man"])
        assert list(summary) == ["woman", "man", *(r.value for r in ExclusionReason)]


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
        ({"groups": {"": ["man"], "woman": ["woman"]}},
         "'groups' has a group with an empty name"),
        ({"groups": {"man": ["man", " "]}},
         "terms config: groups['man']: label ' ' is empty after canonicalization"),
        ({"groups": {"man": ["man"]}, "neutral_exclusion_terms": ["people", ""]},
         "terms config: 'neutral_exclusion_terms': label '' is empty after canonicalization"),
    ])
    def test_wrong_value_type_names_the_key(self, obj, message):
        with pytest.raises(DataError) as info:
            terms_rule(obj, "boxes", exclusions=True)
        assert message in str(info.value)

    @pytest.mark.parametrize("build", [
        lambda g: terms_rule({"groups": {g: ["man"], "woman": ["woman"]}}, "captions",
                             exclusions=False),
        lambda g: region_rule({"country_to_group": {"US": g, "FR": "europe"}}, "country"),
    ], ids=["terms", "region"])
    def test_group_named_after_exclusion_reason_rejected(self, build):
        """An image's outcome is one string, so such a group would read as
        an exclusion."""
        with pytest.raises(DataError, match="'NoGroupEvidence' has the name of an exclusion"):
            build("NoGroupEvidence")
        assert build("NoGroupEvidence2").groups

    def test_clash_names_the_first_reason_in_enum_order(self):
        rule = {"groups": {"NeutralTermPresent": ["a"], "MultipleGroups": ["b"]}}
        with pytest.raises(DataError, match="'MultipleGroups' has the name"):
            terms_rule(rule, "captions", exclusions=False)

    def test_excluded_terms_must_be_subset(self):
        with pytest.raises(DataError, match="not in the group's term set"):
            terms_rule({
                "groups": {"man": ["man.n.01"]},
                "excluded_terms": {"man": ["woman.n.01"]},
            }, "boxes", exclusions=False)

    def test_without_exclusions_restores_full_sets(self):
        assert "mother.n.01" not in box_rule("v3").table
        assert box_rule("v2").table["mother.n.01"] == "woman"

    def test_group_order_is_declaration_order(self):
        assert box_rule("baseline").groups == ("man", "woman")
