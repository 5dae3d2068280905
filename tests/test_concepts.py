import pytest
from hypothesis import given
from hypothesis import strategies as st

from disparity_audit import (
    AnnotatedImage,
    ClassMapping,
    DataError,
    canonicalize_label,
    image_target_set,
    map_targets,
    map_to_model_classes,
)
from disparity_audit.data import EXCLUSION_REASONS, ExclusionReason
from disparity_audit.pipeline import plan_concepts

from stubs import run_config, score_matrix, spy_rank_pool

MAPPING_22K = ClassMapping.from_dict({
    "name": "imagenet22k",
    "map": {
        "parking lots": ["garage"],
        "phones": ["telephone", "phone", "telephone_set"],
        "showers": ["shower_room", "shower", "bathtub"],
    },
})

MAPPING_1K = ClassMapping.from_dict({
    "name": "imagenet1k",
    "map": {"parking lots": ["parking meter"], "phones": ["cellphone"]},
})


class TestCanonicalize:
    def test_synset_key_preserved(self):
        assert canonicalize_label("male_child.n.01") == "male_child.n.01"

    def test_plain_label_identity(self):
        assert canonicalize_label("dog") == "dog"

    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    def test_idempotent(self, raw):
        once = canonicalize_label(raw)
        assert canonicalize_label(once) == once

    def test_empty_is_error(self):
        with pytest.raises(DataError):
            canonicalize_label("")
        with pytest.raises(DataError):
            canonicalize_label("   ")

    def test_one_cache_and_errors_not_cached(self):
        """Every layer calls the one cached canonicalizer, and a label that
        raises raises again where it is next met."""
        from disparity_audit import concepts, data, groups

        assert concepts.canonicalize_label is groups.canonicalize_label is data.canonicalize_label
        misses = canonicalize_label.cache_info().misses
        for _ in range(2):
            with pytest.raises(DataError, match="empty after canonicalization"):
                canonicalize_label(" \t ")
        assert canonicalize_label.cache_info().misses == misses + 2


class TestMapping:
    def test_parking_lots_both_mappings(self):
        assert map_to_model_classes({"parking lots"}, MAPPING_22K) == {"garage"}
        assert map_to_model_classes({"parking lots"}, MAPPING_1K) == {"parking meter"}

    def test_phones_imagenet1k(self):
        assert map_to_model_classes({"phones"}, MAPPING_1K) == {"cellphone"}

    def test_empty_set_maps_to_empty(self):
        assert map_to_model_classes(set(), MAPPING_22K) == frozenset()

    def test_union_over_labels(self):
        got = map_to_model_classes({"phones", "showers"}, MAPPING_22K)
        assert got == {"telephone", "phone", "telephone_set", "shower_room", "shower", "bathtub"}

    def test_strict_unmapped_errors_lenient_skips(self):
        with pytest.raises(DataError, match="no entry"):
            map_to_model_classes({"submarine"}, MAPPING_22K, strict=True)
        assert map_to_model_classes({"submarine"}, MAPPING_22K, strict=False) == frozenset()

    def test_whitelist_drops_incompatible_classes(self):
        mapping = ClassMapping.from_dict({
            "name": "m",
            "map": {"phones": ["telephone", "exotic_class"], "roofs": ["exotic_class"]},
            "model_class_whitelist": ["telephone"],
        })
        assert mapping.table == {"phones": ("telephone",)}

    @pytest.mark.parametrize("whitelist", [None, ["canine", "puppy"], ["canine"], ["cat"]])
    def test_keys_of_one_label_rejected(self, whitelist):
        """Two map keys that canonicalize alike are a data error naming both,
        whatever the whitelist keeps, rather than the last one winning."""
        obj = {"name": "m", "map": {"Dog": ["canine"], "cat": ["cat"], "dog ": ["puppy"]}}
        if whitelist is not None:
            obj["model_class_whitelist"] = whitelist
        with pytest.raises(DataError) as info:
            ClassMapping.from_dict(obj)
        assert str(info.value) == "mapping 'm': map keys 'Dog' and 'dog ' are one label, 'dog'"

    @pytest.mark.parametrize("obj,message", [
        ({"map": {"phones": ["telephone"]}, "model_class_whitelist": "telephone"},
         "model_class_whitelist must be a list of strings, got 'telephone'"),
        ({"map": {"phones": ["telephone"]}, "model_class_whitelist": 5},
         "model_class_whitelist must be a list of strings, got 5"),
        ({"map": {"phones": ["telephone", 5]}},
         "label 'phones' must be a list of strings, got ['telephone', 5]"),
        ({"map": {"phones": ["telephone", "  "]}},
         "mapping 'm': label 'phones': label '  ' is empty after canonicalization"),
        ({"map": {"phones": ["telephone"], " ": ["telephone"]}},
         "mapping 'm': label ' ' is empty after canonicalization"),
        ({"map": {"phones": ["telephone"]}, "model_class_whitelist": ["telephone", "\t"]},
         "mapping 'm': model_class_whitelist: label '\\t' is empty after canonicalization"),
    ])
    def test_wrong_value_type_names_the_key(self, obj, message):
        with pytest.raises(DataError) as info:
            ClassMapping.from_dict({"name": "m", **obj})
        assert message in str(info.value)

    def test_empty_class_list_rejected(self):
        with pytest.raises(DataError, match="non-empty"):
            ClassMapping.from_dict({"name": "m", "map": {"x": []}})


def plan_of(images, assignments, predictions, groups=("A",), mapping=None):
    """The plan of hand-built records (``predictions`` maps each image id to
    its scores) for a ranking-only baseline run, which evaluates every
    concept with a positive in each group on its full pools."""
    cfg = run_config(groups=groups, mapping=mapping, min_per_group=1, sampling_mode="baseline")
    return plan_concepts(images, assignments, score_matrix(predictions), cfg)


def pools_of(images, assignments, predictions, mapping=None):
    """Each evaluated concept's ranked group pools, as the plan holds them."""
    plan = plan_of(images, assignments, predictions, mapping=mapping)
    return {c: sizing.pools for c, sizing in plan.sized.items()}


def ranked_rows_of(monkeypatch, images, assignments, predictions, mapping=None):
    """The ``(scores, labels, image_rows)`` the plan ranks for each evaluated
    concept and group, as ``pipeline.rank_pool`` is given them."""
    calls = spy_rank_pool(monkeypatch)
    plan = plan_of(images, assignments, predictions, mapping=mapping)
    keys = [(c, g) for c, sizing in plan.sized.items() for g in sizing.pools]
    out = {c: {} for c in plan.sized}
    for (c, g), rows in zip(keys, calls, strict=True):
        out[c][g] = rows
    return out


def pool_ids(assignments, image_rows):
    """The image id of each pool row: the target matrix holds the
    group-assigned images in image-id order."""
    ids = sorted(i for i, outcome in assignments.items() if outcome not in EXCLUSION_REASONS)
    return [ids[r] for r in image_rows]


def _fixture_dataset():
    images = [
        AnnotatedImage(image_id="a1", direct_labels=frozenset({"c"})),
        AnnotatedImage(image_id="a2", direct_labels=frozenset({"c"})),
        AnnotatedImage(image_id="a3", direct_labels=frozenset({"other"})),
        AnnotatedImage(image_id="a4", direct_labels=frozenset({"other"})),
        AnnotatedImage(image_id="a5", direct_labels=frozenset({"other"})),
        AnnotatedImage(image_id="x1", direct_labels=frozenset({"c"})),
    ]
    assignments = {
        "a1": "A", "a2": "A", "a3": "A", "a4": "A", "a5": "A",
        "x1": ExclusionReason.MULTIPLE_GROUPS.value,
    }
    predictions = {
        i: {"c": 0.1 * k, "other": 0.5} for k, i in enumerate(["a1", "a2", "a3", "a4", "a5", "x1"])
    }
    return images, assignments, predictions


class TestConceptTables:
    def test_partition_two_pos_three_neg(self, monkeypatch):
        images, assignments, predictions = _fixture_dataset()
        scores, labels, image_rows = ranked_rows_of(
            monkeypatch, images, assignments, predictions
        )["c"]["A"]
        assert pool_ids(assignments, image_rows) == ["a1", "a2", "a3", "a4", "a5"]
        assert labels.tolist() == [True, True, False, False, False]
        assert scores.tolist() == [0.1 * k for k in range(5)]
        pool = pools_of(images, assignments, predictions)["c"]["A"]
        assert pool.n_pos == 2 and pool.n_neg == 3

    def test_excluded_image_in_no_table(self, monkeypatch):
        images, assignments, predictions = _fixture_dataset()
        concept_pools = ranked_rows_of(monkeypatch, images, assignments, predictions)
        assert set(concept_pools) == {"c", "other"}
        for pools in concept_pools.values():
            for _, _, image_rows in pools.values():
                assert "x1" not in pool_ids(assignments, image_rows)

    def test_missing_score_omitted(self, caplog):
        images, assignments, predictions = _fixture_dataset()
        predictions["a1"] = {"other": 0.5}
        with caplog.at_level("WARNING"):
            pool = pools_of(images, assignments, predictions)["c"]["A"]
        assert pool.n_pos == 1
        assert [r.getMessage() for r in caplog.records] == [
            "assigned images that lack a score were omitted from 1 concept(s), 1 in all: c"
        ]

    def test_missing_scores_summed_in_one_warning(self, caplog):
        """One WARNING sums the omissions and names the first ten concepts;
        each concept's count is a DEBUG line."""
        concepts = [f"k{j:02d}" for j in range(12)]
        lacks = {f"m{j:02d}": {c} for j, c in enumerate(concepts)}
        lacks["m00"].add("k01")
        images = [AnnotatedImage(image_id="p", direct_labels=frozenset(concepts))]
        images += [AnnotatedImage(image_id=i) for i in lacks]
        assignments = dict.fromkeys((img.image_id for img in images), "A")
        predictions = {"p": dict.fromkeys(concepts, 0.5)}
        predictions.update(
            (i, {c: 0.1 for c in concepts if c not in lacked}) for i, lacked in lacks.items()
        )
        with caplog.at_level("DEBUG", logger="disparity_audit.pipeline"):
            plan = plan_of(images, assignments, predictions)
        assert list(plan.sized) == concepts
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            "assigned images that lack a score were omitted from 12 concept(s), 13 in all: "
            + ", ".join(concepts[:10])
        ]
        assert [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"] == [
            f"concept {c}: {2 if c == 'k01' else 1} assigned image(s) lack a score and were "
            "omitted" for c in concepts
        ]

    def test_zero_scored_concept_errors(self):
        """A target that no prediction scores gets no pool and no score
        column; each candidate's column names it in the score matrix."""
        images, assignments, predictions = _fixture_dataset()
        images[0] = AnnotatedImage(
            image_id="a1", direct_labels=frozenset({"c", "unscored_concept"})
        )
        plan = plan_of(images, assignments, predictions)
        assert plan.unscored == ("unscored_concept",)
        assert set(plan.sized) == {"c", "other"}
        matrix = score_matrix(predictions)
        targets = map_targets(images, assignments, matrix)
        assert targets.unscored == ("unscored_concept",)
        assert [matrix.concepts[j] for j in targets.columns] == list(targets.concepts)
        assert "unscored_concept" not in targets.concepts

    def test_positives_negatives_partition_group(self, monkeypatch):
        images, assignments, predictions = _fixture_dataset()
        assigned = {"a1", "a2", "a3", "a4", "a5"}
        for pools in ranked_rows_of(monkeypatch, images, assignments, predictions).values():
            ids = pool_ids(assignments, pools["A"][2])
            assert set(ids) == assigned
            assert len(ids) == len(assigned)

    def test_mapping_changes_targets_not_scores(self, monkeypatch):
        images = [
            AnnotatedImage(image_id="i1", direct_labels=frozenset({"phones"})),
            AnnotatedImage(image_id="i2", direct_labels=frozenset({"parking lots"})),
        ]
        assignments = {"i1": "A", "i2": "A"}
        predictions = {
            "i1": {"cellphone": 0.9, "parking meter": 0.2},
            "i2": {"cellphone": 0.1, "parking meter": 0.8},
        }
        pools = ranked_rows_of(monkeypatch, images, assignments, predictions, MAPPING_1K)
        _, labels, image_rows = pools["cellphone"]["A"]
        assert pool_ids(assignments, image_rows) == ["i1", "i2"]
        assert labels.tolist() == [True, False]
        _, labels, image_rows = pools["parking meter"]["A"]
        assert pool_ids(assignments, image_rows) == ["i2", "i1"]
        assert labels.tolist() == [True, False]

    def test_box_labels_count_as_dataset_labels(self):
        from disparity_audit import BoxAnnotation

        img = AnnotatedImage(
            image_id="i1", width=10, height=10,
            boxes=(BoxAnnotation("Necktie.n.01", 0, 0, 5, 5),),
        )
        assert "necktie.n.01" in image_target_set(img)

    def test_targets_mapped_once_per_distinct_label_set(self, monkeypatch):
        from disparity_audit import concepts

        images, assignments, predictions = _fixture_dataset()
        images.append(AnnotatedImage(image_id="a0", direct_labels=frozenset({"owl"})))
        assignments["a0"] = "B"
        calls = []
        mapped = concepts.image_target_set

        def spy(image, *args, **kwargs):
            calls.append(sorted(image.direct_labels))
            return mapped(image, *args, **kwargs)

        monkeypatch.setattr(concepts, "image_target_set", spy)
        matrix = score_matrix(predictions)
        targets = map_targets(images, assignments, matrix)
        assert sorted(calls) == [["c"], ["other"], ["owl"]]
        in_id_order = ["a0", "a1", "a2", "a3", "a4", "a5"]
        assert targets.rows.tolist() == matrix.row_of(in_id_order).tolist()
        assert list(targets.groups) == ["B", "A", "A", "A", "A", "A"]
        assert targets.concepts == ("c", "other") and targets.unscored == ("owl",)
        assert targets.targets.tolist() == [
            [False, False], [True, False], [True, False],
            [False, True], [False, True], [False, True],
        ]
        assert targets.has_targets.all()
        # a0, the one image of B, has no score: B's pool of c is empty
        plan = plan_of(images, assignments, predictions, groups=("A", "B"))
        assert plan.counts["c"] == {"A": (2, 3), "B": (0, 0)}

    def test_box_labels_are_part_of_the_label_set(self):
        """An image with boxes and the direct labels of a box-free image is
        mapped on its own, so it gets its box targets."""
        from disparity_audit import BoxAnnotation

        images = [
            AnnotatedImage(image_id="i1", direct_labels=frozenset({"c"})),
            AnnotatedImage(
                image_id="i2", width=10, height=10, direct_labels=frozenset({"c"}),
                boxes=(BoxAnnotation("other", 0, 0, 5, 5),),
            ),
            AnnotatedImage(
                image_id="i3", width=10, height=10, direct_labels=frozenset({"c"}),
                boxes=(BoxAnnotation("owl", 0, 0, 5, 5),),
            ),
        ]
        assignments = dict.fromkeys((img.image_id for img in images), "A")
        predictions = score_matrix(
            {img.image_id: {"c": 0.5, "other": 0.5, "owl": 0.5} for img in images}
        )
        targets = map_targets(images, assignments, predictions)
        assert targets.concepts == ("c", "other", "owl")
        assert targets.targets.tolist() == [
            [True, False, False], [True, True, False], [True, False, True],
        ]

    def test_unmapped_label_warned_once_per_label_set(self, caplog):
        images = [
            AnnotatedImage(image_id=f"i{k}", direct_labels=frozenset({"phones", "owl"}))
            for k in range(4)
        ] + [AnnotatedImage(image_id="j", direct_labels=frozenset({"owl"}))]
        assignments = dict.fromkeys((img.image_id for img in images), "A")
        predictions = score_matrix({img.image_id: {"cellphone": 0.5} for img in images})
        with caplog.at_level("WARNING", logger="disparity_audit.concepts"):
            targets = map_targets(images, assignments, predictions, MAPPING_1K, strict=False)
        assert targets.targets.tolist() == [[True]] * 4 + [[False]]
        assert caplog.text.count("skipping unmapped label 'owl'") == 2

    def test_pools_are_readonly(self):
        images, assignments, predictions = _fixture_dataset()
        pool = pools_of(images, assignments, predictions)["c"]["A"]
        for array in (pool.rank_of_row, pool.label_at_rank, pool.tie_at_rank):
            with pytest.raises(ValueError):
                array[0] = 1
