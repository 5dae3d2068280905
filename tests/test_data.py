import copy
import json

import pytest

from disparity_audit import (
    AnnotatedImage,
    BoxAnnotation,
    DataError,
    ExclusionReason,
    GroupAssignment,
    PredictionRecord,
    load_annotations,
    load_predictions,
    validate_dataset,
)


def write_jsonl(path, records):
    with path.open("w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(r) + "\n")


@pytest.fixture
def annotations_path(tmp_path):
    path = tmp_path / "annotations.jsonl"
    write_jsonl(path, [
        {"image_id": "img1", "width": 100, "height": 100,
         "boxes": [{"label": "man.n.01", "x": 10, "y": 10, "w": 30, "h": 30}],
         "labels": ["necktie"]},
        {"image_id": "img2", "captions": ["a woman with an umbrella"], "labels": ["umbrella"]},
    ])
    return path


class TestLoadAnnotations:
    def test_two_valid_lines(self, annotations_path):
        images = load_annotations(annotations_path)
        assert len(images) == 2
        assert images[0].image_id == "img1"
        assert images[0].boxes[0].area == 900
        assert images[1].direct_labels == {"umbrella"}

    def test_duplicate_label_only_records_collapse(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [
            {"image_id": "d1", "labels": ["showers"]},
            {"image_id": "d1", "labels": ["floor"]},
        ])
        images = load_annotations(path)
        assert len(images) == 1
        assert images[0].direct_labels == {"showers", "floor"}

    def test_conflicting_duplicate_is_error(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [
            {"image_id": "d1", "width": 10, "height": 10, "labels": ["x"]},
            {"image_id": "d1", "width": 20, "height": 10, "labels": ["y"]},
        ])
        with pytest.raises(DataError, match="duplicate image_id"):
            load_annotations(path)

    def test_missing_image_id_names_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{"image_id": "ok"}, {"labels": ["x"]}])
        with pytest.raises(DataError, match=":2"):
            load_annotations(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"image_id": "ok"}\n{not json\n', encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            load_annotations(path)

    def test_box_outside_bounds_is_error(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [
            {"image_id": "b1", "width": 50, "height": 50,
             "boxes": [{"label": "man.n.01", "x": 40, "y": 0, "w": 20, "h": 10}]},
        ])
        with pytest.raises(DataError, match="exceeds"):
            load_annotations(path)

    def test_boxes_require_dimensions(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [
            {"image_id": "b1", "boxes": [{"label": "x", "x": 0, "y": 0, "w": 5, "h": 5}]},
        ])
        with pytest.raises(DataError, match="width/height"):
            load_annotations(path)

    def test_order_independent_set_equality(self, tmp_path):
        records = [
            {"image_id": f"i{k}", "labels": [f"l{k}"], "captions": [f"c{k}"]}
            for k in range(6)
        ]
        p1 = tmp_path / "fwd.jsonl"
        p2 = tmp_path / "rev.jsonl"
        write_jsonl(p1, records)
        write_jsonl(p2, list(reversed(records)))
        a = sorted(load_annotations(p1), key=lambda i: i.image_id)
        b = sorted(load_annotations(p2), key=lambda i: i.image_id)
        assert a == b


class TestLoadPredictions:
    def test_accepts_known_image(self, tmp_path, annotations_path):
        images = load_annotations(annotations_path)
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [{"image_id": "img1", "scores": {"dog": 0.3}}])
        records = load_predictions(path, images)
        assert records[0].scores == {"dog": 0.3}

    def test_nan_score_is_error(self, tmp_path, annotations_path):
        images = load_annotations(annotations_path)
        path = tmp_path / "p.jsonl"
        path.write_text('{"image_id": "img1", "scores": {"dog": NaN}}\n', encoding="utf-8")
        with pytest.raises(DataError, match="non-finite"):
            load_predictions(path, images)

    def test_unresolvable_image_lists_offenders(self, tmp_path, annotations_path):
        images = load_annotations(annotations_path)
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [
            {"image_id": "ghost2", "scores": {"dog": 0.1}},
            {"image_id": "ghost1", "scores": {"dog": 0.2}},
        ])
        with pytest.raises(DataError, match="ghost1, ghost2"):
            load_predictions(path, images)

    def test_duplicate_prediction_is_error(self, tmp_path, annotations_path):
        images = load_annotations(annotations_path)
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [
            {"image_id": "img1", "scores": {"a": 0.1}},
            {"image_id": "img1", "scores": {"b": 0.2}},
        ])
        with pytest.raises(DataError, match="duplicate"):
            load_predictions(path, images)


class TestValidateDataset:
    def test_clean_dataset_empty_report(self):
        images = [AnnotatedImage(image_id="i1", direct_labels=frozenset({"cat"}))]
        preds = [PredictionRecord(image_id="i1", scores={"cat": 0.9})]
        report = validate_dataset(images, preds)
        assert report == {
            "images_without_labels": [],
            "unscored": {},
            "zero_positive_concepts": [],
        }

    def test_flags_image_without_labels(self):
        images = [
            AnnotatedImage(image_id="empty"),
            AnnotatedImage(image_id="full", direct_labels=frozenset({"cat"})),
        ]
        preds = [
            PredictionRecord(image_id="empty", scores={"cat": 0.2}),
            PredictionRecord(image_id="full", scores={"cat": 0.8}),
        ]
        report = validate_dataset(images, preds)
        assert report["images_without_labels"] == ["empty"]

    def test_coverage_gap_listed(self):
        images = [
            AnnotatedImage(image_id="i1", direct_labels=frozenset({"cat"})),
            AnnotatedImage(image_id="i2", direct_labels=frozenset({"cat"})),
        ]
        preds = [
            PredictionRecord(image_id="i1", scores={"cat": 0.9, "dog": 0.1}),
            PredictionRecord(image_id="i2", scores={"cat": 0.8}),
        ]
        report = validate_dataset(images, preds)
        assert report["unscored"] == {"dog": ["i2"]}
        assert report["zero_positive_concepts"] == ["dog"]

    def test_image_without_prediction_missing_everywhere(self):
        images = [
            AnnotatedImage(image_id=i, direct_labels=frozenset({"cat"}))
            for i in ("i1", "i2", "i3")
        ]
        preds = [
            PredictionRecord(image_id="i1", scores={"cat": 0.9, "dog": 0.1}),
            PredictionRecord(image_id="i3", scores={"cat": 0.4}),
        ]
        report = validate_dataset(images, preds)
        assert report["unscored"] == {"cat": ["i2"], "dog": ["i2", "i3"]}

    def test_pure_never_mutates(self):
        images = [AnnotatedImage(image_id="i1", direct_labels=frozenset({"cat"}))]
        preds = [PredictionRecord(image_id="i1", scores={"cat": 0.9})]
        before = (copy.deepcopy(images), copy.deepcopy(preds))
        validate_dataset(images, preds)
        assert (images, preds) == before


class TestTypes:
    def test_box_invariants(self):
        with pytest.raises(DataError):
            BoxAnnotation(raw_label="x", x=0, y=0, w=0, h=5)
        with pytest.raises(DataError):
            BoxAnnotation(raw_label="x", x=-1, y=0, w=5, h=5)
        box = BoxAnnotation(raw_label="x", x=0, y=0, w=30, h=20)
        assert box.area == 600
        assert box.area_fraction(100, 100) == pytest.approx(0.06)

    def test_assignment_exactly_one_outcome(self):
        with pytest.raises(DataError):
            GroupAssignment("i", group="man", reason=ExclusionReason.MULTIPLE_GROUPS)
        with pytest.raises(DataError):
            GroupAssignment("i")
        assert GroupAssignment("i", group="man").assigned
        assert not GroupAssignment("i", reason=ExclusionReason.NO_GROUP_EVIDENCE).assigned
