import copy
import json
import math
import re

import numpy as np
import pytest

from disparity_audit import (
    AnnotatedImage,
    BoxAnnotation,
    DataError,
    ExclusionReason,
    GroupAssignment,
    PredictionRecord,
    ScoreMatrix,
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


def matrix(records):
    """Score matrix of ``{image_id: scores}``."""
    return ScoreMatrix.from_records(
        PredictionRecord(image_id=i, scores=scores) for i, scores in records.items()
    )


class TestLoadPredictions:
    def test_accepts_known_image(self, tmp_path, annotations_path):
        images = load_annotations(annotations_path)
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [{"image_id": "img1", "scores": {"dog": 0.3}}])
        loaded = load_predictions(path, images)
        assert dict(loaded.rows) == {"img1": 0}
        assert loaded.concepts == ("dog",)
        assert loaded.scores.tolist() == [[0.3]]

    def test_matrix_rows_in_file_order_columns_sorted_nan_where_missing(
        self, tmp_path, annotations_path
    ):
        images = load_annotations(annotations_path)
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [
            {"image_id": "img2", "scores": {"zebra": 1, "cat": 0.25}},
            {"image_id": "img1", "scores": {"cat": -0.0, "ant": 2.5}},
        ])
        loaded = load_predictions(path, images)
        assert list(loaded.rows) == ["img2", "img1"]
        assert loaded.concepts == ("ant", "cat", "zebra")
        assert loaded.scores.dtype == np.float64
        cells = loaded.scores.tolist()
        assert cells[0][1:] == [0.25, 1.0] and math.isnan(cells[0][0])
        assert cells[1][:2] == [2.5, 0.0] and math.isnan(cells[1][2])
        assert math.copysign(1.0, cells[1][1]) == -1.0
        with pytest.raises(ValueError):
            loaded.scores[0, 0] = 1.0

    def test_matrix_spans_chunks(self):
        """Records are moved into arrays in chunks; every cell lands once."""
        rng = np.random.default_rng(0)
        concepts = [f"c{j:03d}" for j in range(300)]
        records = {
            f"i{r:04d}": {c: float(v) for c, v in zip(concepts, rng.random(300)) if v < 0.9}
            for r in range(400)
        }
        loaded = matrix(records)
        for image_id, scores in records.items():
            row = loaded.scores[loaded.rows[image_id]]
            expected = [scores.get(c, math.nan) for c in loaded.concepts]
            np.testing.assert_array_equal(row, expected)

    def test_nan_score_is_error(self, tmp_path, annotations_path):
        images = load_annotations(annotations_path)
        path = tmp_path / "p.jsonl"
        path.write_text('{"image_id": "img1", "scores": {"dog": NaN}}\n', encoding="utf-8")
        with pytest.raises(DataError, match="non-finite"):
            load_predictions(path, images)

    @pytest.mark.parametrize("scores,message", [
        ('{"cat": 0.1, "dog": "0.5"}', "score for 'dog' is not a number"),
        ('{"cat": 0.1, "dog": true}', "score for 'dog' is not a number"),
        ('{"cat": 0.1, "dog": null}', "score for 'dog' is not a number"),
        ('{"cat": 0.1, "dog": NaN}', "non-finite score nan for 'dog'"),
        ('{"cat": 0.1, "dog": -Infinity}', "non-finite score -inf for 'dog'"),
        ('{"cat": 0.1, "dog": 1' + "0" * 400 + "}", "score for 'dog' is too large"),
        ('{"cat": 0.1, "": 0.5}', "empty concept key"),
    ])
    def test_bad_score_names_file_line_and_concept(
        self, tmp_path, annotations_path, scores, message
    ):
        images = load_annotations(annotations_path)
        path = tmp_path / "p.jsonl"
        path.write_text(
            '{"image_id": "img1", "scores": {"cat": 0.5, "dog": 1}}\n\n'
            f'{{"image_id": "img2", "scores": {scores}}}\n',
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=re.escape(f"{path}:3: {message}")):
            load_predictions(path, images)

    def test_duplicate_names_file_line(self, tmp_path, annotations_path):
        images = load_annotations(annotations_path)
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [
            {"image_id": "img1", "scores": {"a": 0.1}},
            {"image_id": "img2", "scores": {"a": 0.1}},
            {"image_id": "img1", "scores": {"b": 0.2}},
        ])
        with pytest.raises(DataError, match=re.escape(f"{path}:3: duplicate prediction")):
            load_predictions(path, images)

    def test_unknown_image_names_file_and_lines(self, tmp_path, annotations_path):
        images = load_annotations(annotations_path)
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [
            {"image_id": "img1", "scores": {"a": 0.1}},
            {"image_id": "ghost", "scores": {"a": 0.1}},
        ])
        with pytest.raises(DataError, match=re.escape(f"{path}: ") + ".*ghost \\(lines 2\\)"):
            load_predictions(path, images)

    def test_records_name_the_image(self):
        with pytest.raises(DataError, match="image 'i2': score for 'dog' is not a number"):
            matrix({"i1": {"dog": 0.5}, "i2": {"dog": False}})

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

    def test_without_drops_rows_and_columns_only_they_scored(self):
        loaded = matrix({"i1": {"a": 0.1, "b": 0.2}, "i2": {"a": 0.3}, "i3": {"c": 0.4}})
        kept = loaded.without({"i1", "i3"})
        assert dict(kept.rows) == {"i2": 0}
        assert kept.concepts == ("a",)
        assert kept.scores.tolist() == [[0.3]]


class TestValidateDataset:
    def test_clean_dataset_empty_report(self):
        images = [AnnotatedImage(image_id="i1", direct_labels=frozenset({"cat"}))]
        report = validate_dataset(images, matrix({"i1": {"cat": 0.9}}))
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
        report = validate_dataset(images, matrix({"empty": {"cat": 0.2}, "full": {"cat": 0.8}}))
        assert report["images_without_labels"] == ["empty"]

    def test_coverage_gap_listed(self):
        images = [
            AnnotatedImage(image_id="i1", direct_labels=frozenset({"cat"})),
            AnnotatedImage(image_id="i2", direct_labels=frozenset({"cat"})),
        ]
        report = validate_dataset(
            images, matrix({"i1": {"cat": 0.9, "dog": 0.1}, "i2": {"cat": 0.8}})
        )
        assert report["unscored"] == {"dog": ["i2"]}
        assert report["zero_positive_concepts"] == ["dog"]

    def test_image_without_prediction_missing_everywhere(self):
        images = [
            AnnotatedImage(image_id=i, direct_labels=frozenset({"cat"}))
            for i in ("i3", "i1", "i2")
        ]
        report = validate_dataset(
            images, matrix({"i3": {"cat": 0.4}, "i1": {"cat": 0.9, "dog": 0.1}})
        )
        assert report["unscored"] == {"cat": ["i2"], "dog": ["i2", "i3"]}

    def test_pure_never_mutates(self):
        images = [AnnotatedImage(image_id="i1", direct_labels=frozenset({"cat"}))]
        preds = matrix({"i1": {"cat": 0.9}})
        before = (copy.deepcopy(images), preds.scores.copy(), dict(preds.rows))
        validate_dataset(images, preds)
        assert images == before[0]
        assert np.array_equal(preds.scores, before[1]) and dict(preds.rows) == before[2]


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
