import contextlib
import copy
import json
import math
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from disparity_audit import (
    AnnotatedImage,
    BoxAnnotation,
    DataError,
    PredictionRecord,
    ScoreMatrix,
    data,
    load_annotations,
    load_predictions,
    validate_dataset,
)

import oracles


@contextlib.contextmanager
def stdlib_decoder():
    """Decode every line with stdlib ``json``, as without orjson installed."""
    saved, data.orjson = data.orjson, None
    try:
        yield
    finally:
        data.orjson = saved


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

    def test_image_without_boxes_or_size_keeps_every_field(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{"image_id": "c1", "captions": ["a man"], "labels": ["x"],
                            "metadata": {"k": "v"}}])
        assert load_annotations(path) == [AnnotatedImage(
            "c1", captions=("a man",), direct_labels=frozenset({"x"}), metadata={"k": "v"}
        )]

    def test_duplicate_label_only_records_collapse(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [
            {"image_id": "d1", "labels": ["showers"]},
            {"image_id": "d1", "labels": ["floor"]},
        ])
        images = load_annotations(path)
        assert len(images) == 1
        assert images[0].direct_labels == {"showers", "floor"}

    def test_merged_duplicate_is_an_ordinary_image(self, tmp_path):
        path = tmp_path / "a.jsonl"
        record = {"image_id": "d1", "captions": ["a shower"], "metadata": {"k": "v"}}
        write_jsonl(path, [{**record, "labels": ["showers"]}, {**record, "labels": ["floor"]}])
        [image] = load_annotations(path)
        assert image.direct_labels == {"showers", "floor"} and image.captions == ("a shower",)
        assert_ordinary_image(image)
        with pytest.raises(AttributeError):
            image.extra = 1

    @pytest.mark.parametrize("first, second", [
        ({"width": 10, "height": 10}, {"width": 20, "height": 10}),
        ({"captions": ["a"]}, {"captions": ["b"]}),
        ({"metadata": {"k": "v"}}, {"metadata": {"k": "w"}}),
    ])
    def test_conflicting_duplicate_is_error(self, tmp_path, first, second):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [
            {"image_id": "d1", **first, "labels": ["x"]},
            {"image_id": "d1", **second, "labels": ["y"]},
        ])
        with pytest.raises(DataError, match="duplicate image_id"):
            load_annotations(path)

    @pytest.mark.parametrize("bad", [{}, {"image_id": ""}, {"image_id": 5}, {"image_id": None}])
    def test_missing_image_id_names_line(self, tmp_path, bad):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{"image_id": "ok"}, {**bad, "labels": ["x"]}])
        with pytest.raises(DataError, match=re.escape(f"{path}:2: missing or invalid 'image_id'")):
            load_annotations(path)
        write_jsonl(path, [{"image_id": "ok", "scores": {}}, {**bad, "scores": {"x": 0.5}}])
        with pytest.raises(DataError, match=re.escape(f"{path}:2: missing or invalid 'image_id'")):
            load_predictions(path, [AnnotatedImage(image_id="ok")])

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

    @pytest.mark.parametrize("key,value,kind", [
        ("labels", '"cat"', "str"),
        ("labels", '{"cat": 1}', "dict"),
        ("labels", "5", "int"),
        ("captions", '"a man"', "str"),
        ("boxes", '{"label": "x", "x": 0, "y": 0, "w": 1, "h": 1}', "dict"),
    ])
    def test_non_array_field_names_file_line_and_field(self, tmp_path, key, value, kind):
        path = tmp_path / "a.jsonl"
        path.write_text(
            f'{{"image_id": "ok", "{key}": null}}\n{{"image_id": "bad", "{key}": {value}}}\n',
            encoding="utf-8",
        )
        with pytest.raises(
            DataError, match=re.escape(f"{path}:2: {key!r} must be an array, got {kind}")
        ):
            load_annotations(path)

    @pytest.mark.parametrize("record,message", [
        ({"image_id": "a", "width": 1.5}, ":1: 'width' must be an integer, got 1.5"),
        ({"image_id": "a", "width": 9, "height": 9, "boxes": [{"x": 0, "w": 1, "h": 1}]},
         ":1 box #0: missing or invalid 'label'"),
        ({"image_id": "a", "width": 9, "height": 9,
          "boxes": [{"label": "x", "w": 1, "h": 1}, {"label": " \n", "w": 1, "h": 1}]},
         ":1 box #1: missing or invalid 'label'"),
    ])
    def test_field_error_names_file_line_once(self, tmp_path, record, message):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [record])
        with pytest.raises(DataError) as err:
            load_annotations(path)
        assert str(err.value) == f"{path}{message}"

    @pytest.mark.parametrize("value,kind", [
        ("[]", "list"), ('""', "str"), ("false", "bool"), ("0", "int"), ('["x"]', "list"),
    ])
    def test_non_object_metadata_names_file_line_and_field(self, tmp_path, value, kind):
        path = tmp_path / "a.jsonl"
        path.write_text(
            f'{{"image_id": "ok", "metadata": null}}\n'
            f'{{"image_id": "bad", "metadata": {value}}}\n',
            encoding="utf-8",
        )
        with pytest.raises(
            DataError, match=re.escape(f"{path}:2: 'metadata' must be an object, got {kind}")
        ):
            load_annotations(path)

    def test_null_or_absent_metadata_is_empty(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{"image_id": "a", "metadata": None}, {"image_id": "b"},
                           {"image_id": "c", "metadata": {}}])
        assert [dict(img.metadata) for img in load_annotations(path)] == [{}, {}, {}]

    def test_label_order_and_repeats_give_equal_label_sets(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [
            {"image_id": "i1", "labels": ["a", "b"], "metadata": {"k": "v"}},
            {"image_id": "i2", "labels": ["b", "a"], "metadata": {"k": "v"}},
            {"image_id": "i3", "labels": ["a", "a", "b"], "metadata": {"k": "v"}},
            {"image_id": "i4", "labels": ["a", "b"], "metadata": {"k": "w"}},
        ])
        images = load_annotations(path)
        assert [img.direct_labels for img in images] == [frozenset({"a", "b"})] * 4
        assert [dict(img.metadata) for img in images] == [{"k": "v"}] * 3 + [{"k": "w"}]

    def test_shared_metadata_is_read_only(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{"image_id": f"i{k}", "metadata": {"k": "v"}} for k in range(2)])
        first, second = load_annotations(path)
        with pytest.raises(TypeError):
            first.metadata["k"] = "changed"
        assert dict(second.metadata) == {"k": "v"}

    @pytest.mark.parametrize("bad", [
        ["a", ""], ["a", "   "], ["\t"], ["a", 1], ["a", ["b"]], ["a", None],
    ])
    @pytest.mark.parametrize("line", [1, 2, 4])
    def test_bad_label_list_is_error_on_every_line(self, tmp_path, bad, line):
        """A bad list is never interned, so each line carrying it is checked,
        also after good lines that share its labels."""
        records = [{"image_id": f"i{k}", "labels": ["a"]} for k in range(5)]
        records[line - 1] = {"image_id": "bad", "labels": bad}
        if line > 1:
            records[line - 2]["labels"] = ["a", "b"]
        path = tmp_path / "a.jsonl"
        write_jsonl(path, records)
        with pytest.raises(DataError, match=re.escape(
            f"{path}:{line}: labels must be non-empty strings"
        )):
            load_annotations(path)

    def test_bad_metadata_value_is_error_after_good_records(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{"image_id": "a", "metadata": {"k": "v"}},
                           {"image_id": "b", "metadata": {"k": ["v"]}}])
        with pytest.raises(DataError, match=re.escape(
            f"{path}:2: metadata must map strings to strings"
        )):
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

    def test_repeated_rests_are_decoded_once_and_never_walked(self, tmp_path, monkeypatch):
        """A deep-shaped file, 3,000 lines over 8 label sets and 3 metadata
        values: one decode per distinct rest after the id, and no line walked."""
        rng = random.Random(0)
        label_sets = [[c for j, c in enumerate(("d0", "d1", "d2")) if m >> j & 1] for m in range(8)]
        records = [
            {"image_id": f"{group}-{k:06d}", "labels": rng.choice(label_sets),
             "metadata": {"group": group}}
            for k, group in enumerate(rng.choices(["alpha", "beta", "gamma"], k=3000))
        ]
        path = tmp_path / "a.jsonl"
        write_jsonl(path, records)
        rests = {json.dumps(r).partition('", ')[2] for r in records}
        decoded = []
        line_value = data._line_value
        monkeypatch.setattr(data, "_line_value", lambda line: decoded.append(line) or line_value(line))
        monkeypatch.setattr(data, "_parse_lines", None)
        assert load_annotations(path) == [
            AnnotatedImage(r["image_id"], direct_labels=frozenset(r["labels"]),
                           metadata=r["metadata"])
            for r in records
        ]
        assert len(decoded) == len(rests) == 24

    @pytest.mark.parametrize("line", [
        lambda k: json.dumps({"image_id": f"i{k}", "labels": [f"c{k}"]}),
        lambda k: json.dumps({"image_id": f"i{k}", "labels": ["cat"]}, separators=(",", ":")),
        lambda k: json.dumps({"labels": ["cat"], "image_id": f"i{k}"}),
    ], ids=["distinct", "compact", "id-last"])
    def test_distinct_or_other_lines_are_tried_for_shared_rests_once(
        self, tmp_path, monkeypatch, line
    ):
        """A file whose lines share no rest, or whose lines are compact or
        start with another key, stops after its first chunk."""
        path = tmp_path / "a.jsonl"
        path.write_text("".join(line(k) + "\n" for k in range(1000)))
        calls = []
        chunk_images = data._chunk_images
        monkeypatch.setattr(data, "_chunk_images",
                            lambda *args: calls.append(chunk_images(*args)) or calls[-1])
        assert [img.image_id for img in load_annotations(path)] == [f"i{k}" for k in range(1000)]
        assert calls == [False] and path.stat().st_size > 4 * data._ANNOTATION_CHARS


def bits(m):
    """A matrix's rows, concepts, shape and score bytes."""
    return list(m.rows.items()), m.concepts, m.scores.shape, m.scores.tobytes()


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

    def test_bad_score_is_reported_before_a_later_malformed_line(
        self, tmp_path, annotations_path
    ):
        images = load_annotations(annotations_path)
        path = tmp_path / "p.jsonl"
        path.write_text(
            '{"image_id": "img1", "scores": {"a": 0.1}}\n'
            '{"image_id": "img2", "scores": {"a": 0.2, "b": "high"}}\n'
            '{"image_id": "img3", "scores": {"a": 0.3}}\n'
            '{"image_id": "img4", "scores": {"a": 0.4\n',
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=re.escape(f"{path}:2: score for 'b' is not a number")):
            load_predictions(path, images)

    def test_duplicate_of_an_earlier_chunk_is_named_at_its_own_line(self, tmp_path):
        ids = [f"i{k:04d}" for k in range(3000)]
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [{"image_id": i, "scores": {"a": 0.5, "b": 0.25, "c": 0.125}}
                           for i in ids] + [{"image_id": "i0001", "scores": {"a": 0.5}}])
        images = [AnnotatedImage(image_id=i) for i in ids]
        message = "3001: duplicate prediction for image 'i0001'"
        with pytest.raises(DataError, match=re.escape(f"{path}:{message}")):
            load_predictions(path, images)
        records = {i: {"a": 0.5, "b": 0.25, "c": 0.125} for i in ids}
        with pytest.raises(DataError, match="image 'i0001': duplicate prediction"):
            ScoreMatrix.from_records([
                *(PredictionRecord(i, s) for i, s in records.items()),
                PredictionRecord("i0001", {"a": 0.5}),
            ])

    def test_bulk_checks_and_record_walk_load_alike(self, tmp_path, monkeypatch):
        """A file of several chunks, across blocks, with a blank line and a
        line with edges that JSON rejects: every chunk walked record by
        record gives the bulk checks' matrix, bit for bit, and their
        unknown-id error."""
        monkeypatch.setattr(data, "_PREDICTION_CHARS", 200)
        monkeypatch.setattr(data, "_BLOCK_CELLS", 7)
        scores = [2**64 + 7, -(2**70), 3, 0.1, -0.0, 1e-320, 2.5e300]
        lines = [
            json.dumps({"image_id": f"i{k:02d}", "scores": {
                f"c{(k * j) % 5}": scores[(k + j) % len(scores)] for j in range(k % 4)
            }})
            for k in range(40)
        ]
        lines[11] = "\xa0" + lines[11] + " \x0c"
        lines.insert(23, "  ")
        path = tmp_path / "p.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        images = [AnnotatedImage(image_id=f"i{k:02d}") for k in range(40)]

        def loaded():
            return tuple(outcome(lambda: bits(load_predictions(path, known)))
                         for known in (images, images[::3]))

        bulk = loaded()
        assert len(bulk[0][0]) == 40 and "(lines 2, 3, 5, 6, 8, 9," in bulk[1]
        monkeypatch.setattr(data, "_chunk_cells", lambda *args: None)
        assert loaded() == bulk

    def test_valid_file_without_blank_lines_is_never_walked(self, tmp_path, monkeypatch):
        """Every line is decoded before the bulk checks, also a line with
        edges that JSON rejects, on either decoder."""
        path = tmp_path / "p.jsonl"
        path.write_text('{"image_id": "a", "scores": {"x": 1}}\n'
                        '\xa0{"image_id": "b", "scores": {"x": 0.5}}\n', encoding="utf-8")
        monkeypatch.setattr(data, "_record_cells", None)
        loaded = load_predictions(path, [AnnotatedImage("a"), AnnotatedImage("b")])
        assert loaded.scores.tolist() == [[1.0], [0.5]]

    def test_int_and_float_scores_load_as_float_of_each(self, tmp_path):
        ints = [0, 1, -3, 7, 2**53 + 1, -(2**53) - 1, 2**63, 2**64 + 7, -(2**70)]
        records = [
            {"image_id": f"i{k:04d}", "scores": {"a": ints[k % len(ints)], "b": k / 7}}
            for k in range(3000)
        ]
        path = tmp_path / "p.jsonl"
        write_jsonl(path, records)
        loaded = load_predictions(path, [AnnotatedImage(image_id=r["image_id"]) for r in records])
        assert loaded.concepts == ("a", "b")
        assert [[x.hex() for x in row] for row in loaded.scores.tolist()] == [
            [float(r["scores"]["a"]).hex(), float(r["scores"]["b"]).hex()] for r in records
        ]

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
        ('{"cat": 0.1, "  ": 0.5}', "concept key '  ' in scores is empty after canonicalization"),
        # two keys of one concept, in one record or with an earlier column
        ('{"Bird": 0.1, "bird ": 0.5}', "score keys 'Bird' and 'bird ' are one concept, 'bird'"),
        ('{"cat": 0.1, "Dog": 0.5}', "score keys 'dog' and 'Dog' are one concept, 'dog'"),
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

    def test_score_keys_load_as_their_concepts(self, tmp_path, annotations_path):
        images = load_annotations(annotations_path)
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [
            {"image_id": "img1", "scores": {" Cat": 0.5, "DOG": 1}},
            {"image_id": "img2", "scores": {"DOG": 0.25}},
        ])
        loaded = load_predictions(path, images)
        assert loaded.concepts == ("cat", "dog")
        assert loaded.scores[0].tolist() == [0.5, 1.0]
        assert np.isnan(loaded.scores[1, 0]) and loaded.scores[1, 1] == 0.25
        assert matrix({"i1": {"DOG": 0.5, " cat": 0.1}}).concepts == ("cat", "dog")
        with pytest.raises(DataError, match="image 'i1': score keys 'Dog' and 'dog' are one"):
            matrix({"i1": {"Dog": 0.5, "dog": 0.1}})

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

    @pytest.mark.parametrize("n_rows", [0, 1, 6])
    @pytest.mark.parametrize("columns", [None, [], [2], [3, 0, 3], [0, 1, 2, 3]])
    def test_take_rows_matches_ix_reference(self, n_rows, columns):
        """Rows of -1 are all NaN, also when every row is -1 or the matrix
        has no rows; columns may repeat, reorder or be absent."""
        rng = np.random.default_rng(n_rows)
        scores = rng.random((n_rows, 4))
        scores[rng.random((n_rows, 4)) < 0.3] = np.nan
        scores.setflags(write=False)
        loaded = ScoreMatrix({f"i{r}": r for r in range(n_rows)}, ("a", "b", "c", "d"), scores)
        columns = None if columns is None else np.array(columns, dtype=np.intp)
        for rows in ([], [-1, -1], list(range(n_rows)), [*range(n_rows)][::-1] * 2 + [-1]):
            rows = np.array(rows, dtype=np.intp)
            got = loaded.take_rows(rows, columns)
            want = oracles.take_rows(loaded, rows, columns)
            assert got.shape == want.shape and got.flags.writeable
            assert np.array_equal(got, want, equal_nan=True)

    def test_without_drops_rows_and_columns_only_they_scored(self):
        loaded = matrix({"i1": {"a": 0.1, "b": 0.2}, "i2": {"a": 0.3}, "i3": {"c": 0.4}})
        kept = loaded.without({"i1", "i3"})
        assert dict(kept.rows) == {"i2": 0}
        assert kept.concepts == ("a",)
        assert kept.scores.tolist() == [[0.3]]


good_scores = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, -0.0, 2**53 + 1, 2**64, -(2**64) - 1]),
)
bad_scores = st.sampled_from([10**400, -(10**400), True, False, "0.5", None,
                              math.nan, math.inf, -math.inf])
score_records = st.lists(st.tuples(
    st.sampled_from([f"i{k}" for k in range(12)]),
    # key order varies with the drawn order; dict() keeps each key's first place
    # "A" and " b " are the concepts of "a" and "b", and " " is blank
    st.lists(st.tuples(st.sampled_from(["a", "b", "c", "é"] * 3 + ["", "A", " b ", " "]),
                       st.one_of(good_scores, good_scores, good_scores, bad_scores)),
             max_size=4).map(dict),
), max_size=10)


# A line that neither decoder reads, and stdlib's error for it.
MALFORMED = '{"image_id": "i0", "scores": {'
MALFORMED_ERROR = "malformed JSON (Expecting property name enclosed in double quotes)"


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=score_records, stop=st.one_of(st.none(), st.integers(0, 10)),
       chars=st.sampled_from([1, 60, 150, 1 << 15]),
       block=st.sampled_from([1, 2, 3, 5, 1 << 16]))
def test_score_matrix_matches_record_by_record_reference(
    tmp_path, monkeypatch, records, stop, chars, block
):
    """``load_predictions`` gives the reference's matrix, bit for bit, or its
    first error, whether a chunk of lines passes the bulk checks or is
    walked record by record, and for blocks of any number of scores; a
    malformed line before record ``stop`` ends the readable records."""
    monkeypatch.setattr(data, "_PREDICTION_CHARS", chars)
    monkeypatch.setattr(data, "_BLOCK_CELLS", block)
    path = tmp_path / "p.jsonl"
    lines = [json.dumps({"image_id": i, "scores": scores}) for i, scores in records]
    unreadable = None
    if stop is not None and stop <= len(records):
        lines.insert(stop, MALFORMED)
        records = records[:stop]
        unreadable = f"{path}:{stop + 1}: {MALFORMED_ERROR}"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def stream():
        yield from enumerate(records, 1)
        if unreadable is not None:
            raise DataError(unreadable)

    images = [AnnotatedImage(image_id=f"i{k}") for k in range(12)]
    assert outcome(lambda: bits(load_predictions(path, images))) == outcome(
        lambda: bits(oracles.build_score_matrix(stream(), lambda line_no: f"{path}:{line_no}"))
    )


class TestValidateDataset:
    def test_clean_dataset_empty_report(self):
        images = [AnnotatedImage(image_id="i1", direct_labels=frozenset({"cat"}))]
        report = validate_dataset(images, matrix({"i1": {"cat": 0.9}}))
        assert report == {
            "images_without_labels": 0,
            "score_coverage_gaps": 0,
            "zero_positive_concepts": 0,
        }

    def test_flags_image_without_labels(self):
        images = [
            AnnotatedImage(image_id="empty"),
            AnnotatedImage(image_id="full", direct_labels=frozenset({"cat"})),
        ]
        report = validate_dataset(images, matrix({"empty": {"cat": 0.2}, "full": {"cat": 0.8}}))
        assert report["images_without_labels"] == 1

    def test_coverage_gap_counted(self):
        images = [
            AnnotatedImage(image_id="i1", direct_labels=frozenset({"cat"})),
            AnnotatedImage(image_id="i2", direct_labels=frozenset({"cat"})),
        ]
        report = validate_dataset(
            images, matrix({"i1": {"cat": 0.9, "dog": 0.1}, "i2": {"cat": 0.8}})
        )
        assert report["score_coverage_gaps"] == 1
        assert report["zero_positive_concepts"] == 1  # dog

    def test_labels_and_score_keys_compare_as_concepts(self):
        """A label ``Dog`` and a box `` Cat`` are the concepts of the score
        keys ``DOG`` and ``cat``; only ``owl`` has no positive."""
        images = [
            AnnotatedImage(image_id="i1", direct_labels=frozenset({"Dog"})),
            AnnotatedImage(
                image_id="i2", width=10, height=10, boxes=(BoxAnnotation(" Cat", 0, 0, 5, 5),)
            ),
        ]
        scores = {"DOG": 0.9, "cat": 0.1, "owl": 0.2}
        report = validate_dataset(images, matrix({"i1": scores, "i2": scores}))
        assert report["zero_positive_concepts"] == 1

    def test_image_without_prediction_missing_everywhere(self):
        images = [
            AnnotatedImage(image_id=i, direct_labels=frozenset({"cat"}))
            for i in ("i3", "i1", "i2")
        ]
        report = validate_dataset(
            images, matrix({"i3": {"cat": 0.4}, "i1": {"cat": 0.9, "dog": 0.1}})
        )
        assert report["score_coverage_gaps"] == 2  # i2 has no row, so cat is partial too

    def test_only_partial_concepts_counted(self):
        images = [
            AnnotatedImage(image_id=i, direct_labels=frozenset({"cat"}))
            for i in ("i3", "i1", "i4", "i2")
        ]
        report = validate_dataset(images, matrix({
            "i4": {"cat": 0.1, "dog": 0.2}, "i2": {"cat": 0.3},
            "i1": {"cat": 0.5}, "i3": {"cat": 0.7, "dog": 0.4},
        }))
        assert report["score_coverage_gaps"] == 1  # dog; every image has cat

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_counts_match_per_image_reference(self, data):
        """Mixes of labelled, unlabelled and boxed images, scored in part."""
        boxed = data.draw(st.booleans())
        box = st.builds(
            BoxAnnotation, raw_label=st.sampled_from(["cat", "Fish", "bird "]),
            x=st.just(0), y=st.just(0), w=st.integers(1, 10), h=st.integers(1, 10),
        )
        labels = st.frozensets(st.sampled_from(["cat", "Dog", " dog ", "bird"]), max_size=3)
        kinds = data.draw(st.lists(
            st.tuples(labels, st.lists(box, max_size=2) if boxed else st.just([])),
            min_size=1, max_size=12,
        ))
        images = [
            AnnotatedImage(f"i{k}", width=10 if b else None, height=10 if b else None,
                           boxes=tuple(b), direct_labels=ls)
            for k, (ls, b) in enumerate(kinds)
        ]
        scored = data.draw(st.lists(st.sampled_from([img.image_id for img in images]), unique=True))
        concepts = st.lists(st.sampled_from(["cat", "dog", "bird", "fish", "owl"]), unique=True)
        preds = matrix({
            image_id: dict.fromkeys(data.draw(concepts), 0.5) for image_id in scored
        })
        assert validate_dataset(images, preds) == oracles.validate_counts(images, preds)

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

    @pytest.mark.parametrize("kwargs, message", [
        ({"image_id": ""}, "image_id must be a non-empty string"),
        ({"image_id": "i", "width": 0}, "width must be a positive integer, got 0"),
        ({"image_id": "i", "height": True}, "height must be a positive integer, got True"),
        ({"image_id": "i", "boxes": (BoxAnnotation("cat", 0, 0, 5, 5),), "width": 10},
         "image 'i' has boxes but no width/height"),
        ({"image_id": "i", "boxes": (BoxAnnotation("cat", 6, 0, 5, 5),), "width": 10,
          "height": 10}, "image 'i': box 'cat' at (6,0,5,5) exceeds 10x10 bounds"),
    ])
    def test_image_constructor_checks(self, kwargs, message):
        with pytest.raises(DataError, match=re.escape(message)):
            AnnotatedImage(**kwargs)

    def test_image_round_trips_through_deepcopy_and_pickle(self, tmp_path):
        """Also a loaded image, whose metadata is a shared read-only mapping."""
        image = AnnotatedImage(
            "i1", 40, 30, (BoxAnnotation("cat", 0, 0, 10, 10),), ("a cat",),
            frozenset({"cat"}), {"k": "v"},
        )
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{"image_id": "i1", "width": 40, "height": 30, "boxes": [
            {"label": "cat", "x": 0, "y": 0, "w": 10, "h": 10}], "captions": ["a cat"],
            "labels": ["cat"], "metadata": {"k": "v"}}, {"image_id": "i2"}])
        for image in (image, *load_annotations(path)):
            for copied in (copy.deepcopy(image), pickle.loads(pickle.dumps(image))):
                assert type(copied) is AnnotatedImage and copied == image
                assert copied.metadata is not image.metadata
                assert list(copied.metadata.items()) == list(image.metadata.items())

    def test_default_metadata_is_a_new_dict_per_image(self):
        a, b = AnnotatedImage("a"), AnnotatedImage("b")
        assert a.metadata == {} and b.metadata == {} and a.metadata is not b.metadata


class TestDecoding:
    """Both loaders read lines through one decoder: orjson when it imports,
    stdlib ``json`` for every line orjson rejects (and for all lines
    without orjson)."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_numbers_count_every_newline_style(self, tmp_path, newline):
        path = tmp_path / "a.jsonl"
        lines = ['{"image_id": "a"}', "", '{"image_id": "b"}', "{bad"]
        path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
        with pytest.raises(DataError, match=re.escape(f"{path}:4: malformed JSON")):
            load_annotations(path)
        path.write_bytes(newline.join(lines[:3]).encode("utf-8"))
        assert [img.image_id for img in load_annotations(path)] == ["a", "b"]

    def test_invalid_utf8_names_file_line(self, tmp_path, annotations_path):
        images = load_annotations(annotations_path)
        ann = tmp_path / "a.jsonl"
        ann.write_bytes(b'{"image_id": "a"}\r\n{"image_id": "b\xff"}\r\n')
        with pytest.raises(DataError, match=re.escape(f"{ann}:2: invalid UTF-8 (byte 0xff)")):
            load_annotations(ann)
        pred = tmp_path / "p.jsonl"
        pred.write_bytes(
            b'{"image_id": "img1", "scores": {"a": 0.1}}\n'
            b'{"image_id": "img2", "scores": {"caf\xc3": 0.1}}\n'
        )
        with pytest.raises(DataError, match=re.escape(f"{pred}:2: invalid UTF-8 (byte 0xc3)")):
            load_predictions(pred, images)

    @pytest.mark.parametrize("record", [
        '{"image_id": "A-\\ud800"}',
        '{"image_id": "a", "labels": ["x", "\\udfff"]}',
        '{"image_id": "a", "metadata": {"country": "\\uD83D!"}}',
        '{"image_id": "a", "metadata": {"\\ud800": "x"}}',
        '{"image_id": "a", "captions": ["a \\ude00 b"]}',
        '{"image_id": "a", "width": 9, "height": 9, '
        '"boxes": [{"label": "\\ud800", "x": 0, "y": 0, "w": 1, "h": 1}]}',
    ])
    def test_string_utf8_cannot_encode_names_file_line(self, tmp_path, record):
        path = tmp_path / "a.jsonl"
        path.write_text('{"image_id": "ok", "labels": ["\\u00e9", "\\ud83d\\ude00"]}\n'
                        + record + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: string ") + ".*"
                           + re.escape("holds a lone surrogate, which UTF-8 cannot encode")):
            load_annotations(path)

    def test_prediction_string_utf8_cannot_encode_names_file_line(self, tmp_path):
        ann = tmp_path / "a.jsonl"
        write_jsonl(ann, [{"image_id": "A-\ud83d\ude00"}])
        images = load_annotations(ann)
        assert images[0].image_id == "A-\U0001f600"
        pred = tmp_path / "p.jsonl"
        for line in ('{"image_id": "A-\\ud800", "scores": {"c": 0.1}}',
                     '{"image_id": "A-\\ud83d\\ude00", "scores": {"c\\udc00": 0.1}}'):
            pred.write_text('{"image_id": "A-\\ud83d\\ude00", "scores": {"c": 0.1}}\n'
                            + line + "\n")
            with pytest.raises(DataError, match=re.escape(f"{pred}:2: string ")):
                load_predictions(pred, images)

    def test_earlier_bad_line_is_reported_before_invalid_utf8(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'{"labels": ["x"]}\n{"image_id": "\xed\xa0\x80"}\n')
        with pytest.raises(DataError, match=re.escape(f"{path}:1: missing or invalid")):
            load_annotations(path)

    def test_too_deep_for_stdlib_is_data_error(self, tmp_path):
        path = tmp_path / "a.jsonl"
        deep = "[" * 5000 + "]" * 5000
        path.write_text('{"image_id": "a"}\n{"image_id": "b", "extra": ' + deep + "}\n")
        with stdlib_decoder(), pytest.raises(
            DataError, match=re.escape(f"{path}:2: malformed JSON (nested too deeply)")
        ):
            load_annotations(path)
        path.write_text('{"image_id": "a"}\n{"image_id": "b", "extra": ' + "[" * 5000 + "}\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: malformed JSON")):
            load_annotations(path)
        # a line orjson decodes to something other than an object is decoded
        # again, so its error is stdlib's too
        path.write_text('{"image_id": "a"}\n' + deep + "\n")
        with pytest.raises(
            DataError, match=re.escape(f"{path}:2: malformed JSON (nested too deeply)")
        ):
            load_annotations(path)

    def test_too_deep_for_stdlib_inside_labels(self, tmp_path):
        """orjson decodes the line and its labels check fails, so the line is
        decoded again by stdlib: one error on either decoder."""
        path = tmp_path / "a.jsonl"
        path.write_text('{"image_id": "b", "labels": ' + "[" * 5000 + "]" * 5000 + "}\n")
        message = "malformed JSON (nested too deeply)"
        with pytest.raises(DataError, match=re.escape(f"{path}:1: {message}")):
            load_annotations(path)

    def test_valid_lines_are_decoded_once(self, tmp_path, monkeypatch, annotations_path):
        calls = []
        decode = data._decode
        monkeypatch.setattr(data, "_decode", lambda line: calls.append(line) or decode(line))
        assert len(load_annotations(annotations_path)) == 2
        assert len(calls) == (0 if data.orjson is not None else 2)
        calls.clear()
        path = tmp_path / "a.jsonl"
        path.write_text(f'{{"image_id": "a"}}\n{{"image_id": "b", "width": {2**64}}}\n')
        assert [img.width for img in load_annotations(path)] == [None, 2**64]
        # orjson read the width as a float, which fails its check, so stdlib
        # decodes that line again
        assert len(calls) == (1 if data.orjson is not None else 2)

    def test_deep_valid_line_loads_with_orjson(self, tmp_path):
        """The one difference between the decoders: orjson has no nesting
        limit, so a valid line too deep for stdlib loads."""
        pytest.importorskip("orjson")
        path = tmp_path / "a.jsonl"
        path.write_text('{"image_id": "b", "extra": ' + "[" * 5000 + "]" * 5000 + "}\n")
        assert [img.image_id for img in load_annotations(path)] == ["b"]

    @pytest.mark.parametrize("edge", ["\x0c", "\xa0", "\u2028"])
    def test_line_edges_that_json_rejects_are_stripped_for_orjson(self, tmp_path, edge):
        """Whitespace that ``str.strip`` removes but JSON rejects, at a line's
        edges, does not send a line too deep for stdlib off orjson."""
        pytest.importorskip("orjson")
        path = tmp_path / "a.jsonl"
        deep = '{"image_id": "b", "extra": ' + "[" * 5000 + "]" * 5000 + "}"
        path.write_text(f'{{"image_id": "a"}}\n{edge}{deep}{edge}\n', encoding="utf-8")
        assert [img.image_id for img in load_annotations(path)] == ["a", "b"]

    @pytest.mark.parametrize("key,kind", [
        ("labels", "an array"), ("captions", "an array"), ("boxes", "an array"),
        ("metadata", "an object"),
    ])
    def test_field_beyond_64_bits_is_named_as_int_on_both_decoders(self, tmp_path, key, kind):
        path = tmp_path / "a.jsonl"
        path.write_text(f'{{"image_id": "a", "{key}": {2**64}}}\n')
        message = re.escape(f"{path}:1: {key!r} must be {kind}, got int")
        with pytest.raises(DataError, match=message):
            load_annotations(path)
        with stdlib_decoder(), pytest.raises(DataError, match=message):
            load_annotations(path)

    def test_integer_fields_beyond_64_bits_stay_integers(self, tmp_path):
        path = tmp_path / "a.jsonl"
        big = 2**64
        path.write_text(json.dumps({
            "image_id": "a", "width": big + 1, "height": 2**70,
            "boxes": [{"label": "x", "x": 0, "y": 0, "w": big, "h": 2**65}],
        }) + "\n")
        (img,) = load_annotations(path)
        assert (img.width, img.height) == (big + 1, 2**70)
        assert (img.boxes[0].w, img.boxes[0].h) == (big, 2**65)
        assert type(img.width) is int and type(img.boxes[0].w) is int
        path.write_text(json.dumps({
            "image_id": "a", "width": 10, "height": 10,
            "boxes": [{"label": "x", "x": -(2**63) - 1, "w": 1, "h": 1}],
        }) + "\n")
        with pytest.raises(DataError, match=re.escape("got (-9223372036854775809, 0)")):
            load_annotations(path)


# Number literals at the edges where the decoders could part: the 64-bit
# integer limits, doubles that overflow or underflow, halfway cases, and the
# non-standard literals that only stdlib accepts.
EDGE_NUMBERS = [
    "0", "-0", "-0.0", "0.0", "1", "7", "64", "2.5", "1e5", "1E-5",
    str(2**63 - 1), str(2**63), str(2**64 - 1), str(2**64), str(2**64 + 1),
    str(-(2**63)), str(-(2**63) - 1), str(-(2**64)), "1" + "0" * 25, "1" + "0" * 400,
    str(int(1.7976931348623157e308)), str(2**1024 - 2**970), str(2**1024 - 2**970 - 1),
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400",
    "5e-324", "-5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
    "2.2250738585072011e-308", "1.7976931348623157e308", "1.7976931348623159e308",
    "9007199254740993", "9007199254740993.0",
    "1.00000000000000011102230246251565404236316680908203125",
]
numbers = st.one_of(
    st.sampled_from(EDGE_NUMBERS),
    st.integers(min_value=-(2**80), max_value=2**80).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308).map(repr),
)
strings = st.one_of(
    st.sampled_from(['"i0"', '"x"', '"cat"', '""', '"\\ud800"', '"a\\udfff"',
                     '"\\ud83d\\ude00"', '"café"', '"ключ"']),
    st.text(max_size=4).map(json.dumps),
    st.text(max_size=4).map(lambda t: json.dumps(t, ensure_ascii=False)),
)
scalars = st.one_of(numbers, strings, st.sampled_from(["true", "false", "null"]))


def object_text(members):
    return "{" + ", ".join(f"{k}: {v}" for k, v in members) + "}"


def arrays(item, max_size=3):
    return st.lists(item, max_size=max_size).map(lambda xs: "[" + ", ".join(xs) + "]")


values = st.one_of(scalars, arrays(scalars, 2), arrays(arrays(scalars, 2), 2),
                   st.lists(st.tuples(strings, scalars), max_size=2).map(object_text))


@st.composite
def json_object(draw, fields):
    """An object text with ``fields`` (key: (usual value, unusual value)) in
    random order. Most draws keep every field usual, so most lines get far
    enough to reach the checks of later fields and the score matrix; some
    give one field an unusual value or drop it, add an extra key (non-ASCII
    and lone surrogates among them), or give a key twice."""
    keys = list(fields)
    odd, absent = (draw(st.sampled_from([None] * 4 + keys)) for _ in range(2))
    members = [(k, draw(fields[k][k == odd])) for k in keys if k != absent]
    if draw(st.sampled_from([False, False, False, True])):
        members.append((draw(strings), draw(values)))
    if members and draw(st.sampled_from([False, False, False, True])):
        key = draw(st.sampled_from([k for k, _ in members]))
        members.append((key, draw(st.one_of(fields.get(key, (values,))))))
    return object_text(draw(st.permutations(members)))


offset = (st.sampled_from(["0", "5", "10"]), numbers)
extent = (st.sampled_from(["1", "5", "64"]), numbers)
label = (st.sampled_from(['"cat"', '"dog"', '"man"']), strings)
box = json_object({'"label"': label, '"x"': offset, '"y"': offset, '"w"': extent, '"h"': extent})
common_fields = {
    '"image_id"': (st.sampled_from(['"i0"', '"i1"', '"i2"']), values),
    '"labels"': (arrays(st.one_of(*label)), values),
    '"metadata"': (st.lists(st.tuples(strings, strings), max_size=2).map(object_text), values),
}
# Lines with and without boxes, captions, width and height: an image
# without boxes, width and height is built through its slots, any other by
# the dataclass constructor.
image_fields = {
    **common_fields,
    '"width"': (st.sampled_from(["100", str(2**64)]), numbers),
    '"height"': (st.sampled_from(["100", str(2**64)]), numbers),
    '"boxes"': (arrays(box, 2), values),
    '"captions"': (arrays(strings), values),
}
annotation_line = st.one_of(json_object(common_fields), json_object(image_fields))
concept = st.one_of(st.sampled_from(['"cat"', '"dog"', '"é"']), strings)
prediction_line = json_object({
    '"image_id"': (st.sampled_from(['"i0"', '"i1"', '"i2"', '"i3"']), values),
    '"scores"': (
        st.lists(st.tuples(concept, numbers), max_size=4).map(object_text),
        st.one_of(st.lists(st.tuples(concept, scalars), max_size=4).map(object_text), values),
    ),
})


def jsonl(line):
    """Lines of a file; the first sometimes starts with a BOM."""
    return st.tuples(st.sampled_from([""] * 7 + ["\ufeff"]),
                     st.lists(line, min_size=1, max_size=3)).map(
        lambda t: t[0] + "\n".join(t[1]) + "\n"
    )


def outcome(load):
    try:
        return load()
    except DataError as e:
        return f"DataError: {e}"


def assert_ordinary_image(img):
    """``img`` compares, hashes and refuses assignment as the image built
    by ``AnnotatedImage(...)`` from its fields does."""
    built = AnnotatedImage(**{name: getattr(img, name) for name in img._fields})
    assert type(img) is AnnotatedImage and img == built
    assert outcome_of(hash, img) == outcome_of(hash, built)
    for name in img._fields:
        with pytest.raises(AttributeError):
            setattr(img, name, getattr(img, name))


def outcome_of(f, *args):
    try:
        return f(*args)
    except TypeError as e:  # an unhashable field
        return str(e)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(annotations=jsonl(annotation_line), predictions=jsonl(prediction_line))
def test_orjson_and_stdlib_decode_alike(tmp_path, annotations, predictions):
    """Generated annotation and prediction files load to equal records and
    bit-equal score cells, or fail with the same error, on both decoders."""
    pytest.importorskip("orjson")
    ann, pred = tmp_path / "a.jsonl", tmp_path / "p.jsonl"
    ann.write_text(annotations, encoding="utf-8")
    pred.write_text(predictions, encoding="utf-8")
    images = [AnnotatedImage(image_id=f"i{k}") for k in range(4)]

    def load_scores():
        matrix = load_predictions(pred, images)
        cells = [[x.hex() for x in row] for row in matrix.scores.tolist()]
        return dict(matrix.rows), matrix.concepts, cells

    def load():
        return outcome(lambda: load_annotations(ann)), outcome(load_scores)

    fast = load()
    if not isinstance(fast[0], str):
        for img in fast[0]:
            assert_ordinary_image(img)
    with stdlib_decoder():
        assert load() == fast


# Ids that do not stand as JSON strings as they are, or need an escape,
# written by one of ``id_writers``; "\udcff" is written as the byte 0xff.
odd_ids = st.sampled_from(
    ['a"b', "a\\b", "é", "\x01", "\x7f", "\xa0", "\u2028", "\udcff", ""]
)
id_writers = st.sampled_from([
    json.dumps, lambda i: json.dumps(i, ensure_ascii=False), lambda i: f'"{i}"',
])
# A line's text after its id and ``", ``: label-only and conflicting
# variants of one record and other valid rests; an empty, unclosed or
# trailed object, a second id, a bad label, a box out of bounds, numbers
# that orjson rejects or reads as a float; and generated fields.
valid_rests = st.sampled_from([
    '"labels": ["cat"], "metadata": {"g": "a"}}',
    '"labels": ["dog", "cat"], "metadata": {"g": "a"}}',
    '"labels": ["cat"], "metadata": {"g": "b"}}',
    '"width": 10, "height": 10, "boxes": [{"label": "cat", "x": 5, "w": 5, "h": 5}]}',
    '"captions": ["a cat"], "labels": []}',
    '"labels": ["cat"]}\xa0',
])
rest = st.one_of(
    valid_rests,
    valid_rests,
    valid_rests,
    st.sampled_from([
        "}", '"labels": ["cat"]', '"labels": ["cat"]} x', '"image_id": "i9"}',
        '"labels": [" "]}', '"labels": NaN}', f'"width": {2**64}}}',
        '"width": 10, "height": 10, "boxes": [{"label": "cat", "x": 6, "w": 5, "h": 5}]}',
    ]),
    json_object({k: v for k, v in image_fields.items() if k != '"image_id"'}).map(
        lambda text: text[1:]
    ),
)


@st.composite
def shared_rest_files(draw):
    """An annotation file's text whose lines start with a new plain id, as
    ``json.dumps`` writes it, and end with one of a few rests, so that whole
    chunks share rests; then up to two lines are replaced by a line with
    an odd or a repeated id, another head, a blank line or a generated
    line. CRLF, and a last line without a newline."""
    rests = draw(st.lists(rest, min_size=1, max_size=3))
    n = draw(st.sampled_from([1, 5, 12, 40, 40, 60]))
    picks = draw(st.lists(st.sampled_from(rests), min_size=n, max_size=n))
    lines = [f'{{"image_id": "i{k}", {r}' for k, r in enumerate(picks)]
    for k, kind in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(
        ["odd", "repeat", "head", "blank", "line"])), max_size=2)):
        if kind == "blank":
            lines[k] = draw(st.sampled_from(["", " "]))
        elif kind == "line":
            lines[k] = draw(annotation_line)
        else:
            image_id = draw(odd_ids) if kind == "odd" else f"i{draw(st.integers(0, n - 1))}"
            head = '{"image_id": '
            if kind == "head":
                head = draw(st.sampled_from(['{"image_id":', ' {"image_id": ']))
            lines[k] = head + draw(id_writers)(image_id) + ", " + picks[k]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def image_fields_of(img):
    """An image's type, its fields and their types, and its metadata's items
    in order."""
    return type(img), tuple(map(type, img)), tuple(img), list(img.metadata.items())


def shared_chunks_load_as_the_walk(path, monkeypatch):
    """Assert that ``load_annotations(path)`` gives the images, field by
    field, or the error, that a walk of every line gives; return how many
    chunks the shared decode built."""
    built = []
    chunk_images = data._chunk_images

    def loaded():
        return outcome(lambda: [image_fields_of(img) for img in load_annotations(path)])

    with monkeypatch.context() as m:
        m.setattr(data, "_chunk_images",
                  lambda *args: built.append(chunk_images(*args)) or built[-1])
        shared = loaded()
    with monkeypatch.context() as m:
        m.setattr(data, "_chunk_images", lambda *args: None)
        assert loaded() == shared
    return sum(1 for images in built if images)


SHARED = '"labels": ["cat"], "metadata": {"g": "a"}}'


@pytest.mark.parametrize("chars", [150, 1 << 13])
@pytest.mark.parametrize("line", [
    '{"image_id": "i8", "image_id": "z"}',  # the last id wins
    '{"image_id": "i8", }',
    '{"image_id": "i8", "labels": ["cat"], "metadata": {"g": "a"}',
    '{"image_id": "i8", "labels": NaN}',
    '{"image_id": "i8", "labels": [" "]}',
    f'{{"image_id": "i8", "width": {2**64}}}',
    '{"image_id": "i8", ' + SHARED[:-1] + ", " + SHARED,
    *(f'{{"image_id": {image_id}, {SHARED}'
      for image_id in ['""', '"a"b"', '"a\\\\b"', '"a\\b"', '"\\u00e9"', '"é"',
                       '"\udcff"', '"\x01"', '"\t"', '"\x7f"', '"\xa0"', '"\u2028"']),
    *(f'{{"image_id": "{image_id}", {rest}'
      for image_id in ("i1", "i7")
      for rest in (SHARED, '"labels": ["dog"], "metadata": {"g": "a"}}',
                   '"labels": ["cat"], "metadata": {"g": "b"}}')),
    "", '{"image_id":"i8", ' + SHARED, ' {"image_id": "i8", ' + SHARED,
])
def test_odd_line_among_shared_rests_loads_as_the_record_walk(tmp_path, monkeypatch, line, chars):
    """A file of lines that share two rests, with one line of each kind that
    the shared decode must walk, read as a walk reads it, or merge or fail
    as a duplicate of a line in the same chunk or an earlier one; in chunks
    of three lines and in one."""
    monkeypatch.setattr(data, "_ANNOTATION_CHARS", chars)
    lines = [f'{{"image_id": "i{k}", ' + (SHARED if k % 4 != 3 else
             '"labels": [], "captions": ["a cat"]}') for k in range(12)]
    lines[8] = line
    path = tmp_path / "a.jsonl"
    path.write_bytes("".join(x + "\n" for x in lines).encode("utf-8", "surrogateescape"))
    assert shared_chunks_load_as_the_walk(path, monkeypatch) >= (1 if chars == 150 else 0)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(text=shared_rest_files(), chars=st.sampled_from([1, 300, 1000, 1 << 13]))
def test_shared_rests_load_as_the_record_walk(tmp_path, monkeypatch, text, chars):
    """Generated files load as the walk loads them, for chunks of any size."""
    monkeypatch.setattr(data, "_ANNOTATION_CHARS", chars)
    path = tmp_path / "a.jsonl"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    shared_chunks_load_as_the_walk(path, monkeypatch)
