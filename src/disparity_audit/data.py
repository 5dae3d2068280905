"""Core data model and JSONL ingestion for annotations and predictions.

All types are immutable after load. Loaders are single-threaded per file;
downstream modules receive read-only views.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError

try:
    import orjson
except ImportError:  # the optional ``fast`` extra: stdlib json decodes every line
    orjson = None


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object that a side file (``what``: terms, region, mapping,
    scenario, manifest) holds.

    Raises:
        DataError: naming the file when it is missing or unreadable, is not
            valid UTF-8 JSON, or holds something other than an object.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as f:
            obj = json.load(f)
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}") from None
    except OSError as e:
        raise DataError(f"cannot read {what} file {path}: {e.strerror}") from None
    except (ValueError, RecursionError) as e:  # malformed JSON or UTF-8
        raise DataError(f"{what} file {path} is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise DataError(f"{what} file {path} must hold a JSON object, got {type(obj).__name__}")
    return obj


def canonicalize_label(raw: str) -> str:
    """Canonical form of a dataset label or model class key.

    Lowercases and strips surrounding whitespace; synset keys such as
    ``"male_child.n.01"`` pass through otherwise unchanged. Idempotent.
    """
    if not isinstance(raw, str):
        raise DataError(f"label must be a string, got {raw!r}")
    out = raw.strip().lower()
    if not out:
        raise DataError(f"label {raw!r} is empty after canonicalization")
    return out


@dataclass(frozen=True, slots=True)
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


class _ImageFields(NamedTuple):
    """``AnnotatedImage``'s fields, in order."""

    image_id: str
    width: int | None
    height: int | None
    boxes: tuple[BoxAnnotation, ...]
    captions: tuple[str, ...]
    direct_labels: frozenset[str]
    metadata: Mapping[str, str]


class AnnotatedImage(_ImageFields):
    """One image's boxes, captions, direct labels, and source metadata.

    ``width``/``height`` may be omitted only for images without boxes
    (caption- or metadata-only sources). A named tuple: immutable, and
    equal and hashed as the tuple of its fields; ``metadata`` defaults to a
    new empty dict for each image.
    """

    __slots__ = ()

    def __new__(
        cls,
        image_id: str,
        width: int | None = None,
        height: int | None = None,
        boxes: tuple[BoxAnnotation, ...] = (),
        captions: tuple[str, ...] = (),
        direct_labels: frozenset[str] = frozenset(),
        metadata: Mapping[str, str] | None = None,
    ) -> AnnotatedImage:
        """Checks the id and, when the image has boxes, a width or a height,
        those; ingest builds an image without them by ``tuple.__new__``,
        relying on nothing else being checked for it."""
        if metadata is None:
            metadata = {}
        if not image_id:
            raise DataError("image_id must be a non-empty string")
        if boxes or width is not None or height is not None:
            for name, v in (("width", width), ("height", height)):
                if v is not None and (not isinstance(v, int) or isinstance(v, bool) or v <= 0):
                    raise DataError(f"{name} must be a positive integer, got {v!r}")
            if boxes:
                if width is None or height is None:
                    raise DataError(f"image {image_id!r} has boxes but no width/height")
                for b in boxes:
                    if b.x + b.w > width or b.y + b.h > height:
                        raise DataError(
                            f"image {image_id!r}: box {b.raw_label!r} at "
                            f"({b.x},{b.y},{b.w},{b.h}) exceeds {width}x{height} bounds"
                        )
        return tuple.__new__(
            cls, (image_id, width, height, boxes, captions, direct_labels, metadata)
        )

    def __getnewargs__(self) -> tuple:
        """Arguments that rebuild the image; ``pickle`` and ``copy`` cannot
        copy a loaded image's read-only metadata mapping, so a copy gets an
        equal dict."""
        return (*self[:6], dict(self.metadata))

    @property
    def has_labels(self) -> bool:
        """True if the image carries any label evidence (direct labels or boxes)."""
        return bool(self.direct_labels) or bool(self.boxes)



@dataclass(frozen=True)
class PredictionRecord:
    """One image's confidence scores keyed by concept id, as ``synth`` makes
    them; ``ScoreMatrix.from_records`` checks every score and loads them."""

    image_id: str
    scores: Mapping[str, float]


@dataclass(frozen=True)
class ScoreMatrix:
    """Prediction scores in columnar form.

    ``rows`` maps each scored image id to its row, in file order;
    ``concepts`` are the column concept ids, canonical
    (``canonicalize_label``) and sorted; ``scores`` is the
    read-only float64 ``images x concepts`` array, NaN where an image has no
    score for a concept. Every column holds at least one score.
    """

    rows: Mapping[str, int]
    concepts: tuple[str, ...]
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def from_records(cls, records: Iterable[PredictionRecord]) -> "ScoreMatrix":
        """The matrix of the records, checked as ``load_predictions`` checks
        a file's; an error names the image."""
        row_of: dict[str, int] = {}
        column_of: dict[str, int] = {}
        concepts: dict[str, int] = {}
        cells = _record_cells(
            ((r.image_id, (r.image_id, r.scores)) for r in records),
            row_of, column_of, concepts, lambda image_id: f"image {image_id!r}",
        )
        return _score_matrix([cells], row_of, concepts)

    def row_of(self, image_ids: Sequence[str]) -> np.ndarray:
        """Row of each image in ``scores``, -1 for an image without predictions."""
        n = len(image_ids)
        return np.fromiter(
            map(self.rows.get, image_ids, itertools.repeat(-1, n)), dtype=np.intp, count=n
        )

    def take_rows(self, rows: np.ndarray, columns: np.ndarray | None = None) -> np.ndarray:
        """Scores of the images at the given rows (as ``row_of`` gives them),
        one row each (all NaN for row -1), over the given columns or all."""
        scored = rows >= 0
        picked = self.scores.take(rows[scored], axis=0)
        if columns is not None:
            picked = picked.take(columns, axis=1)
        out = np.full((rows.size, picked.shape[1]), np.nan)
        out[scored] = picked
        return out

    def without(self, image_ids: AbstractSet[str]) -> "ScoreMatrix":
        """The matrix without the given images' rows, and without the columns
        that only they scored."""
        kept = [i for i in self.rows if i not in image_ids]
        scores = self.scores[[self.rows[i] for i in kept]]
        scored = ~np.isnan(scores).all(axis=0)
        scores = scores[:, scored]
        scores.setflags(write=False)
        return ScoreMatrix(
            rows={image_id: r for r, image_id in enumerate(kept)},
            concepts=tuple(c for c, keep in zip(self.concepts, scored.tolist()) if keep),
            scores=scores,
        )


# Exact types that pass a chunk's checks in one C-level pass each; ``bool``
# is a type of its own, so ``true`` is no number here.
_DICT_ONLY = frozenset({dict})
_STR_ONLY = frozenset({str})
_NUMBERS = frozenset({float, int})
# Checked cells are kept in blocks of at least this many: large enough for
# malloc to map each apart from the heap, as the small arrays of a chunk of
# lines are not, so that they do not leave the heap grown after a load.
_BLOCK_CELLS = 1 << 16

_Cells = tuple[np.ndarray, np.ndarray, np.ndarray]  # lengths, columns, values
_IMAGE_ID = operator.itemgetter("image_id")


def _add_columns(
    keys: Iterable[str], column_of: dict[str, int], concepts: dict[str, int]
) -> None:
    """Give each of ``keys`` new to ``column_of`` the next column, and its
    concept, the key's ``canonicalize_label``, that column in ``concepts``:
    each key is canonicalized once, when it is first met.

    Raises:
        DataError: leaving both unchanged, naming the key, when a new key is
            empty after canonicalization; or naming both keys when two keys
            are one concept, in ``keys`` or with an earlier column.
    """
    added: dict[str, str] = {}  # concept -> its new key
    for key in keys:
        if key in column_of:
            continue
        try:
            concept = canonicalize_label(key)
        except DataError:
            raise DataError(
                f"concept key {key!r} in scores is empty after canonicalization"
            ) from None
        if concept in concepts:
            other = next(k for k, j in column_of.items() if j == concepts[concept])
        else:
            other = added.setdefault(concept, key)
        if other != key:
            raise DataError(f"score keys {other!r} and {key!r} are one concept, {concept!r}")
    for concept, key in added.items():
        concepts[concept] = column_of[key] = len(column_of)


def _chunk_cells(
    values: list, row_of: dict[str, int], column_of: dict[str, int], concepts: dict[str, int]
) -> _Cells | None:
    """The cells of a chunk of decoded prediction lines that passes every
    check, each check one C-level pass over the chunk; ``row_of`` takes its
    rows, and ``column_of`` and ``concepts`` its new keys (``_add_columns``).

    Returns None, leaving all three unchanged, when a value is not a
    ``dict`` (a blank or undecodable line is None), an id is not a
    non-empty ``str`` or repeats, some scores are not a ``dict``, a score
    is not a ``float`` or an ``int``, an ``int`` is too large for a float, a
    score is not finite, or a new key is empty after canonicalization or
    is one concept with another key.
    """
    if not _DICT_ONLY.issuperset(map(type, values)):
        return None
    ids = list(map(dict.get, values, itertools.repeat("image_id")))
    scores = list(map(dict.get, values, itertools.repeat("scores")))
    if (
        not _STR_ONLY.issuperset(map(type, ids))
        or "" in ids
        or not _DICT_ONLY.issuperset(map(type, scores))
    ):
        return None
    rows = dict(zip(ids, range(len(row_of), len(row_of) + len(ids))))
    if len(rows) < len(ids) or not row_of.keys().isdisjoint(rows):
        return None
    cells = list(itertools.chain.from_iterable(map(dict.values, scores)))
    if not _NUMBERS.issuperset(map(type, cells)):
        return None
    try:  # converts each int as float() does
        cells = np.fromiter(cells, dtype=float, count=len(cells))
    except OverflowError:
        return None
    if not np.isfinite(cells).all():
        return None
    keys = list(itertools.chain.from_iterable(scores))
    try:
        columns = np.fromiter(map(column_of.__getitem__, keys), np.int32, len(keys))
    except KeyError:  # a key new to the matrix
        try:
            _add_columns(dict.fromkeys(keys), column_of, concepts)
        except DataError:
            return None
        columns = np.fromiter(map(column_of.__getitem__, keys), np.int32, len(keys))
    row_of.update(rows)
    return np.fromiter(map(len, scores), np.intp, len(scores)), columns, cells


def _record_cells(
    records: Iterable[tuple[object, tuple[str, Mapping[str, float]]]],
    row_of: dict[str, int],
    column_of: dict[str, int],
    concepts: dict[str, int],
    where: Callable[[object], str],
) -> _Cells:
    """The cells of ``(key, (image_id, scores))`` records, each checked as
    it is read, as ``_chunk_cells`` checks a chunk; ``row_of`` takes their
    rows, and ``column_of`` and ``concepts`` their new keys
    (``_add_columns``).

    Each score must be an int or float (not a bool), finite as a float, and
    keyed by a concept id that is not empty after canonicalization and is
    no other key's concept; each image id may occur once.
    ``where(key)`` names a bad record in its error, e.g. as ``file:line``;
    it is called only then.

    Raises:
        DataError: on the first bad record, naming it and the concept,
            before a later record is read.
    """
    lengths: list[int] = []
    columns: list[int] = []
    values: list[float] = []
    for key, (image_id, scores) in records:
        if image_id in row_of:
            raise DataError(f"{where(key)}: duplicate prediction for image {image_id!r}")
        if "" in scores:
            raise DataError(f"{where(key)}: empty concept key in scores")
        for concept, score in scores.items():
            if not isinstance(score, (int, float)) or isinstance(score, bool):
                raise DataError(f"{where(key)}: score for {concept!r} is not a number")
            try:
                value = float(score)
            except OverflowError:
                raise DataError(
                    f"{where(key)}: score for {concept!r} is too large for a float"
                ) from None
            if not math.isfinite(value):
                raise DataError(f"{where(key)}: non-finite score {score!r} for {concept!r}")
            values.append(value)
        try:
            _add_columns(scores, column_of, concepts)
        except DataError as e:
            raise DataError(f"{where(key)}: {e}") from None
        columns.extend(map(column_of.__getitem__, scores))
        lengths.append(len(scores))
        row_of[image_id] = len(row_of)
    return (
        np.array(lengths, dtype=np.intp),
        np.array(columns, dtype=np.int32),
        np.array(values, dtype=float),
    )


def _score_matrix(
    parts: Iterable[_Cells], row_of: dict[str, int], concepts: dict[str, int]
) -> ScoreMatrix:
    """The score matrix of ``parts``, the cells of consecutive rows; once
    they are read, ``row_of`` holds every row and ``concepts`` gives every
    concept's column. The parts are joined into blocks of at least
    ``_BLOCK_CELLS`` cells as they are read."""
    blocks: list[_Cells] = []
    pending: list[_Cells] = []
    cells = 0
    for part in parts:
        pending.append(part)
        cells += part[2].size
        if cells >= _BLOCK_CELLS:
            blocks.append(tuple(map(np.concatenate, zip(*pending))))
            pending, cells = [], 0
    if pending:
        blocks.append(tuple(map(np.concatenate, zip(*pending))))

    names = sorted(concepts)
    sorted_column = np.empty(len(names), dtype=np.intp)
    sorted_column[np.array([concepts[c] for c in names], dtype=np.intp)] = np.arange(len(names))
    matrix = np.full((len(row_of), len(names)), np.nan)
    first_row = 0
    for lengths, columns, values in blocks:
        rows = np.repeat(np.arange(first_row, first_row + lengths.size), lengths)
        matrix[rows, sorted_column[columns]] = values
        first_row += lengths.size
    matrix.setflags(write=False)
    return ScoreMatrix(rows=row_of, concepts=tuple(names), scores=matrix)


class ExclusionReason(Enum):
    """Why an image was excluded from group assignment."""

    MULTIPLE_GROUPS = "MultipleGroups"
    NO_GROUP_EVIDENCE = "NoGroupEvidence"
    BOX_TOO_SMALL = "BoxTooSmall"
    MID_SIZE_AMBIGUOUS = "MidSizeAmbiguous"
    NEUTRAL_TERM_PRESENT = "NeutralTermPresent"


# An image's group outcome is its group's name or one of these; no group may
# take one of them (``GroupRule``), so this is the only test of "excluded".
EXCLUSION_REASONS = frozenset(r.value for r in ExclusionReason)


# A \u escape of a surrogate code point: the only way a decoded string can
# hold a lone surrogate, once the line itself is valid UTF-8.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _unencodable(value: object) -> str | None:
    """The first string in a decoded JSON value that UTF-8 cannot encode."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, str):
            try:
                v.encode("utf-8")
            except UnicodeEncodeError:
                return v
        elif isinstance(v, dict):
            stack.extend(v)
            stack.extend(v.values())
        elif isinstance(v, list):
            stack.extend(v)
    return None


def _check_utf8(line: str) -> None:
    """Raise the error naming the first byte of ``line`` that was not valid
    UTF-8, read with ``errors="surrogateescape"``."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as e:
            byte = ord(line[e.start]) - 0xDC00
            raise DataError(f"invalid UTF-8 (byte 0x{byte:02x})") from None


def _decode(line: str) -> object:
    """The JSON value of one line, decoded by stdlib ``json``.

    Stdlib also accepts ``NaN``, ``Infinity``, ``1e400`` and integers wider
    than 64 bits, which orjson rejects, so such a line meets the same checks
    downstream with or without orjson. A string that UTF-8 cannot encode
    (a lone-surrogate escape, which orjson also rejects) is an error here,
    as it could not be written out again.
    """
    _check_utf8(line)
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DataError(f"malformed JSON ({e.msg})") from e
    except RecursionError:
        raise DataError("malformed JSON (nested too deeply)") from None
    if _SURROGATE_ESCAPE.search(line):
        bad = _unencodable(obj)
        if bad is not None:
            raise DataError(f"string {bad!r} holds a lone surrogate, which UTF-8 cannot encode")
    return obj


# Characters of lines read and decoded at once. An annotation line brings
# a few containers and keeps an image; at 8 KiB (about 70 lines of an id,
# labels and metadata) the collector's youngest generation fills about as
# often as when lines are read one by one. A prediction line keeps no
# container; 32 KiB (a few lines of 200 scores) spreads a chunk's fixed
# cost over more scores.
_ANNOTATION_CHARS = 1 << 13
_PREDICTION_CHARS = 1 << 15


def _line_value(line: str) -> object:
    """The JSON value of one stripped line: orjson's when orjson imports and
    reads it, else stdlib's (``_decode``), and None for a blank line or one
    that neither reads."""
    line = line.strip()
    if orjson is not None:
        try:
            return orjson.loads(line)
        except orjson.JSONDecodeError:
            pass
    try:
        return _decode(line)
    except DataError:
        return None


def _iter_jsonl(path: Path, chunk_chars: int) -> Iterator[tuple[int, list[str]]]:
    """``(first line number, lines)`` for each chunk of about ``chunk_chars``
    characters of a JSON Lines file; lines end at ``\\n``, ``\\r\\n`` or
    ``\\r``."""
    # surrogateescape defers a bad byte to the line that holds it, so the
    # error names that line, after every earlier line is checked.
    with path.open(encoding="utf-8", errors="surrogateescape") as f:
        first = 1
        while lines := f.readlines(chunk_chars):
            yield first, lines
            first += len(lines)


def _line_values(lines: list[str]) -> list:
    """Each line's ``_line_value``, every line decoded before any is checked.

    orjson first gets the raw lines: JSON whitespace is a subset of what
    ``str.strip`` removes, so a line that orjson accepts decodes as its
    stripped text would. When orjson rejects one raw line (a blank line,
    say), and always without orjson, each line is decoded on its own.
    """
    if orjson is not None:
        try:
            return list(map(orjson.loads, lines))
        except orjson.JSONDecodeError:
            pass
    return list(map(_line_value, lines))


def _parse_lines(
    name: str, first: int, lines: list[str], values: list, parse: Callable[[dict, int], object]
) -> Iterator[tuple[int, object]]:
    """``(line number, parse(obj, line number))`` for the JSON object on each
    non-blank line of one ``_iter_jsonl`` chunk of the file ``name``, whose
    ``_line_values`` are ``values``, line by line.

    A line whose value is None, is not an object or fails ``parse`` is
    decoded again by ``_decode`` (stdlib), and that decode's or that parse's
    error is the one reported, so errors are the same with or without
    orjson. The one difference left: orjson decodes a valid line nested
    deeper than stdlib's recursion limit, which stdlib rejects.
    """
    for line_no, line, obj in zip(itertools.count(first), lines, values):
        if type(obj) is dict:
            try:
                item = parse(obj, line_no)
            except DataError:
                pass
            else:
                yield line_no, item
                continue
        line = line.strip()
        if not line:
            continue
        try:
            obj = _decode(line)
        except DataError as e:
            raise DataError(f"{name}:{line_no}: {e}") from e.__cause__
        if not isinstance(obj, dict):
            raise DataError(f"{name}:{line_no}: expected a JSON object")
        yield line_no, parse(obj, line_no)


def _wrong_type(ctx: str, key: str, kind: str, value: object) -> DataError:
    return DataError(f"{ctx}: {key!r} must be {kind}, got {type(value).__name__}")


def _parse_boxes(boxes: object, name: str, line_no: int) -> tuple[BoxAnnotation, ...]:
    if type(boxes) is not list:
        raise _wrong_type(f"{name}:{line_no}", "boxes", "an array", boxes)
    out = []
    for i, b in enumerate(boxes):
        if type(b) is not dict:
            raise DataError(f"{name}:{line_no}: box #{i} is not an object")
        raw_label = b.get("label")
        if type(raw_label) is not str or not raw_label.strip():
            raise DataError(f"{name}:{line_no} box #{i}: missing or invalid 'label'")
        try:
            out.append(
                BoxAnnotation(
                    raw_label=raw_label,
                    x=b.get("x", 0), y=b.get("y", 0), w=b.get("w"), h=b.get("h"),
                )
            )
        except DataError as e:
            raise DataError(f"{name}:{line_no}: {e}") from e
    return tuple(out)


_NO_LABELS: frozenset[str] = frozenset()
_NO_METADATA: Mapping[str, str] = MappingProxyType({})


def _parse_image(
    name: str,
    label_sets: dict[frozenset[str], frozenset[str]],
    metadata_maps: dict[tuple[str, ...], Mapping[str, str]],
    obj: dict,
    line_no: int,
) -> AnnotatedImage:
    """The annotation record on line ``line_no`` of the file ``name``.

    ``label_sets`` and ``metadata_maps`` intern one file's checked label sets
    and metadata: each distinct value is checked once, and every record that
    carries it shares one ``frozenset`` or one read-only mapping. An absent
    field costs one ``dict.get``; ``file:line`` is formatted only for an
    error.
    """
    get = obj.get
    image_id = get("image_id")
    if type(image_id) is not str or not image_id:
        raise DataError(f"{name}:{line_no}: missing or invalid 'image_id'")
    boxes = get("boxes")
    boxes = () if boxes is None else _parse_boxes(boxes, name, line_no)
    captions = get("captions")
    if captions is None:
        captions = ()
    elif type(captions) is not list:
        raise _wrong_type(f"{name}:{line_no}", "captions", "an array", captions)
    labels = get("labels")
    if labels is not None and type(labels) is not list:
        raise _wrong_type(f"{name}:{line_no}", "labels", "an array", labels)
    if captions and not all(isinstance(c, str) for c in captions):
        raise DataError(f"{name}:{line_no}: captions must be strings")
    direct_labels = _NO_LABELS
    if labels:
        try:
            direct_labels = frozenset(labels)
        except TypeError:  # an unhashable item, so not a label
            direct_labels = None
        checked = label_sets.get(direct_labels)
        if checked is None:
            if not all(isinstance(s, str) and s.strip() for s in labels):
                raise DataError(f"{name}:{line_no}: labels must be non-empty strings")
            checked = label_sets[direct_labels] = direct_labels
        direct_labels = checked
    metadata = get("metadata")
    if metadata is None:
        metadata = _NO_METADATA
    elif type(metadata) is not dict:
        raise _wrong_type(f"{name}:{line_no}", "metadata", "an object", metadata)
    else:
        key = (*metadata, *metadata.values())  # keys, then values: one tuple
        try:
            checked = metadata_maps.get(key)
        except TypeError:  # an unhashable value, so not a string
            checked = None
        if checked is None:
            if not all(isinstance(v, str) for v in metadata.values()):  # JSON keys are strings
                raise DataError(f"{name}:{line_no}: metadata must map strings to strings")
            checked = metadata_maps[key] = MappingProxyType(metadata)
        metadata = checked
    width = get("width")
    if width is not None and type(width) is not int:
        raise DataError(f"{name}:{line_no}: 'width' must be an integer, got {width!r}")
    height = get("height")
    if height is not None and type(height) is not int:
        raise DataError(f"{name}:{line_no}: 'height' must be an integer, got {height!r}")
    if not boxes and width is None and height is None:  # nothing for ``__new__`` to check
        return tuple.__new__(
            AnnotatedImage, (image_id, None, None, (), tuple(captions), direct_labels, metadata)
        )
    try:
        return AnnotatedImage(
            image_id, width, height, boxes, tuple(captions), direct_labels, metadata
        )
    except DataError as e:
        raise DataError(f"{name}:{line_no}: {e}") from e


# ``json.dumps`` writes an annotation line as this head, its id, and the
# rest after the id's closing ``", ``. In an audit's files the rests repeat:
# the deep benchmark's 30,000 lines have about two dozen.
_ID_HEAD = '{"image_id": "'
_ID_END = '", '
_ID_IN_HEAD = operator.itemgetter(slice(len(_ID_HEAD), None))


def _chunk_images(
    lines: list[str],
    fields_of: dict[str, tuple | None],
    by_id: Mapping[str, AnnotatedImage],
    parse: Callable[[dict, int], AnnotatedImage],
) -> dict[str, AnnotatedImage] | bool | None:
    """The images of a chunk of annotation lines, by id, from one decode and
    one ``parse`` per distinct rest of a line after its id, each check one
    C-level pass over the chunk.

    ``fields_of`` maps each rest met in the file to its image's six fields
    after the id, or to None where they failed; it takes the chunk's new
    rests. Each line must be ``{"image_id": "`` and an id, then ``", `` and
    a rest. The id must be non-empty, hold no ``"`` and no ``\\`` and be
    printable, so it is a JSON string as it stands; then the stripped line
    is valid JSON exactly when ``{`` and the stripped rest is a non-empty
    object, and both decoders read the line as ``{"image_id": id, **rest}``.
    So a rest whose object has no ``image_id`` key and passes ``parse`` with
    one id gives every line that carries it the image that the line gives
    on its own, but for the id.

    Returns False when more than half the chunk's rests are new to
    ``fields_of``, before any other check, or more than half its lines do
    not start with ``{"image_id": "``: a file of distinct lines, or of
    another shape (compact separators, another key first), gains nothing
    here, so the chunk and every later one are walked line by line.
    Returns None, for the chunk alone to be walked, when a line does not
    split so, an id repeats in the chunk or is in ``by_id`` (a duplicate
    merges or fails in the walk), or a rest fails.
    """
    heads, _, rests = zip(*map(str.partition, lines, itertools.repeat(_ID_END)))
    new = list(itertools.filterfalse(fields_of.__contains__, dict.fromkeys(rests)))
    if 2 * len(new) > len(lines):
        return False
    shaped = operator.countOf(map(str.startswith, heads, itertools.repeat(_ID_HEAD)), True)
    if 2 * shaped < len(lines):
        return False
    if shaped < len(lines):
        return None
    ids = list(map(_ID_IN_HEAD, heads))
    text = "".join(ids)
    if (
        "" in ids
        or '"' in text
        or "\\" in text
        or not text.isprintable()
        or len(set(ids)) < len(ids)
        or not by_id.keys().isdisjoint(ids)
    ):
        return None
    for rest in new:
        value = _line_value("{" + rest)
        fields = None
        if type(value) is dict and value and "image_id" not in value:
            value["image_id"] = ids[0]
            try:
                fields = parse(value, 0)[1:]
            except DataError:  # the walk names the line
                pass
        fields_of[rest] = fields
    fields = list(map(fields_of.__getitem__, rests))
    if None in fields:
        return None
    images = map(
        tuple.__new__, itertools.repeat(AnnotatedImage), map(operator.add, zip(ids), fields)
    )
    return dict(zip(ids, images))


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
    by_id: dict[str, AnnotatedImage] = {}  # in order of first appearance
    name = str(path)
    parse = functools.partial(_parse_image, name, {}, {})
    fields_of: dict[str, tuple | None] | None = {}  # ``_chunk_images``' table
    for first, lines in _iter_jsonl(path, _ANNOTATION_CHARS):
        if fields_of is not None:
            images = _chunk_images(lines, fields_of, by_id, parse)
            if images:
                by_id.update(images)
                continue
            if images is False:
                fields_of = None
        for line_no, img in _parse_lines(name, first, lines, _line_values(lines), parse):
            prev = by_id.get(img.image_id)
            if prev is None:
                by_id[img.image_id] = img
                continue
            if prev._replace(direct_labels=_NO_LABELS) != img._replace(direct_labels=_NO_LABELS):
                raise DataError(
                    f"{path}:{line_no}: duplicate image_id {img.image_id!r} with "
                    "conflicting fields (only label-only repetitions are collapsed)"
                )
            by_id[img.image_id] = prev._replace(
                direct_labels=prev.direct_labels | img.direct_labels
            )
    return list(by_id.values())


def load_predictions(path: str | Path, images: Sequence[AnnotatedImage]) -> ScoreMatrix:
    """Load a predictions file into a score matrix; every record must
    resolve to a loaded image.

    Args:
        path: JSON Lines file of ``{"image_id": ..., "scores": {...}}``.
        images: the already-loaded annotation records.

    Raises:
        DataError: malformed line, duplicate image_id, bad score, a score
            key empty after canonicalization or two keys of one concept
            (each with ``file:line``), or image_ids absent from ``images``
            (all offenders listed, with their lines).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"predictions file not found: {path}")
    known = set(map(operator.attrgetter("image_id"), images))
    unknown: list[tuple[str, int]] = []
    name = str(path)

    def record(obj: dict, line_no: int) -> tuple[str, dict]:
        image_id = obj.get("image_id")
        if type(image_id) is not str or not image_id:
            raise DataError(f"{name}:{line_no}: missing or invalid 'image_id'")
        scores = obj.get("scores")
        if type(scores) is not dict:
            raise DataError(f"{name}:{line_no}: missing or invalid 'scores' object")
        if image_id not in known:
            unknown.append((image_id, line_no))
        return image_id, scores

    row_of: dict[str, int] = {}
    column_of: dict[str, int] = {}
    concepts: dict[str, int] = {}

    def parts() -> Iterator[_Cells]:
        # A chunk passes the bulk checks whole, or is walked record by
        # record, which names its first bad record.
        for first, lines in _iter_jsonl(path, _PREDICTION_CHARS):
            values = _line_values(lines)
            cells = _chunk_cells(values, row_of, column_of, concepts)
            if cells is None:
                cells = _record_cells(
                    _parse_lines(name, first, lines, values, record), row_of, column_of,
                    concepts, lambda line_no: f"{name}:{line_no}",
                )
            elif not known.issuperset(ids := list(map(_IMAGE_ID, values))):
                unknown.extend((i, n) for n, i in enumerate(ids, first) if i not in known)
            yield cells

    matrix = _score_matrix(parts(), row_of, concepts)
    if unknown:
        unknown.sort()
        raise DataError(
            f"{path}: prediction image_ids do not resolve to any annotated image: "
            + ", ".join(i for i, _ in unknown)
            + " (lines " + ", ".join(str(n) for _, n in unknown) + ")"
        )
    return matrix


def validate_dataset(images: Sequence[AnnotatedImage], predictions: ScoreMatrix) -> dict:
    """Cross-check annotations against predictions; reporting only, never mutates.

    Every prediction row must belong to an image in ``images``, as
    ``load_predictions`` ensures. Returns the counts of:
      - ``images_without_labels``: images with no direct labels and no boxes
        (candidates for removal downstream);
      - ``score_coverage_gaps``: concepts that some, but not all, of these
        images have a score for;
      - ``zero_positive_concepts``: scored concepts that appear in no image's
        labels or boxes (compared in canonical form, before any class
        mapping).
    """
    n_scored = len(predictions) - np.count_nonzero(np.isnan(predictions.scores), axis=0)
    # C-level passes over the images; only the boxed images are walked again. An empty
    # label set is counted by equality, so it must be a set, as the field declares.
    labels_of = operator.attrgetter("direct_labels")
    label_sets = list(map(labels_of, images))
    boxed = list(filter(operator.attrgetter("boxes"), images))
    raw_labels: set[str] = set().union(*set(label_sets))
    raw_labels.update(b.raw_label for img in boxed for b in img.boxes)
    without_labels = operator.countOf(label_sets, _NO_LABELS) - operator.countOf(
        map(labels_of, boxed), _NO_LABELS
    )
    label_universe = set(map(canonicalize_label, raw_labels))
    return {
        "images_without_labels": without_labels,
        "score_coverage_gaps": int(np.count_nonzero((n_scored > 0) & (n_scored < len(images)))),
        "zero_positive_concepts": sum(1 for c in predictions.concepts if c not in label_universe),
    }
