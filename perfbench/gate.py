"""Correctness gate: compare a run's artifacts with recorded reference artifacts.

``results.csv`` rows are keyed by (metric, concept, group_a, group_b); the key
sets must be equal, non-float columns must match exactly and float columns
within ``FLOAT_TOLERANCE``. Every key of the reference ``manifest.json`` must
be present with an equal value. Columns and keys that the reference lacks are
allowed, so artifacts may grow.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

FLOAT_TOLERANCE = 1e-12
FLOAT_COLUMNS = ("point", "ci_low", "ci_high", "full_sample")
KEY_COLUMNS = ("metric", "concept", "group_a", "group_b")


def _rows(text: str) -> tuple[list[str], dict[tuple, dict]]:
    reader = csv.DictReader(io.StringIO(text))
    rows: dict[tuple, dict] = {}
    for row in reader:
        key = tuple(row.get(k) for k in KEY_COLUMNS)
        if key in rows:
            raise ValueError(f"duplicate results row {key}")
        rows[key] = row
    return list(reader.fieldnames or []), rows


def _float_close(a: str, b: str) -> bool:
    if a == "" or b == "":
        return a == b
    return abs(float(a) - float(b)) <= FLOAT_TOLERANCE


def compare_results(reference: str, actual: str) -> list[str]:
    """Mismatches between two ``results.csv`` texts; empty when they agree."""
    ref_columns, ref_rows = _rows(reference)
    act_columns, act_rows = _rows(actual)
    problems = [f"results.csv lacks column {c!r}" for c in ref_columns if c not in act_columns]
    if problems:
        return problems
    for key in sorted(ref_rows.keys() - act_rows.keys()):
        problems.append(f"results.csv lacks row {key}")
    for key in sorted(act_rows.keys() - ref_rows.keys()):
        problems.append(f"results.csv has unexpected row {key}")
    for key in sorted(ref_rows.keys() & act_rows.keys()):
        ref, act = ref_rows[key], act_rows[key]
        for column in ref_columns:
            same = (
                _float_close(ref[column], act[column])
                if column in FLOAT_COLUMNS
                else ref[column] == act[column]
            )
            if not same:
                problems.append(
                    f"results.csv {key} {column}: expected {ref[column]!r}, got {act[column]!r}"
                )
    return problems


def compare_manifest(reference, actual, path: str = "manifest") -> list[str]:
    """Every reference key present with an equal value; extra keys allowed.

    ``config_hash`` digests ``config``; it is compared only when the two
    ``config`` objects are equal, because a config key added later changes
    the hash without changing any reference value.
    """
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        problems = []
        for key, value in reference.items():
            if key not in actual:
                problems.append(f"{path}.{key}: missing")
            elif key == "config_hash" and reference.get("config") != actual.get("config"):
                continue
            else:
                problems.extend(compare_manifest(value, actual[key], f"{path}.{key}"))
        return problems
    if reference != actual:
        return [f"{path}: expected {reference!r}, got {actual!r}"]
    return []


def check_against_reference(reference_dir: Path, out_dir: Path) -> list[str]:
    """Compare ``out_dir``'s results.csv and manifest.json with the reference."""
    for name in ("results.csv", "manifest.json"):
        if not (reference_dir / name).is_file():
            return [f"no reference artifact {reference_dir / name}"]
        if not (out_dir / name).is_file():
            return [f"run wrote no {name}"]
    try:
        problems = compare_results(
            (reference_dir / "results.csv").read_text(encoding="utf-8"),
            (out_dir / "results.csv").read_text(encoding="utf-8"),
        )
        with (reference_dir / "manifest.json").open(encoding="utf-8") as f:
            ref_manifest = json.load(f)
        with (out_dir / "manifest.json").open(encoding="utf-8") as f:
            problems += compare_manifest(ref_manifest, json.load(f))
    except ValueError as e:  # duplicate rows, non-numeric floats, bad JSON
        return [f"unreadable artifact: {e}"]
    return problems


def artifact_digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under ``out_dir``, keyed by relative path."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }
