"""Workload definitions and input generation.

Each workload is a synthetic scenario built with ``synth.ScenarioSpec`` and a
run config for ``disparity-audit run``. The ``--seed`` of a benchmark run picks
scenario ``seed % SCENARIOS`` (whose outputs were recorded as reference
artifacts under ``perfbench/reference/``) and, from the full seed, the line
order of both input files and the key order of every score object. The
pipeline's outputs do not depend on either order, so every seed has a
reference while no two seeds write the same input bytes.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCENARIOS = 8
SKEWED = {"alpha": 0.3, "beta": 0.1, "gamma": 0.05}  # ROADMAP's S prevalences
# 8 positives in gamma at 1500 images: below the rare-label floor of 30
RARE_IN_GAMMA = {"alpha": 0.04, "beta": 0.02, "gamma": 0.005}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # concept -> group -> prevalence, for every cell of the scenario
    prevalences: dict[str, dict[str, float]]
    images_per_group: int
    config: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="skew",
            why="thousands of small fixed-prevalence draws; stresses sampling and metric kernels, small ingest",
            prevalences={f"c{i:02d}": SKEWED for i in range(4)},
            images_per_group=3000,
            config={
                "evaluation_version": "reliable",
                "metrics": ["ap", "auc_roc", "tpr", "fpr"],
                "sampling": {"min_per_group": 30, "bootstraps": 250},
            },
        ),
        Workload(
            name="wide",
            why="200 scored concepts with most filtered as rare; stresses ingest, validation, tables and top-k hit rate",
            # Three concepts clear the rare-label floor; the other 197 are
            # loaded, validated and tabled, then filtered out, as in real
            # label vocabularies.
            prevalences={f"w{i:03d}": SKEWED if i < 3 else RARE_IN_GAMMA for i in range(200)},
            images_per_group=1500,
            config={
                "evaluation_version": "reliable",
                "metrics": ["ap", "hit_rate"],
                "sampling": {"min_per_group": 30, "bootstraps": 50},
            },
        ),
        Workload(
            name="deep",
            why="few concepts with 10k-image pools resampled whole; stresses per-row kernels and threshold selection",
            prevalences={f"d{i}": SKEWED for i in range(3)},
            images_per_group=10000,
            config={
                "evaluation_version": "baseline",
                "metrics": ["ap", "auc_roc", "tpr", "fpr"],
                "sampling": {"min_per_group": 30, "bootstraps": 20},
            },
        ),
    )
}


def scenario_spec(workload: Workload, scenario: int):
    """The synth scenario for one scenario index: N(1,1) positives against
    N(0,1) negatives in every cell, logistic-squashed."""
    from disparity_audit.synth import CellSpec, ScenarioSpec

    concepts = {
        concept: {
            g: CellSpec(
                prevalence=p, mu_pos=1.0, sigma_pos=1.0, mu_neg=0.0, sigma_neg=1.0,
                n=workload.images_per_group,
            )
            for g, p in cells.items()
        }
        for concept, cells in workload.prevalences.items()
    }
    return ScenarioSpec(concepts=concepts, seed=scenario)


def run_config(workload: Workload, scenario: int) -> dict:
    """Config for ``disparity-audit run``; every path is relative to the
    config file, so the manifest does not depend on where inputs live."""
    cfg = copy.deepcopy(workload.config)
    cfg["sampling"]["seed"] = scenario
    cfg.update(
        annotations="annotations.jsonl",
        predictions="predictions.jsonl",
        group_method="metadata",
        metadata_key="group",
        region="region.json",
        drop_unlabeled=False,
        output_dir="out",
    )
    return cfg


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict:
    """Generate the workload's inputs for ``seed`` into ``directory``.

    Returns a description of the inputs: generator parameters, file sizes,
    score-cell count and the sha256 of both JSONL files.
    """
    from disparity_audit.synth import generate

    scenario = seed % SCENARIOS
    spec = scenario_spec(workload, scenario)
    images, _, predictions = generate(spec)
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)

    ann_path = directory / "annotations.jsonl"
    with ann_path.open("w", encoding="utf-8") as f:
        for i in rng.permutation(len(images)):
            img = images[i]
            f.write(json.dumps({
                "image_id": img.image_id,
                "labels": sorted(img.direct_labels),
                "metadata": dict(img.metadata),
            }) + "\n")

    concepts = list(spec.concepts)
    cells = 0
    pred_path = directory / "predictions.jsonl"
    with pred_path.open("w", encoding="utf-8") as f:
        key_orders = np.argsort(rng.random((len(predictions), len(concepts))), axis=1)
        for row, i in enumerate(rng.permutation(len(predictions))):
            rec = predictions[i]
            scores = {concepts[j]: rec.scores[concepts[j]] for j in key_orders[row]}
            cells += len(scores)
            f.write(json.dumps({"image_id": rec.image_id, "scores": scores}) + "\n")

    with (directory / "region.json").open("w", encoding="utf-8") as f:
        json.dump({"country_to_group": {g: g for g in spec.groups}}, f)
    with (directory / "config.json").open("w", encoding="utf-8") as f:
        json.dump(run_config(workload, scenario), f, indent=2, sort_keys=True)

    return {
        "workload": workload.name,
        "seed": seed,
        "scenario": scenario,
        "generator": {
            "images_per_group": workload.images_per_group,
            "groups": list(spec.groups),
            "concepts": len(concepts),
            "prevalences": sorted(
                {json.dumps(c, sort_keys=True) for c in workload.prevalences.values()}
            ),
            "score_laws": {"mu_pos": 1.0, "sigma_pos": 1.0, "mu_neg": 0.0, "sigma_neg": 1.0},
            "synth_seed": scenario,
        },
        "config": run_config(workload, scenario),
        "score_cells": cells,
        "input_mb": (ann_path.stat().st_size + pred_path.stat().st_size) / 1e6,
        "sha256": {
            "annotations.jsonl": _sha256(ann_path),
            "predictions.jsonl": _sha256(pred_path),
        },
    }
