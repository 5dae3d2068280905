import dataclasses
import gc
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from disparity_audit import cli, pipeline
from disparity_audit.cli import main
from disparity_audit.config import (
    DEFAULTS, PRESETS, config_hash, load_config, resolve_config_dict,
)
from disparity_audit.groups import assign_groups
from disparity_audit.pipeline import (
    load_dataset,
    plan_concepts,
    read_results_csv,
)

from corpus import expected_assignments, write_corpus
from stubs import spy_rank_pool

ROOT = Path(__file__).resolve().parents[1]
TERMS = ROOT / "configs" / "terms_coco_captions.json"


RESULTS_HEADER = (
    "metric,concept,group_a,group_b,point,ci_low,ci_high,significant,full_sample"
)
RESULTS_ROW = "ap,c1,A,B,0.1,0.05,0.2,true,0.12"


@pytest.fixture
def workspace(tmp_path):
    scenario = {
        "seed": 3,
        "concepts": {
            "c1": {
                "A": {"prevalence": 0.4, "mu_pos": 1.5, "sigma_pos": 1, "mu_neg": 0,
                      "sigma_neg": 1, "n": 150},
                "B": {"prevalence": 0.2, "mu_pos": 1.0, "sigma_pos": 1, "mu_neg": 0,
                      "sigma_neg": 1, "n": 150},
            },
            # 5 positives in B: below min_per_group 10, so filtered as rare
            "c2": {
                "A": {"prevalence": 0.4, "mu_pos": 1.0, "sigma_pos": 1, "mu_neg": 0,
                      "sigma_neg": 1, "n": 150},
                "B": {"prevalence": 0.03, "mu_pos": 1.0, "sigma_pos": 1, "mu_neg": 0,
                      "sigma_neg": 1, "n": 150},
            },
        },
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    assert main(["synth", "--scenario", str(scenario_path),
                 "--output", str(tmp_path / "data")]) == 0
    config = {
        "annotations": "data/annotations.jsonl",
        "predictions": "data/predictions.jsonl",
        "group_method": "metadata",
        "metadata_key": "group",
        "region": "data/region_identity.json",
        "metrics": ["ap", "tpr"],
        "sampling": {"mode": "reliable", "ratio": [1, 2], "bootstraps": 30,
                     "seed": 4, "min_per_group": 10},
        "drop_unlabeled": False,
        "output_dir": "out",
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    return tmp_path, cfg_path


class TestSubcommands:
    def test_run_writes_all_artifacts(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        assert main(["run", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        for name in ("results.csv", "manifest.json", "exclusions.csv", "report.txt"):
            assert (out / name).exists(), name
        assert list((out / "plotdata").glob("*.csv"))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "disparity-audit"
        assert "config_hash" in manifest

    def test_assign_groups_csv(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        assert main(["assign-groups", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "out" / "assignments.csv").read_text().splitlines()
        assert lines[0] == "image_id,outcome,group_or_reason"
        assert len(lines) == 301  # 300 images + header
        assert all(",assigned," in l for l in lines[1:])

    def test_synth_files_load_as_generated(self, workspace):
        """The files ``synth`` writes load as the data ``generate`` made:
        the same images in the same order, and every score bit for bit."""
        from disparity_audit.synth import ScenarioSpec, generate

        tmp_path, cfg_path = workspace
        spec = ScenarioSpec.from_file(tmp_path / "scenario.json")
        images, _, records = generate(spec)
        loaded, matrix, _ = load_dataset(load_config(cfg_path))
        assert [(i.image_id, i.direct_labels, i.metadata) for i in loaded] == [
            (i.image_id, i.direct_labels, i.metadata) for i in images
        ]
        assert matrix.concepts == ("c1", "c2")
        assert list(matrix.rows) == [r.image_id for r in records]
        for r, row in zip(records, matrix.scores.tolist(), strict=True):
            assert list(map(float.hex, row)) == [r.scores[c].hex() for c in matrix.concepts]

    def test_map_targets(self, workspace):
        tmp_path, cfg_path = workspace
        assert main(["map", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "out" / "targets.jsonl").read_text().splitlines()
        assert len(lines) == 300
        first = json.loads(lines[0])
        assert set(first) == {"image_id", "targets"}

    def test_sample_plan(self, workspace):
        tmp_path, cfg_path = workspace
        assert main(["sample-plan", "--config", str(cfg_path)]) == 0
        plan = json.loads((tmp_path / "out" / "sample_plan.json").read_text())
        assert plan["mode"] == "reliable"
        c1 = plan["concepts"]["c1"]
        assert c1["retained"] is True
        # A has 60 pos / 90 neg, B 30 / 120. tpr needs a 20% validation
        # split, so the draws sample the test rows: A 48 / 72, B 24 / 96,
        # and the 1:2 budget is 24 / 48.
        assert c1["pools"] == {"A": [60, 90], "B": [30, 120]}
        assert c1["evaluated"] == {"A": [48, 72], "B": [24, 96]}
        assert c1["budget"] == [24, 48]
        c2 = plan["concepts"]["c2"]
        assert c2["retained"] is False and "budget" not in c2 and "evaluated" not in c2
        # c2's counts are the sizes of the pools a plan that retains it builds
        cfg = dataclasses.replace(
            load_config(cfg_path), metrics=("ap",), min_per_group=1, sampling_mode="baseline"
        )
        images, predictions, _ = load_dataset(cfg)
        retained = plan_concepts(images, assign_groups(images, cfg.group_rule), predictions, cfg)
        pools = retained.sized["c2"].pools
        assert c2["pools"] == {g: [pools[g].n_pos, pools[g].n_neg] for g in ("A", "B")}
        assert c2["pools"]["B"] == [5, 145]

    def test_sample_plan_hit_rate_only_retains_nothing(self, workspace):
        """``run`` evaluates no concept when hit rate is the only metric, so
        ``sample-plan`` retains none and gives no budget."""
        tmp_path, cfg_path = workspace
        raw = json.loads(cfg_path.read_text())
        raw["metrics"] = ["hit_rate"]
        cfg_path.write_text(json.dumps(raw))
        assert main(["sample-plan", "--config", str(cfg_path)]) == 0
        plan = json.loads((tmp_path / "out" / "sample_plan.json").read_text())
        assert set(plan["concepts"]) == {"c1", "c2"}
        for entry in plan["concepts"].values():
            assert entry["retained"] is False and "budget" not in entry
        assert main(["run", "--config", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["stages"]["concepts"]["retained_after_rare_filter"] == 0

    def test_evaluate_then_report_and_compare(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        assert main(["evaluate", "--config", str(cfg_path),
                     "--output", str(tmp_path / "e1")]) == 0
        assert main(["evaluate", "--config", str(cfg_path), "--seed", "99",
                     "--output", str(tmp_path / "e2")]) == 0
        capsys.readouterr()
        assert main(["report", "--results", str(tmp_path / "e1" / "results.csv")]) == 0
        report_text = capsys.readouterr().out
        assert "ap: A vs B" in report_text
        assert main(["compare", "--a", str(tmp_path / "e1" / "results.csv"),
                     "--b", str(tmp_path / "e2" / "results.csv"),
                     "--out", str(tmp_path / "delta.csv")]) == 0
        delta_lines = (tmp_path / "delta.csv").read_text().splitlines()
        assert delta_lines[0].startswith("metric,concept")
        assert len(delta_lines) > 1

    def test_run_deterministic_bytes(self, workspace):
        tmp_path, cfg_path = workspace
        assert main(["run", "--config", str(cfg_path)]) == 0
        results1 = (tmp_path / "out" / "results.csv").read_bytes()
        manifest1 = (tmp_path / "out" / "manifest.json").read_bytes()
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "results.csv").read_bytes() == results1
        assert (tmp_path / "out" / "manifest.json").read_bytes() == manifest1

    def test_preset_flag_expands(self, workspace):
        tmp_path, cfg_path = workspace
        raw = json.loads(cfg_path.read_text())
        del raw["sampling"]
        raw["metrics"] = ["ap"]
        cfg2 = tmp_path / "run2.json"
        cfg2.write_text(json.dumps(raw))
        # reliable preset: K=50 exceeds the 30 positives of group B -> nothing retained
        assert main(["run", "--config", str(cfg2), "--preset", "reliable",
                     "--output", str(tmp_path / "preset_out")]) == 0
        manifest = json.loads((tmp_path / "preset_out" / "manifest.json").read_text())
        assert manifest["config"]["evaluation_version"] == "reliable"
        assert manifest["config"]["sampling"]["ratio"] == [1, 5]
        assert manifest["stages"]["concepts"]["retained_after_rare_filter"] == 0

    def test_preset_box_filter_of_another_variant_is_replaced(self, workspace):
        tmp_path, cfg_path = workspace
        raw = json.loads(cfg_path.read_text())
        raw["box_filter"] = {"variant": "min_area_pixels", "threshold": 900}
        cfg2 = tmp_path / "run2.json"
        cfg2.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg2), "--preset", "reliable",
                     "--output", str(tmp_path / "preset_out")]) == 0
        manifest = json.loads((tmp_path / "preset_out" / "manifest.json").read_text())
        assert manifest["config"]["box_filter"] == {"variant": "min_area_pixels", "threshold": 900}
        assert manifest["config_hash"] == config_hash(manifest["config"])


@pytest.mark.parametrize("preset,box_filter,resolved", [
    # another variant replaces the preset's object whole
    ("reliable", {"variant": "min_area_pixels", "threshold": 600},
     {"variant": "min_area_pixels", "threshold": 600}),
    ("v1", {"variant": "relative_area", "use_min": 0.1, "ignore_max": 0.01},
     {"variant": "relative_area", "use_min": 0.1, "ignore_max": 0.01}),
    # the same variant, or none named, merges into it
    ("reliable", {"variant": "relative_area", "use_min": 0.1},
     {"variant": "relative_area", "use_min": 0.1, "ignore_max": 0.02}),
    ("v1", {"threshold": 900}, {"variant": "min_area_pixels", "threshold": 900}),
    (None, {"variant": "min_area_pixels", "threshold": 600},
     {"variant": "min_area_pixels", "threshold": 600}),
])
def test_box_filter_merges_only_into_its_own_variant(preset, box_filter, resolved):
    assert resolve_config_dict({"box_filter": box_filter}, preset=preset)["box_filter"] == resolved


RELATIVE_AREA = {"variant": "relative_area", "use_min": 0.05, "ignore_max": 0.02}


@pytest.mark.parametrize("preset,box_filter,exclusions,mode", [
    ("baseline", {"variant": "none"}, False, "baseline"),
    ("v1", {"variant": "min_area_pixels", "threshold": 600}, False, "baseline"),
    ("v2", RELATIVE_AREA, False, "baseline"),
    ("v3", RELATIVE_AREA, True, "baseline"),
    ("reliable", RELATIVE_AREA, True, "reliable"),
])
def test_presets_state_only_their_rungs_changes(preset, box_filter, exclusions, mode):
    """Each rung names only the values it changes from ``DEFAULTS`` and
    resolves to the ladder's full parameter set; a resolved config shares
    no object with the presets."""
    for key, value in PRESETS[preset].items():
        if isinstance(value, dict) and "variant" not in value:
            assert all(DEFAULTS[key][k] != v for k, v in value.items()), key
        else:
            assert DEFAULTS[key] != value, key
    resolved = resolve_config_dict({}, preset=preset)
    assert resolved == {
        **DEFAULTS, "box_filter": box_filter, "apply_term_exclusions": exclusions,
        "sampling": {**DEFAULTS["sampling"], "mode": mode}, "evaluation_version": preset,
    }
    assert resolved["sampling"]["bootstraps"] == 250 and resolved["sampling"]["min_per_group"] == 50
    resolved["box_filter"]["use_min"] = resolved["sampling"]["mode"] = None
    assert PRESETS["v3"]["box_filter"] == RELATIVE_AREA
    assert resolve_config_dict({}, preset=preset)["box_filter"] == box_filter


def test_ingest_order_does_not_change_artifacts(workspace):
    """One scenario written as-is and with shuffled line order and shuffled
    score-key order gives byte-identical artifacts, hit rate included; every
    seventh image lacks its c2 score, so some cells are missing."""
    import random

    tmp_path, cfg_path = workspace
    data = tmp_path / "data"
    annotations = data.joinpath("annotations.jsonl").read_text().splitlines()
    predictions = [json.loads(line) for line in data.joinpath("predictions.jsonl").open()]
    for i, record in enumerate(predictions):
        if i % 7 == 0:
            del record["scores"]["c2"]
    raw = json.loads(cfg_path.read_text())
    raw["metrics"] = ["ap", "tpr", "hit_rate"]
    rng = random.Random(11)
    outputs = {}
    for name, shuffle in (("as_is", False), ("shuffled", True)):
        root = tmp_path / name
        (root / "data").mkdir(parents=True)
        ann, preds = list(annotations), [dict(r) for r in predictions]
        if shuffle:
            rng.shuffle(ann)
            rng.shuffle(preds)
            for r in preds:
                items = list(r["scores"].items())
                rng.shuffle(items)
                r["scores"] = dict(items)
        (root / "data" / "annotations.jsonl").write_text("\n".join(ann) + "\n")
        (root / "data" / "predictions.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in preds)
        )
        (root / "data" / "region_identity.json").write_bytes(
            (data / "region_identity.json").read_bytes()
        )
        (root / "run.json").write_text(json.dumps(raw))
        assert main(["run", "--config", str(root / "run.json")]) == 0
        outputs[name] = {
            f: (root / "out" / f).read_bytes()
            for f in ("results.csv", "manifest.json", "report.txt")
        }
    assert outputs["as_is"] == outputs["shuffled"]
    manifest = json.loads(outputs["as_is"]["manifest.json"])
    assert manifest["stages"]["ingest"]["score_coverage_gaps"] == 1
    assert b"hit_rate" in outputs["as_is"]["results.csv"]


def _run_sizes(row, groups):
    """Each group's ``[n_pos, n_neg]`` per draw, as a results row gives it:
    one number when every group has it, else ``group=n`` pairs."""
    def per_group(text):
        if "=" not in text:
            return dict.fromkeys(groups, int(text))
        return {g: int(n) for g, n in (part.split("=") for part in text.split(";"))}

    pos, neg = per_group(row["n_pos_per_group"]), per_group(row["n_neg_per_group"])
    return {g: [pos[g], neg[g]] for g in groups}


@pytest.mark.parametrize("metrics, sampling", [
    (["ap", "tpr"], {}),
    (["ap"], {}),
    (["ap", "tpr"], {"mode": "baseline"}),
    # c2 is retained, and its 4 test positives in B cannot host a 5:2 unit
    (["ap", "tpr"], {"min_per_group": 5, "ratio": [5, 2]}),
], ids=["threshold-reliable", "ranking-reliable", "threshold-baseline", "threshold-skip"])
def test_sample_plan_agrees_with_run(workspace, monkeypatch, metrics, sampling):
    """``sample-plan`` writes the sizes the run draws: its budget is the
    run's per-group sample size, ``evaluated`` the pools the draws come from,
    and its skip reasons the manifest's."""
    tmp_path, cfg_path = workspace
    raw = json.loads(cfg_path.read_text())
    raw["metrics"] = metrics
    raw["sampling"].update(sampling)
    cfg_path.write_text(json.dumps(raw))
    assert main(["sample-plan", "--config", str(cfg_path)]) == 0
    plan = json.loads((tmp_path / "out" / "sample_plan.json").read_text())["concepts"]

    ranked = spy_rank_pool(monkeypatch)  # each pool the run draws from
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    rows = [r for r in read_results_csv(out / "results.csv") if r["concept"] != "aggregate"]

    evaluated = {c: e for c, e in plan.items() if "evaluated" in e}
    pools = [n for c in sorted(evaluated) for _, n in sorted(evaluated[c]["evaluated"].items())]
    assert [[np.count_nonzero(y), np.count_nonzero(~y)] for _, y, _ in ranked] == pools
    assert {r["concept"] for r in rows} == set(evaluated)
    for row in rows:
        entry = evaluated[row["concept"]]
        budget = entry.get("budget")
        expected = entry["evaluated"] if budget is None else dict.fromkeys(("A", "B"), budget)
        assert _run_sizes(row, ("A", "B")) == expected
        assert ("budget" in entry) == (raw["sampling"]["mode"] == "reliable")
    skipped = {c: e["skip_reason"] for c, e in plan.items() if "skip_reason" in e}
    assert skipped == manifest["stages"]["concepts"]["skipped"]
    if "ratio" in sampling:
        assert list(skipped) == ["c2"] and "4 positive(s)" in skipped["c2"]
    elif metrics == ["ap"]:
        assert evaluated["c1"]["budget"] == [30, 60]
    elif "mode" not in sampling:
        assert evaluated["c1"]["budget"] == [24, 48]


def one_positive_workspace(tmp_path, scope, mode):
    """Metadata groups A and B of 60 images each, at ``min_per_group`` 1.
    ``many`` has 20 positives per group. ``solo1``-``solo4`` have one
    positive per group among 5, 9, 12 and 20 scored images, so their splits
    fall back to unstratified ones. ``lone`` is scored on one image per
    group, a positive: no validation row and no negative."""
    rng = np.random.default_rng(7)
    solo = {"solo1": 5, "solo2": 9, "solo3": 12, "solo4": 20}
    annotations, predictions = [], []
    for g in ("A", "B"):
        for k in range(60):
            labels = ["bg"] + (["many"] if k < 20 else [])
            labels += [c for j, c in enumerate(solo) if k == j]
            scores = {"many": round(float(rng.random()), 3)}
            for c, n in solo.items():
                if k < n:
                    scores[c] = round(float(rng.random()), 3)
            if k == 59:
                labels.append("lone")
                scores["lone"] = 0.5
            annotations.append({"image_id": f"{g}{k:02d}", "labels": labels,
                                "metadata": {"group": g}})
            predictions.append({"image_id": f"{g}{k:02d}", "scores": scores})
    for name, records in (("ann.jsonl", annotations), ("pred.jsonl", predictions)):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    (tmp_path / "region.json").write_text(json.dumps({"country_to_group": {"A": "A", "B": "B"}}))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "annotations": "ann.jsonl", "predictions": "pred.jsonl",
        "group_method": "metadata", "metadata_key": "group", "region": "region.json",
        "metrics": ["ap", "tpr"], "threshold_scope": scope, "drop_unlabeled": False,
        "sampling": {"mode": mode, "ratio": [1, 2], "bootstraps": 20, "seed": 6,
                     "min_per_group": 1},
        "output_dir": "out",
    }))
    return cfg_path


NO_ROW = "select_threshold needs at least one row"
NO_POSITIVE = "select_threshold needs at least one positive row"


def _threshold_skip(concept, groups, why):
    """A threshold skip reason names the concept and the groups in scope."""
    named = ", ".join(repr(g) for g in groups)
    return f"concept {concept!r}: group{'s' if len(groups) > 1 else ''} {named}: {why}"


def _no_test_positive(concept):
    return (f"concept {concept!r}: group 'A' has 0 positive(s), "
            "fewer than the 1 required per ratio unit")


@pytest.mark.parametrize("scope, mode, skipped", [
    ("pooled", "reliable", {
        "lone": _threshold_skip("lone", "AB", NO_ROW),
        "solo1": _threshold_skip("solo1", "AB", NO_POSITIVE),
        "solo2": _no_test_positive("solo2"), "solo3": _no_test_positive("solo3"),
        "solo4": _threshold_skip("solo4", "AB", NO_POSITIVE),
    }),
    ("per_group", "baseline", {
        "lone": _threshold_skip("lone", "A", NO_ROW),
        "solo1": _threshold_skip("solo1", "A", NO_POSITIVE),
        "solo2": _threshold_skip("solo2", "B", NO_POSITIVE),
        "solo4": _threshold_skip("solo4", "A", NO_POSITIVE),
    }),
    ("per_group", "reliable", {
        "lone": _threshold_skip("lone", "A", NO_ROW),
        "solo1": _threshold_skip("solo1", "A", NO_POSITIVE),
        "solo2": _threshold_skip("solo2", "B", NO_POSITIVE),
        "solo3": _no_test_positive("solo3"),
        "solo4": _threshold_skip("solo4", "A", NO_POSITIVE),
    }),
])
def test_skips_keep_their_reasons_and_order(tmp_path, caplog, scope, mode, skipped):
    """The manifest's skip reasons, warned in concept order. The threshold
    precondition is checked before the budget, so ``lone``, which has no
    validation row and no negative to budget, reports the threshold message.
    ``sample-plan`` gives the same reasons, in either mode."""
    cfg_path = one_positive_workspace(tmp_path, scope, mode)
    with caplog.at_level("WARNING", logger="disparity_audit.pipeline"):
        assert main(["run", "--config", str(cfg_path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["stages"]["concepts"]["retained_after_rare_filter"] == 6
    assert manifest["stages"]["concepts"]["skipped"] == skipped
    warned = [r.getMessage() for r in caplog.records if r.getMessage().startswith("skipping")]
    assert warned == [f"skipping concept {c}: {why}" for c, why in sorted(skipped.items())]
    assert main(["sample-plan", "--config", str(cfg_path)]) == 0
    plan = json.loads((tmp_path / "out" / "sample_plan.json").read_text())["concepts"]
    assert plan["lone"]["pools"] == {"A": [1, 0], "B": [1, 0]}
    assert {c: e["skip_reason"] for c, e in plan.items() if "skip_reason" in e} == skipped


class TestExitCodes:
    def test_missing_config_is_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        (b'{"metrics": ', "is not valid JSON"),
        (b'{"metrics": ["caf\xe9"]}', "is not valid JSON"),
        (b'["ap"]', "must hold a JSON object, got list"),
    ], ids=["malformed", "not-utf8", "not-object"])
    def test_unreadable_config_is_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "run.json"
        path.write_bytes(text)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert message in err and str(path) in err

    def test_bad_data_is_3(self, tmp_path, capsys):
        (tmp_path / "ann.jsonl").write_text("{broken\n")
        (tmp_path / "pred.jsonl").write_text("")
        (tmp_path / "region.json").write_text(json.dumps({"country_to_group": {"A": "A"}}))
        cfg = {
            "annotations": "ann.jsonl", "predictions": "pred.jsonl",
            "group_method": "metadata", "region": "region.json",
            "metrics": ["ap"], "drop_unlabeled": False,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_unknown_metric_is_2(self, tmp_path, capsys):
        (tmp_path / "ann.jsonl").write_text("")
        (tmp_path / "pred.jsonl").write_text("")
        (tmp_path / "region.json").write_text(json.dumps({"country_to_group": {"A": "A"}}))
        cfg = {
            "annotations": "ann.jsonl", "predictions": "pred.jsonl",
            "group_method": "metadata", "region": "region.json",
            "metrics": ["nonsense"],
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_synth_missing_scenario_is_3(self, tmp_path, capsys):
        assert main(["synth", "--scenario", str(tmp_path / "missing.json")]) == 3

    @pytest.mark.parametrize("text,message", [
        ('{"seed": 1, "concepts": ', "is not valid JSON"),
        ("[1]", "must hold a JSON object, got list"),
        ('{"seed": 1, "concepts": {"c": {"A": {"prevalence": 0.5, "mu_pos": 1, '
         '"sigma_pos": 1, "mu_neg": 0, "n": 20}}}}', "('c', 'A') has no 'sigma_neg'"),
        ('{"seed": 1, "concepts": {"c": {"A": {"prevalence": 0.5, "mu_pos": 1, '
         '"sigma_pos": 1, "mu_neg": 0, "sigma_neg": 1, "n": 2.7}}}}',
         "('c', 'A'): 'n' must be an integer, got 2.7"),
    ], ids=["malformed", "not-object", "missing-field", "float-n"])
    def test_malformed_scenario_is_3(self, tmp_path, capsys, text, message):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert main(["synth", "--scenario", str(path), "--output", str(tmp_path / "s")]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err and message in err

    @pytest.mark.parametrize("text,message", [
        (None, "manifest file not found"),
        ('{"stages": ', "is not valid JSON"),
        ("[1]", "must hold a JSON object, got list"),
        ('{"stages": 5}', "'stages' must hold a JSON object, got int"),
        ('{"stages": {"group_assignment": []}}',
         "'group_assignment' must hold a JSON object, got list"),
        ('{"stages": {"group_assignment": {"summary": [1, 2]}}}',
         "'summary' must hold a JSON object, got list"),
    ], ids=["missing", "malformed", "not-object", "stages", "group_assignment", "summary"])
    def test_malformed_manifest_is_3(self, tmp_path, capsys, text, message):
        results = tmp_path / "results.csv"
        results.write_text(f"{RESULTS_HEADER}\n{RESULTS_ROW}\n")
        manifest = tmp_path / "manifest.json"
        if text is not None:
            manifest.write_text(text)
        argv = ["report", "--results", str(results), "--manifest", str(manifest)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
        assert message in err and str(manifest) in err

    @pytest.mark.parametrize("text,message", [
        ('{"country_to_group": ', "is not valid JSON"),
        ('{"country_to_group": {"A": "A", "B": null}}',
         "country_to_group['B'] must be a non-empty string, got None"),
    ], ids=["malformed", "null-group"])
    def test_malformed_region_file_is_2(self, workspace, capsys, text, message):
        tmp_path, cfg_path = workspace
        (tmp_path / "data" / "region_identity.json").write_text(text)
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err and message in err

    @pytest.mark.parametrize("section,key,value", [
        ("sampling", "bootstraps", "many"),
        ("sampling", "min_per_group", "x"),
        ("sampling", "seed", "s"),
        ("sampling", "bootstraps", 2.7),
        ("sampling", "seed", True),
        ("sampling", "bootstraps", 0),
        ("sampling", "min_per_group", 0),
        (None, "k", 2.7),
        (None, "top_n", True),
        (None, "top_n", -1),
    ])
    def test_malformed_integer_field_is_2(self, workspace, capsys, section, key, value):
        tmp_path, cfg_path = workspace
        raw = json.loads(cfg_path.read_text())
        (raw[section] if section else raw)[key] = value
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and repr(value) in err


    @pytest.mark.parametrize("key,value", [
        ("validation_fraction", "abc"),
        ("validation_fraction", True),
        ("drop_unlabeled", "false"),
        ("drop_unlabeled", 0),
        ("strict_mapping", "no"),
        ("metadata_key", 5),
        ("metadata_key", ""),
        ("sampling", 5),
        ("sampling", [1]),
        ("sampling", None),
        ("box_filter", "none"),
        ("box_filter", {"variant": "min_area_pixels"}),
        ("box_filter", {"variant": "min_area_pixels", "threshold": "abc"}),
        ("box_filter", {"variant": "relative_area", "use_min": True, "ignore_max": 0.02}),
        ("box_filter", {"variant": "min_area_pixels", "threshold": float("nan")}),
        ("box_filter", {"variant": "min_area_pixels", "threshold": float("inf")}),
        ("box_filter", {"variant": "relative_area", "use_min": 0.05,
                        "ignore_max": float("-inf")}),
        ("apply_term_exclusions", "false"),
        ("apply_term_exclusions", 1),
        ("metrics", 5),
        ("metrics", "ap"),
        ("metrics", ["ap", "ap"]),
        ("metrics", [["ap"]]),
        ("metrics", [{"ap": 1}]),
        ("evaluation_version", ["reliable"]),
        ("evaluation_version", {"a": 1}),
        ("output_dir", 5),
        ("output_dir", ["x"]),
        # a falsy value is not an absent key: it is not read as the default
        ("evaluation_version", []),
        ("evaluation_version", False),
        ("evaluation_version", 0),
        ("evaluation_version", ""),
        ("evaluation_version", None),
        ("output_dir", 0),
        ("output_dir", False),
        ("output_dir", []),
        ("output_dir", ""),
        ("mapping", False),
        ("mapping", 0),
        ("mapping", ""),
        ("mapping", []),
        ("mapping", {}),
    ])
    def test_malformed_scalar_field_is_2(self, workspace, capsys, key, value):
        tmp_path, cfg_path = workspace
        raw = json.loads(cfg_path.read_text())
        raw[key] = value
        cfg_path.write_text(json.dumps(raw))
        for command in ("run", "sample-plan"):
            for seed in ([], ["--seed", "3"]):
                assert main([command, "--config", str(cfg_path), *seed]) == 2
                err = capsys.readouterr().err
                assert "config error" in err and "Traceback" not in err
                assert key in err and repr(value) in err

    @pytest.mark.parametrize("section,key,value", [
        (None, "metric", ["auc_roc"]),
        (None, "bootstraps", 7),
        ("sampling", "bootstrap", 7),
        ("sampling", "threshold_scope", "per_group"),
    ])
    def test_unknown_config_key_is_2(self, workspace, capsys, section, key, value):
        tmp_path, cfg_path = workspace
        raw = json.loads(cfg_path.read_text())
        (raw[section] if section else raw)[key] = value
        cfg_path.write_text(json.dumps(raw))
        for command in ("run", "sample-plan"):
            assert main([command, "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "Traceback" not in err
            name = f"{section}.{key}" if section else key
            assert f"unknown config key(s): {name!r}" in err
        assert not (tmp_path / "out").exists()

    def test_metrics_string_is_not_read_as_letters(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        raw = json.loads(cfg_path.read_text())
        raw["metrics"] = "ap"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "metrics must be a non-empty list of metric names, got 'ap'" in err
        assert "unknown metrics" not in err

    def test_report_negative_top_n_is_2(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_text(f"{RESULTS_HEADER}\n{RESULTS_ROW}\n")
        assert main(["report", "--results", str(path), "--top-n", "-1"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "--top-n must be >= 0, got -1" in err

    @pytest.mark.parametrize("text,line,column", [
        ("concept,group_a,group_b,point\nc1,A,B,0.1\n", 1, "'metric'"),
        ("metric,group_a,group_b,point\nap,A,B,0.1\n", 1, "'concept'"),
        ("metric,concept,group_b,point\nap,c1,B,0.1\n", 1, "'group_a'"),
        ("metric,concept,group_a,point\nap,c1,A,0.1\n", 1, "'group_b'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW}\nap,c2\n", 3, "'group_a'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW}\nap,c2,A,B,high,0,0.2,false,\n", 3, "'point'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW}\nap,c2,A,B,0.1,-,0.2,false,\n", 3, "'ci_low'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW}\nap,c2,A,B,0.1,0,0.2x,false,\n", 3, "'ci_high'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW}\nap,c2,A,B,0.1,0,0.2,false,n/a\n", 3,
         "'full_sample'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW}\nap,c2,A,B,0.3,0,0.5\n{RESULTS_ROW}\n", 4,
         "repeats the metric, concept, group_a, group_b of line 2"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW}\nap,c2,A,B,nan,0,0.2,false,\n", 3,
         "column 'point' is not a finite number: 'nan'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW}\nap,c2,A,B,0.1,inf,0.2,false,\n", 3,
         "column 'ci_low' is not a finite number: 'inf'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW}\nap,c2,A,B,0.1,0,-inf,false,\n", 3,
         "column 'ci_high' is not a finite number: '-inf'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW}\nap,c2,A,B,0.1,0,0.2,false,NaN\n", 3,
         "column 'full_sample' is not a finite number: 'NaN'"),
    ], ids=["no-metric", "no-concept", "no-group_a", "no-group_b", "short-row",
            "point", "ci_low", "ci_high", "full_sample", "repeated-key",
            "nan", "inf", "-inf", "full_sample-nan"])
    def test_malformed_results_file_is_3(self, tmp_path, capsys, text, line, column):
        path = tmp_path / "results.csv"
        path.write_text(text)
        for argv in (["report", "--results", str(path)],
                     ["compare", "--a", str(path), "--b", str(path)]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert "data error" in err and "Traceback" not in err
            assert f"{path}:{line}: " in err and column in err

    def test_results_file_not_utf8_is_3(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_bytes(f"{RESULTS_HEADER}\n{RESULTS_ROW}\n".encode()
                         + b"ap,caf\xe9,A,B,0.1,0.05,0.2,true,0.12\n")
        for argv in (["report", "--results", str(path)],
                     ["compare", "--a", str(path), "--b", str(path)]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert "data error" in err and "Traceback" not in err
            assert f"{path}:3: invalid UTF-8 (byte 0xe9)" in err

    def test_report_missing_bound_is_blank(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_text(f"{RESULTS_HEADER}\nap,c1,A,B,0.1,,0.2\nap,c2,A,B,0.3,0.1,,true\n"
                        "ap,aggregate,A,B,0.2,,,false\n")
        assert main(["report", "--results", str(path)]) == 0
        out = capsys.readouterr().out
        assert "+0.1000  [, +0.2000]\n" in out
        assert "+0.3000  [+0.1000, ] *\n" in out
        assert "A vs B: +0.2000  [, ]\n" in out

    def test_results_file_without_later_columns_loads(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_text("metric,concept,group_a,group_b,point,ci_low,ci_high,significant\n"
                        "ap,c1,A,B,0.1,0.05,0.2,true\n")
        assert main(["report", "--results", str(path)]) == 0
        assert "c1" in capsys.readouterr().out
        assert main(["compare", "--a", str(path), "--b", str(path)]) == 0
        assert "1 shared rows, 0 sign flip(s)" in capsys.readouterr().out

    def test_malformed_term_exclusions_flag_is_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        raw = json.loads(cfg_path.read_text())
        raw.update(group_method="captions", terms=str(TERMS), apply_term_exclusions="false")
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "apply_term_exclusions" in err and "'false'" in err

    @pytest.mark.parametrize("key,value", [
        ("excluded_terms", []),
        ("excluded_terms", 0),
        ("excluded_terms", False),
        ("neutral_exclusion_terms", 0),
        ("neutral_exclusion_terms", {}),
    ])
    def test_falsy_terms_file_value_is_2(self, workspace, capsys, key, value):
        """Only an absent key or ``null`` reads as no terms."""
        tmp_path, cfg_path = workspace
        terms = json.loads(TERMS.read_text())
        terms_path = tmp_path / "terms.json"
        raw = json.loads(cfg_path.read_text())
        raw.update(group_method="captions", terms=str(terms_path))
        cfg_path.write_text(json.dumps(raw))
        rest = {k: v for k, v in terms.items() if k != key}
        for none in (rest, {**rest, key: None}):
            terms_path.write_text(json.dumps(none))
            assert main(["sample-plan", "--config", str(cfg_path)]) == 0
        terms_path.write_text(json.dumps({**rest, key: value}))
        for command in ("run", "sample-plan"):
            assert main([command, "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "Traceback" not in err
            assert f"terms config: {key!r} must be" in err and f"got {value!r}" in err

    def test_huge_integer_score_is_3(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        pred_path = tmp_path / "data" / "predictions.jsonl"
        lines = pred_path.read_text().splitlines()
        record = json.loads(lines[1])
        lines[1] = json.dumps(record).replace(
            json.dumps(record["scores"]["c2"]), "1" + "0" * 400
        )
        pred_path.write_text("\n".join(lines) + "\n")
        assert main(["run", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
        assert f"{pred_path}:2: score for 'c2' is too large" in err

    @pytest.mark.parametrize("name,line,message", [
        ("annotations", b'{"image_id": "caf\xe9"}', "invalid UTF-8 (byte 0xe9)"),
        ("predictions", b'{"image_id": "x", "scores": ' + b"[" * 5000,
         "malformed JSON (nested too deeply)"),
        ("annotations", b'{"image_id": "A-\\ud800"}',
         "string 'A-\\ud800' holds a lone surrogate, which UTF-8 cannot encode"),
        ("predictions", b'{"image_id": "x", "scores": {"c1\\udc00": 0.5}}',
         "string 'c1\\udc00' holds a lone surrogate, which UTF-8 cannot encode"),
    ])
    def test_undecodable_line_is_3(self, workspace, capsys, name, line, message):
        tmp_path, cfg_path = workspace
        path = tmp_path / "data" / f"{name}.jsonl"
        lines = path.read_bytes().splitlines()
        lines[2] = line
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        assert main(["run", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
        assert f"{path}:3: {message}" in err

    @pytest.mark.parametrize("key", ["annotations", "predictions"])
    def test_input_file_that_is_a_directory_is_3(self, workspace, capsys, key):
        tmp_path, cfg_path = workspace
        raw = json.loads(cfg_path.read_text())
        raw[key] = "data"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert f"[run] file error: {tmp_path / 'data'}: Is a directory" in err

    def test_report_results_that_is_a_directory_is_3(self, tmp_path, capsys):
        assert main(["report", "--results", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"[report] file error: {tmp_path}: Is a directory" in err

    @pytest.mark.parametrize("command", ["run", "evaluate"])
    def test_output_that_is_a_file_is_3(self, workspace, capsys, command):
        tmp_path, cfg_path = workspace
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main([command, "--config", str(cfg_path), "--output", str(taken)]) == 3
        err = capsys.readouterr().err
        assert f"[{command}] file error: {taken}: File exists" in err
        assert taken.read_text() == ""

    def test_empty_terms_group_name_is_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        terms = json.loads(TERMS.read_text())
        terms["groups"] = {"": terms["groups"]["man"], "woman": terms["groups"]["woman"]}
        terms["excluded_terms"] = {"woman": terms["excluded_terms"]["woman"]}
        terms_path = tmp_path / "terms.json"
        terms_path.write_text(json.dumps(terms))
        raw = json.loads(cfg_path.read_text())
        raw.update(group_method="captions", terms=str(terms_path))
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: terms config: 'groups' has a group with an empty name" in err

    def test_lone_surrogate_id_is_3_before_assignments_are_written(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        path = tmp_path / "data" / "annotations.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        lines[0] = json.dumps(dict(record, image_id=record["image_id"] + "\ud800"))
        path.write_text("\n".join(lines) + "\n")
        assert main(["assign-groups", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
        assert f"{path}:1: string " in err and "lone surrogate" in err
        assert not (tmp_path / "out" / "assignments.csv").exists()


def test_plot_files_of_two_pairs_may_not_collide(tmp_path, capsys):
    """Groups ``a b`` and ``a_b`` have one plot file name, so the pairs
    (``a b``, ``z``) and (``a_b``, ``z``) would share a file: ``run`` and
    ``report --output`` fail before writing any plot file."""
    cell = {"prevalence": 0.4, "mu_pos": 1, "sigma_pos": 1, "mu_neg": 0, "sigma_neg": 1,
            "n": 60}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(
        {"seed": 1, "concepts": {"c": {g: cell for g in ("a b", "a_b", "z")}}}
    ))
    assert main(["synth", "--scenario", str(scenario), "--output", str(tmp_path / "data")]) == 0
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "annotations": "data/annotations.jsonl", "predictions": "data/predictions.jsonl",
        "group_method": "metadata", "metadata_key": "group",
        "region": "data/region_identity.json", "metrics": ["ap"], "output_dir": "out",
        "sampling": {"bootstraps": 10, "min_per_group": 5},
    }))
    capsys.readouterr()
    plot_file = Path("plotdata") / "ap__a_b_vs_z.csv"
    message = "would hold both ('ap', 'a b', 'z') and ('ap', 'a_b', 'z')"
    assert main(["run", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(tmp_path / "out" / plot_file) in err and message in err
    assert not list((tmp_path / "out").glob("plotdata/*"))

    results = tmp_path / "out" / "results.csv"
    assert main(["report", "--results", str(results), "--output", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert str(tmp_path / "r" / plot_file) in err and message in err
    assert not list((tmp_path / "r").glob("plotdata/*"))


def aggregate_workspace(tmp_path, positives_b):
    """Metadata groups A and B of 40 images each, every image labelled
    ``aggregate`` or ``dog`` and scored on both. A has 20 ``aggregate``
    positives and B ``positives_b``, at ``min_per_group`` 5."""
    rng = np.random.default_rng(3)
    annotations, predictions = [], []
    for g, positives in (("A", 20), ("B", positives_b)):
        for k in range(40):
            image_id = f"{g}{k:02d}"
            label = "aggregate" if k < positives else "dog"
            annotations.append({"image_id": image_id, "labels": [label],
                                "metadata": {"group": g}})
            scores = {c: round(float(rng.random()), 3) for c in ("aggregate", "dog")}
            predictions.append({"image_id": image_id, "scores": scores})
    for name, records in (("ann.jsonl", annotations), ("pred.jsonl", predictions)):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    (tmp_path / "region.json").write_text(json.dumps({"country_to_group": {"A": "A", "B": "B"}}))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "annotations": "ann.jsonl", "predictions": "pred.jsonl",
        "group_method": "metadata", "metadata_key": "group", "region": "region.json",
        "metrics": ["ap"], "drop_unlabeled": False, "output_dir": "out",
        "sampling": {"mode": "reliable", "ratio": [1, 1], "bootstraps": 10, "seed": 2,
                     "min_per_group": 5},
    }))
    return cfg_path


@pytest.mark.parametrize("command, artifact", [
    ("run", "results.csv"), ("evaluate", "results.csv"), ("sample-plan", "sample_plan.json"),
])
def test_evaluated_concept_named_aggregate_is_3(tmp_path, capsys, command, artifact):
    """Its row would share the aggregate row's key, so the run stops before
    writing anything."""
    cfg_path = aggregate_workspace(tmp_path, positives_b=20)
    assert main([command, "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert f"[{command}] data error: concept 'aggregate' would be evaluated" in err
    assert "reserved for the aggregate row" in err
    assert not (tmp_path / "out" / artifact).exists()


def test_rare_concept_named_aggregate_runs(tmp_path, capsys):
    """With 2 positives in B, ``aggregate`` is rare: only ``dog`` is
    evaluated, and the one aggregate row per metric and pair is dog's."""
    cfg_path = aggregate_workspace(tmp_path, positives_b=2)
    assert main(["run", "--config", str(cfg_path)]) == 0
    rows = read_results_csv(tmp_path / "out" / "results.csv")
    assert [(r["metric"], r["concept"]) for r in rows] == [("ap", "aggregate"), ("ap", "dog")]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["stages"]["concepts"]["retained_after_rare_filter"] == 1


def test_terms_declaration_order_sets_the_direction(tmp_path):
    """A captions terms file that declares ``woman`` before ``man`` makes
    ``woman`` group_a in every row, per-concept, aggregate and hit rate;
    each point is the negation of the run that declares ``man`` first."""
    annotations, predictions = [], []
    for group in ("man", "woman"):
        for i in range(40):
            image_id = f"{group}-{i:02d}"
            annotations.append({"image_id": image_id, "labels": ["dog"] if i % 2 else ["cat"],
                                "captions": [f"a {group} in a park"]})
            shift = 0.1 if group == "woman" else 0.0
            predictions.append({"image_id": image_id, "scores": {
                "cat": round((i % 7) / 7 + shift, 3), "dog": round((i % 5) / 5, 3),
            }})
    for name, records in (("ann.jsonl", annotations), ("pred.jsonl", predictions)):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    terms = json.loads(TERMS.read_text())
    points = {}
    for first, second in (("woman", "man"), ("man", "woman")):
        terms["groups"] = {g: terms["groups"][g] for g in (first, second)}
        (tmp_path / "terms.json").write_text(json.dumps(terms))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "annotations": "ann.jsonl", "predictions": "pred.jsonl",
            "group_method": "captions", "terms": "terms.json", "output_dir": first,
            "metrics": ["ap", "tpr", "hit_rate"], "k": 1, "threshold_scope": "per_group",
            "drop_unlabeled": False,
            "sampling": {"mode": "reliable", "ratio": [1, 1], "bootstraps": 10, "seed": 1,
                         "min_per_group": 5},
        }))
        assert main(["run", "--config", str(cfg_path)]) == 0
        out = tmp_path / first
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"]["group_assignment"]["groups"] == [first, second]
        rows = read_results_csv(out / "results.csv")
        assert {(r["metric"], r["concept"]) for r in rows} == {
            (m, c) for m in ("ap", "tpr") for c in ("aggregate", "cat", "dog")
        } | {("hit_rate", "aggregate")}
        assert {(r["group_a"], r["group_b"]) for r in rows} == {(first, second)}
        points[first] = {(r["metric"], r["concept"]): r["point"] for r in rows}
    assert points["woman"] == {k: -v for k, v in points["man"].items()}


def test_concept_scored_only_on_excluded_image(tmp_path, monkeypatch):
    """Target ``z`` of an assigned image is scored only on an image excluded
    from group assignment: it is a candidate with zero scored positives, so
    the rare-label filter drops it and no pool is built for it."""
    annotations, predictions = [], []
    for group in ("man", "woman"):
        for i in range(40):
            image_id = f"{group}-{i:02d}"
            labels = ["dog"] if i % 2 else ["cat"]
            annotations.append({"image_id": image_id, "labels": labels,
                                "captions": [f"a {group} in a park"]})
            predictions.append({"image_id": image_id,
                                "scores": {"cat": (i % 7) / 7, "dog": (i % 5) / 5}})
    annotations[0]["labels"].append("z")
    annotations.append({"image_id": "crowd", "labels": ["dog"], "captions": ["some people"]})
    predictions.append({"image_id": "crowd", "scores": {"cat": 0.5, "dog": 0.5, "z": 0.5}})
    for name, records in (("ann.jsonl", annotations), ("pred.jsonl", predictions)):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "annotations": "ann.jsonl", "predictions": "pred.jsonl",
        "group_method": "captions", "terms": str(TERMS),
        "metrics": ["ap"], "drop_unlabeled": False, "output_dir": "out",
        "sampling": {"mode": "reliable", "ratio": [1, 1], "bootstraps": 10,
                     "seed": 1, "min_per_group": 5},
    }))
    built = []
    size_concept = pipeline.size_concept

    def spy(concept, pools, cfg):
        built.append(concept)
        return size_concept(concept, pools, cfg)

    monkeypatch.setattr(pipeline, "size_concept", spy)

    assert main(["run", "--config", str(cfg_path)]) == 0
    concepts = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]["concepts"]
    assert concepts["candidates"] == 3
    assert concepts["retained_after_rare_filter"] == 2
    assert main(["sample-plan", "--config", str(cfg_path)]) == 0
    z = json.loads((tmp_path / "out" / "sample_plan.json").read_text())["concepts"]["z"]
    assert z["retained"] is False
    assert z["pools"] == {"man": [0, 0], "woman": [0, 0]}
    assert "z" not in built and set(built) == {"cat", "dog"}


@pytest.mark.parametrize("method", ["boxes", "captions"])
def test_presets_assign_the_corpus(tmp_path, capsys, method):
    """Each preset's box filter and term exclusions reach assignment from a
    config file: on the 30-image corpus, ``assign-groups`` writes the
    corpus's expected outcomes (``reliable`` those of ``v3``), and ``run``
    counts the same outcomes in its manifest and writes the excluded ones,
    sorted by image id, to ``exclusions.csv``."""
    cfg_path = write_corpus(tmp_path, method)
    for preset in PRESETS:
        expected = expected_assignments(method, "v3" if preset == "reliable" else preset)
        out = tmp_path / preset
        args = ["--config", str(cfg_path), "--preset", preset, "--output", str(out)]
        assert main(["assign-groups", *args]) == 0
        rows = (out / "assignments.csv").read_text().splitlines()
        assert rows[0] == "image_id,outcome,group_or_reason"
        got = {i: (outcome, value) for i, outcome, value in (r.split(",") for r in rows[1:])}
        assert got == expected, preset
        assert main(["run", *args]) == 0
        summary = json.loads((out / "manifest.json").read_text())["stages"]["group_assignment"]
        counts = [value for _, value in expected.values()]
        assert {k: v for k, v in summary["summary"].items() if v} == {
            value: counts.count(value) for value in set(counts)
        }, preset
        excluded = [
            f"{i},excluded,{value}" for i, (outcome, value) in sorted(expected.items())
            if outcome == "excluded"
        ]
        assert (out / "exclusions.csv").read_text().splitlines() == [
            "image_id,outcome,group_or_reason", *excluded
        ], preset


class TestEntry:
    """A process runs ``cli.entry``, which freezes the import-time heap and
    then runs ``main``. ``gc.freeze`` is patched in each test, so the test
    session itself is never frozen."""

    def test_package_main_freezes_once_then_exits_with_mains_code(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("disparity_audit", run_name="__main__")
        assert exit_.value.code == 3
        assert calls == ["freeze", "main"]

    def test_main_as_a_library_does_not_freeze(self, workspace, monkeypatch):
        _, cfg_path = workspace
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert calls == []

    def test_console_script_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
        assert project["scripts"] == {"disparity-audit": "disparity_audit.cli:entry"}


_SYNTH_NAMES = {"CellSpec", "PredictionRecord", "ScenarioSpec", "closed_form_auc", "generate"}


class TestImports:
    """Importing the CLI, as every run does, imports nothing that only the
    ``synth`` subcommand or exact fractions would need."""

    @staticmethod
    def fresh(code: str) -> str:
        """What ``code`` prints in a new interpreter that imports from ``src``."""
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_import_leaves_out_synth_fractions_and_decimal(self):
        assert self.fresh(
            "import sys, disparity_audit.cli; "
            "print(sorted({'disparity_audit.synth', 'fractions', 'decimal'} & set(sys.modules)))"
        ) == "[]"

    def test_package_names_and_synths_own(self):
        """A star import binds every ``__all__`` name and each resolves;
        ``synth``'s names come from ``disparity_audit.synth`` alone, which
        importing the package does not load."""
        assert self.fresh(
            "import sys; from disparity_audit import *; import disparity_audit as d; "
            "print('disparity_audit.synth' in sys.modules, "
            "sorted(n for n in d.__all__ if n not in globals() or not hasattr(d, n)))"
        ) == "False []"
        import disparity_audit
        from disparity_audit import synth

        assert all(callable(getattr(synth, name)) for name in _SYNTH_NAMES)
        assert _SYNTH_NAMES.isdisjoint(vars(disparity_audit))
