import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from disparity_audit import DataError, select_threshold, split_validation_test
from disparity_audit.concepts import map_targets
from disparity_audit.config import THRESHOLD_METRICS
from disparity_audit.data import (
    EXCLUSION_REASONS,
    AnnotatedImage,
    ExclusionReason,
)
from disparity_audit.groups import assign_groups, terms_rule
from disparity_audit.metrics import hit_vector
from disparity_audit.pipeline import (
    compare_results,
    evaluate_hit_rate,
    evaluate_tables,
    load_dataset,
    plan_concepts,
    read_results_csv,
    render_report,
    run_pipeline,
    write_outputs,
    write_results_csv,
)
from disparity_audit.sampling import derive_seed
from disparity_audit.synth import CellSpec, ScenarioSpec, generate

from stubs import run_config, score_matrix, spy_rank_pool


def two_group_plan(cfg, seed=0, n=300, prev_a=0.3, prev_b=0.3):
    cells = {
        "A": CellSpec(prevalence=prev_a, mu_pos=1, sigma_pos=1, mu_neg=0, sigma_neg=1, n=n),
        "B": CellSpec(prevalence=prev_b, mu_pos=1, sigma_pos=1, mu_neg=0, sigma_neg=1, n=n),
    }
    spec = ScenarioSpec(concepts={"c1": cells, "c2": cells}, seed=seed)
    return synth_plan(spec, cfg)


def synth_plan(spec, cfg):
    """The plan of a synthetic scenario."""
    images, assignments, predictions = generate(spec)
    matrix = score_matrix({p.image_id: p.scores for p in predictions})
    return plan_concepts(images, assignments, matrix, cfg)


def cfg_for(tmp_path, mode="reliable", metrics=("ap", "tpr", "fpr"), ratio=(1, 4),
            bootstraps=60, seed=5, scope="pooled", groups=("A", "B")):
    return run_config(
        groups=groups, metrics=tuple(metrics), threshold_scope=scope, ratio=tuple(ratio),
        bootstraps=bootstraps, seed=seed, min_per_group=10, sampling_mode=mode,
        output_dir=tmp_path / "out",
    )


class TestEvaluateTables:
    def test_shapes_and_sign_convention(self, tmp_path):
        cfg = cfg_for(tmp_path)
        plan = two_group_plan(cfg)
        estimates = evaluate_tables(plan, cfg)
        keys = {(e.metric, e.concept) for e in estimates}
        for metric in ("ap", "tpr", "fpr"):
            assert (metric, "c1") in keys and (metric, "aggregate") in keys
        for e in estimates:
            assert (e.group_a, e.group_b) == ("A", "B")
        assert list(plan.sized) == ["c1", "c2"]

    def test_ratio_mode_equalizes_sample_sizes(self, tmp_path):
        cfg = cfg_for(tmp_path, mode="reliable", metrics=("ap",))
        plan = two_group_plan(cfg, prev_a=0.5, prev_b=0.2)
        estimates = evaluate_tables(plan, cfg)
        per = [e for e in estimates if e.concept == "c1"][0]
        sizes = set(per.sample_sizes.values())
        assert len(sizes) == 1  # identical budget across groups
        (p, n), = sizes
        assert n == 4 * p

    def test_thresholds_fixed_from_validation(self, tmp_path):
        cfg = cfg_for(tmp_path, metrics=("tpr", "fpr"))
        plan = two_group_plan(cfg)
        thresholds = plan.sized["c1"].thresholds
        assert thresholds["A"] == thresholds["B"]  # pooled scope

    def test_per_group_scope_thresholds_differ_in_general(self, tmp_path):
        cfg = cfg_for(tmp_path, metrics=("tpr",), scope="per_group")
        plan = two_group_plan(cfg, prev_a=0.5, prev_b=0.1)
        assert set(plan.sized["c1"].thresholds) == {"A", "B"}

    def test_infeasible_budget_skipped_with_reason(self, tmp_path):
        # 27 positives, 3 negatives: ratio 1:4 infeasible
        cfg = cfg_for(tmp_path, mode="reliable", metrics=("ap",))
        plan = two_group_plan(cfg, n=30, prev_a=0.9, prev_b=0.9)
        assert plan.sized == {}
        assert set(plan.skipped) == {"c1", "c2"}
        assert "fewer than the 4 required per ratio unit" in plan.skipped["c1"]
        estimates = evaluate_tables(plan, cfg)
        assert estimates == []


def test_hit_rate_without_hit_values_is_empty(tmp_path, caplog):
    """A plan made without ``hit_rate`` holds no hit values, so no pair
    gets an estimate, and none is warned about."""
    cfg = cfg_for(tmp_path, metrics=("ap",))
    plan = two_group_plan(cfg)
    assert plan.hits == {}
    with caplog.at_level("DEBUG"):
        assert evaluate_hit_rate(plan, cfg) == []
    assert caplog.records == []


class TestMultiGroup:
    def test_all_pairs_estimated_and_spread_nonnegative(self, tmp_path):
        groups = ("Africa", "Americas", "Asia", "Europe")
        cells = {
            g: CellSpec(prevalence=0.3, mu_pos=1 + 0.1 * i, sigma_pos=1,
                        mu_neg=0, sigma_neg=1, n=200)
            for i, g in enumerate(groups)
        }
        spec = ScenarioSpec(concepts={"c1": cells}, seed=2)
        cfg = cfg_for(tmp_path, metrics=("ap",), ratio=(1, 2), groups=groups)
        plan = synth_plan(spec, cfg)
        estimates = evaluate_tables(plan, cfg)
        per = [e for e in estimates if e.concept == "c1"]
        assert {(e.group_a, e.group_b) for e in per} == {
            (a, b) for i, a in enumerate(groups) for b in groups[i + 1:]
        }
        # antisymmetric matrix consistency: per-group full-sample APs exist and
        # the max pairwise reduction is the max-minus-min of those values
        diffs = {(e.group_a, e.group_b): e.full_sample for e in per}
        base = {"Africa": 0.0}
        for (a, b), d in sorted(diffs.items()):
            if a in base and b not in base:
                base[b] = base[a] - d
        spread = max(base.values()) - min(base.values())
        assert spread >= 0
        assert spread == pytest.approx(max(abs(v) for v in diffs.values()), abs=1e-12)


class TestResultsCsv:
    def test_round_trip(self, tmp_path):
        cfg = cfg_for(tmp_path, metrics=("ap",))
        plan = two_group_plan(cfg)
        estimates = evaluate_tables(plan, cfg)
        path = tmp_path / "results.csv"
        write_results_csv(estimates, "custom", path)
        rows = read_results_csv(path)
        assert len(rows) == len(estimates)
        per = [r for r in rows if r["concept"] == "c1"][0]
        est = [e for e in estimates if e.concept == "c1"][0]
        assert per["point"] == pytest.approx(est.point)
        assert per["evaluation_version"] == "custom"


class TestCompare:
    def row(self, concept, point, metric="ap"):
        return {"metric": metric, "concept": concept, "group_a": "A", "group_b": "B",
                "point": point}

    def test_identical_runs_no_flips(self):
        rows = [self.row("c1", 0.1), self.row("c2", -0.2)]
        delta = compare_results(rows, rows)
        assert all(not d["sign_flip"] for d in delta)
        assert all(d["magnitude_delta"] == 0 for d in delta)

    def test_sign_flip_detected(self):
        delta = compare_results([self.row("c1", 0.1)], [self.row("c1", -0.05)])
        assert delta[0]["sign_flip"] is True
        assert delta[0]["magnitude_delta"] == pytest.approx(-0.05)

    def test_three_concept_fixture(self):
        a = [self.row("c1", 0.1), self.row("c2", -0.2), self.row("c3", 0.05)]
        b = [self.row("c1", 0.2), self.row("c2", 0.1), self.row("c3", 0.05)]
        delta = compare_results(a, b)
        by_concept = {d["concept"]: d for d in delta}
        assert by_concept["c1"]["magnitude_delta"] == pytest.approx(0.1)
        assert by_concept["c2"]["sign_flip"] is True
        assert by_concept["c3"]["magnitude_delta"] == 0.0

    def test_disjoint_concepts_error(self):
        with pytest.raises(DataError, match="share no concepts"):
            compare_results([self.row("c1", 0.1)], [self.row("c9", 0.1)])


class TestReport:
    def rows(self):
        out = []
        for i in range(8):
            out.append({
                "metric": "ap", "concept": f"c{i}", "group_a": "A", "group_b": "B",
                "point": (i - 4) / 10, "ci_low": (i - 5) / 10, "ci_high": (i - 3) / 10,
                "significant": i in (0, 7),
            })
        return out

    def test_top_n_ordering(self):
        text = render_report(self.rows(), top_n=3)
        lines = [l for l in text.splitlines() if l.startswith("  c")]
        assert len(lines) == 3
        # |point| order: c0 (-0.4), c7 (+0.3) ... ties by concept key
        assert lines[0].lstrip().startswith("c0")

    def test_empty_results_warns(self):
        assert "no results" in render_report([])

    def test_tie_ordering_stable_by_concept(self):
        rows = [
            {"metric": "ap", "concept": c, "group_a": "A", "group_b": "B",
             "point": 0.2, "ci_low": 0.1, "ci_high": 0.3, "significant": True}
            for c in ("zeta", "alpha", "mid")
        ]
        text = render_report(rows, top_n=3)
        ordered = [l.split()[0] for l in text.splitlines() if l.startswith("  ")]
        assert ordered == ["alpha", "mid", "zeta"]


def synth_workspace(tmp_path: Path, seed=7, n=240, rare=False):
    """Two retained concepts; ``rare`` adds ``c3``, with 12 positives in B
    (below min_per_group 20) and no score on every tenth image."""
    scenario = {
        "seed": seed,
        "concepts": {
            "c1": {
                "A": {"prevalence": 0.3, "mu_pos": 1.2, "sigma_pos": 1, "mu_neg": 0,
                      "sigma_neg": 1, "n": n},
                "B": {"prevalence": 0.3, "mu_pos": 0.8, "sigma_pos": 1, "mu_neg": 0,
                      "sigma_neg": 1, "n": n},
            },
            "c2": {
                "A": {"prevalence": 0.4, "mu_pos": 1, "sigma_pos": 1, "mu_neg": 0,
                      "sigma_neg": 1, "n": n},
                "B": {"prevalence": 0.2, "mu_pos": 1, "sigma_pos": 1, "mu_neg": 0,
                      "sigma_neg": 1, "n": n},
            },
        },
    }
    if rare:
        scenario["concepts"]["c3"] = {
            "A": {"prevalence": 0.3, "mu_pos": 1, "sigma_pos": 1, "mu_neg": 0,
                  "sigma_neg": 1, "n": n},
            "B": {"prevalence": 0.05, "mu_pos": 1, "sigma_pos": 1, "mu_neg": 0,
                  "sigma_neg": 1, "n": n},
        }
    spec = ScenarioSpec.from_dict(scenario)
    images, assignments, predictions = generate(spec)
    ann = tmp_path / "annotations.jsonl"
    with ann.open("w") as f:
        for img in images:
            f.write(json.dumps({
                "image_id": img.image_id,
                "labels": sorted(img.direct_labels),
                "metadata": dict(img.metadata),
            }) + "\n")
    pred = tmp_path / "predictions.jsonl"
    with pred.open("w") as f:
        for i, p in enumerate(predictions):
            scores = {c: v for c, v in p.scores.items() if c != "c3" or i % 10}
            f.write(json.dumps({"image_id": p.image_id, "scores": scores}) + "\n")
    region = tmp_path / "region.json"
    region.write_text(json.dumps({"country_to_group": {"A": "A", "B": "B"}}))
    config = {
        "annotations": "annotations.jsonl",
        "predictions": "predictions.jsonl",
        "group_method": "metadata",
        "metadata_key": "group",
        "region": "region.json",
        "metrics": ["ap", "auc_roc", "tpr", "fpr", "hit_rate"],
        "k": 2,
        "sampling": {"mode": "reliable", "ratio": [1, 2], "bootstraps": 40,
                     "seed": 11, "min_per_group": 20},
        "drop_unlabeled": False,
        "output_dir": "out",
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path


class TestRunPipeline:
    def test_full_run_and_manifest_accounting(self, tmp_path):
        from disparity_audit.config import load_config

        cfg = load_config(synth_workspace(tmp_path))
        estimates, _, manifest = run_pipeline(cfg)
        stages = manifest["stages"]
        ga = stages["group_assignment"]
        assert ga["assigned_total"] + ga["excluded_total"] == stages["ingest"]["images_used"]
        assert stages["concepts"]["retained_after_rare_filter"] == 2
        metrics_seen = {e.metric for e in estimates}
        assert metrics_seen == {"ap", "auc_roc", "tpr", "fpr", "hit_rate"}
        hit = [e for e in estimates if e.metric == "hit_rate"]
        assert len(hit) == 1 and hit[0].concept == "aggregate"

    def test_outputs_written_and_deterministic(self, tmp_path):
        from disparity_audit.config import load_config

        cfg_path = synth_workspace(tmp_path)
        cfg = load_config(cfg_path)
        paths = write_outputs(run_pipeline(cfg), cfg)
        first = {k: p.read_bytes() for k, p in paths.items() if p.is_file()}
        paths = write_outputs(run_pipeline(load_config(cfg_path)), cfg)
        second = {k: p.read_bytes() for k, p in paths.items() if p.is_file()}
        assert first == second
        assert (cfg.output_dir / "plotdata").is_dir()
        plot_files = sorted((cfg.output_dir / "plotdata").glob("*.csv"))
        assert plot_files, "expected per-metric plot data files"
        # plot data sorted by point
        for pf in plot_files:
            lines = pf.read_text().splitlines()[1:]
            points = [float(l.split(",")[1]) for l in lines]
            assert points == sorted(points)

    def test_tables_built_for_retained_concepts_only(self, tmp_path, monkeypatch):
        from disparity_audit import pipeline
        from disparity_audit.config import load_config

        built = []
        size_concept = pipeline.size_concept

        def spy(concept, pools, cfg):
            built.append(concept)
            return size_concept(concept, pools, cfg)

        monkeypatch.setattr(pipeline, "size_concept", spy)
        _, _, manifest = run_pipeline(load_config(synth_workspace(tmp_path, rare=True)))
        concepts = manifest["stages"]["concepts"]
        assert concepts["candidates"] == 3
        assert concepts["retained_after_rare_filter"] == 2
        assert built == ["c1", "c2"]

    def test_plan_counts_are_table_pool_sizes(self, tmp_path):
        from disparity_audit.config import load_config

        cfg = load_config(synth_workspace(tmp_path, rare=True))
        images, predictions, _ = load_dataset(cfg)
        assignments = assign_groups(images, cfg.group_rule)
        plan = plan_concepts(images, assignments, predictions, cfg)
        candidates, counts = tuple(plan.counts), plan.counts
        assert (candidates, plan.unscored, [*plan.sized, *plan.skipped]) == (
            ("c1", "c2", "c3"), (), ["c1", "c2"]
        )
        # a ranking-only baseline plan that retains every candidate draws
        # from the full pools
        every = dataclasses.replace(
            cfg, metrics=("ap",), min_per_group=1, sampling_mode="baseline"
        )
        sized = plan_concepts(images, assignments, predictions, every).sized
        assert list(sized) == list(candidates)
        for c in candidates:
            for g, pool in sized[c].pools.items():
                assert counts[c][g] == (pool.n_pos, pool.n_neg)
        assert counts["c3"]["B"][0] < 20 <= counts["c3"]["A"][0]
        assert sum(counts["c3"]["A"]) < 240  # every tenth image lacks a c3 score

    def test_drop_unlabeled_accounting(self, tmp_path):
        from disparity_audit.config import load_config

        cfg_path = synth_workspace(tmp_path)
        raw = json.loads(cfg_path.read_text())
        raw["drop_unlabeled"] = True
        raw["metrics"] = ["ap"]
        cfg_path.write_text(json.dumps(raw))
        cfg = load_config(cfg_path)
        _, _, manifest = run_pipeline(cfg)
        ingest = manifest["stages"]["ingest"]
        assert ingest["images_dropped_unlabeled"] == ingest["images_without_labels"]
        assert ingest["images_used"] == ingest["images_loaded"] - ingest["images_dropped_unlabeled"]


class TestIngest:
    """The ingest block ``load_dataset`` returns is the manifest's."""

    @staticmethod
    def workspace(tmp_path, drop_unlabeled):
        """Six images in groups A and B. a2 and b1 have no labels; b3 has only
        a box. cat is scored on every image; dog on all but b1; zebra on
        every image but in no label; yak only on a2 and in no label."""
        annotations = [
            {"image_id": "a1", "labels": ["cat"], "metadata": {"group": "A"}},
            {"image_id": "a2", "metadata": {"group": "A"}},
            {"image_id": "a3", "labels": ["cat", "dog"], "metadata": {"group": "A"}},
            {"image_id": "b1", "metadata": {"group": "B"}},
            {"image_id": "b2", "labels": ["dog"], "metadata": {"group": "B"}},
            {"image_id": "b3", "width": 10, "height": 10, "metadata": {"group": "B"},
             "boxes": [{"label": "cat", "w": 5, "h": 5}]},
        ]
        predictions = [
            {"image_id": "a1", "scores": {"cat": 0.9, "dog": 0.1, "zebra": 0.5}},
            {"image_id": "a2", "scores": {"cat": 0.2, "dog": 0.3, "zebra": 0.4, "yak": 0.6}},
            {"image_id": "a3", "scores": {"cat": 0.8, "dog": 0.7, "zebra": 0.1}},
            {"image_id": "b1", "scores": {"cat": 0.3, "zebra": 0.2}},
            {"image_id": "b2", "scores": {"cat": 0.6, "dog": 0.9, "zebra": 0.3}},
            {"image_id": "b3", "scores": {"cat": 0.7, "dog": 0.2, "zebra": 0.6}},
        ]
        for name, records in (("ann.jsonl", annotations), ("pred.jsonl", predictions)):
            (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))
        (tmp_path / "region.json").write_text(
            json.dumps({"country_to_group": {"A": "A", "B": "B"}})
        )
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "annotations": "ann.jsonl", "predictions": "pred.jsonl",
            "group_method": "metadata", "metadata_key": "group", "region": "region.json",
            "metrics": ["ap"], "drop_unlabeled": drop_unlabeled, "output_dir": "out",
        }))
        return cfg_path

    @pytest.mark.parametrize("drop_unlabeled", [True, False])
    def test_ingest_block_counts(self, tmp_path, drop_unlabeled):
        from disparity_audit.config import load_config

        cfg = load_config(self.workspace(tmp_path, drop_unlabeled))
        images, predictions, ingest = load_dataset(cfg)
        # the validation counts are taken before the drop: dog and yak are
        # partially scored, zebra and yak are in no label
        used = 4 if drop_unlabeled else 6
        assert ingest == {
            "images_loaded": 6,
            "images_without_labels": 2,
            "images_dropped_unlabeled": 6 - used,
            "images_used": used,
            "prediction_records": used,
            "score_coverage_gaps": 2,
            "zero_positive_concepts": 2,
        }
        ids = ["a1", "a3", "b2", "b3"] if drop_unlabeled else ["a1", "a2", "a3", "b1", "b2", "b3"]
        assert [img.image_id for img in images] == ids == list(predictions.rows)
        # only a2 scored yak, so its column goes with it
        assert ("yak" in predictions.concepts) is not drop_unlabeled
        assert run_pipeline(cfg)[2]["stages"]["ingest"] == ingest


class TestPlanConcepts:
    """plan_concepts on hand-built records: metadata groups, no class mapping."""

    @staticmethod
    def records():
        rows = [  # image_id, group (None = excluded), labels, scores
            ("a1", "A", {"cat"}, {"cat": 0.9, "dog": 0.2}),
            ("a2", "A", {"dog"}, {"cat": 0.1, "dog": 0.8}),
            ("a3", "A", {"cat"}, {"dog": 0.5}),
            ("b1", "B", {"cat"}, {"cat": 0.7, "dog": 0.3}),
            ("b2", "B", {"owl"}, {"cat": 0.2}),
            ("x1", None, {"cat", "dog"}, {"cat": 0.6, "dog": 0.6}),
        ]
        images = [AnnotatedImage(image_id=i, direct_labels=frozenset(l)) for i, _, l, _ in rows]
        assignments = {
            i: g if g is not None else ExclusionReason.NO_GROUP_EVIDENCE.value
            for i, g, _, _ in rows
        }
        return images, assignments, score_matrix({i: s for i, _, _, s in rows})

    def cfg(self, tmp_path, groups=("A", "B")):
        import dataclasses

        return dataclasses.replace(cfg_for(tmp_path, groups=groups), min_per_group=1)

    def test_counts_skip_excluded_images_and_unscored_rows(self, tmp_path):
        plan = plan_concepts(*self.records(), self.cfg(tmp_path))
        assert plan.counts == {
            "cat": {"A": (1, 1), "B": (1, 1)},
            "dog": {"A": (1, 2), "B": (0, 1)},
        }
        assert [*plan.sized, *plan.skipped] == ["cat"]

    def test_unscored_target_dropped_with_warning(self, tmp_path, caplog):
        with caplog.at_level("WARNING", logger="disparity_audit.pipeline"):
            plan = plan_concepts(*self.records(), self.cfg(tmp_path))
        assert plan.unscored == ("owl",)
        assert "owl" not in plan.counts
        assert "have no scores" in caplog.text and "owl" in caplog.text

    def test_group_without_images_blocks_retention(self, tmp_path):
        plan = plan_concepts(*self.records(), self.cfg(tmp_path, groups=("A", "B", "C")))
        assert plan.counts["cat"]["C"] == plan.counts["dog"]["C"] == (0, 0)
        assert plan.sized == plan.skipped == {}

    @staticmethod
    def woman_first_plan(cfg):
        """The plan, under a terms file that declares ``woman`` before
        ``man``, of 30 captioned images per group. ``lone`` is scored on one
        image per group, a positive, so it has no negative and no validation
        row in either group."""
        rule = terms_rule(
            {"groups": {"woman": ["woman"], "man": ["man"]}}, "captions", exclusions=False
        )
        images, records = [], {}
        for g in ("man", "woman"):
            for k in range(30):
                labels, scores = {"many"} if k < 10 else set(), {"many": (k % 7) / 7}
                if k == 29:
                    labels.add("lone")
                    scores["lone"] = 0.5
                images.append(AnnotatedImage(
                    image_id=f"{g}{k:02d}", captions=(f"a {g} in a park",),
                    direct_labels=frozenset(labels),
                ))
                records[f"{g}{k:02d}"] = scores
        cfg = dataclasses.replace(cfg, group_rule=rule, min_per_group=1)
        return plan_concepts(images, assign_groups(images, rule), score_matrix(records), cfg)

    @pytest.mark.parametrize("scope, named", [
        ("per_group", "group 'woman'"), ("pooled", "groups 'woman', 'man'"),
    ])
    def test_sizing_keeps_an_unsorted_terms_order(self, tmp_path, scope, named):
        """The plan sizes the pools in the terms file's order, and the
        threshold skip of ``lone`` names the groups in it, though ``man``
        sorts first."""
        plan = self.woman_first_plan(cfg_for(tmp_path, metrics=("ap", "tpr"), scope=scope))
        assert list(plan.sized["many"].pools) == ["woman", "man"]
        assert plan.skipped == {
            "lone": f"concept 'lone': {named}: select_threshold needs at least one row"
        }

    def test_budget_skip_names_the_first_group_in_terms_order(self, tmp_path):
        """Both groups' pools of ``lone`` fail the budget; the skip names
        ``woman``, the first in the terms file, though ``man`` sorts first."""
        plan = self.woman_first_plan(cfg_for(tmp_path, metrics=("ap",)))
        assert list(plan.sized) == ["many"]
        assert plan.skipped == {
            "lone": "concept 'lone': group 'woman' has 0 negative(s), fewer than the 4 "
            "required per ratio unit"
        }

    @pytest.mark.parametrize("metrics", [("ap", "tpr"), ("ap",)], ids=["threshold", "budget"])
    def test_a_skipped_concept_ranks_no_pool(self, tmp_path, monkeypatch, metrics):
        """``lone`` is skipped for its threshold, or, with ranking metrics
        only, for its budget, before any of its pools is ranked: the plan
        ranks ``many``'s two pools and no other."""
        ranked = spy_rank_pool(monkeypatch)
        plan = self.woman_first_plan(cfg_for(tmp_path, metrics=metrics))
        assert list(plan.sized) == ["many"] and list(plan.skipped) == ["lone"]
        pools = plan.sized["many"].pools
        assert [labels.size for _, labels, _ in ranked] == [
            pools[g].rank_of_row.size for g in ("woman", "man")
        ]
        assert all(labels.size > 1 for _, labels, _ in ranked)  # lone's pools hold one row


def test_mixed_case_model_key_is_its_labels_concept(tmp_path):
    """Images labelled ``Dog`` and a model class keyed ``Dog`` meet as the
    concept ``dog``: ``map_targets`` finds it scored, the run evaluates it,
    and hit rate counts its column as a target, so every image's top score,
    its own label's, is a hit."""
    from disparity_audit.config import load_config

    images, predictions = [], []
    for g in ("A", "B"):
        for k in range(6):
            label = "Dog" if k % 2 else "cat"
            images.append({"image_id": f"{g}{k}", "labels": [label], "metadata": {"group": g}})
            own, other = 0.6 + 0.05 * k, 0.1 + 0.05 * k
            scores = {"Dog": own, "cat": other} if label == "Dog" else {"Dog": other, "cat": own}
            predictions.append({"image_id": f"{g}{k}", "scores": scores})
    for name, records in (("annotations", images), ("predictions", predictions)):
        (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    (tmp_path / "region.json").write_text(json.dumps({"country_to_group": {"A": "A", "B": "B"}}))
    (tmp_path / "run.json").write_text(json.dumps({
        "annotations": "annotations.jsonl", "predictions": "predictions.jsonl",
        "group_method": "metadata", "metadata_key": "group", "region": "region.json",
        "metrics": ["ap", "hit_rate"],
        "k": 1, "sampling": {"mode": "baseline", "bootstraps": 5, "min_per_group": 1},
        "output_dir": "out",
    }))
    cfg = load_config(tmp_path / "run.json")
    loaded, matrix, _ = load_dataset(cfg)
    assert matrix.concepts == ("cat", "dog")
    targets = map_targets(loaded, assign_groups(loaded, cfg.group_rule), matrix)
    assert (targets.concepts, targets.unscored) == (("cat", "dog"), ())
    estimates, _, manifest = run_pipeline(cfg)
    assert manifest["stages"]["concepts"]["retained_after_rare_filter"] == 2
    assert {(e.metric, e.concept) for e in estimates} == {
        ("ap", "cat"), ("ap", "dog"), ("ap", "aggregate"), ("hit_rate", "aggregate")
    }
    [hit_rate] = [e for e in estimates if e.metric == "hit_rate"]
    assert hit_rate.full_sample == 0.0 and hit_rate.sample_sizes == {"A": (6, 0), "B": (6, 0)}
    plan = plan_concepts(loaded, assign_groups(loaded, cfg.group_rule), matrix, cfg)
    assert all(hits.tolist() == [1.0] * 6 for hits in plan.hits.values())


def test_hit_rate_warnings_name_their_group(tmp_path, caplog):
    # only group B has an image without labels, so without targets; both
    # groups' images have fewer than k scores
    rows = [("a1", "A", {"cat"}), ("a2", "A", {"dog"}), ("b1", "B", {"cat"}),
            ("b2", "B", set())]
    images = [AnnotatedImage(image_id=i, direct_labels=frozenset(l)) for i, _, l in rows]
    assignments = {i: g for i, g, _ in rows}
    predictions = score_matrix({i: {"cat": 0.5, "dog": 0.25} for i, _, _ in rows})
    cfg = dataclasses.replace(cfg_for(tmp_path, metrics=("hit_rate",)), k=5)
    with caplog.at_level("WARNING", logger="disparity_audit.metrics"):
        plan = plan_concepts(images, assignments, predictions, cfg)
    assert [r.getMessage() for r in caplog.records if r.name == "disparity_audit.metrics"] == [
        "hit rate: 2 image(s) of group A scored for fewer than k concepts",
        "hit rate: 1 image(s) of group B with empty target sets excluded",
        "hit rate: 1 image(s) of group B scored for fewer than k concepts",
    ]
    # a hit-rate-only run evaluates no concept, so it retains none
    assert plan.sized == plan.skipped == {}


def test_plan_hits_are_each_groups_hit_vector(tmp_path):
    """``plan.hits`` equals ``hit_vector`` over each group's rows of the
    full score matrix, with the candidates' target mask placed in their
    columns; ``emu`` is scored but never a target, ``parrot`` a target
    that nothing scores."""
    rows = [  # image_id, group, labels, scores (None: no prediction record)
        ("a1", "A", {"cat"}, {"cat": 0.9, "dog": 0.8, "emu": 0.7}),
        ("a2", "A", {"owl"}, {"emu": 0.9, "cat": 0.8, "owl": 0.1}),
        ("a3", "A", {"dog"}, {"dog": 0.3}),
        ("b1", "B", set(), {"cat": 0.5}),
        ("b2", "B", {"cat"}, {"dog": 0.6, "emu": 0.6, "cat": 0.5}),
        ("b3", "B", {"owl", "cat"}, None),
        ("c1", "C", {"dog"}, {"dog": 0.2, "owl": 0.4, "cat": 0.1}),
        ("c2", "C", {"parrot"}, {"cat": 0.9}),
    ]
    images = [AnnotatedImage(image_id=i, direct_labels=frozenset(l)) for i, _, l, _ in rows]
    assignments = {i: g for i, g, _, _ in rows}
    predictions = score_matrix({i: s for i, _, _, s in rows if s is not None})
    groups = ("A", "B", "C")
    cfg = dataclasses.replace(cfg_for(tmp_path, metrics=("ap", "hit_rate"), groups=groups), k=2)
    plan = plan_concepts(images, assignments, predictions, cfg)

    targets = map_targets(images, assignments, predictions)
    assert targets.unscored == ("parrot",) and "emu" not in targets.concepts
    for g in groups:
        in_group = targets.groups == g
        scores = predictions.take_rows(targets.rows[in_group])
        is_target = np.zeros(scores.shape, dtype=bool)
        is_target[:, targets.columns] = targets.targets[in_group]
        want = hit_vector(scores, is_target, targets.has_targets[in_group], cfg.k, group=g)
        assert plan.hits[g].tolist() == want.tolist()
    # b1 has no target and b3 no score; ties break by concept id (b2: dog, emu)
    assert {g: h.tolist() for g, h in plan.hits.items()} == {
        "A": [1.0, 0.0, 1.0], "B": [0.0], "C": [1.0, 0.0],
    }
    without = plan_concepts(images, assignments, predictions, cfg_for(tmp_path, groups=groups))
    assert without.hits == {}


class TestRareLabelRule:
    """A concept is retained when every group has at least ``min_per_group``
    scored positives."""

    @staticmethod
    def retained(positives, min_per_group, unscored=()):
        """The concepts retained from one concept ``c`` with the given
        positives per group and as many negatives; the positives of the
        ``unscored`` groups have no score for ``c``."""
        images, assignments, records = [], {}, {}
        for g, n in positives.items():
            for k in range(2 * n):
                image_id = f"{g}{k:03d}"
                images.append(AnnotatedImage(
                    image_id=image_id, direct_labels=frozenset({"c"} if k < n else {"x"})
                ))
                assignments[image_id] = g
                unscored_positive = g in unscored and k < n
                records[image_id] = {"x": 0.5} if unscored_positive else {"c": k / (2 * n)}
        cfg = run_config(
            groups=tuple(positives), min_per_group=min_per_group, sampling_mode="baseline"
        )
        plan = plan_concepts(images, assignments, score_matrix(records), cfg)
        return [*plan.sized, *plan.skipped]

    def test_retained_when_every_group_clears_the_floor(self):
        assert self.retained({"A": 60, "B": 55}, 50) == ["c"]

    def test_dropped_one_short(self):
        assert self.retained({"A": 49, "B": 80}, 50) == []

    def test_dropped_when_a_group_has_no_scored_positive(self):
        assert self.retained({"A": 60, "B": 60}, 50, unscored={"B"}) == []
        assert self.retained({"A": 60, "B": 60}, 50) == ["c"]


class TestPlanPools:
    """The plan is the one place that builds and ranks pools: for every
    sized concept and group, its validation rows and the rows it ranks for
    the draws split exactly the group's scored, assigned rows, positives
    first and each class in image-id order, and the thresholds are selected
    on the validation rows. A skipped concept ranks nothing."""

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(10, 40), min_size=2, max_size=3),
        prevalences=st.lists(st.floats(0.2, 0.8), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
        gap=st.integers(2, 9),
        metrics=st.sampled_from([("ap", "auc_roc"), ("ap", "tpr"), ("f1",)]),
        scope=st.sampled_from(["pooled", "per_group"]),
        mode=st.sampled_from(["baseline", "reliable"]),
        fraction=st.sampled_from([0.2, 0.5]),
    )
    def test_pools_split_each_groups_scored_rows(
        self, sizes, prevalences, seed, gap, metrics, scope, mode, fraction
    ):
        groups = [f"g{i}" for i in range(len(sizes))]
        law = dict(mu_pos=1, sigma_pos=1, mu_neg=0, sigma_neg=1)
        spec = ScenarioSpec(concepts={
            f"c{j}": {g: CellSpec(prevalence=p, n=n, **law) for g, n in zip(groups, sizes)}
            for j, p in enumerate(prevalences)
        }, seed=seed)
        images, assignments, records = generate(spec)
        # every gap-th image is excluded, and every (gap + 1)-th score dropped
        excluded = ExclusionReason.NO_GROUP_EVIDENCE.value
        assignments = {
            i: g if k % gap else excluded for k, (i, g) in enumerate(assignments.items())
        }
        cells = itertools.count()
        score = {
            r.image_id: {c: v for c, v in r.scores.items() if next(cells) % (gap + 1)}
            for r in records
        }
        cfg = run_config(
            groups=groups, metrics=metrics, threshold_scope=scope, sampling_mode=mode,
            ratio=(1, 2), validation_fraction=fraction, min_per_group=1, seed=seed,
        )
        with pytest.MonkeyPatch.context() as mp:
            ranked = spy_rank_pool(mp)
            plan = plan_concepts(images, assignments, score_matrix(score), cfg)
        event(f"sized {len(plan.sized)} of {len(plan.sized) + len(plan.skipped)} retained")

        # image rows index the assigned images in id order
        group_of = {i: g for i, g in assignments.items() if g not in EXCLUSION_REASONS}
        ids = sorted(group_of)
        label_sets = {img.image_id: img.direct_labels for img in images}
        split = any(m in THRESHOLD_METRICS for m in metrics)
        calls = iter(ranked)
        for c, sizing in plan.sized.items():
            validation = {}
            for g in groups:
                # the (scores, labels, image rows) the plan ranks, in order
                parts = [next(calls)]
                pool = sizing.pools[g]
                assert (pool.n_pos, pool.n_neg) == (
                    np.count_nonzero(parts[0][1]), np.count_nonzero(~parts[0][1])
                )
                if split:
                    # the group's full pool, rebuilt from the records, split
                    # under the plan's seed
                    rows = [r for r, i in enumerate(ids) if group_of[i] == g and c in score[i]]
                    rows.sort(key=lambda r: c not in label_sets[ids[r]])  # stable: positives first
                    rows = np.array(rows, dtype=np.int64)
                    full_scores = np.array([score[ids[r]][c] for r in rows])
                    full_labels = np.array([c in label_sets[ids[r]] for r in rows], dtype=bool)
                    val, _ = split_validation_test(
                        full_labels, fraction, derive_seed(seed, "split", c, g)
                    )
                    validation[g] = (full_scores[val], full_labels[val], rows[val])
                    parts.insert(0, validation[g])
                rows = [set(image_rows.tolist()) for _, _, image_rows in parts]
                assert sum(map(len, rows)) == sum(image_rows.size for _, _, image_rows in parts)
                assert len(set.union(*rows)) == sum(map(len, rows))  # disjoint
                assert set.union(*rows) == {
                    r for r, i in enumerate(ids) if group_of[i] == g and c in score[i]
                }
                for scores, labels, image_rows in parts:
                    pool_ids = [ids[r] for r in image_rows]
                    positive = [c in label_sets[i] for i in pool_ids]
                    assert labels.tolist() == positive
                    assert positive == sorted(positive, reverse=True)  # positives first
                    assert scores.tolist() == [score[i][c] for i in pool_ids]
                    for class_rows in np.split(image_rows, [sum(positive)]):
                        assert np.all(np.diff(class_rows) > 0)
                scores = parts[-1][0]
                cut = np.count_nonzero(scores >= sizing.thresholds[g]) if split else None
                assert pool.cut == cut
            expected = {}
            scopes = [groups] if scope == "pooled" else [[g] for g in groups]
            for part in scopes if split else []:
                threshold, _ = select_threshold(
                    np.concatenate([validation[g][0] for g in part]),
                    np.concatenate([validation[g][1] for g in part]),
                )
                expected.update(dict.fromkeys(part, threshold))
            assert sizing.thresholds == expected
        assert next(calls, None) is None  # a skipped concept ranks no pool
