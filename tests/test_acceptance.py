"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (one line per criterion) or
directly with ``python3 tests/test_acceptance.py``.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from disparity_audit import (
    compute_budget,
    pair_disparity,
    rank_pool,
    ranked_metrics,
    select_threshold,
    significance_flag,
)
from disparity_audit.cli import main as cli_main
from disparity_audit.data import EXCLUSION_REASONS
from disparity_audit.groups import assign_groups
from disparity_audit.metrics import _rate_arrays
from disparity_audit.pipeline import evaluate_tables, plan_concepts
from disparity_audit.sampling import derive_rng
from disparity_audit.synth import CellSpec, ScenarioSpec, generate

from corpus import (
    BOX_CASES,
    CAPTION_CASES,
    VERSIONS,
    box_rule,
    caption_rule,
)
from oracles import (
    ConfusionCounts,
    accuracy_from_rates,
    ap_oracle,
    auc_oracle,
    auc_roc,
    derive_rngs,
    draw_group,
    f1_at,
    precision_from_rates,
    rates_from_confusion,
    threshold_oracle_f1,
)
from stubs import run_config, score_matrix


def _report(criterion: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion:02d} PASS: {name}{suffix}")


def _full_sample(scores, labels, metrics, threshold=None):
    """The metrics of all rows as ``evaluate_concept`` scores a full sample:
    the identity draw through ``rank_pool`` + ``ranked_metrics``. NaN marks
    an undefined value."""
    pool = rank_pool(scores, labels, threshold=threshold)
    values = ranked_metrics(pool, [np.arange(len(labels))[None]], metrics)
    return {m: float(v[0]) for m, v in values.items()}


def _same(value, ref):
    """The shipped kernel's value is the scalar reference's double, and NaN
    where the reference gives None."""
    if ref is None:
        assert math.isnan(value)
    else:
        assert value == ref


def test_criterion_01_rate_identities():
    """Eq-style identities match the shipped kernel's confusion-derived rates
    within 1e-12; < 1 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    counts = []
    while len(counts) < 10_000:
        tp, fp, tn, fn = (int(x) for x in rng.integers(0, 1000, size=4))
        if tp + fn == 0 or fp + tn == 0:
            continue
        counts.append(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
    rates = _rate_arrays(*np.array([(c.tp, c.fp, c.tn, c.fn) for c in counts]).T)
    for i, c in enumerate(counts):
        ref = rates_from_confusion(c)
        for m in ("tpr", "fpr", "precision", "accuracy", "f1"):
            _same(rates[m][i], getattr(ref, m))
        tpr, fpr, precision = rates["tpr"][i], rates["fpr"][i], rates["precision"][i]
        alpha = c.prevalence
        derived_p = precision_from_rates(alpha, tpr, fpr)
        if math.isnan(precision):
            assert derived_p is None or derived_p == 0.0
        else:
            assert abs(derived_p - precision) < 1e-12
        assert abs(accuracy_from_rates(alpha, tpr, fpr) - rates["accuracy"][i]) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, "rate identities on 10,000 random confusions", f"{elapsed:.2f}s")


def test_criterion_02_ranking_metric_oracles():
    """Shipped AP and AUC match brute-force definitions on every labeling of
    <= 8 rows; < 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    cases = 0
    for n in range(1, 9):
        for _ in range(2):
            scores = rng.random(n)
            while len(set(scores.tolist())) < n:
                scores = rng.random(n)
            scores = scores.tolist()
            for labels in itertools.product([0, 1], repeat=n):
                labels = list(labels)
                got = _full_sample(scores, labels, ("ap", "auc_roc"))
                for m, ref in (("ap", ap_oracle(scores, labels)),
                               ("auc_roc", auc_oracle(scores, labels))):
                    if ref is None:
                        assert math.isnan(got[m])
                    else:
                        assert abs(got[m] - ref) < 1e-12
                cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(2, f"ranking metrics match oracles on {cases} labelings", f"{elapsed:.2f}s")


def test_criterion_03_prevalence_invariance():
    """Duplicating negatives leaves the shipped TPR/FPR bit-identical;
    precision strictly drops."""
    rng = np.random.default_rng(303)
    metrics = ("tpr", "fpr", "precision")
    checked = 0
    for _ in range(400):
        n = int(rng.integers(4, 40))
        scores = rng.random(n)
        labels = (rng.random(n) < 0.5).astype(int)
        if labels.sum() == 0 or labels.sum() == n:
            continue
        t = float(rng.choice(scores))
        r1 = _full_sample(scores, labels, metrics, threshold=t)
        neg_mask = labels == 0
        for m in (2, 5, 10):
            dup_scores = np.concatenate([scores] + [scores[neg_mask]] * (m - 1))
            dup_labels = np.concatenate([labels] + [labels[neg_mask]] * (m - 1))
            r2 = _full_sample(dup_scores, dup_labels, metrics, threshold=t)
            assert r1["tpr"] == r2["tpr"]  # bit-identical
            assert r1["fpr"] == r2["fpr"]
            if r1["fpr"] > 0 and r1["tpr"] > 0:  # fp > 0 and tp > 0
                assert r2["precision"] < r1["precision"]
            checked += 1
    assert checked > 300
    _report(3, f"TPR/FPR prevalence invariance on {checked} duplications", "exact")


def _flagship_records(seed: int):
    cells = {
        "alpha": CellSpec(prevalence=0.5, mu_pos=1, sigma_pos=1, mu_neg=0, sigma_neg=1, n=2000),
        "beta": CellSpec(prevalence=0.05, mu_pos=1, sigma_pos=1, mu_neg=0, sigma_neg=1, n=2000),
    }
    spec = ScenarioSpec(concepts={"widget": cells}, seed=seed)
    images, assignments, predictions = generate(spec)
    return images, assignments, score_matrix({p.image_id: p.scores for p in predictions})


def test_criterion_04_flagship_prevalence_reproduction():
    """Identical score laws, skewed prevalences: baseline AP disparity is
    significant, reliable 1:5 sampling is not, on >= 18/20 seeds; < 2 min."""
    start = time.perf_counter()
    good = 0
    for seed in range(20):
        records = _flagship_records(seed)
        flags = {}
        for mode in ("baseline", "reliable"):
            cfg = run_config(groups=("alpha", "beta"), sampling_mode=mode, seed=seed)
            plan = plan_concepts(*records, cfg)
            estimates = evaluate_tables(plan, cfg)
            per = [e for e in estimates if e.concept == "widget"][0]
            flags[mode] = significance_flag(per)
        if flags["baseline"] and not flags["reliable"]:
            good += 1
    elapsed = time.perf_counter() - start
    assert good >= 18, f"only {good}/20 seeds satisfied both conditions"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(4, f"baseline significant / reliable not, {good}/20 seeds", f"{elapsed:.1f}s")


def test_criterion_05_bootstrap_ci_calibration():
    """95% interval for AUC disparity of identical-law groups covers 0 in
    93-97% of 500 regenerations, every draw scored by the shipped kernel and
    the first seeds' draws checked against the scalar reference; < 5 min."""
    start = time.perf_counter()
    n, n_boot = 400, 250
    covered = 0
    for seed in range(500):
        boots = {}
        for g in ("a", "b"):
            rng = derive_rng(seed, "calib", g)
            n_pos = n // 2
            pos = 1 / (1 + np.exp(-rng.normal(1, 1, n_pos)))
            neg = 1 / (1 + np.exp(-rng.normal(0, 1, n - n_pos)))
            scores = np.concatenate([pos, neg])
            labels = np.concatenate([np.ones(n_pos), np.zeros(n - n_pos)])
            rngs = derive_rngs(seed, "calibboot", g)
            draws = [rngs(b).integers(0, n, n) for b in range(n_boot)]
            boots[g] = ranked_metrics(
                rank_pool(scores, labels), [np.stack(draws)], ("auc_roc",)
            )["auc_roc"]
            if seed < 3:
                for idx, v in zip(draws, boots[g]):
                    _same(v, auc_roc(scores[idx], labels[idx]))
        est = pair_disparity(
            boots["a"], boots["b"], metric="auc_roc", concept="c",
            group_a="a", group_b="b", sample_sizes={},
        )
        if not significance_flag(est):
            covered += 1
    elapsed = time.perf_counter() - start
    rate = covered / 500
    assert 0.93 <= rate <= 0.97, f"coverage {rate:.3f} outside [0.93, 0.97]"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report(5, f"CI coverage {rate:.3f} over 500 regenerations", f"{elapsed:.1f}s")


def test_criterion_06_sampling_exactness():
    """Budget fixture gives p* = 36 with p*+1 infeasible; every 1:5 draw has
    prevalence exactly 1/6 per group."""
    sizes = {"A": (40, 300), "B": (60, 180)}  # each pool's (positives, negatives)
    budget = compute_budget("c", sizes, (1, 5))
    assert budget[0] == 36
    assert budget[1] == 180
    p_next = 37
    assert not all(
        n_pos >= p_next and n_neg >= 5 * p_next for n_pos, n_neg in sizes.values()
    )
    for b in range(100):
        for g, pool in sizes.items():
            rows = draw_group(pool, budget, derive_rng(9, "draw", "c", g, b))
            n_pos = np.count_nonzero(rows < pool[0])  # a pool's positives come first
            total = rows.size
            assert n_pos * 6 == total  # prevalence exactly 1/6
    _report(6, "budget fixture p*=36; all draws at prevalence exactly 1/6", "exact")


def test_criterion_07_threshold_rule():
    """select_threshold equals the exhaustive-scan optimum on all <= 8-row
    instances and never labels everything negative."""
    rng = np.random.default_rng(707)
    cases = 0
    for n in range(1, 9):
        scores = rng.random(n).tolist()
        for labels in itertools.product([0, 1], repeat=n):
            labels = list(labels)
            if sum(labels) == 0:
                continue
            threshold, f1 = select_threshold(scores, labels)
            assert abs(f1 - threshold_oracle_f1(scores, labels)) < 1e-12
            assert threshold <= max(scores)
            assert any(s >= threshold for s in scores)
            assert abs(f1_at(scores, labels, threshold) - f1) < 1e-12
            cases += 1
    _report(7, f"threshold selection optimal on {cases} instances", "exact")


def test_criterion_08_group_ops_corpus():
    """30-image corpus reproduces expected outcomes for every evaluation version."""
    checked = 0
    for version in VERSIONS:
        rule = box_rule(version)
        for image, expected in BOX_CASES:
            [a] = assign_groups([image], rule).values()
            got = ("excluded" if a in EXCLUSION_REASONS else "assigned", a)
            assert got == expected[version], f"{image.image_id}/{version}: {got}"
            checked += 1
        cap_rule = caption_rule(version)
        for image, expected in CAPTION_CASES:
            [a] = assign_groups([image], cap_rule).values()
            got = ("excluded" if a in EXCLUSION_REASONS else "assigned", a)
            assert got == expected[version], f"{image.image_id}/{version}: {got}"
            checked += 1
    reasons_covered = {
        exp[version][1]
        for _, exp in BOX_CASES + CAPTION_CASES
        for version in VERSIONS
        if exp[version][0] == "excluded"
    }
    assert {"MultipleGroups", "MidSizeAmbiguous", "NeutralTermPresent",
            "BoxTooSmall", "NoGroupEvidence"} <= reasons_covered
    _report(8, f"{len(BOX_CASES) + len(CAPTION_CASES)}-image corpus, "
               f"{checked} (image, version) checks", "exact")


def test_criterion_09_rare_concept_noise():
    """|AP disparity| spread is strictly wider with 5 positives per group than
    with 200, over 200 regenerations; < 2 min."""
    start = time.perf_counter()

    def disparity_samples(n_images, prevalence, tag):
        out = np.empty(200)
        for i in range(200):
            values = {}
            for g in ("a", "b"):
                rng = derive_rng(i, tag, g)
                n_pos = int(math.floor(prevalence * n_images + 0.5))
                pos = 1 / (1 + np.exp(-rng.normal(1, 1, n_pos)))
                neg = 1 / (1 + np.exp(-rng.normal(0, 1, n_images - n_pos)))
                scores = np.concatenate([pos, neg])
                labels = np.concatenate([np.ones(n_pos), np.zeros(n_images - n_pos)])
                values[g] = _full_sample(scores, labels, ("ap",))["ap"]
            out[i] = abs(values["a"] - values["b"])
        return out

    rare = disparity_samples(30, 1 / 6, "rare")       # 5 positives per group
    common = disparity_samples(1200, 1 / 6, "common")  # 200 positives per group
    iqr_rare = np.percentile(rare, 75) - np.percentile(rare, 25)
    iqr_common = np.percentile(common, 75) - np.percentile(common, 25)
    elapsed = time.perf_counter() - start
    assert iqr_rare > iqr_common, f"IQR {iqr_rare:.4f} <= {iqr_common:.4f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(9, f"|AP disparity| IQR {iqr_rare:.3f} (5 pos) vs {iqr_common:.3f} (200 pos)",
            f"{elapsed:.1f}s")


def test_criterion_10_end_to_end_determinism(tmp_path):
    """Two full runs with identical config and seed are byte-identical."""
    scenario = {
        "seed": 13,
        "concepts": {
            "c1": {
                "A": {"prevalence": 0.4, "mu_pos": 1.3, "sigma_pos": 1, "mu_neg": 0,
                      "sigma_neg": 1, "n": 200},
                "B": {"prevalence": 0.25, "mu_pos": 0.9, "sigma_pos": 1, "mu_neg": 0,
                      "sigma_neg": 1, "n": 200},
            },
        },
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    assert cli_main(["synth", "--scenario", str(scenario_path),
                     "--output", str(tmp_path / "data")]) == 0
    config = {
        "annotations": "data/annotations.jsonl",
        "predictions": "data/predictions.jsonl",
        "group_method": "metadata",
        "metadata_key": "group",
        "region": "data/region_identity.json",
        "metrics": ["ap", "auc_roc", "tpr", "fpr"],
        "sampling": {"mode": "reliable", "ratio": [1, 2], "bootstraps": 50,
                     "seed": 21, "min_per_group": 20},
        "drop_unlabeled": False,
        "output_dir": "out",
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    results_1 = (tmp_path / "out" / "results.csv").read_bytes()
    manifest_1 = (tmp_path / "out" / "manifest.json").read_bytes()
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    results_2 = (tmp_path / "out" / "results.csv").read_bytes()
    manifest_2 = (tmp_path / "out" / "manifest.json").read_bytes()
    assert results_1 == results_2
    assert manifest_1 == manifest_2
    _report(10, "byte-identical results.csv and manifest.json across runs", "exact")


if __name__ == "__main__":
    import sys
    import tempfile
    import traceback

    failures = 0
    for name, fn in sorted(
        (k, v) for k, v in globals().items() if k.startswith("test_criterion_")
    ):
        try:
            if "tmp_path" in fn.__code__.co_varnames[: fn.__code__.co_argcount]:
                with tempfile.TemporaryDirectory() as tmp:
                    fn(Path(tmp))
            else:
                fn()
        except Exception:
            failures += 1
            criterion = name.split("_")[2]
            print(f"ACCEPTANCE {criterion} FAIL: {name}")
            traceback.print_exc()
    sys.exit(1 if failures else 0)
