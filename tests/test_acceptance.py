"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 8 needs a
real-data export supplied via DOSEDISTILL_IWPC_DATA / DOSEDISTILL_IWPC_SCHEMA
and is reported as skipped otherwise.
"""

import hashlib
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dosedistill.cli import run_command
from dosedistill.dataset import FeatureCategory, load_and_validate, split_cohorts
from dosedistill.distillation import (
    DistillationConfig,
    privileged_feature_indices,
    run_study,
    soft_targets,
    sweep_lambda,
    train_distilled,
    train_privileged,
)
from dosedistill.evaluation import evaluate_model, evaluate_predictions, mean_std
from dosedistill.feature_selection import backward_attribute_elimination
from dosedistill.models import (
    TrainConfig,
    fit_least_squares,
    models_equal,
    train_mlp,
)
from dosedistill.profiles import default_catalog
from dosedistill.synthetic import SyntheticSpec, synthetic_latents

from conftest import make_cohort, write_synth
from test_models import gradient_check, pinv_solution


@contextmanager
def criterion(num: int, summary: str):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"\n[criterion {num}] FAIL - {summary}")
        raise
    print(f"\n[criterion {num}] PASS - {summary} ({time.monotonic() - start:.1f}s)")


def test_criterion_1_lambda_zero_equivalence(tmp_path):
    with criterion(1, "lambda=0 training equals plain training for all profiles"):
        start = time.monotonic()
        data, schema = write_synth(tmp_path, SyntheticSpec(n=600), seed=31)
        catalog, records = load_and_validate(data, schema)
        train, _ = split_cohorts(records, catalog, 0.7, seed=1)
        for profile in default_catalog(catalog):
            config = DistillationConfig(
                lambda_grid=(0.0,), train=TrainConfig(seed=13, max_epochs=120, patience=15)
            )
            teacher = train_privileged(train, profile, config)
            student = train_distilled(train, profile, teacher, config)
            plain = train_mlp(
                train.X[:, list(profile.visible_features)], train.y, config.train
            )
            assert models_equal(student, plain), profile.name  # exact equality
        assert time.monotonic() - start < 60.0


def test_criterion_2_gradient_oracle():
    with criterion(2, "analytic gradients match central finite differences"):
        max_rel = gradient_check(n_cases=100, seed=2024)
        assert max_rel < 1e-5, f"max relative error {max_rel:.2e}"


def test_criterion_3_linear_recovery():
    with criterion(3, "least squares recovers coefficients and matches pinv"):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((200, 4))
        w = np.array([2.0, -1.0, 0.5, 3.0])
        y = X @ w + 7.0
        model = fit_least_squares(X, y)
        np.testing.assert_allclose(model.alpha, w, atol=1e-6)
        assert abs(model.beta - 7.0) < 1e-6

        x = rng.standard_normal(50)
        Xc = np.column_stack([x, x])
        yc = 2 * x + 0.1 * rng.standard_normal(50) + 5
        damped = fit_least_squares(Xc, yc)
        alpha_star, beta_star = pinv_solution(Xc, yc)
        np.testing.assert_allclose(damped.alpha, alpha_star, atol=1e-6)
        assert abs(damped.beta - beta_star) < 1e-6


def test_criterion_4_safety_partition_totality():
    with criterion(4, "safety window is exhaustive, exclusive, and inclusive"):
        rng = np.random.default_rng(99)
        # row i is (truth_i, pred_i): the draws a per-pair loop would make
        truths, preds = rng.uniform([0.01, -50.0], [150.0, 250.0], size=(10_000, 2)).T
        safety = evaluate_predictions(preds, truths)
        under = preds < 0.8 * truths
        within = (preds >= 0.8 * truths) & (preds <= 1.2 * truths)
        over = preds > 1.2 * truths
        assert (safety.under, safety.within, safety.over) == (
            under.sum(), within.sum(), over.sum()
        )
        assert safety.under + safety.within + safety.over == 10_000
        truths = rng.uniform(0.01, 150.0, 200)
        for factor in (0.8, 1.2):
            assert evaluate_predictions(factor * truths, truths).within == 200


AC5_SPEC = SyntheticSpec(
    n=2000,
    background=12,
    categorical_per_category=0,
    visible_weight=3.0,
    privileged_weight=9.0,
    nonlinear_weight=2.0,
    rho=0.8,
    noise_std=14.0,
    base_dose=70.0,
)


def test_criterion_5_distillation_benefit(tmp_path):
    with criterion(5, "imitation beats the withheld-only model across seeds"):
        start = time.monotonic()
        wins = 0
        close_to_full = 0
        for seed in range(10):
            lat = synthetic_latents(AC5_SPEC, seed)
            r = np.corrcoef(lat.visible_signal, lat.privileged_signal)[0, 1]
            assert abs(r - 0.8) < 0.1

            sub = tmp_path / f"s{seed}"
            sub.mkdir()
            data, schema = write_synth(sub, AC5_SPEC, seed)
            catalog, records = load_and_validate(data, schema)
            train, valid = split_cohorts(records, catalog, 0.35, seed=seed)
            profiles = default_catalog(catalog)
            profile = profiles.resolve("With all except genotypic")
            config = DistillationConfig(train=TrainConfig(seed=seed))

            teacher = train_privileged(train, profile, config)
            points, best = sweep_lambda(train, valid, profile, config, teacher)
            partial_mae = points[0][1].mae
            full_mlp = train_mlp(train.X, train.y, config.train)
            full_mae = evaluate_model(full_mlp, valid, profiles.public).mae

            wins += best.metrics.mae < partial_mae
            close_to_full += best.metrics.mae <= 1.10 * full_mae
        assert wins >= 8, f"best-lambda beat lambda=0 in only {wins}/10 seeds"
        assert close_to_full >= 7, (
            f"within 10% of the all-features model in only {close_to_full}/10 seeds"
        )
        assert time.monotonic() - start < 300.0


def test_criterion_6_temperature_pathology(tmp_path):
    lam = 0.5
    expected_ratio = (1.0 - lam) + lam / 50.0  # blended targets, T=50 vs T=1
    with criterion(
        6,
        "T=50 soft targets shrink predictions to (1-lambda)+lambda/T of T=1, "
        "the bound the blended objective sets",
    ):
        start = time.monotonic()
        spec = SyntheticSpec(
            n=600,
            base_dose=10.5,
            visible_weight=0.7,
            privileged_weight=0.7,
            nonlinear_weight=0.2,
            noise_std=1.2,
            categorical_per_category=0,
        )
        data, schema = write_synth(tmp_path, spec, seed=41)
        catalog, records = load_and_validate(data, schema)
        train, valid = split_cohorts(records, catalog, 0.65, seed=3)
        assert abs(float(np.mean(np.abs(train.y))) - 10.0) < 1.5  # mean magnitude ~10
        profile = default_catalog(catalog).resolve("With all except genotypic")
        visible = list(profile.visible_features)
        train_config = TrainConfig(seed=3)

        def fit(temperature: float):
            config = DistillationConfig(
                lambda_grid=(lam,), temperature=temperature, train=train_config
            )
            teacher = train_privileged(train, profile, config)
            student = train_distilled(train, profile, teacher, config)
            cols = list(privileged_feature_indices(profile, config.privileged_inputs))
            blended = (1.0 - lam) * train.y + lam * soft_targets(
                teacher, train.X[:, cols], temperature
            )
            mean_abs_pred = float(np.mean(np.abs(student.predict(valid.X[:, visible]))))
            return student, blended, mean_abs_pred

        hot_student, hot_target, hot = fit(50.0)
        _, unit_target, unit = fit(1.0)

        explicit = train_mlp(train.X[:, visible], hot_target, train_config)
        assert models_equal(hot_student, explicit), (
            "the T=50 student is not the plain fit on the blended target "
            "(1-lambda)*y + lambda*teacher/T: the temperature does not enter "
            "the objective as documented"
        )
        r_star = float(np.mean(np.abs(hot_target)) / np.mean(np.abs(unit_target)))
        assert abs(r_star - expected_ratio) <= 0.01, (
            f"blended-target ratio {r_star:.4f} is not within 0.01 of "
            f"(1-lambda)+lambda/T = {expected_ratio:.4f}"
        )
        assert abs(hot / unit - r_star) <= 0.01, (
            f"mean |prediction| at T=50 is {hot:.3f} vs {unit:.3f} at T=1 "
            f"(ratio {hot / unit:.4f}); the students should shrink like their "
            f"blended targets (ratio {r_star:.4f}, floor 1-lambda = {1 - lam})"
        )
        assert time.monotonic() - start < 60.0


def test_criterion_7_noise_feature_eliminated_first():
    with criterion(7, "pure-noise feature removed first, protected ones never"):
        start = time.monotonic()
        hits = 0
        cats = [
            FeatureCategory.DEMOGRAPHIC,
            FeatureCategory.BACKGROUND,
            FeatureCategory.BACKGROUND,
            FeatureCategory.PHENOTYPIC,
            FeatureCategory.GENOTYPIC,
        ]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((300, 5))
            y = (
                3.0 * X[:, 0]
                + 2.0 * X[:, 1]
                + 1.5 * X[:, 2]
                + 2.5 * X[:, 4]
                + 0.3 * rng.standard_normal(300)
                + 40.0
            )  # X[:, 3] is pure noise
            cohort = make_cohort(X, y, categories=cats)
            result = backward_attribute_elimination(
                cohort, protected={4}, epsilon=0.05, folds=5, seed=seed
            )
            assert 4 in result.kept
            assert all(i != 4 for i, _ in result.removed)
            if result.removed and result.removed[0][0] == 3:
                hits += 1
        assert hits >= 9, f"noise feature removed first in only {hits}/10 seeds"
        assert time.monotonic() - start < 60.0


IWPC_DATA = os.environ.get("DOSEDISTILL_IWPC_DATA")
IWPC_SCHEMA = os.environ.get("DOSEDISTILL_IWPC_SCHEMA")


@pytest.mark.skipif(
    not (IWPC_DATA and IWPC_SCHEMA),
    reason=(
        "criterion 8 skipped: no real-data export supplied "
        "(set DOSEDISTILL_IWPC_DATA and DOSEDISTILL_IWPC_SCHEMA)"
    ),
)
def test_criterion_8_real_data_reproduction():
    with criterion(8, "real-data accuracy and safety within tolerances"):
        catalog, records = load_and_validate(IWPC_DATA, IWPC_SCHEMA)
        profiles = default_catalog(catalog)
        config = DistillationConfig(train=TrainConfig(seed=0))
        results = run_study(records, catalog, profiles, config, runs=10)
        public = profiles.public.name
        linear_mae = mean_std(results[("linear", public)], "mae")[0]
        mlp_mae = mean_std(results[("mlp", public)], "mae")[0]
        assert abs(linear_mae - 11.2) <= 1.5, f"linear MAE {linear_mae:.2f}"
        assert abs(mlp_mae - 10.9) <= 1.5, f"mlp MAE {mlp_mae:.2f}"

        mlp_res = results[("mlp", public)]
        assert abs(mean_std(mlp_res, "under")[0] - 24.9) <= 4.0
        assert abs(mean_std(mlp_res, "within")[0] - 42.3) <= 4.0
        assert abs(mean_std(mlp_res, "over")[0] - 33.8) <= 4.0

        for cat in FeatureCategory:
            name = f"With all except {cat.label}"
            distilled = mean_std(results[("distilled", name)], "mae")[0]
            partial = mean_std(results[("partial", name)], "mae")[0]
            assert distilled <= partial, name


# The pipeline's outputs, pinned: a change to any of these bytes must be
# deliberate, and must update the pin with its reason.
CRITERION_9_SHA256 = {
    "d/data.csv": "523616d03a3a2c8e5dfd571fba1d4bf8d662f29a99d99a9394a5bde94cd6efeb",
    "d/schema.json": "93e7de6f916a8b07f7ba00112568b4e9bdec9378561831266b32eef2b588c523",
    "m/pack.json": "64a05d16007a3d072fc71f2012717036115f084fc234c524f963a1fb91d04950",
    "m/report.json": "89155816a962faa84c305c3ee17534ab9e6424f6a6302499e555b1156fb12036",
    "m/sweep.csv": "b1b67d91ec83ae4aa000163eaea2dc84b416f3d11c7608c72a008ecbe34b9fe2",
}


def test_criterion_9_pipeline_determinism_and_runtime(tmp_path):
    with criterion(9, "pipeline is byte-identical across reruns and to its pins, < 5 min"):
        elapsed = []
        for name in ("first", "second"):
            base = tmp_path / name
            start = time.monotonic()
            assert run_command(
                ["synth", "--out", str(base / "d"), "--seed", "5"]
            ) == 0
            assert run_command([
                "train",
                "--data", str(base / "d" / "data.csv"),
                "--schema", str(base / "d" / "schema.json"),
                "--out", str(base / "m"),
                "--grid", "0:1:0.1",
                "--seed", "5",
                "--jobs", "1",
            ]) == 0
            elapsed.append(time.monotonic() - start)
        for fname, sha256 in CRITERION_9_SHA256.items():
            first = (tmp_path / "first" / fname).read_bytes()
            second = (tmp_path / "second" / fname).read_bytes()
            assert first == second, f"{fname} differs between reruns"
            assert hashlib.sha256(first).hexdigest() == sha256, f"{fname} changed bytes"
        assert max(elapsed) < 300.0, f"pipeline took {max(elapsed):.0f}s"
