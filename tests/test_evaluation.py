"""Metrics, the safety window, and the repeated-split study."""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosedistill import evaluation
from dosedistill.dataset import load_and_validate
from dosedistill.distillation import DistillationConfig, run_study, train_distilled
from dosedistill.evaluation import (
    STUDY_STATS,
    EvalReport,
    evaluate_model,
    evaluate_predictions,
    mean_std,
)
from dosedistill.models import LinearModel, TrainConfig, train_mlp
from dosedistill.profiles import Profile, ProfileCatalog, default_catalog
from dosedistill.synthetic import SyntheticSpec

from conftest import make_cohort, write_synth


def band(pred: float, truth: float) -> str:
    """The one safety band the scorer puts a single prediction in."""
    report = evaluate_predictions([pred], [truth])
    [name] = [n for n in ("under", "within", "over") if getattr(report, n)]
    return name


class TestMae:
    def test_perfect(self):
        assert evaluate_predictions([1.0, 2.0], [1.0, 2.0]).mae == 0.0

    def test_arithmetic(self):
        assert evaluate_predictions([10.0, 20.0], [12.0, 16.0]).mae == 3.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_predictions([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            evaluate_predictions([], [])

    def test_translation_and_permutation_invariance(self):
        rng = np.random.default_rng(0)
        p, t = rng.uniform(1.0, 100.0, 50), rng.uniform(1.0, 100.0, 50)
        base = evaluate_predictions(p, t).mae
        assert evaluate_predictions(p + 3.7, t + 3.7).mae == pytest.approx(base, rel=1e-12)
        perm = rng.permutation(50)
        permuted = evaluate_predictions(p[perm], t[perm]).mae
        assert permuted == pytest.approx(base, rel=1e-12)


class TestMape:
    def test_ten_percent(self):
        assert evaluate_predictions([9.0], [10.0]).mape == pytest.approx(10.0)

    def test_perfect(self):
        assert evaluate_predictions([5.0, 6.0], [5.0, 6.0]).mape == 0.0

    def test_nonpositive_truth_rejected(self):
        with pytest.raises(ValueError):
            evaluate_predictions([1.0], [0.0])
        with pytest.raises(ValueError):
            evaluate_predictions([1.0], [-3.0])


METRICS = {
    "evaluate_predictions": evaluate_predictions,
    "mae": lambda p, t: evaluate_predictions(p, t).mae,
    "mape": lambda p, t: evaluate_predictions(p, t).mape,
}


@pytest.mark.parametrize("metric", METRICS.values(), ids=METRICS.keys())
def test_metrics_share_the_argument_checks(metric):
    with pytest.raises(ValueError, match=r"shape mismatch: \(1,\) vs \(2,\)"):
        metric([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match=r"shape mismatch: \(1, 1\) vs \(1, 1\)"):
        metric([[1.0]], [[1.0]])
    with pytest.raises(ValueError, match="empty input"):
        metric([], [])
    with pytest.raises(ValueError, match="positive"):
        metric([1.0, 2.0], [1.0, 0.0])


class TestClassifyDose:
    def test_inside_window(self):
        assert band(40.0, 35.0) == "within"

    def test_inclusive_upper_boundary(self):
        assert band(42.0, 35.0) == "within"

    def test_under(self):
        assert band(27.9, 35.0) == "under"

    def test_nonpositive_truth(self):
        with pytest.raises(ValueError):
            band(1.0, 0.0)

    def test_boundaries_classify_within(self):
        rng = np.random.default_rng(1)
        truths = rng.uniform(0.01, 200.0, 500)
        assert evaluate_predictions(1.2 * truths, truths).within == 500
        assert evaluate_predictions(0.8 * truths, truths).within == 500

    @settings(max_examples=300, deadline=None)
    @given(
        pred=st.floats(-1e6, 1e6, allow_nan=False),
        truth=st.floats(1e-3, 1e6, allow_nan=False),
    )
    def test_exactly_one_band(self, pred, truth):
        expected = (
            "under" if pred < 0.8 * truth else "over" if pred > 1.2 * truth else "within"
        )
        assert band(pred, truth) == expected


class TestSafetyPartition:
    def test_counts_and_percentages(self):
        part = EvalReport(mae=0.0, mape=0.0, under=1, within=2, over=1)
        assert part.n == 4
        assert part.under_pct + part.within_pct + part.over_pct == pytest.approx(
            100.0, abs=1e-9
        )

    @pytest.mark.parametrize("counts", [(-1, 3, 0), (0, -2, 5), (2, 2, -1)])
    def test_a_count_below_zero_is_refused(self, counts):
        with pytest.raises(ValueError, match="below 0"):
            EvalReport(0.0, 0.0, *counts)

    @pytest.mark.parametrize("args, error, message", [
        ((0.0, 0.0, 1.0, 2, 1), TypeError, "counts must be ints"),
        ((0.0, 0.0, True, 2, 1), TypeError, "counts must be ints"),
        *(((mae, 0.0, 1, 2, 1), ValueError, "mae must be a finite number of at least 0")
          for mae in (float("nan"), -1.0, True)),
    ])
    def test_a_report_whose_values_mean_nothing_is_refused(self, args, error, message):
        with pytest.raises(error, match=message):
            EvalReport(*args)

    def test_report_counts_match(self):
        preds = np.array([10.0, 35.0, 50.0])
        truths = np.array([35.0, 35.0, 35.0])
        report = evaluate_predictions(preds, truths)
        assert (report.under, report.within, report.over) == (1, 1, 1)
        assert report.n == 3


def two_feature_profile():
    return Profile("Public patient", frozenset(), frozenset(), 2)


class TestEvaluateModel:
    def test_perfect_predictor(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([30.0, 40.0, 50.0])
        cohort = make_cohort(X, y)
        # alpha chosen so predictions equal truths on the standardized matrix
        from dosedistill.models import fit_least_squares

        model = fit_least_squares(cohort.X, cohort.y)
        report = evaluate_model(model, cohort, two_feature_profile())
        assert report.mae == pytest.approx(0.0, abs=1e-6)
        assert report.within_pct == 100.0

    def test_constant_overdoser(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.2, 0.9]])
        truth = 35.0
        cohort = make_cohort(X, np.full(4, truth))
        model = LinearModel(np.zeros(2), 1.3 * truth)
        report = evaluate_model(model, cohort, two_feature_profile())
        assert report.over_pct == 100.0

    def test_single_record_equals_pointwise(self):
        X = np.array([[0.3, 1.0], [0.7, -1.0]])
        cohort = make_cohort(X, [40.0, 40.0])[:1]
        model = LinearModel(np.zeros(2), 44.0)
        report = evaluate_model(model, cohort, two_feature_profile())
        assert report.n == 1
        assert report.mae == pytest.approx(4.0)
        assert report.mape == pytest.approx(10.0)
        assert report.within == 1

    def test_dimension_mismatch(self):
        cohort = make_cohort(np.eye(3), [30.0, 40.0, 50.0])
        model = LinearModel(np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            evaluate_model(model, cohort, Profile("p", frozenset(), frozenset(), 3))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("study")
    data, schema = write_synth(tmp, SyntheticSpec(n=200), seed=23)
    return load_and_validate(data, schema)


class TestRunStudy:
    def fast_config(self, seed):
        return DistillationConfig(
            lambda_grid=(0.0, 1.0),
            train=TrainConfig(seed=seed, max_epochs=30, patience=5),
        )

    def test_deterministic(self, dataset):
        catalog, records = dataset
        profiles = ProfileCatalog(default_catalog(catalog).profiles[:2])
        a = run_study(records, catalog, profiles, self.fast_config(3), runs=1)
        b = run_study(records, catalog, profiles, self.fast_config(3), runs=1)
        assert a.keys() == b.keys()
        for key in a:
            assert a[key] == b[key]

    def test_no_runs_is_refused(self, dataset):
        catalog, records = dataset
        with pytest.raises(ValueError, match="need at least one run"):
            run_study(records, catalog, default_catalog(catalog), self.fast_config(0),
                      runs=0)

    def test_public_only_catalog_collapses_arms(self, dataset):
        catalog, records = dataset
        public_only = ProfileCatalog(default_catalog(catalog).profiles[:1])
        results = run_study(records, catalog, public_only, self.fast_config(1), runs=1)
        name = public_only.public.name
        assert (
            results[("mlp", name)]
            == results[("partial", name)]
            == results[("distilled", name)]
        )

    def test_arms_and_aggregates(self, dataset):
        catalog, records = dataset
        profiles = ProfileCatalog(default_catalog(catalog).profiles[:3])
        runs = 2
        results = run_study(records, catalog, profiles, self.fast_config(7), runs=runs)
        assert ("linear", profiles.public.name) in results
        assert ("mlp", profiles.public.name) in results
        for profile in profiles:
            assert len(results[("partial", profile.name)]) == runs
            assert len(results[("distilled", profile.name)]) == runs
        assert len(results) == 2 + 2 * len(profiles)
        for reports in results.values():
            assert len(reports) == runs
            for stat, pick in STUDY_STATS.items():
                mean, std = mean_std(reports, stat)
                vals = [pick(rep) for rep in reports]
                assert mean == pytest.approx(np.mean(vals))
                assert std == pytest.approx(np.std(vals))

    def test_all_features_teacher_is_the_mlp_arm(self, dataset, monkeypatch):
        from dosedistill import distillation

        catalog, records = dataset
        calls = []
        real = distillation.train_privileged
        monkeypatch.setattr(
            distillation, "train_privileged",
            lambda *args: calls.append(args) or real(*args),
        )
        run_study(records, catalog, default_catalog(catalog), self.fast_config(2),
                  runs=1)
        assert calls == []

    def test_split_seed_derivation(self, dataset):
        """Run j must use split seed config.train.seed + j: a 2-run study's
        second run equals a 1-run study at seed + 1."""
        catalog, records = dataset
        profiles = ProfileCatalog(default_catalog(catalog).profiles[:2])
        two = run_study(records, catalog, profiles, self.fast_config(5), runs=2)
        one = run_study(records, catalog, profiles, self.fast_config(6), runs=1)
        key = ("partial", profiles.profiles[1].name)
        assert two[key][1] == one[key][0]

    def test_a_grid_without_zero_still_has_its_lambda_zero_arm(self, dataset):
        """With the grid (0.5,), a redacting profile's partial arm is its
        lambda = 0 model, and its distilled arm the better of lambda = 0 and
        0.5 on the run's validation split."""
        catalog, records = dataset
        profiles = ProfileCatalog(default_catalog(catalog).profiles[:3])
        config = replace(self.fast_config(10), lambda_grid=(0.5,))
        results = run_study(records, catalog, profiles, config, runs=1)
        train, valid = config.split(records, catalog)
        teacher = train_mlp(train.X, train.y, config.train)  # every column
        picked = set()
        for profile in profiles:
            if profile.is_public:
                continue
            reports = {
                lam: evaluate_model(train_distilled(
                    train, profile, teacher, replace(config, lambda_grid=(lam,))
                ), valid, profile)
                for lam in (0.0, 0.5)
            }
            assert results["partial", profile.name] == (reports[0.0],)
            best = min(reports, key=lambda lam: (reports[lam].mae, lam))
            assert results["distilled", profile.name] == (reports[best],)
            picked.add(best)
        assert picked == {0.0, 0.5}  # at this seed, one profile picks each


def test_evaluation_only_scores():
    """evaluation.py trains nothing: it imports neither the models nor the
    distillation module, not even for type checking."""
    source = Path(evaluation.__file__).read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    modules = {name.rsplit(".", 1)[-1] for name in imported}
    assert modules & {"models", "distillation"} == set()
    assert "TYPE_CHECKING" not in source
