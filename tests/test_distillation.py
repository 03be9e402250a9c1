"""Imitation objective, privileged models, and the lambda sweep."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosedistill import distillation
from dosedistill.dataset import load_and_validate, split_cohorts
from dosedistill.distillation import (
    DistillationConfig,
    DistilledBundle,
    PrivilegedInputs,
    distillation_loss,
    soft_targets,
    sweep_lambda,
    sweep_profiles,
    train_distilled,
    train_privileged,
)
from dosedistill.errors import DataError
from dosedistill.models import MlpModel, TrainConfig, models_equal, train_mlp
from dosedistill.profiles import apply_mask, default_catalog
from dosedistill.synthetic import SyntheticSpec

from conftest import write_synth


@pytest.fixture(scope="module")
def cohorts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("distill")
    data, schema = write_synth(tmp, SyntheticSpec(n=260), seed=17)
    catalog, records = load_and_validate(data, schema)
    train, valid = split_cohorts(records, catalog, 0.7, seed=2)
    return catalog, train, valid


def fast_train(seed=0):
    return TrainConfig(seed=seed, max_epochs=60, patience=10)


def constant_model(dim: int, value: float) -> MlpModel:
    return MlpModel(np.zeros((2, dim)), np.zeros(2), np.zeros(2), value)


class TestSoftTargets:
    def test_temperature_fifty(self):
        m = constant_model(3, 10.0)
        out = soft_targets(m, np.zeros((4, 3)), 50.0)
        np.testing.assert_array_equal(out, np.full(4, 0.2))

    def test_temperature_one_is_identity(self):
        m = constant_model(2, 7.25)
        raw = m.predict(np.zeros((5, 2)))
        np.testing.assert_array_equal(soft_targets(m, np.zeros((5, 2)), 1.0), raw)

    def test_vector_scaling(self):
        m = MlpModel(np.array([[1.0]]), np.array([0.0]), np.array([1.0]), 0.0)
        X = np.array([[5.0], [-5.0]])
        np.testing.assert_array_equal(
            soft_targets(m, X, 5.0), [1.0, 0.0]
        )  # relu kills the negative input

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            soft_targets(constant_model(1, 1.0), np.zeros((1, 1)), 0.0)


class TestLoss:
    def test_lambda_zero_ignores_soft_target(self):
        assert distillation_loss(3.0, 5.0, 123.0, 0.0) == 4.0
        assert distillation_loss(3.0, 5.0, -999.0, 0.0) == 4.0

    def test_lambda_one_ignores_ground_truth(self):
        assert distillation_loss(3.0, 999.0, 4.0, 1.0) == 1.0

    def test_half_and_half(self):
        assert distillation_loss(3.0, 5.0, 4.0, 0.5) == 2.5

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            distillation_loss(1.0, 1.0, 1.0, 1.5)

    @settings(max_examples=200, deadline=None)
    @given(
        pred=st.floats(-50, 50),
        y=st.floats(-50, 50),
        s=st.floats(-50, 50),
        lam=st.floats(0, 1),
    )
    def test_affine_interpolation_in_lambda(self, pred, y, s, lam):
        lo = distillation_loss(pred, y, s, 0.0)
        hi = distillation_loss(pred, y, s, 1.0)
        mid = distillation_loss(pred, y, s, lam)
        assert mid == pytest.approx((1 - lam) * lo + lam * hi, rel=1e-12, abs=1e-12)


class TestPrivileged:
    def test_public_profile_all_features_equals_plain_training(self, cohorts):
        catalog, train, _ = cohorts
        profiles = default_catalog(catalog)
        config = DistillationConfig(train=fast_train(3))
        teacher = train_privileged(train, profiles.public, config)
        plain = train_mlp(train.X, train.y, config.train)
        assert models_equal(teacher, plain)

    def test_redacted_only_input_dim(self, cohorts):
        catalog, train, _ = cohorts
        profiles = default_catalog(catalog)
        closed = profiles.by_name("With all except genotypic")
        config = DistillationConfig(
            privileged_inputs=PrivilegedInputs.REDACTED_ONLY, train=fast_train()
        )
        teacher = train_privileged(train, closed, config)
        assert teacher.dim == len(closed.redacted_features) == 2

    def test_redacted_only_on_public_profile_rejected(self, cohorts):
        catalog, train, _ = cohorts
        profiles = default_catalog(catalog)
        config = DistillationConfig(
            privileged_inputs=PrivilegedInputs.REDACTED_ONLY, train=fast_train()
        )
        with pytest.raises(DataError, match="redacts nothing"):
            train_privileged(train, profiles.public, config)


class TestDistilled:
    def test_lambda_zero_equals_plain_training_exactly(self, cohorts):
        catalog, train, _ = cohorts
        profiles = default_catalog(catalog)
        for profile in (
            profiles.by_name("With all except genotypic"),
            profiles.by_name("Background except others"),
        ):
            config = DistillationConfig(lambda_grid=(0.0,), train=fast_train(11))
            teacher = train_privileged(train, profile, config)
            student = train_distilled(train, profile, teacher, config)
            plain = train_mlp(
                train.X[:, list(profile.visible_features)], train.y, config.train
            )
            assert models_equal(student, plain)  # exact equality

    def test_lambda_one_constant_teacher_converges_to_constant(self, cohorts):
        catalog, train, _ = cohorts
        profiles = default_catalog(catalog)
        profile = profiles.by_name("With all except genotypic")
        c = 10.0
        teacher = constant_model(catalog.d, c)
        config = DistillationConfig(lambda_grid=(1.0,), train=fast_train(5))
        student = train_distilled(train, profile, teacher, config)
        preds = student.predict(train.X[:, list(profile.visible_features)])
        # constant-target regression oracle: the best fit IS the constant
        assert np.mean(np.abs(preds - c)) < 0.2
        assert abs(np.mean(preds) - c) < 0.1

    def test_distilled_never_reads_withheld_features(self, cohorts):
        catalog, train, valid = cohorts
        profiles = default_catalog(catalog)
        rng = np.random.default_rng(0)
        config = DistillationConfig(lambda_grid=(0.5,), train=fast_train(7))
        for profile in profiles:
            if profile.is_public:
                continue
            teacher = train_privileged(train, profile, config)
            student = train_distilled(train, profile, teacher, config)
            for row in valid.X:
                visible, _ = apply_mask(profile, row)
                base = student.predict([visible])[0]
                corrupted = row.copy()
                corrupted[list(profile.redacted_sorted)] = rng.uniform(-1e6, 1e6)
                visible2, _ = apply_mask(profile, corrupted)
                assert student.predict([visible2])[0] == base

    def test_multi_point_grid_rejected(self, cohorts):
        catalog, train, _ = cohorts
        profile = default_catalog(catalog).by_name("With all except genotypic")
        config = DistillationConfig(lambda_grid=(0.0, 0.5), train=fast_train())
        teacher = constant_model(catalog.d, 1.0)
        with pytest.raises(ValueError, match="one lambda"):
            train_distilled(train, profile, teacher, config)


class TestSweepProfiles:
    @pytest.mark.parametrize("mode, teachers_fitted", [
        (PrivilegedInputs.ALL_FEATURES, 1),
        # the public profile falls back to all features; the other eight
        # redact eight distinct column sets
        (PrivilegedInputs.REDACTED_ONLY, 9),
    ])
    def test_one_teacher_per_column_set_and_same_bundles(
        self, cohorts, monkeypatch, mode, teachers_fitted
    ):
        catalog, train, valid = cohorts
        profiles = list(default_catalog(catalog))
        config = DistillationConfig(
            lambda_grid=(0.0, 0.5), privileged_inputs=mode, train=fast_train(4)
        )
        calls = []

        def counting(*args):
            calls.append(args[1].name)
            return train_privileged(*args)

        monkeypatch.setattr(distillation, "train_privileged", counting)
        results = sweep_profiles(train, valid, profiles, config)
        monkeypatch.undo()
        assert len(calls) == teachers_fitted

        assert [best.profile for _, best in results] == profiles
        for profile, (points, best) in zip(profiles, results):
            cfg = config
            if profile.is_public:
                cfg = replace(config, privileged_inputs=PrivilegedInputs.ALL_FEATURES)
            ref_points, ref_best = sweep_lambda(
                train, valid, profile, cfg, train_privileged(train, profile, cfg)
            )
            assert points == ref_points, profile.name
            assert best.lam == ref_best.lam
            assert models_equal(best.distilled, ref_best.distilled), profile.name


class TestSweep:
    def test_grid_of_zero_equals_partial_baseline(self, cohorts):
        catalog, train, valid = cohorts
        profiles = default_catalog(catalog)
        profile = profiles.by_name("With all except background")
        config = DistillationConfig(lambda_grid=(0.0,), train=fast_train(1))
        points, best = sweep_lambda(train, valid, profile, config)
        assert len(points) == 1
        assert points[0][0] == 0.0
        assert best.lam == 0.0
        plain = train_mlp(
            train.X[:, list(profile.visible_features)], train.y, config.train
        )
        assert models_equal(best.distilled, plain)
        assert best.metrics == points[0][1]

    def test_deterministic(self, cohorts):
        catalog, train, valid = cohorts
        profiles = default_catalog(catalog)
        profile = profiles.by_name("With all except phenotypic")
        config = DistillationConfig(
            lambda_grid=(0.0, 0.5, 1.0), train=fast_train(9)
        )
        first_points, first_best = sweep_lambda(train, valid, profile, config)
        again_points, again_best = sweep_lambda(train, valid, profile, config)
        assert [(l, r.mae) for l, r in first_points] == [
            (l, r.mae) for l, r in again_points
        ]
        assert first_best.lam == again_best.lam
        assert models_equal(first_best.distilled, again_best.distilled)

    def test_best_ties_to_smaller_lambda(self, cohorts):
        catalog, train, valid = cohorts
        profiles = default_catalog(catalog)
        profile = profiles.by_name("With all except demographic")
        config = DistillationConfig(lambda_grid=(0.0, 0.3), train=fast_train(2))
        points, best = sweep_lambda(train, valid, profile, config)
        maes = [r.mae for _, r in points]
        assert best.lam == points[int(np.argmin(maes))][0]

    def test_bundle_dimension_validation(self, cohorts):
        catalog, train, valid = cohorts
        profiles = default_catalog(catalog)
        profile = profiles.by_name("With all except genotypic")
        config = DistillationConfig(lambda_grid=(0.0,), train=fast_train())
        _, bundle = sweep_lambda(train, valid, profile, config)
        with pytest.raises(DataError, match="discloses"):
            DistilledBundle(
                profiles.public,  # wrong profile for this model
                bundle.distilled,
                0.0,
                bundle.metrics,
            )


class TestTemperaturePath:
    def test_high_temperature_shrinks_predictions(self, cohorts):
        """At T=50 the imitation targets are fifty times smaller, so at
        lambda=0.5 the blended objective pulls predictions to about
        (1-lambda)+lambda/T = 0.51 of the T=1 run; only the y term keeps
        them from shrinking further, which is why 0.6 is attainable."""
        catalog, train, valid = cohorts
        profiles = default_catalog(catalog)
        profile = profiles.by_name("With all except genotypic")

        def mean_abs_pred(temperature):
            config = DistillationConfig(
                lambda_grid=(0.5,), temperature=temperature, train=fast_train(3)
            )
            teacher = train_privileged(train, profile, config)
            student = train_distilled(train, profile, teacher, config)
            preds = student.predict(valid.X[:, list(profile.visible_features)])
            return float(np.mean(np.abs(preds)))

        assert mean_abs_pred(50.0) < 0.6 * mean_abs_pred(1.0)
