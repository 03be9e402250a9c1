"""Imitation objective, privileged models, and the lambda sweep."""

import ast
import multiprocessing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dosedistill import distillation
from dosedistill.dataset import load_and_validate, split_cohorts
from dosedistill.distillation import (
    DEFAULT_GRID,
    DistillationConfig,
    DistilledBundle,
    PrivilegedInputs,
    privileged_feature_indices,
    soft_targets,
    sweep_lambda,
    sweep_profiles,
    train_distilled,
    train_privileged,
)
from dosedistill.errors import DataError
from dosedistill.evaluation import evaluate_model
from dosedistill.models import MlpModel, TrainConfig, models_equal, train_mlp
from dosedistill.profiles import default_catalog
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
        for temperature in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"got {temperature}"):
                soft_targets(constant_model(1, 1.0), np.zeros((1, 1)), temperature)


@pytest.mark.parametrize("changes, message", [
    ({"lambda_grid": ()}, "lambda grid is empty"),
    ({"temperature": 0.0}, "temperature must be positive, got 0.0"),
    ({"temperature": -1.0}, "temperature must be positive, got -1.0"),
    ({"temperature": float("nan")}, "temperature must be positive, got nan"),
    ({"temperature": float("inf")}, "temperature must be positive, got inf"),
])
def test_a_recipe_without_a_grid_or_a_positive_temperature_is_refused(changes, message):
    with pytest.raises(ValueError) as err:
        DistillationConfig(**changes)
    assert str(err.value) == message


@pytest.mark.parametrize("grid", [(False, True), (0.0, None), ("0.5",)])
def test_a_grid_of_non_numbers_is_refused(grid):
    with pytest.raises(TypeError, match="the lambda grid holds a non-number"):
        DistillationConfig(lambda_grid=grid)


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
        closed = profiles.resolve("With all except genotypic")
        config = DistillationConfig(
            privileged_inputs=PrivilegedInputs.REDACTED_ONLY, train=fast_train()
        )
        teacher = train_privileged(train, closed, config)
        assert teacher.dim == len(closed.redacted_features) == 2

    def test_redacted_only_on_public_profile_teaches_from_all_features(self, cohorts):
        catalog, train, _ = cohorts
        public = default_catalog(catalog).public
        config = DistillationConfig(
            privileged_inputs=PrivilegedInputs.REDACTED_ONLY, train=fast_train()
        )
        all_features = replace(config, privileged_inputs=PrivilegedInputs.ALL_FEATURES)
        assert privileged_feature_indices(public, config.privileged_inputs) == tuple(
            range(catalog.d)
        )
        assert models_equal(
            train_privileged(train, public, config),
            train_privileged(train, public, all_features),
        )


class TestDistilled:
    def test_lambda_zero_equals_plain_training_exactly(self, cohorts):
        catalog, train, _ = cohorts
        profiles = default_catalog(catalog)
        for profile in (
            profiles.resolve("With all except genotypic"),
            profiles.resolve("Background except others"),
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
        profile = profiles.resolve("With all except genotypic")
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
                base = student.predict([row[list(profile.visible_features)]])[0]
                corrupted = row.copy()
                corrupted[list(profile.redacted_sorted)] = rng.uniform(-1e6, 1e6)
                visible2 = corrupted[list(profile.visible_features)]
                assert student.predict([visible2])[0] == base

    def test_multi_point_grid_rejected(self, cohorts):
        catalog, train, _ = cohorts
        profile = default_catalog(catalog).resolve("With all except genotypic")
        config = DistillationConfig(lambda_grid=(0.0, 0.5), train=fast_train())
        teacher = constant_model(catalog.d, 1.0)
        with pytest.raises(ValueError, match="one lambda"):
            train_distilled(train, profile, teacher, config)


class TestSweepProfiles:
    @pytest.mark.parametrize("mode, teachers_fitted", [
        (PrivilegedInputs.ALL_FEATURES, 1),
        # the public profile is taught from all features; the other eight
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
            ref_points, ref_best = sweep_lambda(
                train, valid, profile, config, train_privileged(train, profile, config)
            )
            assert points == ref_points, profile.name
            assert best.lam == ref_best.lam
            assert models_equal(best.distilled, ref_best.distilled), profile.name

    def test_pool_returns_the_sequential_results_in_order(self, cohorts):
        catalog, train, valid = cohorts
        profiles = list(default_catalog(catalog))[:4]
        config = DistillationConfig(lambda_grid=(0.0, 0.5), train=fast_train(6))
        teachers = {}
        one = sweep_profiles(train, valid, profiles, config, teachers)
        two = sweep_profiles(train, valid, profiles, config, dict(teachers), jobs=2)
        assert [best.profile for _, best in two] == profiles
        for (points1, best1), (points2, best2) in zip(one, two):
            assert points1 == points2
            assert best1.lam == best2.lam and best1.metrics == best2.metrics
            assert models_equal(best1.distilled, best2.distilled)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_profiles, jobs, pools", [
        (3, 10**9, [3]),  # capped at the model count, no process started
        (3, 2, [2]),
        (3, 1, []),       # built-in map, no pool
        (1, 8, []),       # one model never fans out
    ])
    def test_workers_capped_at_the_model_count(
        self, cohorts, pool_sizes, monkeypatch, n_profiles, jobs, pools
    ):
        monkeypatch.setattr(distillation, "_usable_cpus", lambda: 64)
        catalog, train, valid = cohorts
        profiles = list(default_catalog(catalog))[:n_profiles]
        config = DistillationConfig(lambda_grid=(0.0,), train=fast_train(2))
        results = sweep_profiles(train, valid, profiles, config, jobs=jobs)
        assert pool_sizes == pools
        assert [best.profile for _, best in results] == profiles

    @pytest.mark.parametrize("cpus, jobs, pools", [
        (2, 10**9, [2]),  # capped at the usable CPUs, below the 3 models
        (2, 3, [2]),
        (8, 3, [3]),      # the model count still caps first
        (1, 3, []),       # one CPU runs in this process
    ])
    def test_workers_capped_at_the_usable_cpus(
        self, cohorts, pool_sizes, monkeypatch, cpus, jobs, pools
    ):
        monkeypatch.setattr(distillation, "_usable_cpus", lambda: cpus)
        catalog, train, valid = cohorts
        profiles = list(default_catalog(catalog))[:3]
        config = DistillationConfig(lambda_grid=(0.0,), train=fast_train(2))
        results = sweep_profiles(train, valid, profiles, config, jobs=jobs)
        assert pool_sizes == pools
        assert [best.profile for _, best in results] == profiles

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_lambda_zero_is_plain_training_at_the_shape_train_runs(
        self, cohorts, monkeypatch, jobs
    ):
        """Every profile on the 11-point grid, 99 students dealt to ``jobs``
        workers and grouped by profile: each profile's lambda = 0 point
        scores as the plain fit on its visible columns."""
        monkeypatch.setattr(distillation, "_usable_cpus", lambda: 2)
        catalog, train, valid = cohorts
        profiles = list(default_catalog(catalog))
        config = DistillationConfig(lambda_grid=DEFAULT_GRID, train=fast_train(8))
        results = sweep_profiles(train, valid, profiles, config, jobs=jobs)
        assert len(DEFAULT_GRID) == 11 and len(results) == len(profiles) == 9
        for profile, (points, _) in zip(profiles, results):
            plain = train_mlp(train.X[:, list(profile.visible_features)], train.y, config.train)
            assert points[0] == (0.0, evaluate_model(plain, valid, profile)), profile.name
        assert multiprocessing.active_children() == []


class TestSweep:
    def test_grid_of_zero_equals_partial_baseline(self, cohorts):
        catalog, train, valid = cohorts
        profiles = default_catalog(catalog)
        profile = profiles.resolve("With all except background")
        config = DistillationConfig(lambda_grid=(0.0,), train=fast_train(1))
        teacher = train_privileged(train, profile, config)
        points, best = sweep_lambda(train, valid, profile, config, teacher)
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
        profile = profiles.resolve("With all except phenotypic")
        config = DistillationConfig(
            lambda_grid=(0.0, 0.5, 1.0), train=fast_train(9)
        )
        first_points, first_best = sweep_lambda(
            train, valid, profile, config, train_privileged(train, profile, config)
        )
        again_points, again_best = sweep_lambda(
            train, valid, profile, config, train_privileged(train, profile, config)
        )
        assert [(l, r.mae) for l, r in first_points] == [
            (l, r.mae) for l, r in again_points
        ]
        assert first_best.lam == again_best.lam
        assert models_equal(first_best.distilled, again_best.distilled)

    def test_best_ties_to_smaller_lambda(self, cohorts):
        catalog, train, valid = cohorts
        profiles = default_catalog(catalog)
        profile = profiles.resolve("With all except demographic")
        config = DistillationConfig(lambda_grid=(0.0, 0.3), train=fast_train(2))
        teacher = train_privileged(train, profile, config)
        points, best = sweep_lambda(train, valid, profile, config, teacher)
        maes = [r.mae for _, r in points]
        assert best.lam == points[int(np.argmin(maes))][0]

    def test_bundle_dimension_validation(self, cohorts):
        catalog, train, valid = cohorts
        profiles = default_catalog(catalog)
        profile = profiles.resolve("With all except genotypic")
        config = DistillationConfig(lambda_grid=(0.0,), train=fast_train())
        teacher = train_privileged(train, profile, config)
        _, bundle = sweep_lambda(train, valid, profile, config, teacher)
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
        profile = profiles.resolve("With all except genotypic")

        def mean_abs_pred(temperature):
            config = DistillationConfig(
                lambda_grid=(0.5,), temperature=temperature, train=fast_train(3)
            )
            teacher = train_privileged(train, profile, config)
            student = train_distilled(train, profile, teacher, config)
            preds = student.predict(valid.X[:, list(profile.visible_features)])
            return float(np.mean(np.abs(preds)))

        assert mean_abs_pred(50.0) < 0.6 * mean_abs_pred(1.0)


def _callers(path: Path, name: str) -> list[tuple[str, str]]:
    """(file, top-level function or Class.method) of each use of the function
    ``name``: a call, or the function passed on to a map."""
    scopes = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{getattr(m, 'name', '')}", m) for m in node.body]
        else:
            scopes.append((getattr(node, "name", "<module>"), node))
    return [
        (path.name, scope_name)
        for scope_name, scope in scopes
        for node in ast.walk(scope)
        if isinstance(node, (ast.Name, ast.Attribute))
        and getattr(node, "id", getattr(node, "attr", None)) == name
    ]


def test_only_the_recipe_splits():
    """Every split that trains a model comes from ``DistillationConfig.split``,
    so the split ratio and seed cannot drift from the recipe; select-features
    has no recipe and splits by hand."""
    package = Path(distillation.__file__).parent
    callers = [c for p in sorted(package.glob("*.py")) for c in _callers(p, "split_cohorts")]
    assert callers == [
        ("cli.py", "_cmd_select_features"),
        ("distillation.py", "DistillationConfig.split"),
    ]


def test_only_the_student_builder_trains_students():
    """Soft targets are made, and the training kernel entered, only where
    every student is built, and the kernel also by ``train_mlp``; so
    ``train_distilled`` asks the builder for its student, with no arithmetic
    of its own, and no second student path can come back. ``columns=None``
    takes the kernel's one gather: its only None test is of ``columns``."""
    package = Path(distillation.__file__).parent

    def callers(name):
        return {c for path in package.glob("*.py") for c in _callers(path, name)}

    def function(module, name):
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        return next(f for f in tree.body if getattr(f, "name", None) == name)

    assert callers("soft_targets") == {("distillation.py", "_students")}
    assert callers("train_mlp_stack") == {
        ("distillation.py", "_students"), ("models.py", "train_mlp"),
    }
    assert ("distillation.py", "train_distilled") not in callers("train_mlp")
    distilled = function("distillation.py", "train_distilled")
    assert not [node for node in ast.walk(distilled) if isinstance(node, ast.BinOp)]
    assert [
        ast.unparse(node) for node in ast.walk(function("models.py", "train_mlp_stack"))
        if isinstance(node, ast.Compare) and any(
            isinstance(c, ast.Constant) and c.value is None for c in node.comparators
        )
    ] == ["columns is None"]
