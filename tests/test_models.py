"""Linear least squares, MLP forward/backward, Adam training."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from dosedistill import models
from dosedistill.errors import DataError, TrainingDivergedError
from dosedistill.models import (
    LSQ_DAMPING,
    LinearModel,
    MlpModel,
    TrainConfig,
    fit_least_squares,
    mlp_new,
    train_mlp,
    train_mlp_stack,
)
from dosedistill.serialize import model_from_obj, model_to_obj

from conftest import same_model


def pinv_solution(X, y):
    """Minimum-norm least squares via explicit SVD, as an independent oracle."""
    a = np.hstack([X, np.ones((X.shape[0], 1))])
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    inv = np.where(s > 1e-12 * s.max(), 1.0 / np.where(s > 0, s, 1.0), 0.0)
    w = vt.T @ (inv * (u.T @ y))
    return w[:-1], w[-1]


class TestLeastSquares:
    def test_exact_linear_data(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        model = fit_least_squares(X, y)
        assert model.alpha[0] == pytest.approx(2.0, abs=1e-6)
        assert model.beta == pytest.approx(0.0, abs=1e-6)

    def test_duplicated_column_matches_pinv_oracle(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([x, x])  # perfectly collinear
        y = np.array([2.1, 3.9, 6.2, 7.8])
        model = fit_least_squares(X, y)
        alpha_star, beta_star = pinv_solution(X, y)
        np.testing.assert_allclose(model.alpha, alpha_star, atol=1e-6)
        assert model.beta == pytest.approx(beta_star, abs=1e-6)
        assert np.all(np.isfinite(model.alpha))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fit_least_squares(np.ones((3, 2)), np.ones(4))

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X = rng.standard_normal((30, 4))
            y = rng.standard_normal(30)
            model = fit_least_squares(X, y)
            resid = y - model.predict(X)
            np.testing.assert_allclose(
                X.T @ resid, LSQ_DAMPING * model.alpha, atol=1e-6
            )

    def test_predict_linear_cases(self):
        assert LinearModel(np.array([2.0]), 0.0).predict([[3.0]])[0] == 6.0
        assert LinearModel(np.zeros(3), 5.5).predict([[9, 9, 9]])[0] == 5.5
        assert LinearModel(np.array([1.0, -1.0]), 1.0).predict([[2, 2]])[0] == 1.0
        with pytest.raises(ValueError):
            LinearModel(np.array([1.0]), 0.0).predict([[1.0, 2.0]])


class TestMlpBasics:
    def test_new_deterministic(self):
        a, b = mlp_new(7, 5, seed=3), mlp_new(7, 5, seed=3)
        assert same_model(a, b)

    def test_new_shapes_and_bounds(self):
        m = mlp_new(33, 32, seed=0)
        assert m.W1.shape == (32, 33)
        assert m.w2.shape == (32,)
        assert np.all(np.abs(m.W1) <= np.sqrt(6.0 / (33 + 32)))
        assert np.all(m.b1 == 0) and m.b2 == 0.0

    def test_forward_zero_params(self):
        m = MlpModel(np.zeros((4, 3)), np.zeros(4), np.zeros(4), 0.0)
        assert m.predict([[1.0, 2.0, 3.0]])[0] == 0.0

    def test_forward_dead_unit(self):
        m = MlpModel(np.array([[1.0]]), np.array([-5.0]), np.array([1.0]), 0.0)
        assert m.predict([[3.0]])[0] == 0.0

    def test_forward_active_unit(self):
        m = MlpModel(np.array([[1.0]]), np.array([0.0]), np.array([2.0]), 1.0)
        assert m.predict([[3.0]])[0] == 7.0

    def test_forward_dim_check(self):
        with pytest.raises(ValueError):
            mlp_new(3, 2, 0).predict([[1.0, 2.0]])


def gradient(model: MlpModel, X, targets) -> tuple:
    """``(dW1, db1, dw2, db2)`` of the batch MSE, by the training kernel's
    own backward pass on a one-member stack."""
    p = models._Flat.stack([model], [1])
    g = p.like(np.empty_like(p.buf))
    T = np.asarray(targets, dtype=float)[None]
    models._backprop(p, [np.asarray(X, dtype=float)], T, g)
    return g.member(0)


class TestGradient:
    def test_zero_model_output_bias_gradient(self):
        m = MlpModel(np.zeros((2, 1)), np.zeros(2), np.zeros(2), 0.0)
        dW1, db1, dw2, db2 = gradient(m, [[1.0]], [4.0])
        assert db2 == -8.0  # 2 * (0 - 4)
        assert np.all(dW1 == 0) and np.all(dw2 == 0) and np.all(db1 == 0)

    def test_identical_rows_equal_single_row(self):
        m = mlp_new(3, 4, seed=1)
        X = np.array([[0.3, -1.2, 0.7]])
        dW1, _, _, db2 = gradient(m, X, [2.0])
        dW1_3, _, _, db2_3 = gradient(m, np.repeat(X, 3, axis=0), [2.0, 2.0, 2.0])
        np.testing.assert_allclose(dW1, dW1_3, atol=1e-14)
        assert db2 == pytest.approx(db2_3, abs=1e-14)

    def test_against_central_finite_differences(self):
        max_rel = gradient_check(n_cases=100, seed=2024)
        assert max_rel < 1e-5


def gradient_check(n_cases: int, seed: int) -> float:
    """Max relative error of analytic gradients vs central differences.

    Coordinates where a hidden pre-activation sits within 1e-7 of zero are
    skipped (the ReLU kink makes finite differences meaningless there).
    """
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    for _ in range(n_cases):
        d = int(rng.integers(1, 6))
        hidden = int(rng.integers(1, 5))
        b = int(rng.integers(1, 4))
        model = MlpModel(
            rng.uniform(-1, 1, (hidden, d)),
            rng.uniform(-1, 1, hidden),
            rng.uniform(-1, 1, hidden),
            float(rng.uniform(-1, 1)),
        )
        X = rng.uniform(-2, 2, (b, d))
        t = rng.uniform(-3, 3, b)
        ana = gradient(model, X, t)
        pre = X @ model.W1.T + model.b1  # b x hidden

        def loss(W1, b1, w2, b2):
            pred = np.maximum(X @ W1.T + b1, 0.0) @ w2 + b2
            return float(np.mean((pred - t) ** 2))

        params = [model.W1.copy(), model.b1.copy(), model.w2.copy(),
                  np.array([model.b2])]
        grads = [*ana[:3], np.array([ana[3]])]
        for k, (p, g) in enumerate(zip(params, grads)):
            flat_p, flat_g = p.ravel(), g.ravel()
            for i in range(flat_p.size):
                if k in (0, 1):  # W1 or b1: unit u's kink matters
                    u = i // d if k == 0 else i
                    if np.min(np.abs(pre[:, u])) < 1e-7:
                        continue
                orig = flat_p[i]
                flat_p[i] = orig + h
                up = loss(params[0], params[1], params[2], float(params[3][0]))
                flat_p[i] = orig - h
                dn = loss(params[0], params[1], params[2], float(params[3][0]))
                flat_p[i] = orig
                fd = (up - dn) / (2 * h)
                rel = abs(flat_g[i] - fd) / max(abs(flat_g[i]) + abs(fd), 1e-4)
                worst = max(worst, rel)
    return worst


class TestTraining:
    def test_deterministic(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((60, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + 30
        cfg = TrainConfig(seed=5, max_epochs=40, patience=10)
        assert same_model(train_mlp(X, y, cfg), train_mlp(X, y, cfg))

    def test_fits_noiseless_linear_data(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((400, 5))
        y = X @ np.array([3.0, -2.0, 1.0, 0.5, 2.0]) + 40
        model = train_mlp(X, y, TrainConfig(seed=1))
        train_mae = float(np.mean(np.abs(model.predict(X) - y)))
        baseline = fit_least_squares(X, y)
        lsq_mae = float(np.mean(np.abs(baseline.predict(X) - y)))
        assert train_mae < lsq_mae + 0.1  # noise floor here is ~0

    def test_divergence_error_names_epoch(self):
        X = np.ones((10, 2)) + np.arange(20).reshape(10, 2)
        y = np.full(10, np.nan)
        with pytest.raises(TrainingDivergedError, match="at epoch 1$"):
            train_mlp(X, y, TrainConfig(seed=0))

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            train_mlp(np.ones((1, 2)), [1.0], TrainConfig(seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0)
        with pytest.raises(ValueError):
            TrainConfig(adam_beta1=1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=600, max_epochs=500)
        for lr in (float("nan"), float("inf"), -1e-3):
            with pytest.raises(ValueError, match="must be finite and positive"):
                TrainConfig(learning_rate=lr)
        with pytest.raises(ValueError, match="patience must be in"):
            TrainConfig(patience=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)
        for eps in (-1, 0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="adam_eps must be finite and positive"):
                TrainConfig(adam_eps=eps)
        for field, value, kind in [
            ("seed", True, "an int"), ("hidden", 1.5, "an int"),
            ("learning_rate", "x", "a number"),
        ]:
            with pytest.raises(TypeError, match=f"{field} must be {kind}, got {value!r}"):
                TrainConfig(**{field: value})
        with pytest.raises(ValueError, match="hidden must fit in 64 bits"):
            TrainConfig(hidden=2**63)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="max_epochs must be >= 1"):
            TrainConfig(max_epochs=0, patience=0)
        assert TrainConfig(max_epochs=1, patience=0).max_epochs == 1


def stopping_targets():
    """Five target rows on shared X whose lone fits stop at different epochs."""
    rng = np.random.default_rng(11)
    X = rng.standard_normal((120, 3))
    line = X @ np.array([2.0, -1.0, 0.5]) + 20
    noise = rng.standard_normal(120)
    T = np.stack([
        line,
        line + 3 * noise,
        10 * np.sin(3 * X[:, 0]) + 20,
        0.5 * line + 5 * noise,
        10 * noise + 20,
    ])
    return X, T


class TestStack:
    def test_each_member_equals_its_lone_fit(self):
        # with patience 3, members 1 and 3 stop at epochs 4 and 19 and the
        # others run to the 60-epoch cap, so members leave at different epochs
        X, T = stopping_targets()
        cfg = TrainConfig(seed=4, max_epochs=60, patience=3)
        stacked = train_mlp_stack(X, T, cfg)
        assert len(stacked) == len(T)
        for k, model in enumerate(stacked):
            assert same_model(model, train_mlp(X, T[k], cfg)), f"member {k}"

    def test_one_diverging_member_raises(self):
        X, T = stopping_targets()
        T[2] *= 1e200  # finite targets whose squared error overflows
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train_mlp_stack(X, T, TrainConfig(seed=4, max_epochs=60, patience=3))

    def test_divergence_raises_without_numpy_warnings(self):
        X, T = stopping_targets()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would surface here
            with pytest.raises(TrainingDivergedError, match="epoch 1"):
                train_mlp_stack(
                    X, T, TrainConfig(learning_rate=1e300, max_epochs=5, patience=1)
                )

    def test_a_finite_divergence_raises(self):
        """A member that ends far worse than predicting its mean has diverged,
        even though every loss it saw was finite."""
        X, T = stopping_targets()
        cfg = TrainConfig(seed=4, max_epochs=60, patience=3)
        assert len(train_mlp_stack(X, T, cfg)) == len(T)
        diverged = r"over 10 times .* constant prediction at epoch \d+$"
        with pytest.raises(TrainingDivergedError, match=diverged):
            train_mlp_stack(X, T, replace(cfg, learning_rate=1e9))

    def test_targets_must_be_one_row_per_member(self):
        X, T = stopping_targets()
        with pytest.raises(ValueError, match="targets shape"):
            train_mlp_stack(X, T[:, :-1], TrainConfig(seed=0))
        with pytest.raises(ValueError, match="targets shape"):
            train_mlp_stack(X, T[0], TrainConfig(seed=0))
        with pytest.raises(ValueError, match="targets shape"):
            train_mlp(X, T[0, :-1], TrainConfig(seed=0))


def grouped_targets():
    """Six target rows on shared X, in groups that read 1, 4 and all 13 columns."""
    rng = np.random.default_rng(21)
    X = rng.standard_normal((150, 13))
    noise = rng.standard_normal(150)
    line = X[:, :4] @ np.array([2.0, -1.0, 0.5, 1.0]) + 20
    T = np.stack([
        line + 3 * noise,
        line,
        10 * np.sin(3 * X[:, 1]) + 20,
        10 * noise + 20,
        0.5 * line + 5 * noise,
        line + X[:, 12],
    ])
    columns = [(0,)] + [(1, 2, 3, 4)] * 3 + [tuple(range(13))] * 2
    return X, T, columns


class TestGroupedStack:
    def test_each_member_equals_its_lone_fit_on_its_columns(self, monkeypatch):
        X, T, columns = grouped_targets()
        layouts = []
        kept = models._Flat.kept

        def spy(self, keep, buf):
            layout = kept(self, keep, buf)
            layouts.append(list(zip(layout.widths, layout.counts)))
            return layout

        monkeypatch.setattr(models._Flat, "kept", spy)
        cfg = TrainConfig(seed=4, max_epochs=60, patience=3)
        grouped = train_mlp_stack(X, T, cfg, columns)
        # members leave at several epochs, and a whole group leaves while
        # the others still train
        assert len(layouts) >= 3
        assert any(0 < len(layout) < 3 for layout in layouts)
        assert len(grouped) == len(T)
        for k, (model, cols) in enumerate(zip(grouped, columns)):
            assert same_model(model, train_mlp(X[:, list(cols)], T[k], cfg)), f"member {k}"

    def test_a_diverging_member_raises_at_its_own_epoch(self):
        """Two fit rows whose squared errors each fit in a float overflow
        their sum in the first epoch whose shuffle puts them in one batch."""
        X, T, columns = grouped_targets()
        T[2, [2, 3]] = 1e154
        cfg = TrainConfig(seed=4, max_epochs=60, patience=60)
        with pytest.raises(TrainingDivergedError) as lone:
            train_mlp(X[:, list(columns[2])], T[2], cfg)
        assert int(str(lone.value).rsplit(" ", 1)[1]) > 1  # "... at epoch N"
        with pytest.raises(TrainingDivergedError) as grouped:
            train_mlp_stack(X, T, cfg, columns)
        assert str(grouped.value) == str(lone.value)

    def test_one_column_list_per_member(self):
        X, T, columns = grouped_targets()
        with pytest.raises(ValueError, match="column lists"):
            train_mlp_stack(X, T, TrainConfig(seed=0), columns[:-1])


class TestSerialization:
    def test_mlp_round_trip_bit_faithful(self):
        m = mlp_new(6, 4, seed=9)
        back = model_from_obj(model_to_obj(m))
        assert np.array_equal(m.W1, back.W1)
        assert np.array_equal(m.b1, back.b1)
        assert np.array_equal(m.w2, back.w2)
        assert m.b2 == back.b2


def _held_out_overflow():
    """A target of 1e300 on the one held-out row: every training loss is
    finite, and the first held-out loss overflows."""
    X, T = stopping_targets()
    X, t = X[:10], T[0, :10].copy()
    cfg = TrainConfig(seed=4)
    # the held-out row is the last of the split's shuffle, as in train_mlp_stack
    t[np.random.default_rng(cfg.seed + 1).permutation(10)[-1]] = 1e300
    train_mlp(X, t, cfg)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: mlp_new(2, 2, 0).predict([1.0, 2.0]),
         ValueError, r"^expected a 2-D row matrix, got shape \(2,\)$"),
        (lambda: LinearModel(np.array([1.0, np.nan]), 0.0),
         DataError, "^linear model has non-finite coefficients$"),
        (lambda: LinearModel(np.ones(2), float("inf")),
         DataError, "^linear model has non-finite coefficients$"),
        (lambda: fit_least_squares(np.empty((0, 2)), np.empty(0)),
         ValueError, "^need at least one row$"),
        (lambda: fit_least_squares([[1.0], [np.inf]], [1.0, 2.0]),
         DataError, "^least-squares inputs must be finite$"),
        (lambda: fit_least_squares([[1.0], [2.0]], [1.0, np.nan]),
         DataError, "^least-squares inputs must be finite$"),
        (lambda: mlp_new(0, 2, 0), ValueError, "^d and hidden must be >= 1$"),
        (lambda: TrainConfig(hidden=0), ValueError, "^hidden must be >= 1$"),
        (_held_out_overflow, TrainingDivergedError, "^non-finite held-out loss at epoch 1$"),
    ],
    ids=["as-matrix-1d", "linear-nan-alpha", "linear-inf-beta", "lsq-no-rows",
         "lsq-inf-x", "lsq-nan-y", "mlp-new-d0", "config-hidden-0", "held-out-overflow"],
)
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
