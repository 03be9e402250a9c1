"""Regression cores: damped least squares and a one-hidden-layer ReLU MLP.

Both models expose ``predict(X) -> vector`` over row matrices. MLP training
is plain mini-batch Adam on squared error against whatever target vector the
caller supplies (ground-truth doses, imitation targets, or a blend), with
deterministic shuffling and early stopping on a held-out slice of the
training rows. Every training run is a pure function of (data, config).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, TrainingDivergedError

LSQ_DAMPING = 1e-8


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D row matrix, got shape {X.shape}")
    return X


@dataclass(frozen=True)
class LinearModel:
    """f(x) = alpha . x + beta"""

    alpha: np.ndarray
    beta: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.alpha)) or not np.isfinite(self.beta):
            raise DataError("linear model has non-finite coefficients")

    @property
    def dim(self) -> int:
        return len(self.alpha)

    def predict(self, X) -> np.ndarray:
        X = _as_matrix(X)
        if X.shape[1] != self.dim:
            raise ValueError(f"model takes {self.dim} features, got {X.shape[1]}")
        return X @ self.alpha + self.beta


def fit_least_squares(X, y, damping: float = LSQ_DAMPING) -> LinearModel:
    """Minimize mean squared error via the normal equations.

    A Tikhonov damping term keeps the system solvable when encoded
    categorical columns are collinear; at 1e-8 it is far below any
    meaningful coefficient scale.
    """
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if n < 1:
        raise ValueError("need at least one row")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DataError("least-squares inputs must be finite")
    a = np.hstack([X, np.ones((n, 1))])
    gram = a.T @ a + damping * np.eye(d + 1)
    coef = np.linalg.solve(gram, a.T @ y)
    return LinearModel(coef[:d], float(coef[d]))


@dataclass(frozen=True)
class MlpModel:
    """One hidden layer of rectified linear units, linear output."""

    W1: np.ndarray  # hidden x d
    b1: np.ndarray  # hidden
    w2: np.ndarray  # hidden
    b2: float

    def __post_init__(self):
        h, d = self.W1.shape
        if self.b1.shape != (h,) or self.w2.shape != (h,):
            raise ValueError("parameter shapes are inconsistent")
        for p in (self.W1, self.b1, self.w2):
            if not np.all(np.isfinite(p)):
                raise DataError("MLP has non-finite parameters")
        if not np.isfinite(self.b2):
            raise DataError("MLP has non-finite parameters")

    @property
    def dim(self) -> int:
        return self.W1.shape[1]

    @property
    def hidden(self) -> int:
        return self.W1.shape[0]

    def predict(self, X) -> np.ndarray:
        X = _as_matrix(X)
        if X.shape[1] != self.dim:
            raise ValueError(f"model takes {self.dim} features, got {X.shape[1]}")
        h = np.maximum(X @ self.W1.T + self.b1, 0.0)
        return h @ self.w2 + self.b2


def mlp_new(d: int, hidden: int = 32, seed: int = 0) -> MlpModel:
    """Glorot-uniform weights, zero biases; deterministic under seed."""
    if d < 1 or hidden < 1:
        raise ValueError("d and hidden must be >= 1")
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (d + hidden))
    lim2 = np.sqrt(6.0 / (hidden + 1))
    return MlpModel(
        W1=rng.uniform(-lim1, lim1, size=(hidden, d)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-lim2, lim2, size=hidden),
        b2=0.0,
    )


@dataclass(frozen=True)
class MlpGradients:
    dW1: np.ndarray
    db1: np.ndarray
    dw2: np.ndarray
    db2: float


def _forward_backward(W1, b1, w2, b2, X, t):
    """Batch MSE loss and its exact gradients. ReLU derivative at 0 is 0."""
    pre = X @ W1.T + b1
    h = np.maximum(pre, 0.0)
    pred = h @ w2 + b2
    err = pred - t
    n = len(t)
    loss = float(err @ err) / n
    g = err * (2.0 / n)
    db2 = float(g.sum())
    dw2 = h.T @ g
    dh = np.outer(g, w2)
    dh *= pre > 0
    db1 = dh.sum(axis=0)
    dW1 = dh.T @ X
    return loss, dW1, db1, dw2, db2


def mlp_gradient(model: MlpModel, X, targets) -> MlpGradients:
    """Exact analytic gradient of the batch mean-squared-error loss."""
    X = _as_matrix(X)
    targets = np.asarray(targets, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    if X.shape[1] != model.dim:
        raise ValueError(f"model takes {model.dim} features, got {X.shape[1]}")
    if targets.shape != (X.shape[0],):
        raise ValueError(f"targets shape {targets.shape} != ({X.shape[0]},)")
    _, dW1, db1, dw2, db2 = _forward_backward(
        model.W1, model.b1, model.w2, model.b2, X, targets
    )
    return MlpGradients(dW1, db1, dw2, db2)


@dataclass(frozen=True)
class TrainConfig:
    """Adam + early-stopping hyperparameters."""

    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 500
    patience: int = 20
    seed: int = 0
    hidden: int = 32
    holdout_fraction: float = 0.1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam betas must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience > self.max_epochs:
            raise ValueError("patience cannot exceed max_epochs")
        if not 0 < self.holdout_fraction < 1:
            raise ValueError("holdout_fraction must be in (0, 1)")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")


def train_mlp(X, targets, config: TrainConfig) -> MlpModel:
    """Mini-batch Adam on squared error, returning the best held-out epoch.

    The early-stopping slice is the last 10% of a seeded shuffle of the
    training rows, so reported validation metrics never leak into stopping.
    Targets are centered internally (the mean is folded back into the output
    bias), which is exact and speeds up convergence on dose-scale targets.
    Deterministic: two runs with identical inputs and config return
    parameter-identical models.
    """
    X = _as_matrix(X)
    t = np.asarray(targets, dtype=float)
    n, d = X.shape
    if t.shape != (n,):
        raise ValueError(f"targets shape {t.shape} != ({n},)")
    if n < 2:
        raise DataError(f"need at least 2 rows to train, got {n}")

    rng = np.random.default_rng(config.seed + 1)  # init uses config.seed itself
    perm = rng.permutation(n)
    n_hold = min(max(1, int(round(n * config.holdout_fraction))), n - 1)
    fit_idx, hold_idx = perm[: n - n_hold], perm[n - n_hold :]
    Xf, tf = X[fit_idx], t[fit_idx]
    Xh, th = X[hold_idx], t[hold_idx]

    mu = float(tf.mean())
    tf = tf - mu
    th = th - mu

    init = mlp_new(d, config.hidden, config.seed)
    params = [init.W1.copy(), init.b1.copy(), init.w2.copy(), np.float64(init.b2)]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    lr, b1c, b2c, eps = (
        config.learning_rate,
        config.adam_beta1,
        config.adam_beta2,
        config.adam_eps,
    )

    best_loss = np.inf
    best_params = [p.copy() for p in params]
    since_best = 0
    step = 0
    n_fit = len(fit_idx)

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n_fit)
        for start in range(0, n_fit, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, *grads = _forward_backward(
                params[0], params[1], params[2], params[3], Xf[idx], tf[idx]
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite training loss at epoch {epoch}", epoch
                )
            step += 1
            corr1 = 1.0 - b1c**step
            corr2 = 1.0 - b2c**step
            for k, g in enumerate(grads):
                m[k] = b1c * m[k] + (1.0 - b1c) * g
                v[k] = b2c * v[k] + (1.0 - b2c) * np.square(g)
                params[k] = params[k] - lr * (m[k] / corr1) / (
                    np.sqrt(v[k] / corr2) + eps
                )

        h = np.maximum(Xh @ params[0].T + params[1], 0.0)
        hold_loss = float(np.mean((h @ params[2] + params[3] - th) ** 2))
        if not np.isfinite(hold_loss):
            raise TrainingDivergedError(
                f"non-finite held-out loss at epoch {epoch}", epoch
            )
        if hold_loss < best_loss:
            best_loss = hold_loss
            best_params = [p.copy() for p in params]
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    W1, b1, w2, b2 = best_params
    return MlpModel(W1, b1, w2, float(b2) + mu)


def models_equal(a: MlpModel, b: MlpModel, tol: float = 0.0) -> bool:
    if a.W1.shape != b.W1.shape:
        return False
    parts = ((a.W1, b.W1), (a.b1, b.b1), (a.w2, b.w2))
    if tol == 0.0:
        return all(np.array_equal(x, y) for x, y in parts) and a.b2 == b.b2
    return all(np.allclose(x, y, rtol=0, atol=tol) for x, y in parts) and abs(
        a.b2 - b.b2
    ) <= tol
