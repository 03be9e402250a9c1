"""Regression cores: damped least squares and a one-hidden-layer ReLU MLP.

Both models expose ``predict(X) -> vector`` over row matrices. MLP training
is plain mini-batch Adam on squared error against whatever target vector the
caller supplies (ground-truth doses, imitation targets, or a blend), with
deterministic shuffling and early stopping on a held-out slice of the
training rows. Every training run is a pure function of (data, config).

There is one training kernel, ``train_mlp_stack``: it trains K models on the
same rows and config at once, one per target vector, each on its own list of
columns, as one flat parameter stack. Members that read the same columns
form a group, which runs its first-layer products at its own width; every
other operation runs once over the whole stack. Nothing but the targets and
the columns tells the K runs apart, and Adam is elementwise, so each member
is bit for bit the model a lone run returns. ``train_mlp`` is its K = 1
case.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import groupby

import numpy as np

from .errors import DataError, TrainingDivergedError

LSQ_DAMPING = 1e-8
# A member whose best held-out loss is over this many times the loss of
# predicting its mean has diverged. The worst member of a default `train`
# reaches 0.997 of it, and of the criterion-9 `train` 0.971.
DIVERGENCE_RATIO = 10.0


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


def fit_least_squares(X, y) -> LinearModel:
    """Minimize mean squared error via the normal equations.

    A Tikhonov damping term keeps the system solvable when encoded
    categorical columns are collinear; at 1e-8 it is far below any
    meaningful coefficient scale.
    """
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    n = len(X)
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if n < 1:
        raise ValueError("need at least one row")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DataError("least-squares inputs must be finite")
    a = np.hstack([X, np.ones((n, 1))])
    return solve_normal_equations(a.T @ a, a.T @ y)


def solve_normal_equations(gram, rhs) -> LinearModel:
    """The damped least-squares model from the normal equations of ``[X, 1]``.

    ``gram`` is ``[X, 1]ᵀ[X, 1]`` and ``rhs`` is ``[X, 1]ᵀy``, the intercept
    last; ``LSQ_DAMPING`` is added to the diagonal before the solve.
    """
    d = len(rhs) - 1
    coef = np.linalg.solve(gram + LSQ_DAMPING * np.eye(d + 1), rhs)
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


def mlp_new(d: int, hidden: int, seed: int) -> MlpModel:
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


class _Flat:
    """The parameter sets (or gradients) of K members in one flat buffer.

    The members come in groups that read the same columns: group j holds
    ``counts[j]`` members of ``widths[j]`` inputs, and ``W1[j]``
    (counts[j], hidden, widths[j]) is their first layer. ``b1`` (K, hidden),
    ``w2`` (K, hidden) and ``b2`` (K,) hold every member's other parameters
    in group order. All are views into ``buf``, so one ufunc call on ``buf``
    touches every parameter of every member.
    """

    def __init__(self, buf: np.ndarray, hidden: int, widths: list[int], counts: list[int]):
        self.buf, self.hidden, self.widths, self.counts = buf, hidden, widths, counts
        self.W1, self.bounds, at, first = [], [], 0, 0
        for d, k in zip(widths, counts):
            self.W1.append(buf[at : at + k * hidden * d].reshape(k, hidden, d))
            self.bounds.append((first, first + k))
            at, first = at + k * hidden * d, first + k
        self.b1 = buf[at : at + first * hidden].reshape(first, hidden)
        self.w2 = buf[at + first * hidden : at + 2 * first * hidden].reshape(first, hidden)
        self.b2 = buf[at + 2 * first * hidden :]

    @classmethod
    def stack(cls, models: list[MlpModel], counts: list[int]) -> "_Flat":
        """``counts[j]`` copies of ``models[j]`` for each j, in a fresh buffer."""
        parts = [np.tile(m.W1.ravel(), k) for m, k in zip(models, counts)]
        for part in ("b1", "w2"):
            parts += [np.tile(getattr(m, part), k) for m, k in zip(models, counts)]
        parts += [np.full(k, m.b2) for m, k in zip(models, counts)]
        widths = [m.dim for m in models]
        return cls(np.concatenate(parts), models[0].hidden, widths, counts)

    def like(self, buf: np.ndarray) -> "_Flat":
        return _Flat(buf, self.hidden, self.widths, self.counts)

    def owners(self) -> np.ndarray:
        """The member each element of ``buf`` belongs to."""
        K = len(self.b2)
        W1 = [np.repeat(np.arange(a, b), self.hidden * d)
              for (a, b), d in zip(self.bounds, self.widths)]
        per_unit = np.repeat(np.arange(K), self.hidden)
        return np.concatenate([*W1, per_unit, per_unit, np.arange(K)])

    def kept(self, keep: np.ndarray, buf: np.ndarray) -> "_Flat":
        """The members where ``keep`` is true, from ``buf``, which holds only
        them but is laid out as this; a group left with none goes."""
        counts = [int(np.count_nonzero(keep[a:b])) for a, b in self.bounds]
        widths = [d for d, k in zip(self.widths, counts) if k]
        return _Flat(buf, self.hidden, widths, [k for k in counts if k])

    def member(self, k: int) -> tuple:
        """Member ``k``'s ``(W1, b1, w2, b2)``, copied out of the buffer."""
        for W1, (a, b) in zip(self.W1, self.bounds):
            if k < b:
                break
        return W1[k - a].copy(), self.b1[k].copy(), self.w2[k].copy(), float(self.b2[k])


def _forward(p: _Flat, Xs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Hidden units (K, n, hidden) and predictions (K, n); group j reads ``Xs[j]``."""
    h = np.empty((len(p.b2), len(Xs[0]), p.hidden))
    for W1, (a, b), X in zip(p.W1, p.bounds, Xs):
        np.matmul(X, W1.transpose(0, 2, 1), out=h[a:b])
    h += p.b1[:, None, :]
    np.maximum(h, 0.0, out=h)
    pred = np.matmul(h, p.w2[:, :, None])[:, :, 0]
    pred += p.b2[:, None]
    return h, pred


def _backprop(p: _Flat, Xs: list[np.ndarray], T: np.ndarray, g: _Flat) -> np.ndarray:
    """Batch MSE of member k against ``T[k]``, its exact gradient into ``g``.

    Returns the K losses. ReLU derivative at 0 is 0. Every product is one
    BLAS call per member (``matmul`` over a group, or over the stack once
    the columns are read) and every sum runs along one member's axis, so
    member k's numbers are those of a lone K = 1 call.
    """
    n = T.shape[1]
    h, err = _forward(p, Xs)
    err -= T
    loss = np.einsum("kn,kn->k", err, err) / n
    err *= 2.0 / n
    np.add.reduce(err, axis=1, out=g.b2)
    np.matmul(h.transpose(0, 2, 1), err[:, :, None], out=g.w2[:, :, None])
    active = h > 0
    dh = np.multiply(err[:, :, None], p.w2[:, None, :], out=h)  # h is spent
    dh *= active
    np.add.reduce(dh, axis=1, out=g.b1)
    for W1, (a, b), X in zip(g.W1, g.bounds, Xs):
        np.matmul(dh[a:b].transpose(0, 2, 1), X, out=W1)
    return loss


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
        for f in fields(self):  # the range checks below refuse nan and inf
            value = getattr(self, f.name)
            whole = type(f.default) is int  # a bool is neither an int nor a number here
            kind = "an int" if whole else "a number"
            if type(value) not in ((int,) if whole else (int, float)):
                raise TypeError(f"{f.name} must be {kind}, got {value!r}")
            if whole and not -2**63 <= value < 2**63:  # numpy counts and sizes in int64
                raise ValueError(f"{f.name} must fit in 64 bits")
        if not 0 < self.learning_rate < np.inf:  # refuses nan too
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam betas must be in [0, 1)")
        if not 0 < self.adam_eps < np.inf:
            raise ValueError(f"adam_eps must be finite and positive, got {self.adam_eps}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 0 <= self.patience <= self.max_epochs:
            raise ValueError(f"patience must be in [0, max_epochs], got {self.patience}")
        if not 0 < self.holdout_fraction < 1:
            raise ValueError("holdout_fraction must be in (0, 1)")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@np.errstate(over="ignore", invalid="ignore")  # divergence is raised below
def train_mlp_stack(X, targets, config: TrainConfig, columns=None) -> list[MlpModel]:
    """Train one model per row of ``targets`` (K, n) on the shared rows ``X``.

    Member k reads the columns ``columns[k]`` of ``X``, every column when
    ``columns`` is None, through the same gather. Each model is what a lone
    run of mini-batch Adam on squared error over its columns would return
    for its targets, bit for bit: the members share the hold-out split and
    every epoch's shuffle, because neither depends on the targets or the
    columns, and Adam updates each parameter on its own. Consecutive members
    that read the same columns form a group, which shares the seeded
    initialization at its width and runs its first-layer products as one
    ``matmul``; everything else runs once over all K parameter sets, which
    sit in one flat buffer that every step updates in place, with ``out=``
    ufuncs in the order of operations of a single run.

    The early-stopping slice is the last 10% of a seeded shuffle of the
    training rows, so reported validation metrics never leak into stopping.
    Each member keeps its own best held-out epoch and patience count, and
    leaves the stack when its patience runs out, its group with its last
    member. Targets are centered internally (each member's mean is folded
    back into its output bias), which is exact and speeds up convergence on
    dose-scale targets. A non-finite loss in any live member raises
    ``TrainingDivergedError`` at that epoch, and so does a member whose best
    held-out loss ends over ``DIVERGENCE_RATIO`` times that of a constant
    prediction at its mean.
    """
    X = _as_matrix(X)
    T = np.asarray(targets, dtype=float)
    n = X.shape[0]
    if T.ndim != 2 or T.shape[1] != n:
        raise ValueError(f"targets shape {T.shape} != (K, {n})")
    if n < 2:
        raise DataError(f"need at least 2 rows to train, got {n}")
    K = len(T)
    if columns is None:
        columns = [range(X.shape[1])] * K
    elif len(columns) != K:
        raise ValueError(f"{len(columns)} column lists for {K} rows of targets")
    runs = [(cols, len(list(run))) for cols, run in groupby(map(tuple, columns))]

    rng = np.random.default_rng(config.seed + 1)  # init uses config.seed itself
    perm = rng.permutation(n)
    n_hold = min(max(1, int(round(n * config.holdout_fraction))), n - 1)
    fit_idx, hold_idx = perm[: n - n_hold], perm[n - n_hold :]
    Xf = [X[np.ix_(fit_idx, cols)] for cols, _ in runs]  # each group's fit rows
    Xh = [X[np.ix_(hold_idx, cols)] for cols, _ in runs]  # and held-out rows
    Tf, Th = T[:, fit_idx], T[:, hold_idx]
    # row by row: Tf and Th, indexed by columns, are column-major, so a mean
    # along axis 1 would add each row in an order that depends on K
    mu = np.array([row.mean() for row in Tf])
    Tf -= mu[:, None]
    Th -= mu[:, None]
    # the held-out loss of predicting mu; no bound where the targets are all equal
    constant_loss = np.array([np.mean(np.square(row)) for row in Th])
    constant_loss[np.ptp(Th, axis=1) == 0] = np.inf

    p = _Flat.stack(
        [mlp_new(x.shape[1], config.hidden, config.seed) for x in Xf], [k for _, k in runs]
    )
    g = p.like(np.empty_like(p.buf))
    m, v, tmp = np.zeros_like(p.buf), np.zeros_like(p.buf), np.empty_like(p.buf)
    lr, b1c, b2c, eps = (
        config.learning_rate,
        config.adam_beta1,
        config.adam_beta2,
        config.adam_eps,
    )

    Xe, Te = [np.empty_like(x) for x in Xf], np.empty_like(Tf)  # this epoch's rows
    best = p.like(p.buf.copy())  # each live member's best parameters so far
    best_loss = np.full(K, np.inf)
    since_best = np.zeros(K, dtype=int)
    live = np.arange(K)  # member index of each live member
    owner = p.owners()  # live member of each element of p.buf
    done = [None] * K  # each member's best parameters once it has left
    step = 0
    n_fit = len(fit_idx)

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n_fit)
        for x, xe in zip(Xf, Xe):
            np.take(x, order, axis=0, out=xe)
        np.take(Tf, order, axis=1, out=Te)
        for start in range(0, n_fit, config.batch_size):
            stop = start + config.batch_size
            loss = _backprop(p, [xe[start:stop] for xe in Xe], Te[:, start:stop], g)
            if not np.isfinite(loss).all():
                raise TrainingDivergedError(f"non-finite training loss at epoch {epoch}")
            step += 1
            corr1 = 1.0 - b1c**step
            corr2 = 1.0 - b2c**step
            # v = b2c*v + (1-b2c)*g^2;  m = b1c*m + (1-b1c)*g
            v *= b2c
            np.square(g.buf, out=tmp)
            tmp *= 1.0 - b2c
            v += tmp
            m *= b1c
            g.buf *= 1.0 - b1c
            m += g.buf
            # p -= lr * (m/corr1) / (sqrt(v/corr2) + eps), g and tmp as scratch
            np.divide(m, corr1, out=g.buf)
            g.buf *= lr
            np.divide(v, corr2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += eps
            g.buf /= tmp
            p.buf -= g.buf

        err = _forward(p, Xh)[1]
        err -= Th
        hold_loss = np.mean(np.square(err, out=err), axis=1)
        if not np.isfinite(hold_loss).all():
            raise TrainingDivergedError(f"non-finite held-out loss at epoch {epoch}")
        better = hold_loss < best_loss[live]
        if better.any():
            best_loss[live[better]] = hold_loss[better]
            np.copyto(best.buf, p.buf, where=better[owner])
        since_best[live] = np.where(better, 0, since_best[live] + 1)
        keep = better | (since_best[live] < config.patience)
        if not keep.all():
            for k in np.flatnonzero(~keep):
                done[live[k]] = best.member(k)
            if not keep.any():
                break
            kept = keep[owner]
            Xf, Xh, Xe = (
                [x for x, (a, b) in zip(xs, p.bounds) if keep[a:b].any()]
                for xs in (Xf, Xh, Xe)
            )
            live = live[keep]
            p = p.kept(keep, p.buf[kept])
            best, g, owner = p.like(best.buf[kept]), p.like(np.empty_like(p.buf)), p.owners()
            m, v, tmp = m[kept], v[kept], tmp[kept]
            Tf, Th, Te = Tf[keep], Th[keep], Te[keep]
    else:  # the epoch cap, with members still live
        for k, member in enumerate(live):
            done[member] = best.member(k)

    diverged = best_loss > DIVERGENCE_RATIO * constant_loss
    if diverged.any():
        k = int(np.argmax(diverged))
        raise TrainingDivergedError(
            f"training diverged: best held-out loss {best_loss[k]:.3g} is over "
            f"{DIVERGENCE_RATIO:g} times the {constant_loss[k]:.3g} of a constant "
            f"prediction at epoch {epoch}"
        )
    return [MlpModel(W1, b1, w2, b2 + float(offset))
            for (W1, b1, w2, b2), offset in zip(done, mu)]


def train_mlp(X, targets, config: TrainConfig) -> MlpModel:
    """Mini-batch Adam on squared error, returning the best held-out epoch.

    The K = 1 case of ``train_mlp_stack``: deterministic, so two runs with
    identical inputs and config return parameter-identical models.
    """
    return train_mlp_stack(X, np.asarray(targets, dtype=float)[None], config)[0]
