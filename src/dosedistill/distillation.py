"""Imitation training: privileged models, soft targets, and the lambda sweep.

For each profile, a privileged model is trained with access to the features
patients in that profile withhold. The deployed per-profile model sees only
the visible features and is trained on a blend of ground-truth doses and
the privileged model's predictions::

    (1 - lambda) * (pred - y)^2 + lambda * (pred - s)^2

which equals, up to a constant independent of the model, squared error
against the blended target (1 - lambda) * y + lambda * s. Training uses
that reduction, so lambda = 0 runs the exact same code path as plain
training on visible features. Soft targets are the raw privileged
predictions divided by the temperature; production keeps temperature 1
(the division is exact identity), larger values exist to demonstrate how
temperature scaling shrinks regression predictions. Only the imitation term
shrinks: at weight lambda and temperature T the blended target is
(1 - lambda) * y + lambda * s / T, so predictions scale toward roughly
(1 - lambda) + lambda / T of the T = 1 run, and never below 1 - lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .dataset import Cohort
from .errors import DataError
from .evaluation import EvalReport, evaluate_model
from .models import MlpModel, TrainConfig, train_mlp
from .profiles import Profile

DEFAULT_GRID = tuple(round(0.1 * k, 1) for k in range(11))


class PrivilegedInputs(str, Enum):
    """What the privileged model gets to see at training time."""

    ALL_FEATURES = "all_features"
    REDACTED_ONLY = "redacted_only"


@dataclass(frozen=True)
class DistillationConfig:
    lam: float = 0.0
    lambda_grid: tuple[float, ...] = DEFAULT_GRID
    temperature: float = 1.0
    privileged_inputs: PrivilegedInputs = PrivilegedInputs.ALL_FEATURES
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if not self.lambda_grid:
            raise ValueError("lambda grid is empty")
        grid = tuple(self.lambda_grid)
        if any(not 0.0 <= g <= 1.0 for g in grid) or list(grid) != sorted(set(grid)):
            raise ValueError("lambda grid must be strictly ascending within [0, 1]")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


def privileged_feature_indices(
    profile: Profile, mode: PrivilegedInputs
) -> tuple[int, ...]:
    if mode is PrivilegedInputs.ALL_FEATURES:
        return tuple(range(profile.dim))
    if not profile.redacted_features:
        raise DataError(
            f"profile {profile.name!r} redacts nothing; redacted-only privileged "
            "inputs are undefined"
        )
    return profile.redacted_sorted


def train_privileged(
    train: Cohort, profile: Profile, config: DistillationConfig
) -> MlpModel:
    """Fit the teacher on inputs that include the profile's withheld features."""
    cols = privileged_feature_indices(profile, config.privileged_inputs)
    return train_mlp(train.X[:, cols], train.y, config.train)


def soft_targets(privileged: MlpModel, X_priv, temperature: float) -> np.ndarray:
    """Privileged predictions scaled down by the temperature."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return privileged.predict(X_priv) / temperature


def distillation_loss(pred: float, y: float, s: float, lam: float) -> float:
    """Per-example imitation loss; the batch loss is the mean of these."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    return (1.0 - lam) * (pred - y) ** 2 + lam * (pred - s) ** 2


@dataclass(frozen=True)
class DistilledBundle:
    """Everything needed to serve one profile."""

    profile: Profile
    distilled: MlpModel
    lam: float
    metrics: EvalReport

    def __post_init__(self):
        if self.distilled.dim != len(self.profile.visible_features):
            raise DataError(
                f"distilled model takes {self.distilled.dim} inputs but profile "
                f"{self.profile.name!r} discloses {len(self.profile.visible_features)}"
            )


def _blended_targets(
    train: Cohort, profile: Profile, privileged: MlpModel, config: DistillationConfig
) -> np.ndarray:
    lam = config.lam
    if lam == 0.0:
        return train.y
    cols = privileged_feature_indices(profile, config.privileged_inputs)
    s = soft_targets(privileged, train.X[:, cols], config.temperature)
    return (1.0 - lam) * train.y + lam * s


def train_distilled(
    train: Cohort,
    profile: Profile,
    privileged: MlpModel,
    config: DistillationConfig,
) -> MlpModel:
    """Fit the per-profile model on visible features against blended targets."""
    targets = _blended_targets(train, profile, privileged, config)
    return train_mlp(train.X[:, list(profile.visible_features)], targets, config.train)


def sweep_lambda(
    train: Cohort,
    valid: Cohort,
    profile: Profile,
    config: DistillationConfig,
) -> tuple[list[tuple[float, EvalReport]], DistilledBundle]:
    """Train one model per grid value against a shared privileged model.

    Returns every (lambda, validation report) point in grid order plus the
    bundle with the lowest validation MAE; ties go to the smaller lambda. The
    lambda = 0 point doubles as the partially-redacted baseline.
    """
    privileged = train_privileged(train, profile, config)
    rows = []
    for lam in config.lambda_grid:
        model = train_distilled(train, profile, privileged, replace(config, lam=lam))
        rows.append((lam, model, evaluate_model(model, valid, profile)))

    best_lam, best_model, best_report = min(rows, key=lambda r: (r[2].mae, r[0]))
    bundle = DistilledBundle(profile, best_model, best_lam, best_report)
    return [(lam, rep) for lam, _, rep in rows], bundle
