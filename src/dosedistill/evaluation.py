"""Accuracy metrics, the dose safety window, and the multi-split study.

The safety window accepts a predicted weekly dose within 20% of the
clinically deduced one, boundary inclusive. Above it is an over-prescription
(bleeding risk); below it an under-prescription (clot/stroke risk).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .dataset import Cohort, EncodedRows, FeatureCatalog
from .models import fit_least_squares, train_mlp
from .profiles import Profile, ProfileCatalog

if TYPE_CHECKING:  # pragma: no cover
    from .distillation import DistillationConfig

SAFETY_MARGIN = 0.2
SAFETY_MARGIN_LOW = 1.0 - SAFETY_MARGIN
SAFETY_MARGIN_HIGH = 1.0 + SAFETY_MARGIN

# FDA-guide side-effect labels for out-of-window errors, for report text only.
RISK_LABELS = {
    "under": "under-prescription: clot, embolism, stroke risk",
    "over": "over-prescription: bleeding risk",
}


class DoseBand(Enum):
    UNDER = "under"
    WITHIN_WINDOW = "within_window"
    OVER = "over"


def _outside_window(preds, truths):
    """(under, over) masks of the boundary-inclusive window; scalars work too."""
    return preds < SAFETY_MARGIN_LOW * truths, preds > SAFETY_MARGIN_HIGH * truths


def classify_dose(pred: float, truth: float) -> DoseBand:
    """Place one prediction relative to the 20% safety window.

    Boundary inclusive: exactly 0.8x or 1.2x the true dose counts as within
    the window.
    """
    if truth <= 0:
        raise ValueError(f"true dose must be positive, got {truth}")
    under, over = _outside_window(pred, truth)
    if over:
        return DoseBand.OVER
    if under:
        return DoseBand.UNDER
    return DoseBand.WITHIN_WINDOW


@dataclass(frozen=True)
class SafetyPartition:
    """Counts of under / within-window / over predictions."""

    under: int
    within: int
    over: int

    @property
    def n(self) -> int:
        return self.under + self.within + self.over

    @property
    def under_pct(self) -> float:
        return 100.0 * self.under / self.n

    @property
    def within_pct(self) -> float:
        return 100.0 * self.within / self.n

    @property
    def over_pct(self) -> float:
        return 100.0 * self.over / self.n


@dataclass(frozen=True)
class EvalReport:
    """MAE (mg/week), MAPE (%), and the safety partition of one evaluation."""

    mae: float
    mape: float
    n: int
    safety: SafetyPartition

    def __post_init__(self):
        if self.n < 1 or self.safety.n != self.n:
            raise ValueError("report size and safety counts disagree")


def _paired(preds, truths) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and truths as equal-length, non-empty 1-D float arrays."""
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if preds.shape != truths.shape or preds.ndim != 1:
        raise ValueError(f"shape mismatch: {preds.shape} vs {truths.shape}")
    if preds.size == 0:
        raise ValueError("empty input")
    return preds, truths


def mae(preds: Sequence[float], truths: Sequence[float]) -> float:
    preds, truths = _paired(preds, truths)
    return float(np.mean(np.abs(preds - truths)))


def mape(preds: Sequence[float], truths: Sequence[float]) -> float:
    """Mean absolute percentage error, in percent. Requires positive truths."""
    preds, truths = _paired(preds, truths)
    if np.any(truths <= 0):
        raise ValueError("MAPE requires all true doses to be positive")
    return float(100.0 * np.mean(np.abs(preds - truths) / truths))


def evaluate_predictions(preds, truths) -> EvalReport:
    preds, truths = _paired(preds, truths)
    under, over = _outside_window(preds, truths)
    safety = SafetyPartition(
        under=int(under.sum()),
        within=int(len(preds) - over.sum() - under.sum()),
        over=int(over.sum()),
    )
    return EvalReport(mae(preds, truths), mape(preds, truths), len(preds), safety)


def evaluate_model(model, valid: Cohort, profile: Profile) -> EvalReport:
    """Mask each validation record through the profile, predict, aggregate."""
    visible = list(profile.visible_features)
    if model.dim != len(visible):
        raise ValueError(
            f"model takes {model.dim} features but profile {profile.name!r} "
            f"discloses {len(visible)}"
        )
    preds = model.predict(valid.X[:, visible])
    return evaluate_predictions(preds, valid.y)


# The study's per-report statistics, in table order, each picked from one report.
STUDY_STATS = {
    "mae": lambda r: r.mae,
    "mape": lambda r: r.mape,
    "under": lambda r: r.safety.under_pct,
    "within": lambda r: r.safety.within_pct,
    "over": lambda r: r.safety.over_pct,
}


def mean_std(reports: Sequence[EvalReport], stat: str) -> tuple[float, float]:
    """Mean and population std (ddof 0) of one ``STUDY_STATS`` entry over runs."""
    vals = np.array([STUDY_STATS[stat](r) for r in reports])
    return float(vals.mean()), float(vals.std())


def run_study(
    records: EncodedRows,
    catalog: FeatureCatalog,
    profile_catalog: ProfileCatalog,
    config: "DistillationConfig",
    runs: int = 10,
    jobs: int = 1,
) -> dict[tuple[str, str], tuple[EvalReport, ...]]:
    """Per-run reports of all four arms, keyed by (arm, profile name), in run order.

    Run j uses ``config`` with training seed ``config.train.seed + j``,
    which is also its split seed: a non-redacted linear model and
    a non-redacted MLP on the public profile, then per profile the
    partially-redacted model (lambda 0) and the best-lambda imitation model,
    with the best lambda re-selected on that run's validation split.
    Profiles that redact nothing reuse the non-redacted MLP's report for
    both arms. Each run fits one teacher per privileged column set; the
    all-features teacher is the non-redacted MLP itself, the same fit.
    ``jobs`` is passed on to ``sweep_profiles``; ``mean_std`` aggregates an arm.
    """
    from .distillation import sweep_profiles

    if runs < 1:
        raise ValueError("need at least one run")
    grid = config.lambda_grid
    if grid[0] != 0.0:
        config = replace(config, lambda_grid=(0.0, *grid))

    public = profile_catalog.public
    reports: dict[tuple[str, str], list[EvalReport]] = defaultdict(list)
    for j in range(runs):
        seed_j = config.train.seed + j
        run_config = replace(config, train=replace(config.train, seed=seed_j))
        train, valid = run_config.split(records, catalog)

        linear = fit_least_squares(train.X, train.y)
        reports["linear", public.name].append(evaluate_model(linear, valid, public))
        mlp = train_mlp(train.X, train.y, run_config.train)
        mlp_report = evaluate_model(mlp, valid, public)
        reports["mlp", public.name].append(mlp_report)
        redacting = [p for p in profile_catalog if not p.is_public]
        swept = iter(sweep_profiles(
            train, valid, redacting, run_config, {tuple(range(catalog.d)): mlp}, jobs
        ))
        for profile in profile_catalog:
            if profile.is_public:
                partial = distilled = mlp_report
            else:
                points, best = next(swept)
                partial, distilled = points[0][1], best.metrics
            reports["partial", profile.name].append(partial)
            reports["distilled", profile.name].append(distilled)

    return {key: tuple(reps) for key, reps in reports.items()}
