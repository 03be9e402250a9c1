"""Accuracy metrics and the dose safety window.

The safety window accepts a predicted weekly dose within 20% of the
clinically deduced one, boundary inclusive. Above it is an over-prescription
(bleeding risk); below it an under-prescription (clot/stroke risk). An
``EvalReport`` holds the three counts; its size and percentages derive from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Cohort
from .profiles import Profile

SAFETY_MARGIN = 0.2
SAFETY_MARGIN_LOW = 1.0 - SAFETY_MARGIN
SAFETY_MARGIN_HIGH = 1.0 + SAFETY_MARGIN

# FDA-guide side-effect labels for out-of-window errors, for report text only.
RISK_LABELS = {
    "under": "under-prescription: clot, embolism, stroke risk",
    "over": "over-prescription: bleeding risk",
}


@dataclass(frozen=True)
class EvalReport:
    """MAE (mg/week), MAPE (%), and the counts of under / within-window / over
    predictions of one evaluation."""

    mae: float
    mape: float
    under: int
    within: int
    over: int

    def __post_init__(self):
        if not all(type(c) is int for c in (self.under, self.within, self.over)):
            raise TypeError(f"counts must be ints, got {(self.under, self.within, self.over)!r}")
        for name in ("mae", "mape"):  # a bool is no number here
            if not (type(value := getattr(self, name)) in (int, float) and 0 <= value < math.inf):
                raise ValueError(f"{name} must be a finite number of at least 0, got {value!r}")
        if min(self.under, self.within, self.over) < 0:
            raise ValueError("a report cannot count below 0")
        if self.n < 1:
            raise ValueError("a report must count at least one prediction")

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


def evaluate_predictions(preds, truths) -> EvalReport:
    """MAE, MAPE and the safety-window counts of paired 1-D predictions and truths.

    Every true dose must be positive; a prediction exactly 0.8x or 1.2x its
    truth is within the window.
    """
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if preds.shape != truths.shape or preds.ndim != 1:
        raise ValueError(f"shape mismatch: {preds.shape} vs {truths.shape}")
    if preds.size == 0:
        raise ValueError("empty input")
    if np.any(truths <= 0):
        raise ValueError("true doses must all be positive")
    abs_err = np.abs(preds - truths)
    under = int(np.count_nonzero(preds < SAFETY_MARGIN_LOW * truths))
    over = int(np.count_nonzero(preds > SAFETY_MARGIN_HIGH * truths))
    mape = float(100.0 * np.mean(abs_err / truths))
    return EvalReport(float(np.mean(abs_err)), mape, under, len(preds) - under - over, over)


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
    "under": lambda r: r.under_pct,
    "within": lambda r: r.within_pct,
    "over": lambda r: r.over_pct,
}


def mean_std(reports: Sequence[EvalReport], stat: str) -> tuple[float, float]:
    """Mean and population std (ddof 0) of one ``STUDY_STATS`` entry over runs."""
    vals = np.array([STUDY_STATS[stat](r) for r in reports])
    return float(vals.mean()), float(vals.std())
