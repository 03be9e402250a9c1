"""Backward attribute elimination over clinical features.

Each round fits the least-squares scorer once per candidate single-feature
removal, drops the feature whose removal gives the lowest cross-validated
MAE, and stops when even the best removal degrades the current score by
more than ``epsilon`` dose units. Genotypic features are typically passed
as ``protected`` so they never become removal candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Sequence

import numpy as np

from .dataset import Cohort
from .errors import DataError
from .models import fit_least_squares

DEFAULT_EPSILON = 0.05
DEFAULT_FOLDS = 5


@dataclass(frozen=True)
class BaeResult:
    """Outcome of one elimination run.

    ``removed`` lists (feature index, CV MAE after its removal) in removal
    order; ``trace`` holds every candidate's score per round, in candidate
    index order, for audit.
    """

    kept: tuple[int, ...]
    removed: tuple[tuple[int, float], ...]
    trace: tuple[tuple[tuple[int, float], ...], ...]
    baseline_score: float

    def __post_init__(self):
        overlap = set(self.kept) & {i for i, _ in self.removed}
        if overlap:
            raise ValueError(f"features both kept and removed: {sorted(overlap)}")


def _fold_slices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    if folds < 2:
        raise ValueError(f"need folds >= 2, got {folds}")
    if n < folds:
        raise DataError(f"cannot make {folds} folds from {n} records")
    perm = np.random.default_rng(seed).permutation(n)
    return np.array_split(perm, folds)


def subset_score(
    train: Cohort,
    feature_subset: Sequence[int] | AbstractSet[int],
    folds: int = DEFAULT_FOLDS,
    seed: int = 0,
) -> float:
    """k-fold cross-validated MAE of least squares on the given columns."""
    subset = sorted(feature_subset)
    if not subset:
        raise ValueError("empty feature subset")
    X, y = train.X[:, subset], train.y
    abs_errors = np.empty(len(train))
    for fold in _fold_slices(len(train), folds, seed):
        mask = np.ones(len(train), dtype=bool)
        mask[fold] = False
        model = fit_least_squares(X[mask], y[mask])
        abs_errors[fold] = np.abs(model.predict(X[fold]) - y[fold])
    return float(abs_errors.mean())


def backward_attribute_elimination(
    train: Cohort,
    protected: AbstractSet[int] = frozenset(),
    epsilon: float = DEFAULT_EPSILON,
    folds: int = DEFAULT_FOLDS,
    seed: int = 0,
) -> BaeResult:
    """Iteratively remove the feature whose absence hurts CV MAE the least.

    Stops when the best candidate removal scores worse than the current
    kept set's CV MAE plus ``epsilon``, or when only protected features (or
    a single feature) remain. Ties break toward the lowest feature index.
    A negative ``epsilon`` demands improvement, an infinite one removes every
    unprotected feature; NaN has no meaning and is refused.
    """
    if np.isnan(epsilon):
        raise ValueError("epsilon must be a number, got nan")
    d = train.catalog.d
    bad = sorted(i for i in protected if not 0 <= i < d)
    if bad:
        raise ValueError(f"protected indices out of range: {bad}")
    kept = list(range(d))
    baseline = subset_score(train, kept, folds, seed)
    removed: list[tuple[int, float]] = []
    trace: list[tuple[tuple[int, float], ...]] = []

    current = baseline
    while len(kept) > 1:
        candidates = [i for i in kept if i not in protected]
        if not candidates:
            break
        round_scores = tuple(
            (i, subset_score(train, [j for j in kept if j != i], folds, seed))
            for i in candidates
        )
        best_idx, best_score = min(round_scores, key=lambda p: (p[1], p[0]))
        if best_score > current + epsilon:
            break
        trace.append(round_scores)
        removed.append((best_idx, best_score))
        kept.remove(best_idx)
        current = best_score

    return BaeResult(tuple(kept), tuple(removed), tuple(trace), baseline)
