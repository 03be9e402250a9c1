"""Backward attribute elimination over clinical features.

Each round scores every candidate single-feature removal by cross-validated
least-squares MAE, drops the feature whose removal gives the lowest score,
and stops when even the best removal degrades the current score by more than
``epsilon`` dose units. Genotypic features are typically passed as
``protected`` so they never become removal candidates.

A run builds each fold's normal equations of ``[X, 1]`` once, over every
feature, and gathers the fold's held-out rows and doses once. Any subset is
then scored from those: one small damped solve per fold on the sub-block,
and the held-out predictions on the subset's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, NamedTuple, Sequence

import numpy as np

from .dataset import Cohort
from .errors import DataError
from .models import solve_normal_equations

DEFAULT_EPSILON = 0.05
DEFAULT_FOLDS = 5
# Removal scores within this relative distance of a round's best are a tie:
# two removals that leave the same fit (a duplicated column) differ only by
# rounding.
TIE_RTOL = 1e-12


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


class _Fold(NamedTuple):
    """One fold: its held-out row indices, their features and doses, and the
    Gram matrix of ``[X, 1]`` and ``[X, 1]ᵀy`` over the other rows, the
    intercept last."""

    rows: np.ndarray
    X: np.ndarray
    y: np.ndarray
    gram: np.ndarray
    rhs: np.ndarray


def _fold_stats(train: Cohort, folds: int, seed: int) -> list[_Fold]:
    X, y = train.X, train.y
    d = X.shape[1]
    stats = []
    for fold in _fold_slices(len(train), folds, seed):
        mask = np.ones(len(train), dtype=bool)
        mask[fold] = False
        Xt, yt = X[mask], y[mask]
        gram = np.empty((d + 1, d + 1))
        gram[:d, :d] = Xt.T @ Xt
        gram[:d, d] = gram[d, :d] = Xt.sum(axis=0)
        gram[d, d] = len(yt)
        rhs = np.append(Xt.T @ yt, yt.sum())
        stats.append(_Fold(fold, X[fold], y[fold], gram, rhs))
    return stats


def _score(train: Cohort, stats: list[_Fold], subset: list[int]) -> float:
    cols = [*subset, train.X.shape[1]]
    abs_errors = np.empty(len(train))
    for fold in stats:
        model = solve_normal_equations(fold.gram[np.ix_(cols, cols)], fold.rhs[cols])
        preds = model.predict(fold.X[:, subset])
        abs_errors[fold.rows] = np.abs(preds - fold.y)
    return float(abs_errors.mean())


def subset_score(
    train: Cohort,
    feature_subset: Sequence[int] | AbstractSet[int],
    folds: int = DEFAULT_FOLDS,
    seed: int = 0,
) -> float:
    """k-fold cross-validated MAE of least squares on the given columns.

    Builds the folds' normal equations and gathers their held-out rows on
    every call, where an elimination run does both once and scores all its
    subsets from them.
    """
    subset = sorted(feature_subset)
    if not subset:
        raise ValueError("empty feature subset")
    if subset[0] < 0 or subset[-1] >= train.catalog.d:
        raise ValueError(f"feature indices out of range: {subset}")
    return _score(train, _fold_stats(train, folds, seed), subset)


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
    a single feature) remain. Ties (scores within ``TIE_RTOL`` of the best)
    break toward the lowest feature index. A negative ``epsilon`` demands
    improvement, an infinite one removes every unprotected feature; NaN has
    no meaning and is refused.
    """
    if np.isnan(epsilon):
        raise ValueError("epsilon must be a number, got nan")
    d = train.catalog.d
    bad = sorted(i for i in protected if not 0 <= i < d)
    if bad:
        raise ValueError(f"protected indices out of range: {bad}")
    stats = _fold_stats(train, folds, seed)
    kept = list(range(d))
    baseline = _score(train, stats, kept)
    removed: list[tuple[int, float]] = []
    trace: list[tuple[tuple[int, float], ...]] = []

    current = baseline
    while len(kept) > 1:
        candidates = [i for i in kept if i not in protected]
        if not candidates:
            break
        round_scores = tuple(
            (i, _score(train, stats, [j for j in kept if j != i])) for i in candidates
        )
        best = min(s for _, s in round_scores)
        best_idx, best_score = next(
            (i, s) for i, s in round_scores if s - best <= TIE_RTOL * abs(best)
        )
        if best_score > current + epsilon:
            break
        trace.append(round_scores)
        removed.append((best_idx, best_score))
        kept.remove(best_idx)
        current = best_score

    return BaeResult(tuple(kept), tuple(removed), tuple(trace), baseline)
