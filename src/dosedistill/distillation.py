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

import os
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import repeat
from typing import Sequence

import numpy as np

from .dataset import Cohort, EncodedRows, FeatureCatalog, split_cohorts
from .errors import DataError
from .evaluation import EvalReport, evaluate_model
from .models import MlpModel, TrainConfig, fit_least_squares, train_mlp, train_mlp_stack
from .profiles import Profile, ProfileCatalog

DEFAULT_GRID = tuple(round(0.1 * k, 1) for k in range(11))


class PrivilegedInputs(str, Enum):
    """What the privileged model gets to see at training time."""

    ALL_FEATURES = "all_features"
    REDACTED_ONLY = "redacted_only"


@dataclass(frozen=True)
class DistillationConfig:
    """The whole training recipe: the split, the grid, the teacher's inputs
    and the per-model ``TrainConfig``, whose seed is also the split seed."""

    lambda_grid: tuple[float, ...] = DEFAULT_GRID
    temperature: float = 1.0
    privileged_inputs: PrivilegedInputs = PrivilegedInputs.ALL_FEATURES
    split_ratio: float = 0.65
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not 0 < self.split_ratio < 1:
            raise ValueError(f"split_ratio must be in (0, 1), got {self.split_ratio}")
        if not self.lambda_grid:
            raise ValueError("lambda grid is empty")
        grid = tuple(self.lambda_grid)
        if not all(type(g) in (int, float) for g in grid):  # a bool is no number here
            raise TypeError(f"the lambda grid holds a non-number: {grid!r}")
        if any(not 0.0 <= g <= 1.0 for g in grid) or list(grid) != sorted(set(grid)):
            raise ValueError("lambda grid must be strictly ascending within [0, 1]")
        if not 0 < self.temperature < np.inf:  # refuses nan and inf too
            raise ValueError(f"temperature must be positive, got {self.temperature}")

    def split(self, records: EncodedRows, catalog: FeatureCatalog) -> tuple[Cohort, Cohort]:
        """The (train, valid) cohorts this recipe trains and selects on."""
        return split_cohorts(records, catalog, self.split_ratio, self.train.seed)


def privileged_feature_indices(
    profile: Profile, mode: PrivilegedInputs
) -> tuple[int, ...]:
    """The columns that teach ``profile``: its withheld ones under
    ``REDACTED_ONLY``, and every column otherwise or when it withholds none."""
    if mode is PrivilegedInputs.REDACTED_ONLY and profile.redacted_features:
        return profile.redacted_sorted
    return tuple(range(profile.dim))


def train_privileged(
    train: Cohort, profile: Profile, config: DistillationConfig
) -> MlpModel:
    """Fit the teacher on inputs that include the profile's withheld features."""
    cols = privileged_feature_indices(profile, config.privileged_inputs)
    return train_mlp(train.X[:, cols], train.y, config.train)


def soft_targets(privileged: MlpModel, X_priv, temperature: float) -> np.ndarray:
    """Privileged predictions scaled down by the temperature."""
    if not 0 < temperature < np.inf:  # refuses nan and inf too
        raise ValueError(f"temperature must be positive, got {temperature}")
    return privileged.predict(X_priv) / temperature


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


def train_distilled(
    train: Cohort,
    profile: Profile,
    privileged: MlpModel,
    config: DistillationConfig,
) -> MlpModel:
    """The student ``sweep_profiles`` trains on visible features at the one
    lambda of ``config.lambda_grid``, taught by ``privileged``."""
    if len(config.lambda_grid) != 1:
        raise ValueError(
            f"train_distilled fits one lambda; the grid has {len(config.lambda_grid)}"
        )
    cols = privileged_feature_indices(profile, config.privileged_inputs)
    [student] = _students(train, [profile], config, {cols: privileged})
    return student


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform can say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _students(
    train: Cohort, profiles: Sequence[Profile], config: DistillationConfig, teachers: dict, jobs=1
) -> list[MlpModel]:
    """Every (profile, lambda) student, in that order; no other code trains one.

    Each profile's teacher is ``teachers[cols]``, fitted into it if absent,
    where ``cols`` are its privileged columns. The blended objective is plain
    squared error against (1 - lambda) * y + lambda * s, so the students
    differ only in their targets and their visible columns: they share the
    rows, the seed, the hold-out split and every shuffle. So the flat
    (profile, lambda) list is dealt round-robin to ``min(jobs, students,
    usable CPUs)`` workers, and each trains its share as one
    ``train_mlp_stack``, grouped by profile; one worker runs in this process,
    more in a pool of worker processes. Each student is bit for bit the one
    a lone ``train_mlp`` on its columns and targets returns.
    """
    grid, n = config.lambda_grid, len(train.y)
    targets = np.empty((len(profiles), len(grid), n))
    columns = []
    for i, profile in enumerate(profiles):
        cols = privileged_feature_indices(profile, config.privileged_inputs)
        if cols not in teachers:
            teachers[cols] = train_privileged(train, profile, config)
        s = soft_targets(teachers[cols], train.X[:, cols], config.temperature)
        targets[i] = [train.y if lam == 0.0 else (1.0 - lam) * train.y + lam * s for lam in grid]
        columns += [profile.visible_features] * len(grid)
    targets = targets.reshape(-1, n)  # one row per (profile, lambda)
    workers = min(jobs, len(targets), _usable_cpus())
    shares = (
        repeat(train.X),
        [targets[w::workers] for w in range(workers)],
        repeat(config.train),
        [columns[w::workers] for w in range(workers)],
    )
    if workers <= 1:
        trained = list(map(train_mlp_stack, *shares))
    else:
        # imported here: a process that never fans out does not load the pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            trained = list(pool.map(train_mlp_stack, *shares))
    students = [None] * len(targets)
    for w, models in enumerate(trained):
        students[w::workers] = models
    return students


def sweep_lambda(
    train: Cohort,
    valid: Cohort,
    profile: Profile,
    config: DistillationConfig,
    privileged: MlpModel,
) -> tuple[list[tuple[float, EvalReport]], DistilledBundle]:
    """Train one model per grid value against a shared privileged model:
    ``sweep_profiles`` for one profile, with ``privileged`` as its teacher.

    Each model is the one ``train_distilled`` returns at its lambda. Returns
    every (lambda, validation report) point in grid order plus the bundle
    with the lowest validation MAE; ties go to the smaller lambda. The
    lambda = 0 point doubles as the partially-redacted baseline.
    """
    cols = privileged_feature_indices(profile, config.privileged_inputs)
    [result] = sweep_profiles(train, valid, [profile], config, {cols: privileged})
    return result


def sweep_profiles(
    train: Cohort,
    valid: Cohort,
    profiles: Sequence[Profile],
    config: DistillationConfig,
    teachers: dict | None = None,
    jobs: int = 1,
) -> list[tuple[list[tuple[float, EvalReport]], DistilledBundle]]:
    """Every profile's lambda sweep, one teacher per column set, with results
    in profile order, each as ``sweep_lambda`` describes.

    A teacher depends only on the training rows, its columns
    (``privileged_feature_indices``) and ``config.train``, so each distinct
    privileged column set is fitted once, into ``teachers``; a caller may
    seed it with models fitted on the same ``train`` and ``config.train``,
    keyed by their column tuples. ``_students`` trains every student, on
    ``jobs`` workers; they are scored here and each profile's best is picked.
    """
    grid = config.lambda_grid
    students = _students(train, profiles, config, {} if teachers is None else teachers, jobs)
    results = []
    for i, profile in enumerate(profiles):
        rows = [
            (lam, model, evaluate_model(model, valid, profile))
            for lam, model in zip(grid, students[i * len(grid) : (i + 1) * len(grid)])
        ]
        best_lam, best_model, best_report = min(rows, key=lambda r: (r[2].mae, r[0]))
        bundle = DistilledBundle(profile, best_model, best_lam, best_report)
        results.append(([(lam, rep) for lam, _, rep in rows], bundle))
    return results


def run_study(
    records: EncodedRows,
    catalog: FeatureCatalog,
    profile_catalog: ProfileCatalog,
    config: DistillationConfig,
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
    public profile's teacher is the non-redacted MLP itself, the same fit.
    ``jobs`` is passed on to ``sweep_profiles``; ``evaluation.mean_std``
    aggregates an arm.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    grid = config.lambda_grid
    if grid[0] != 0.0:
        config = replace(config, lambda_grid=(0.0, *grid))

    public = profile_catalog.public
    public_cols = privileged_feature_indices(public, config.privileged_inputs)
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
            train, valid, redacting, run_config, {public_cols: mlp}, jobs
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
