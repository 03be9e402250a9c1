"""Synthetic patient datasets with a controllable hidden-signal structure.

The generator builds two latent signals: a visible signal (a weighted
combination of the non-genotypic features) and a privileged signal carried
by the genotypic features, correlated ``rho`` with the visible one. The
weekly dose is::

    base_dose + visible_weight * s_vis + privileged_weight * s_priv
              + nonlinear_weight * (s_vis^2 - 1) / sqrt(2) + noise

which gives per-profile models something real to lose when genotypic
features are withheld, and gives imitation training something real to
recover. All draws are clipped at four standard deviations so sane specs
cannot emit non-positive doses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from statistics import NormalDist
from typing import Mapping

import numpy as np

from .dataset import KIND_CATEGORICAL, KIND_NUMERIC, FeatureCategory, save_json, write_csv
from .errors import DataError

TARGET_COLUMN = "weekly_dose_mg"
ID_COLUMN = "patient_id"

_CLIP_SIGMA = 4.0
# Every categorical feature is binned into equiprobable levels "A", "B", "C".
CATEGORICAL_LEVELS = 3
# The category whose features carry the privileged signal.
PRIVILEGED_CATEGORY = FeatureCategory.GENOTYPIC


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and signal strengths of a generated dataset."""

    n: int = 1200
    demographic: int = 4
    background: int = 6
    phenotypic: int = 1
    genotypic: int = 2
    categorical_per_category: int = 1
    visible_weight: float = 4.0
    privileged_weight: float = 5.0
    nonlinear_weight: float = 1.5
    rho: float = 0.8
    noise_std: float = 8.0
    base_dose: float = 50.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise DataError(f"{f.name} must be finite, got {value}")
        if self.n < 2:
            raise DataError(f"need n >= 2, got {self.n}")
        if min(self.demographic, self.background, self.phenotypic, self.genotypic) < 0:
            raise DataError("per-category feature counts must be non-negative")
        if not -1.0 <= self.rho <= 1.0:
            raise DataError(f"rho must be in [-1, 1], got {self.rho}")
        if self.noise_std < 0:
            raise DataError("noise_std must be non-negative")
        if not self.partition()[0]:
            raise DataError("spec leaves no visible features to generate a signal from")

    def count(self, category: FeatureCategory) -> int:
        return getattr(self, category.label)

    @property
    def d(self) -> int:
        return sum(self.count(c) for c in FeatureCategory)

    def layout(self) -> list[tuple[str, FeatureCategory, str]]:
        """(name, category, kind) per feature, in catalog order."""
        out = []
        for cat in FeatureCategory:
            for k in range(self.count(cat)):
                kind = (
                    KIND_CATEGORICAL
                    if k < self.categorical_per_category
                    else KIND_NUMERIC
                )
                out.append((f"{cat.label}_{k}", cat, kind))
        return out

    def partition(self) -> tuple[list[int], list[int]]:
        """(visible, privileged) feature indices, each in catalog order."""
        privileged = [cat is PRIVILEGED_CATEGORY for _, cat, _ in self.layout()]
        return (
            [i for i, p in enumerate(privileged) if not p],
            [i for i, p in enumerate(privileged) if p],
        )


@dataclass(frozen=True)
class SyntheticLatents:
    """Ground-truth signals behind a generated dataset, for oracle checks."""

    visible_signal: np.ndarray
    privileged_signal: np.ndarray
    dose: np.ndarray


def _clipped_normal(rng: np.random.Generator, size) -> np.ndarray:
    return np.clip(rng.standard_normal(size), -_CLIP_SIGMA, _CLIP_SIGMA)


def _generate(spec: SyntheticSpec, seed: int):
    rng = np.random.default_rng(seed)
    layout = spec.layout()
    vis, priv = spec.partition()

    w = rng.uniform(0.5, 1.5, size=len(vis))
    w /= np.linalg.norm(w)
    z_vis = _clipped_normal(rng, (spec.n, len(vis)))
    s_vis = z_vis @ w
    e = _clipped_normal(rng, spec.n)
    s_priv = spec.rho * s_vis + np.sqrt(1.0 - spec.rho**2) * e

    latent = np.empty((spec.n, spec.d))
    latent[:, vis] = z_vis
    for j in priv:
        # each privileged feature is a noisy copy of the privileged signal
        latent[:, j] = 0.9 * s_priv + np.sqrt(1.0 - 0.81) * _clipped_normal(rng, spec.n)

    dose = (
        spec.base_dose
        + spec.visible_weight * s_vis
        + spec.privileged_weight * s_priv
        + spec.nonlinear_weight * (s_vis**2 - 1.0) / np.sqrt(2.0)
        + spec.noise_std * _clipped_normal(rng, spec.n)
    )
    if dose.min() <= 0:
        raise DataError(
            f"spec yields non-positive dose (min {dose.min():.3f}); "
            "raise base_dose or lower the signal/noise weights"
        )
    return layout, latent, s_vis, s_priv, dose


def _bin_labels(column: np.ndarray) -> list[str]:
    nd = NormalDist()
    thresholds = [nd.inv_cdf(k / CATEGORICAL_LEVELS) for k in range(1, CATEGORICAL_LEVELS)]
    codes = np.searchsorted(thresholds, column)
    return [chr(ord("A") + int(c)) for c in codes]


def generate_synthetic(spec: SyntheticSpec, seed: int) -> tuple[dict[str, list[str]], dict]:
    """Generate CSV-ready string columns plus the matching schema manifest.

    The columns are in file order: the id, the features in schema order, then
    the dose. A pure function of ``(spec, seed)``: identical inputs produce
    identical columns, byte for byte once written.
    """
    layout, latent, _, _, dose = _generate(spec, seed)
    columns = {ID_COLUMN: [f"p{i:05d}" for i in range(spec.n)]}
    for j, (name, _, kind) in enumerate(layout):
        if kind == KIND_CATEGORICAL:
            columns[name] = _bin_labels(latent[:, j])
        else:
            columns[name] = [f"{v:.6f}" for v in latent[:, j]]
    columns[TARGET_COLUMN] = [f"{v:.6f}" for v in dose]

    schema = {
        "target": TARGET_COLUMN,
        "id": ID_COLUMN,
        "target_unit": "weekly",
        "features": [
            {"name": name, "category": cat.label, "kind": kind}
            for name, cat, kind in layout
        ],
    }
    return columns, schema


def synthetic_latents(spec: SyntheticSpec, seed: int) -> SyntheticLatents:
    """The ground-truth signals behind ``generate_synthetic(spec, seed)``."""
    _, _, s_vis, s_priv, dose = _generate(spec, seed)
    return SyntheticLatents(s_vis, s_priv, dose)


def write_dataset(
    columns: Mapping[str, list[str]],
    schema: dict,
    data_path: str | Path,
    schema_path: str | Path,
) -> None:
    write_csv(data_path, list(columns), zip(*columns.values()))
    save_json(schema_path, schema)
