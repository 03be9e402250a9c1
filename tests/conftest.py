"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from dosedistill.dataset import (
    Cohort,
    EncodedRows,
    Feature,
    FeatureCatalog,
    FeatureCategory,
    standardize,
)
from dosedistill.serialize import model_to_obj
from dosedistill.synthetic import SyntheticSpec, generate_synthetic, write_dataset

CATS = list(FeatureCategory)


def make_catalog(d: int, categories=None, names=None) -> FeatureCatalog:
    """All-numeric catalog; categories default to a round-robin assignment."""
    if categories is None:
        categories = [CATS[i % 4] for i in range(d)]
    if names is None:
        names = [f"f{i}" for i in range(d)]
    return FeatureCatalog(
        tuple(Feature(n, c, "numeric") for n, c in zip(names, categories))
    )


def make_cohort(X, y, categories=None, names=None) -> Cohort:
    """Cohort from a raw numeric matrix; standardizer fit on all rows."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    catalog = make_catalog(X.shape[1], categories, names)
    return standardize(make_rows(X, y), catalog)


def make_rows(M, y) -> EncodedRows:
    """Loader-shaped rows with ids r0, r1, ... over an encoded matrix."""
    M = np.asarray(M, dtype=float)
    ids = np.array([f"r{i}" for i in range(M.shape[0])], dtype=object)
    return EncodedRows(ids, M, np.asarray(y, dtype=float))


def same_model(a, b) -> bool:
    """Bit-identical parameters, by their encodings: -0.0 is not 0.0 here."""
    return model_to_obj(a) == model_to_obj(b)


def write_synth(tmp_path, spec: SyntheticSpec, seed: int):
    rows, schema = generate_synthetic(spec, seed)
    data, sch = tmp_path / "data.csv", tmp_path / "schema.json"
    write_dataset(rows, schema, data, sch)
    return data, sch


@pytest.fixture
def small_dataset(tmp_path):
    """A compact dataset with all four categories, loaded fresh per test."""
    from dosedistill.dataset import load_and_validate

    spec = SyntheticSpec(n=240, noise_std=6.0)
    data, sch = write_synth(tmp_path, spec, seed=11)
    catalog, records = load_and_validate(data, sch)
    return catalog, records


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap ``ProcessPoolExecutor`` for an in-process stand-in and return the
    list of ``max_workers`` each pool asked for; no worker process starts."""
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes
