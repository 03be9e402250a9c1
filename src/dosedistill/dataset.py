"""Patient dataset loading, validation, encoding, standardization, and splits.

Every file the package reads or writes goes through this module, so it alone
fixes the CSV dialect (``write_csv``, ``parse_and_validate``) and the JSON
layout (``save_json``); ``load_bytes`` is its one read.

The on-disk format is a plain CSV with a header row plus a sidecar schema
JSON declaring, per column, the feature category and kind::

    {
      "target": "weekly_dose_mg",
      "id": "patient_id",              # optional id column
      "target_unit": "weekly",         # or "daily" (converted by x7)
      "features": [
        {"name": "weight_kg", "category": "background", "kind": "numeric"},
        {"name": "race", "category": "demographic", "kind": "categorical"},
        ...
      ]
    }

Categorical labels are mapped to integer factor codes in sorted label order,
then every encoded column is shifted to zero mean and scaled to unit
variance. Targets stay in natural dose units (mg/week).
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from array import array
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

KIND_CATEGORICAL = "categorical"
KIND_NUMERIC = "numeric"


class FeatureCategory(IntEnum):
    """Patient data categories, in fixed iteration order."""

    DEMOGRAPHIC = 0
    BACKGROUND = 1
    PHENOTYPIC = 2
    GENOTYPIC = 3

    @classmethod
    def from_label(cls, label: str) -> "FeatureCategory":
        try:
            return cls[label.strip().upper()]
        except KeyError:
            raise DataError(f"unknown feature category {label!r}") from None

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Feature:
    """One declared column: its category, kind, and (if categorical) codes."""

    name: str
    category: FeatureCategory
    kind: str
    encoding_map: Mapping[str, int] | None = None

    def __post_init__(self):
        if self.kind not in (KIND_CATEGORICAL, KIND_NUMERIC):
            raise DataError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == KIND_CATEGORICAL:
            if not self.encoding_map:
                raise DataError(f"feature {self.name!r}: categorical without labels")
            codes = sorted(self.encoding_map.values())
            if codes != list(range(len(codes))):
                raise DataError(
                    f"feature {self.name!r}: encoding map is not a bijection onto "
                    f"0..{len(codes) - 1}"
                )
        elif self.encoding_map is not None:
            raise DataError(f"feature {self.name!r}: numeric feature with encoding map")

    def encode(self, label: str) -> int:
        assert self.encoding_map is not None
        try:
            return self.encoding_map[label]
        except KeyError:
            raise DataError(
                f"feature {self.name!r}: unseen label {label!r} (catalog is closed "
                f"after fitting; known labels: {sorted(self.encoding_map)})"
            ) from None


@dataclass(frozen=True)
class FeatureCatalog:
    """Ordered feature declarations; order defines encoded column order."""

    features: tuple[Feature, ...]

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"duplicate feature names: {dupes}")

    @property
    def d(self) -> int:
        return len(self.features)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"unknown feature {name!r}") from None

    def indices_for(self, category: FeatureCategory) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.features) if f.category == category)


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column shift/scale fitted on the training cohort."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        if self.means.shape != self.stds.shape or self.means.ndim != 1:
            raise DataError("standardization means/stds must be equal-length vectors")
        if not np.all(np.isfinite(self.means)) or not np.all(np.isfinite(self.stds)):
            raise DataError("standardization parameters must be finite")
        if np.any(self.stds <= 0):
            bad = np.flatnonzero(self.stds <= 0).tolist()
            raise DataError(f"zero-variance column(s) at index {bad}")

    def transform(self, m: np.ndarray) -> np.ndarray:
        return (m - self.means) / self.stds


@dataclass(frozen=True)
class EncodedRows:
    """Loader output: row ids, the encoded unstandardized n x d matrix ``M``
    and weekly doses ``y``, one row per kept CSV row."""

    ids: np.ndarray
    M: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, rows) -> "EncodedRows":
        """The rows picked by an index array or a slice."""
        return EncodedRows(self.ids[rows], self.M[rows], self.y[rows])


@dataclass(frozen=True)
class Cohort:
    """Immutable standardized cohort sharing a catalog and standardizer."""

    ids: np.ndarray
    X: np.ndarray
    y: np.ndarray
    catalog: FeatureCatalog
    standardizer: StandardizationParams

    def __post_init__(self):
        n = len(self.ids)
        if self.y.shape != (n,) or self.X.shape != (n, self.catalog.d):
            raise DataError(
                f"cohort shapes disagree: {n} ids, X {self.X.shape}, y {self.y.shape}, "
                f"catalog d {self.catalog.d}"
            )
        bad = ~np.isfinite(self.X).all(axis=1) | ~np.isfinite(self.y)
        if bad.any():
            raise DataError(f"record {self.ids[np.argmax(bad)]}: non-finite value")
        if (self.y <= 0).any():
            i = int(np.argmax(self.y <= 0))
            raise DataError(f"record {self.ids[i]}: dose must be positive, got {self.y[i]}")

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, rows) -> "Cohort":
        """The rows picked by an index array or a slice, same catalog and standardizer."""
        return Cohort(
            self.ids[rows], self.X[rows], self.y[rows], self.catalog, self.standardizer
        )


def load_bytes(path: str | Path, what: str = "file") -> bytes:
    """A file's exact bytes, the one read of every input file; an unreadable
    file is a DataError naming it, and a missing one says ``{what} not found``."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def load_text(path: str | Path) -> str:
    """A UTF-8 file's exact text, line ends as written: ``load_bytes``
    decoded, and bad UTF-8 is a DataError naming the first bad byte's
    position in the file."""
    data = load_bytes(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not valid UTF-8: {exc}") from None


def parse_json(text: str, path: str | Path) -> Any:
    """The value of ``text``, read from ``path``; bad JSON is a DataError naming it."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None


def load_json(path: str | Path) -> Any:
    """A UTF-8 JSON file's value; an unreadable file is a DataError naming it."""
    return parse_json(load_text(path), path)


def save_json(path: str | Path, obj: Any) -> None:
    """Write ``obj`` as UTF-8 JSON with sorted keys and a fixed indent, so equal
    objects give equal bytes."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as a UTF-8 CSV with bare-newline line ends."""
    try:
        with Path(path).open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None


def _parse_schema(schema_path: str | Path, text: str | None = None) -> dict:
    """The checked schema at ``schema_path``, parsed from ``text`` if it has
    been read already."""
    path = Path(schema_path)
    schema = parse_json(load_text(path) if text is None else text, path)
    if not isinstance(schema, dict) or not isinstance(schema.get("target"), str):
        raise DataError(f"schema {path}: missing string key 'target'")
    feats = schema.get("features")
    if not isinstance(feats, list) or not feats:
        raise DataError(f"schema {path}: 'features' must be a non-empty list")
    for f in feats:
        for key in ("name", "category", "kind"):
            if not isinstance(f, dict) or not isinstance(f.get(key), str):
                raise DataError(
                    f"schema {path}: feature entry missing {key!r} (a string): {f}"
                )
        if f["kind"] not in (KIND_CATEGORICAL, KIND_NUMERIC):
            raise DataError(
                f"schema {path}: feature {f['name']!r} has unknown kind {f['kind']!r}"
            )
        try:
            FeatureCategory.from_label(f["category"])
        except DataError as exc:
            raise DataError(f"schema {path}: feature {f['name']!r}: {exc}") from None
    names = [f["name"] for f in feats]
    if schema["target"] in names:
        raise DataError(f"target column {schema['target']!r} also declared as a feature")
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise DataError(f"duplicate feature names: {dupes}")
    unit = schema.get("target_unit", "weekly")
    if unit not in ("weekly", "daily"):
        raise DataError(f"schema {path}: target_unit must be 'weekly' or 'daily'")
    if not isinstance(schema.get("id"), (str, type(None))):
        raise DataError(f"schema {path}: 'id' must be a string or null")
    return schema


def _number(cell: str, path: Path, lineno: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"{path}: row {lineno}, column {column!r}: unparseable number {cell!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(
            f"{path}: row {lineno}, column {column!r}: non-finite value {cell!r}"
        )
    return value


def load_and_validate(
    data_path: str | Path, schema_path: str | Path
) -> tuple[FeatureCatalog, EncodedRows]:
    """The catalog and rows of the CSV at ``data_path``, read against the
    schema manifest at ``schema_path``; ``parse_and_validate`` states the rules."""
    path = Path(data_path)
    return parse_and_validate(_parse_schema(schema_path), load_bytes(path, "data file"), path)


def parse_and_validate(
    schema: dict, data: bytes, data_path: str | Path
) -> tuple[FeatureCatalog, EncodedRows]:
    """The catalog and rows of ``data``, the bytes of the CSV at ``data_path``,
    read against a schema checked by ``_parse_schema``. Every CSV is parsed
    here; errors name ``data_path`` and the offending row and column.

    The bytes are decoded as they are parsed, with line ends as written, so no
    decoded copy of the whole file is made. Each cell goes to its column as it
    is read: numeric columns and the doses are typed ``array("d")`` buffers of
    raw doubles, categorical columns and ids lists; a row dropped part-way
    takes back the cells it added. Rows with a missing target or
    missing feature values are dropped (the counts are logged); a
    non-positive or unparseable cell is an error. The catalog's categorical
    encoding maps are built from the labels observed in surviving rows, in
    sorted label order, and are closed afterwards.
    """
    path = Path(data_path)
    target_col = schema["target"]
    id_col = schema.get("id")
    dose_scale = 7.0 if schema.get("target_unit", "weekly") == "daily" else 1.0
    declared = [(f["name"], FeatureCategory.from_label(f["category"]), f["kind"]) for f in schema["features"]]
    feature_names = [name for name, _, _ in declared]
    expected = set(feature_names) | {target_col} | ({id_col} if id_col else set())
    ids: list[str] = []
    ys = array("d")
    columns = [array("d") if kind == KIND_NUMERIC else [] for _, _, kind in declared]
    dropped_target = 0
    dropped_missing = 0
    try:
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file (no header row)")
        present = set(header)
        unknown = sorted(present - expected)
        if unknown:
            raise DataError(f"{path}: unknown column(s) not in schema: {unknown}")
        missing = sorted(expected - present)
        if missing:
            raise DataError(f"{path}: column(s) declared in schema but missing: {missing}")

        # a repeated header name reads its last column, as csv.DictReader does
        where = {name: i for i, name in enumerate(header)}
        target_at = where[target_col]
        id_at = where[id_col] if id_col else None
        cells = [(name, where[name], kind == KIND_NUMERIC, column.append)
                 for (name, _, kind), column in zip(declared, columns)]
        blank = [""] * len(header)
        lineno = 1
        for row in reader:
            if not row:  # blank lines are skipped and not counted
                continue
            lineno += 1
            if len(row) < len(header):  # a short row reads as blank cells
                row += blank[len(row):]
            raw_target = row[target_at].strip()
            if not raw_target:
                dropped_target += 1
                continue
            y = _number(raw_target, path, lineno, target_col)
            if y <= 0:
                raise DataError(
                    f"{path}: row {lineno}, column {target_col!r}: "
                    f"dose must be positive, got {raw_target}"
                )
            for name, at, numeric, append in cells:
                cell = row[at].strip()
                if not cell:
                    dropped_missing += 1
                    for column in columns:  # take back the cells this row added
                        if len(column) > len(ys):
                            column.pop()
                    break
                append(_number(cell, path, lineno, name) if numeric else cell)
            else:
                ids.append((row[id_at].strip() if id_at is not None else "") or f"row{lineno}")
                ys.append(y * dose_scale)
    except UnicodeDecodeError as exc:
        # the wrapper counts a bad byte's position from the start of its chunk;
        # a decode of the whole names its position in the file
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        raise DataError(f"{path} is not valid UTF-8: {exc}") from None

    if dropped_target or dropped_missing:
        log.info(
            "%s: dropped %d row(s) with missing target, %d with missing features",
            path, dropped_target, dropped_missing,
        )
    if not ys:
        raise DataError(f"{path}: no usable rows after validation")

    features = []
    M = np.empty((len(ys), len(declared)))
    for j, ((name, category, kind), column) in enumerate(zip(declared, columns)):
        if kind == KIND_CATEGORICAL:
            encoding = {label: code for code, label in enumerate(sorted(set(column)))}
            features.append(Feature(name, category, kind, encoding))
            M[:, j] = [encoding[label] for label in column]
        else:
            features.append(Feature(name, category, kind))
            M[:, j] = column
    rows = EncodedRows(np.array(ids, dtype=object), M, np.array(ys))
    return FeatureCatalog(tuple(features)), rows


def fit_standardizer(m: np.ndarray, catalog: FeatureCatalog) -> StandardizationParams:
    if m.shape[0] == 0:
        raise DataError("standardizer fit subset is empty")
    means = m.mean(axis=0)
    stds = m.std(axis=0)  # population std
    zero = np.flatnonzero(stds <= 0)
    if zero.size:
        names = [catalog.features[j].name for j in zero]
        raise DataError(f"zero-variance column(s): {names}")
    return StandardizationParams(means, stds)


def standardize(
    rows: EncodedRows,
    catalog: FeatureCatalog,
    params: StandardizationParams | None = None,
) -> Cohort:
    """Shift and scale every column of ``rows`` into a cohort.

    Parameters are fit on ``rows`` unless ready-made ``params`` are supplied,
    e.g. to transform a validation cohort with training-cohort statistics.
    """
    if params is None:
        params = fit_standardizer(rows.M, catalog)
    return Cohort(rows.ids, params.transform(rows.M), rows.y, catalog, params)


def split_cohorts(
    records: EncodedRows,
    catalog: FeatureCatalog,
    ratio: float,
    seed: int,
) -> tuple[Cohort, Cohort]:
    """Uniform random train/validation partition, deterministic under seed.

    ``round(ratio * n)`` records go to training; the standardizer is fit on
    the training part only and applied to both cohorts.
    """
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    n = len(records)
    if n < 2:
        raise DataError(f"need at least 2 records to split, got {n}")
    n_train = min(max(int(round(ratio * n)), 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    train = standardize(records[np.sort(perm[:n_train])], catalog)
    valid = standardize(records[np.sort(perm[n_train:])], catalog, train.standardizer)
    return train, valid


def cohort_to_csv(cohort: Cohort, path: str | Path) -> None:
    """Dump the encoded, standardized matrix for inspection."""
    write_csv(path, ["id", *cohort.catalog.names, "weekly_dose_mg"], (
        [rec_id, *(f"{v:.10g}" for v in x), f"{y:.10g}"]
        for rec_id, x, y in zip(cohort.ids, cohort.X, cohort.y)
    ))
