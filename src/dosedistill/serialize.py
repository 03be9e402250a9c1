"""Versioned JSON serialization for models, catalogs, and bundles.

Parameter arrays are stored as base64 little-endian float64 and scalars as
hex floats, so a save/load round trip is bit-faithful. All JSON is written
with sorted keys and a fixed indent, so identical objects produce identical
bytes.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from .dataset import Feature, FeatureCatalog, FeatureCategory, StandardizationParams
from .distillation import DistillationConfig, DistilledBundle, PrivilegedInputs
from .errors import DataError
from .evaluation import EvalReport, SafetyPartition
from .models import LinearModel, MlpModel, TrainConfig
from .profiles import Profile

FORMAT_VERSION = 2


def encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def decode_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"]).copy()


def encode_scalar(v: float) -> str:
    return float(v).hex()


def decode_scalar(s: str) -> float:
    return float.fromhex(s)


def model_to_obj(model: LinearModel | MlpModel) -> dict:
    if isinstance(model, LinearModel):
        return {
            "kind": "linear",
            "alpha": encode_array(model.alpha),
            "beta": encode_scalar(model.beta),
        }
    if isinstance(model, MlpModel):
        return {
            "kind": "mlp",
            "dim": model.dim,
            "hidden": model.hidden,
            "W1": encode_array(model.W1),
            "b1": encode_array(model.b1),
            "w2": encode_array(model.w2),
            "b2": encode_scalar(model.b2),
        }
    raise TypeError(f"cannot serialize {type(model).__name__}")


def model_from_obj(obj: dict) -> LinearModel | MlpModel:
    kind = obj.get("kind")
    if kind == "linear":
        return LinearModel(decode_array(obj["alpha"]), decode_scalar(obj["beta"]))
    if kind == "mlp":
        return MlpModel(
            decode_array(obj["W1"]),
            decode_array(obj["b1"]),
            decode_array(obj["w2"]),
            decode_scalar(obj["b2"]),
        )
    raise DataError(f"unknown model kind {kind!r}")


def catalog_to_obj(catalog: FeatureCatalog) -> dict:
    return {
        "features": [
            {
                "name": f.name,
                "category": f.category.label,
                "kind": f.kind,
                "encoding_map": dict(f.encoding_map) if f.encoding_map else None,
            }
            for f in catalog.features
        ]
    }


def catalog_from_obj(obj: dict) -> FeatureCatalog:
    return FeatureCatalog(
        tuple(
            Feature(
                f["name"],
                FeatureCategory.from_label(f["category"]),
                f["kind"],
                f.get("encoding_map"),
            )
            for f in obj["features"]
        )
    )


def standardizer_to_obj(params: StandardizationParams) -> dict:
    return {"means": encode_array(params.means), "stds": encode_array(params.stds)}


def standardizer_from_obj(obj: dict) -> StandardizationParams:
    return StandardizationParams(decode_array(obj["means"]), decode_array(obj["stds"]))


def profile_to_obj(profile: Profile) -> dict:
    return {
        "name": profile.name,
        "redacted_categories": sorted(c.label for c in profile.redacted_categories),
        "redacted_features": sorted(profile.redacted_features),
        "dim": profile.dim,
    }


def profile_from_obj(obj: dict) -> Profile:
    return Profile(
        obj["name"],
        frozenset(FeatureCategory.from_label(c) for c in obj["redacted_categories"]),
        frozenset(obj["redacted_features"]),
        obj["dim"],
    )


def config_digest(obj: Any) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def report_to_obj(report) -> dict:
    return {
        "mae": report.mae,
        "mape": report.mape,
        "n": report.n,
        "safety": {
            "under": report.safety.under,
            "within": report.safety.within,
            "over": report.safety.over,
            "under_pct": report.safety.under_pct,
            "within_pct": report.safety.within_pct,
            "over_pct": report.safety.over_pct,
        },
    }


def report_from_obj(obj: dict) -> EvalReport:
    s = obj["safety"]
    return EvalReport(
        obj["mae"],
        obj["mape"],
        obj["n"],
        SafetyPartition(s["under"], s["within"], s["over"]),
    )


def bundle_to_obj(bundle: DistilledBundle) -> dict:
    return {
        "profile": profile_to_obj(bundle.profile),
        "distilled": model_to_obj(bundle.distilled),
        "lambda": bundle.lam,
        "metrics": report_to_obj(bundle.metrics),
    }


def bundle_from_obj(obj: dict) -> DistilledBundle:
    return DistilledBundle(
        profile_from_obj(obj["profile"]),
        model_from_obj(obj["distilled"]),
        obj["lambda"],
        report_from_obj(obj["metrics"]),
    )


def pack_to_obj(
    catalog, standardizer, bundles, config: DistillationConfig, ratio: float
) -> dict:
    """A model pack: what `predict` serves, and the recipe that trained it.

    The recipe (split ratio, grid, privileged mode and training config; the
    split seed is the training seed) lets `predict` train an on-demand
    profile exactly as the stored ones were. ``digest`` hashes all the rest,
    so an edit to any value or key, labels included, no longer decodes.
    """
    body = {
        "format_version": FORMAT_VERSION,
        "catalog": catalog_to_obj(catalog),
        "standardizer": standardizer_to_obj(standardizer),
        "train_config": asdict(config.train),
        "lambda_grid": list(config.lambda_grid),
        "privileged_inputs": config.privileged_inputs.value,
        "split_ratio": ratio,
        "bundles": [bundle_to_obj(b) for b in bundles],
    }
    return body | {"digest": config_digest(body)}


def pack_from_obj(obj: dict):
    """Decode a pack into ``(catalog, standardizer, bundles, config, ratio)``.

    Anything but what ``pack_to_obj`` writes is a DataError: the decoded
    parts are encoded again and must give back ``obj`` itself, digest
    included, so a missing, extra, edited or inconsistent key is rejected.
    """
    version = obj.get("format_version") if isinstance(obj, dict) else None
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported model file version {version!r}")
    try:
        config = DistillationConfig(
            lambda_grid=tuple(obj["lambda_grid"]),
            privileged_inputs=PrivilegedInputs(obj["privileged_inputs"]),
            train=TrainConfig(**obj["train_config"]),
        )
        parts = (
            catalog_from_obj(obj["catalog"]),
            standardizer_from_obj(obj["standardizer"]),
            [bundle_from_obj(b) for b in obj["bundles"]],
            config,
            float(obj["split_ratio"]),
        )
        canonical = pack_to_obj(*parts) == obj
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model pack: {type(exc).__name__}: {exc}") from None
    if not canonical:
        raise DataError("malformed model pack: it is not what its decoded parts encode to")
    return parts


def save_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataError(f"file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None
