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
from .dataset import load_json, save_json  # re-exported: callers use serialize's names
from .dataset import load_text, parse_json
from .distillation import DistillationConfig, DistilledBundle, PrivilegedInputs
from .errors import DataError
from .evaluation import EvalReport
from .models import MlpModel, TrainConfig
from .profiles import Profile, default_catalog

FORMAT_VERSION = 2


def encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def decode_array(obj: dict) -> np.ndarray:
    """A read-only array: a decoded pack may be shared by every later load."""
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"])


def model_to_obj(model: MlpModel) -> dict:
    return {
        "kind": "mlp",
        "dim": model.dim,
        "hidden": model.hidden,
        "W1": encode_array(model.W1),
        "b1": encode_array(model.b1),
        "w2": encode_array(model.w2),
        "b2": float(model.b2).hex(),
    }


def model_from_obj(obj: dict) -> MlpModel:
    """The model in ``obj``; ``pack_from_obj`` checks its ``kind`` by encoding it again."""
    return MlpModel(
        decode_array(obj["W1"]),
        decode_array(obj["b1"]),
        decode_array(obj["w2"]),
        float.fromhex(obj["b2"]),
    )


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


def config_digest(obj: Any) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def report_to_obj(report) -> dict:
    return {
        "mae": report.mae,
        "mape": report.mape,
        "n": report.n,
        "safety": {
            "under": report.under,
            "within": report.within,
            "over": report.over,
            "under_pct": report.under_pct,
            "within_pct": report.within_pct,
            "over_pct": report.over_pct,
        },
    }


def report_from_obj(obj: dict) -> EvalReport:
    """The report in ``obj``. Its ``n`` and percentages are not read:
    ``pack_from_obj`` checks them by encoding the report again."""
    s = obj["safety"]
    return EvalReport(obj["mae"], obj["mape"], s["under"], s["within"], s["over"])


def bundle_to_obj(bundle: DistilledBundle) -> dict:
    return {
        "profile": profile_to_obj(bundle.profile),
        "distilled": model_to_obj(bundle.distilled),
        "lambda": bundle.lam,
        "metrics": report_to_obj(bundle.metrics),
    }


def bundle_from_obj(obj: dict, profiles: dict[str, Profile]) -> DistilledBundle:
    """The bundle in ``obj``; it serves the profile of its name in ``profiles``."""
    return DistilledBundle(
        profiles[obj["profile"]["name"]],
        model_from_obj(obj["distilled"]),
        obj["lambda"],
        report_from_obj(obj["metrics"]),
    )


def pack_to_obj(catalog, standardizer, bundles, config: DistillationConfig) -> dict:
    """A model pack: what `predict` serves, and the recipe that trained it.

    The recipe is ``config``, temperature aside; it lets `predict` split and
    train an on-demand profile exactly as the stored ones were. ``digest``
    hashes all the rest, so an edit to any value or key, labels included, no
    longer decodes. The pack stores no temperature, so only
    ``temperature=1`` can be packed, and a reader knows a profile by its
    name alone, so only the catalog's own profiles can be, each once.
    """
    if config.temperature != 1.0:
        raise ValueError(
            f"a pack stores no temperature; cannot pack temperature={config.temperature}"
        )
    known = set(default_catalog(catalog))
    for k, b in enumerate(bundles):
        if b.profile not in known:
            raise ValueError(f"profile {b.profile.name!r} is not one of the catalog's "
                             "profiles; a pack stores only those")
        if b.profile in (a.profile for a in bundles[:k]):
            raise ValueError(f"profile {b.profile.name!r} has two bundles; a pack "
                             "stores one per profile")
    body = {
        "format_version": FORMAT_VERSION,
        "catalog": catalog_to_obj(catalog),
        "standardizer": standardizer_to_obj(standardizer),
        "train_config": asdict(config.train),
        "lambda_grid": list(config.lambda_grid),
        "privileged_inputs": config.privileged_inputs.value,
        "split_ratio": config.split_ratio,
        "bundles": [bundle_to_obj(b) for b in bundles],
    }
    return body | {"digest": config_digest(body)}


def pack_from_obj(obj: dict):
    """Decode a pack into ``(catalog, standardizer, bundles, config)``.

    Anything but what ``pack_to_obj`` writes is a DataError: each part checks
    its own values as it is built, each bundle serves the catalog's profile
    of its name, and the parts are encoded again and must give back ``obj``
    itself, digest included, so a missing, extra, edited or inconsistent key
    is rejected.
    """
    version = obj.get("format_version") if isinstance(obj, dict) else None
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported model file version {version!r}")
    try:
        config = DistillationConfig(
            lambda_grid=tuple(obj["lambda_grid"]),
            privileged_inputs=PrivilegedInputs(obj["privileged_inputs"]),
            split_ratio=obj["split_ratio"],
            train=TrainConfig(**obj["train_config"]),
        )
        catalog = catalog_from_obj(obj["catalog"])
        profiles = {p.name: p for p in default_catalog(catalog)}
        for b in obj["bundles"]:  # a bool equals 0 or 1, so only its type tells
            if type(b["lambda"]) not in (int, float) or b["lambda"] not in config.lambda_grid:
                raise ValueError(f"a bundle's lambda {b['lambda']!r} is not on the grid")
        parts = (
            catalog,
            standardizer_from_obj(obj["standardizer"]),
            tuple(bundle_from_obj(b, profiles) for b in obj["bundles"]),
            config,
        )
        canonical = pack_to_obj(*parts) == obj
    except (AttributeError, DataError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model pack: {type(exc).__name__}: {exc}") from None
    if not canonical:
        raise DataError("malformed model pack: it is not what its decoded parts encode to")
    return parts


_last_pack: tuple[str, tuple] | None = None  # (text, decode) of the last pack loaded


def load_pack(path: str | Path):
    """``pack_from_obj`` of the pack file at ``path``. The last pack's decode is
    kept, keyed by the file's exact text, so only text seen before is served
    without being decoded and checked again."""
    global _last_pack
    text = load_text(path)
    last = _last_pack  # one read: another thread may replace it meanwhile
    if last is None or last[0] != text:
        last = _last_pack = (text, pack_from_obj(parse_json(text, path)))
    return last[1]
