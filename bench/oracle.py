"""The benchmark's own reckoning of what the program should output.

Nothing here imports the program. Model packs are decoded from their JSON
and base64, forward passes and the 20 % safety window are written out in
numpy, profiles are derived from their names and the schema's categories,
and cross-validated least squares uses ``np.linalg.lstsq``. The workloads
compare the program's outputs against these and raise ``CheckFailed`` on
any disagreement.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import check

CATEGORIES = ("demographic", "background", "phenotypic", "genotypic")
PUBLIC = "Public patient"
WINDOW = 0.2
# printed doses carry two decimals
PRINT_TOLERANCE = 0.005 + 1e-9


@dataclass(frozen=True)
class Schema:
    names: tuple[str, ...]
    categories: tuple[str, ...]
    kinds: tuple[str, ...]
    target: str
    id_column: str | None

    @classmethod
    def read(cls, path: Path) -> "Schema":
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        feats = obj["features"]
        return cls(
            tuple(f["name"] for f in feats),
            tuple(f["category"] for f in feats),
            tuple(f["kind"] for f in feats),
            obj["target"],
            obj.get("id"),
        )

    def indices(self, category: str) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.categories) if c == category)

    def visible_for(self, profile_name: str) -> tuple[int, ...]:
        """Disclosed columns of a catalog profile, from its name alone."""
        if profile_name == PUBLIC:
            return tuple(range(len(self.names)))
        for cat in CATEGORIES:
            if profile_name == f"With all except {cat}":
                return tuple(i for i, c in enumerate(self.categories) if c != cat)
            if profile_name == f"{cat.capitalize()} except others":
                return self.indices(cat)
        raise ValueError(f"not a catalog profile: {profile_name!r}")


@dataclass(frozen=True)
class Table:
    """A complete CSV cohort: raw feature strings per column and targets."""

    columns: dict[str, list[str]]
    y: np.ndarray

    @classmethod
    def read(cls, path: Path, schema: Schema) -> "Table":
        with Path(path).open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        return cls(
            {name: [r[name] for r in rows] for name in schema.names},
            np.array([float(r[schema.target]) for r in rows]),
        )

    def __len__(self) -> int:
        return len(self.y)


def label_codes(labels) -> dict[str, int]:
    """Categorical codes in sorted label order."""
    return {label: code for code, label in enumerate(sorted(set(labels)))}


def encode(table: Table, schema: Schema) -> np.ndarray:
    m = np.empty((len(table), len(schema.names)))
    for j, (name, kind) in enumerate(zip(schema.names, schema.kinds)):
        col = table.columns[name]
        if kind == "categorical":
            codes = label_codes(col)
            m[:, j] = [codes[v] for v in col]
        else:
            m[:, j] = [float(v) for v in col]
    return m


def split_indices(n: int, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The documented split: a seeded permutation, the first round(ratio*n) train."""
    n_train = min(max(int(round(ratio * n)), 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


@dataclass(frozen=True)
class Standardized:
    means: np.ndarray
    stds: np.ndarray
    X_valid: np.ndarray
    y_valid: np.ndarray
    valid_idx: np.ndarray


def standardize_split(table: Table, schema: Schema, ratio: float, seed: int) -> Standardized:
    m = encode(table, schema)
    tr, va = split_indices(len(table), ratio, seed)
    means = m[tr].mean(axis=0)
    stds = m[tr].std(axis=0)
    return Standardized(means, stds, (m[va] - means) / stds, table.y[va], va)


def decode_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"])


@dataclass(frozen=True)
class Mlp:
    W1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float

    @classmethod
    def from_pack(cls, obj: dict) -> "Mlp":
        check(obj.get("kind") == "mlp", f"model kind {obj.get('kind')!r} is not mlp")
        return cls(decode_array(obj["W1"]), decode_array(obj["b1"]),
                   decode_array(obj["w2"]), float.fromhex(obj["b2"]))

    @property
    def dim(self) -> int:
        return self.W1.shape[1]

    def forward(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(X @ self.W1.T + self.b1, 0.0) @ self.w2 + self.b2


def within_window(pred, truth) -> np.ndarray:
    """Inside [0.8, 1.2] x the true dose, boundaries included."""
    pred, truth = np.asarray(pred, float), np.asarray(truth, float)
    return (pred >= (1 - WINDOW) * truth) & (pred <= (1 + WINDOW) * truth)


@dataclass(frozen=True)
class PackView:
    """A model pack as the benchmark reads it."""

    profiles: tuple[str, ...]
    visible: tuple[tuple[int, ...], ...]
    models: tuple[Mlp, ...]
    means: np.ndarray
    stds: np.ndarray
    codes: dict[str, dict[str, int]]

    @classmethod
    def read(cls, path: Path, schema: Schema) -> "PackView":
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        names = tuple(b["profile"]["name"] for b in obj["bundles"])
        visible = tuple(schema.visible_for(n) for n in names)
        check([f["name"] for f in obj["catalog"]["features"]] == list(schema.names),
              "pack catalog columns differ from the schema")
        for b, vis in zip(obj["bundles"], visible):
            p = b["profile"]
            redacted = sorted(set(range(len(schema.names))) - set(vis))
            check(sorted(p["redacted_features"]) == redacted,
                  f"{p['name']}: redacts {sorted(p['redacted_features'])}, "
                  f"its categories define {redacted}")
        models = tuple(Mlp.from_pack(b["distilled"]) for b in obj["bundles"])
        for name, model, vis in zip(names, models, visible):
            check(model.dim == len(vis),
                  f"{name}: distilled model takes {model.dim} inputs, "
                  f"profile discloses {len(vis)}")
        codes = {
            f["name"]: dict(f["encoding_map"])
            for f in obj["catalog"]["features"] if f["kind"] == "categorical"
        }
        return cls(names, visible, models,
                   decode_array(obj["standardizer"]["means"]),
                   decode_array(obj["standardizer"]["stds"]), codes)


def check_pack_matches_split(pack: PackView, std: Standardized, table: Table) -> None:
    for name in pack.codes:
        check(pack.codes[name] == label_codes(table.columns[name]),
              f"{name}: codes {pack.codes[name]} do not follow sorted label order")
    check(np.allclose(pack.means, std.means, rtol=1e-12, atol=1e-12)
          and np.allclose(pack.stds, std.stds, rtol=1e-12, atol=0),
          "pack standardizer differs from the training split's mean and std")


def score_bundles(pack: PackView, std: Standardized) -> dict[str, tuple[float, int]]:
    """Per profile: validation MAE and within-window count of its distilled model."""
    out = {}
    for name, vis, model in zip(pack.profiles, pack.visible, pack.models):
        pred = model.forward(std.X_valid[:, list(vis)])
        out[name] = (float(np.mean(np.abs(pred - std.y_valid))),
                     int(within_window(pred, std.y_valid).sum()))
    return out


def check_report(report: dict, scored: dict[str, tuple[float, int]], n_valid: int) -> None:
    check(sorted(report) == sorted(scored),
          f"report profiles {sorted(report)} differ from the pack's")
    for name, (mae, within) in scored.items():
        got = report[name]["metrics"]
        check(got["n"] == n_valid, f"{name}: report n {got['n']} != {n_valid}")
        check(abs(got["mae"] - mae) <= 1e-9 * max(1.0, mae),
              f"{name}: report MAE {got['mae']!r}, forward pass gives {mae!r}")
        check(got["safety"]["within"] == within,
              f"{name}: report within {got['safety']['within']}, window rule gives {within}")


def feasible_pick(pack: PackView, disclosed: frozenset[int]) -> tuple[int, bool]:
    """Feasibility-first: the largest stored visible set inside the disclosure,
    ties to the earlier profile. Returns (bundle position, exact) or (-1, False)."""
    best = -1
    for pos, vis in enumerate(pack.visible):
        if set(vis) <= disclosed and (best < 0 or len(vis) > len(pack.visible[best])):
            best = pos
    if best < 0:
        return -1, False
    return best, set(pack.visible[best]) == disclosed


def encode_disclosure(pack: PackView, schema: Schema, values: dict[int, str]) -> dict[int, float]:
    out = {}
    for i, raw in values.items():
        name = schema.names[i]
        x = float(pack.codes[name][raw]) if name in pack.codes else float(raw)
        out[i] = (x - pack.means[i]) / pack.stds[i]
    return out


def stored_dose(pack: PackView, pos: int, encoded: dict[int, float]) -> float:
    vis = pack.visible[pos]
    x = np.array([[encoded[i] for i in vis]])
    return float(pack.models[pos].forward(x)[0])


def on_demand_name(disclosed) -> str:
    digest = hashlib.sha256(",".join(map(str, sorted(disclosed))).encode()).hexdigest()
    return f"custom-{digest[:8]}"


def parse_predict(out: str) -> tuple[str, bool, float] | None:
    """(profile, exact, dose) from predict's two lines, or None when absent."""
    profile = exact = dose = None
    for line in out.splitlines():
        if line.startswith("profile: "):
            rest = line[len("profile: "):]
            name, _, match = rest.rpartition(" (")
            profile, exact = name, match.startswith("exact match")
        elif line.startswith("predicted weekly dose: "):
            dose = float(line.split(":", 1)[1].split()[0])
    if profile is None or dose is None:
        return None
    return profile, exact, dose


def cv_mae(X: np.ndarray, y: np.ndarray, cols, folds: int, seed: int) -> float:
    """k-fold CV MAE of least squares with an intercept, folds from a seeded
    permutation split into near-equal parts."""
    cols = sorted(cols)
    A = np.hstack([X[:, cols], np.ones((len(y), 1))])
    perm = np.random.default_rng(seed).permutation(len(y))
    err = np.empty(len(y))
    for fold in np.array_split(perm, folds):
        mask = np.ones(len(y), dtype=bool)
        mask[fold] = False
        coef, *_ = np.linalg.lstsq(A[mask], y[mask], rcond=None)
        err[fold] = np.abs(A[fold] @ coef - y[fold])
    return float(err.mean())


def check_elimination(X, y, kept, removed, baseline, protected, epsilon, folds,
                      seed, rel_tol=1e-6) -> None:
    """Protected features stay, each removal score is the CV MAE of the set it
    leaves, each step was allowed, and the next step would not have been."""
    d = X.shape[1]
    check(not set(protected) & {i for i, _ in removed},
          f"protected feature(s) removed: {sorted(set(protected) & {i for i, _ in removed})}")
    check(sorted(list(kept) + [i for i, _ in removed]) == list(range(d)),
          "kept and removed do not partition the features")

    def same(a, b):
        return abs(a - b) <= rel_tol * max(1.0, abs(b))

    current_set = list(range(d))
    current = cv_mae(X, y, current_set, folds, seed)
    check(same(baseline, current), f"baseline CV MAE {baseline!r}, lstsq gives {current!r}")
    for idx, score in removed:
        current_set.remove(idx)
        mine = cv_mae(X, y, current_set, folds, seed)
        check(same(score, mine), f"removing {idx}: reported {score!r}, lstsq gives {mine!r}")
        check(mine <= current + epsilon + rel_tol,
              f"removing {idx} raised CV MAE {current!r} -> {mine!r}, beyond epsilon")
        current = mine
    candidates = [i for i in current_set if i not in protected]
    if len(current_set) > 1 and candidates:
        nxt = min(cv_mae(X, y, [j for j in current_set if j != i], folds, seed)
                  for i in candidates)
        check(nxt > current + epsilon - rel_tol,
              f"elimination stopped although a removal scores {nxt!r} "
              f"<= {current!r} + epsilon")
