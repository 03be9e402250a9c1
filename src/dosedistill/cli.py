"""Command-line surface for the dose-modeling pipeline.

Every writing command drops its effective configuration next to its outputs
as ``run_config.json``; re-running with the same arguments reproduces every
output byte for byte. Exit codes: 0 ok, 2 usage, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import serialize
from .dataset import (
    Feature,
    FeatureCatalog,
    FeatureCategory,
    _parse_schema,
    cohort_to_csv,
    load_and_validate,
    split_cohorts,
    standardize,
)
from .distillation import (
    DistillationConfig,
    PrivilegedInputs,
    sweep_lambda,
)
from .errors import DataError, DoseDistillError, NoFeasibleProfileError, NumericError
from .evaluation import run_study
from .feature_selection import backward_attribute_elimination
from .models import TrainConfig
from .profiles import (
    Disclosure,
    Profile,
    best_feasible,
    default_catalog,
    train_on_demand,
)
from .synthetic import SyntheticSpec, generate_synthetic, write_dataset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

SEED_HELP = (
    "All randomness flows from --seed. Sub-seeds use fixed arithmetic: "
    "study run j splits and trains with seed+j; within a training run the "
    "MLP is initialized from the training seed and shuffling uses seed+1."
)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("DOSEDISTILL_OUT")
    if not out:
        raise DataError("no output directory: pass --out or set DOSEDISTILL_OUT")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


MAX_GRID_POINTS = 1001  # a 0.001 step over [0, 1]


def _parse_grid(spec: str) -> tuple[float, ...]:
    """Either 'start:stop:step' (inclusive) or a comma list of values."""
    bad = ValueError(f"bad grid {spec!r}; use start:stop:step or comma-separated values")
    try:
        if ":" in spec:
            start_s, stop_s, step_s = spec.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
        else:
            return tuple(sorted(float(v) for v in spec.split(",")))
    except ValueError:
        raise bad from None
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0:
        raise bad
    if start < 0 or stop > 1:
        raise ValueError(
            f"bad grid {spec!r}: the lambda grid must be strictly ascending within [0, 1]"
        )
    if (stop - start) / step + 1 > MAX_GRID_POINTS + 1e-9:
        raise ValueError(f"bad grid {spec!r}: more than {MAX_GRID_POINTS} points")
    values = []
    k = 0
    while True:
        v = round(start + k * step, 10)
        if v > stop + 1e-12:
            break
        values.append(v)
        k += 1
    return tuple(values)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
        hidden=args.hidden,
    )


def _distill_config(args) -> DistillationConfig:
    """The run's grid; ``train --lambda X`` is the one-point grid (X,)."""
    lam = getattr(args, "lam", None)
    return DistillationConfig(
        lambda_grid=_parse_grid(args.grid) if lam is None else (lam,),
        privileged_inputs=PrivilegedInputs(args.privileged_inputs),
        train=_train_config(args),
    )


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument("--schema", required=True, help="sidecar schema JSON")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ratio", type=float, default=0.65,
                   help="training fraction of the split (default 0.65)")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--max-epochs", type=int, default=500)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--grid", default="0:1:0.1",
                   help="imitation-weight grid, start:stop:step or comma list")
    p.add_argument("--privileged-inputs", default="all_features",
                   choices=[m.value for m in PrivilegedInputs])
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect")


def _run_config_obj(args, command: str) -> dict:
    skip = {"func"}
    obj = {"command": command}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        obj[key] = value if not isinstance(value, Path) else str(value)
    return obj


def _layout_catalog(schema_path: str) -> FeatureCatalog:
    """Catalog skeleton from a schema alone (kinds flattened to numeric),
    enough to derive profile masks before any data is loaded."""
    return FeatureCatalog(
        tuple(
            Feature(f["name"], FeatureCategory.from_label(f["category"]), "numeric")
            for f in _parse_schema(schema_path)["features"]
        )
    )


def _resolve_profiles(catalog, names: Sequence[str] | None) -> list[Profile]:
    profiles = default_catalog(catalog)
    if not names:
        return list(profiles)
    return [profiles.resolve(n) for n in names]


def _profile_config(config: DistillationConfig, profile: Profile) -> DistillationConfig:
    # redacted-only privileged inputs are undefined for a profile that
    # redacts nothing; there the privileged and plain models coincide
    if profile.is_public and config.privileged_inputs is PrivilegedInputs.REDACTED_ONLY:
        return replace(config, privileged_inputs=PrivilegedInputs.ALL_FEATURES)
    return config


# ---------------------------------------------------------------- commands


def _cmd_synth(args) -> int:
    out = _out_dir(args)
    spec = SyntheticSpec(
        n=args.n,
        demographic=args.demographic,
        background=args.background,
        phenotypic=args.phenotypic,
        genotypic=args.genotypic,
        categorical_per_category=args.categorical_per_category,
        rho=args.rho,
        noise_std=args.noise_std,
        base_dose=args.base_dose,
    )
    rows, schema = generate_synthetic(spec, args.seed)
    write_dataset(rows, schema, out / "data.csv", out / "schema.json")
    serialize.save_json(out / "run_config.json", _run_config_obj(args, "synth"))
    print(f"synth: wrote {len(rows)} records (d={spec.d}) to {out}")
    return EXIT_OK


def _cmd_prepare(args) -> int:
    catalog, records = load_and_validate(args.data, args.schema)
    cohort = standardize(records, catalog)
    if args.dump_encoded:
        cohort_to_csv(cohort, args.dump_encoded)
    if args.out:
        out = _out_dir(args)
        serialize.save_json(out / "run_config.json", _run_config_obj(args, "prepare"))
    print(
        f"prepare: {len(records)} usable records, d={catalog.d}, "
        f"{sum(1 for f in catalog.features if f.kind == 'categorical')} categorical"
    )
    return EXIT_OK


def _cmd_select_features(args) -> int:
    out = _out_dir(args)
    catalog, records = load_and_validate(args.data, args.schema)
    train, _ = split_cohorts(records, catalog, args.ratio, args.seed)
    protected = (
        frozenset()
        if args.no_protect_genotypic
        else frozenset(catalog.indices_for(FeatureCategory.GENOTYPIC))
    )
    result = backward_attribute_elimination(
        train, protected, args.epsilon, args.folds, args.seed
    )
    obj = {
        "kept": [catalog.names[i] for i in result.kept],
        "removed": [
            {"feature": catalog.names[i], "cv_mae_after_removal": s}
            for i, s in result.removed
        ],
        "baseline_cv_mae": result.baseline_score,
        "trace": [
            [{"feature": catalog.names[i], "cv_mae": s} for i, s in rnd]
            for rnd in result.trace
        ],
    }
    serialize.save_json(out / "bae.json", obj)
    serialize.save_json(
        out / "run_config.json", _run_config_obj(args, "select-features")
    )
    print(
        f"select-features: kept {len(result.kept)}/{catalog.d}, "
        f"removed {len(result.removed)}, report in {out / 'bae.json'}"
    )
    return EXIT_OK


def _cmd_profiles_list(args) -> int:
    catalog = _layout_catalog(args.schema)
    profiles = default_catalog(catalog)
    cats = list(FeatureCategory)
    name_w = max(len(p.name) for p in profiles) + 2
    header = "Profile".ljust(name_w) + "".join(c.label.ljust(13) for c in cats)
    print(header)
    print("-" * len(header))
    for p in profiles:
        marks = "".join(
            ("✗" if c in p.redacted_categories else "✓").ljust(13)
            for c in cats
        )
        print(p.name.ljust(name_w) + marks)
    return EXIT_OK


def _fit_profiles(args):
    """Sweep the grid for each requested profile: (pack, bundles, grid points)."""
    config = _distill_config(args)
    catalog, records = load_and_validate(args.data, args.schema)
    train, valid = split_cohorts(records, catalog, args.ratio, args.seed)
    bundles, points = [], []
    for profile in _resolve_profiles(catalog, args.profile):
        cfg = _profile_config(config, profile)
        sweep, best = sweep_lambda(train, valid, profile, cfg)
        points.extend((profile.name, lam, rep) for lam, rep in sweep)
        bundles.append(best)
    pack = serialize.pack_to_obj(catalog, train.standardizer, bundles, config, args.ratio)
    return pack, bundles, points


def _write_table(path: Path, header: Sequence[str], rows) -> None:
    """A CSV with one header row; floats are written with six significant digits."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in row])


def _cmd_train(args) -> int:
    out = _out_dir(args)
    pack, bundles, _ = _fit_profiles(args)
    serialize.save_json(out / "pack.json", pack)
    report_obj = {
        b.profile.name: {
            "lambda": b.lam,
            "metrics": serialize.report_to_obj(b.metrics),
        }
        for b in bundles
    }
    serialize.save_json(out / "report.json", report_obj)
    serialize.save_json(out / "run_config.json", _run_config_obj(args, "train"))
    summary = ", ".join(
        f"{b.profile.name}: mae {b.metrics.mae:.2f} @ lambda {b.lam:g}"
        for b in bundles
    )
    print(f"train: {summary}; pack in {out / 'pack.json'}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    out = _out_dir(args)
    pack, bundles, points = _fit_profiles(args)
    _write_table(
        out / "sweep.csv",
        ["profile", "lambda", "mae", "mape", "sw", "under", "over"],
        (
            [name, f"{lam:g}", rep.mae, rep.mape, rep.safety.within_pct,
             rep.safety.under_pct, rep.safety.over_pct]
            for name, lam, rep in points
        ),
    )
    serialize.save_json(out / "pack.json", pack)
    serialize.save_json(out / "run_config.json", _run_config_obj(args, "sweep"))
    print(
        f"sweep: {len(points)} grid points over {len(bundles)} profile(s); "
        f"CSV in {out / 'sweep.csv'}"
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    out = _out_dir(args)
    catalog, records = load_and_validate(args.data, args.schema)
    profiles = default_catalog(catalog)
    config = _distill_config(args)
    results = run_study(
        records, catalog, profiles, config,
        runs=args.runs, base_seed=args.seed, ratio=args.ratio,
    )

    from .evaluation import RISK_LABELS

    study_obj = {"risk_legend": dict(RISK_LABELS)}
    study_obj |= {
        f"{kind}|{name}": {
            "model": kind,
            "profile": name,
            "mae_mean": r.mae_mean_std[0],
            "mae_std": r.mae_mean_std[1],
            "mape_mean": r.mape_mean_std[0],
            "mape_std": r.mape_mean_std[1],
            "under_mean": r.under_mean_std[0],
            "within_mean": r.within_mean_std[0],
            "over_mean": r.over_mean_std[0],
            "under_std": r.under_mean_std[1],
            "within_std": r.within_mean_std[1],
            "over_std": r.over_mean_std[1],
            "per_run": [serialize.report_to_obj(rep) for rep in r.per_run],
        }
        for (kind, name), r in sorted(results.items())
    }
    serialize.save_json(out / "study.json", study_obj)

    arms = sorted(results.items())
    _write_table(
        out / "accuracy.csv",
        ["model", "profile", "mae", "mae_std", "mape", "mape_std"],
        ([kind, name, *r.mae_mean_std, *r.mape_mean_std] for (kind, name), r in arms),
    )
    _write_table(
        out / "safety.csv",
        ["model", "profile", "under_pct", "within_pct", "over_pct",
         "under_std", "within_std", "over_std"],
        (
            [kind, name, r.under_mean_std[0], r.within_mean_std[0],
             r.over_mean_std[0], r.under_mean_std[1], r.within_mean_std[1],
             r.over_mean_std[1]]
            for (kind, name), r in arms
        ),
    )
    serialize.save_json(out / "run_config.json", _run_config_obj(args, "evaluate"))
    print(
        f"evaluate: {args.runs} run(s) x {len(profiles)} profiles; "
        f"tables in {out / 'accuracy.csv'} and {out / 'safety.csv'}"
    )
    return EXIT_OK


def _parse_disclosure(spec: str, catalog: FeatureCatalog, standardizer) -> Disclosure:
    values: dict[int, float] = {}
    for pair in spec.split(","):
        pair = pair.strip()
        if not pair:
            continue
        if "=" not in pair:
            raise DataError(f"bad disclosure item {pair!r}; expected name=value")
        name, raw = pair.split("=", 1)
        idx = catalog.index_of(name.strip())
        if idx in values:
            raise DataError(f"feature {name.strip()!r} is disclosed more than once")
        feat = catalog.features[idx]
        if feat.kind == "categorical":
            encoded = float(feat.encode(raw.strip()))
        else:
            try:
                encoded = float(raw)
            except ValueError:
                raise DataError(
                    f"feature {name!r}: unparseable number {raw!r}"
                ) from None
            if not math.isfinite(encoded):
                raise DataError(f"feature {name!r}: non-finite value {raw!r}")
        values[idx] = (encoded - standardizer.means[idx]) / standardizer.stds[idx]
    if not values:
        raise DataError("disclosure is empty; pass --disclose name=value,...")
    return Disclosure(frozenset(values), values)


def _cmd_predict(args) -> int:
    catalog, standardizer, bundles, config, ratio = serialize.pack_from_obj(
        serialize.load_json(args.model)
    )
    disclosure = _parse_disclosure(args.disclose, catalog, standardizer)
    by_profile = {b.profile.name: b for b in bundles}
    try:
        profile, exact = best_feasible([b.profile for b in bundles], disclosure)
        bundle = by_profile[profile.name]
    except NoFeasibleProfileError:
        if not (args.data and args.schema):
            raise NoFeasibleProfileError(
                "no stored profile fits this disclosure; re-run with --data/--schema "
                "to train one on demand"
            ) from None
        # train as the pack's profiles were: its split, grid and privileged mode
        data_catalog, records = load_and_validate(args.data, args.schema)
        train, valid = split_cohorts(records, data_catalog, ratio, config.train.seed)
        if not (
            data_catalog == catalog
            and np.array_equal(train.standardizer.means, standardizer.means)
            and np.array_equal(train.standardizer.stds, standardizer.stds)
        ):
            raise DataError("--data is not the data this model pack was trained on")
        bundle = train_on_demand(train, valid, disclosure, config)
        profile, exact = bundle.profile, True

    x_visible = [disclosure.values[i] for i in profile.visible_features]
    dose = float(bundle.distilled.predict([x_visible])[0])
    match = "exact match" if exact else "fallback: closest feasible profile"
    print(f"profile: {profile.name} ({match})")
    print(f"predicted weekly dose: {dose:.2f} mg/week")
    return EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dosedistill",
        description="Train and evaluate per-profile dose models that never "
        "need a patient's withheld features at prediction time.",
        epilog=SEED_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=1200)
    p.add_argument("--demographic", type=int, default=4)
    p.add_argument("--background", type=int, default=6)
    p.add_argument("--phenotypic", type=int, default=1)
    p.add_argument("--genotypic", type=int, default=2)
    p.add_argument("--categorical-per-category", type=int, default=1)
    p.add_argument("--rho", type=float, default=0.8,
                   help="correlation between withheld-signal and visible signal")
    p.add_argument("--noise-std", type=float, default=8.0)
    p.add_argument("--base-dose", type=float, default=50.0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("prepare", help="validate and encode a dataset")
    _add_data_args(p)
    p.add_argument("--out", default=None)
    p.add_argument("--dump-encoded", default=None, metavar="PATH",
                   help="write the encoded standardized matrix as CSV")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("select-features", help="backward attribute elimination")
    _add_data_args(p)
    p.add_argument("--out", help="output directory")
    p.add_argument("--epsilon", type=float, default=0.05,
                   help="max tolerated CV-MAE degradation per removal")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--ratio", type=float, default=0.65)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-protect-genotypic", action="store_true",
                   help="allow genotypic features to be eliminated")
    p.set_defaults(func=_cmd_select_features)

    p = sub.add_parser("profiles", help="profile catalog operations")
    psub = p.add_subparsers(dest="profiles_command", required=True)
    pl = psub.add_parser("list", help="print the default profile table")
    pl.add_argument("--schema", required=True)
    pl.set_defaults(func=_cmd_profiles_list)

    p = sub.add_parser("train", help="train per-profile model bundles")
    _add_data_args(p)
    p.add_argument("--out", help="output directory")
    p.add_argument("--profile", action="append",
                   help="profile name (repeatable; default: all nine)")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="train at this one imitation weight: a one-point "
                        "grid that overrides --grid")
    _add_train_args(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="train across the imitation-weight grid")
    _add_data_args(p)
    p.add_argument("--out", help="output directory")
    p.add_argument("--profile", action="append",
                   help="profile name (repeatable; default: all nine)")
    _add_train_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("evaluate", help="multi-split accuracy and safety study")
    _add_data_args(p)
    p.add_argument("--out", help="output directory")
    p.add_argument("--runs", type=int, default=10)
    _add_train_args(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="predict a dose from a disclosure")
    p.add_argument("--model", required=True, help="model pack JSON from train/sweep")
    p.add_argument("--disclose", required=True,
                   help="comma-separated name=value pairs; omission = withheld")
    p.add_argument("--data", default=None,
                   help="the pack's training CSV, for on-demand profiles")
    p.add_argument("--schema", default=None)
    p.set_defaults(func=_cmd_predict)

    return parser


def run_command(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NoFeasibleProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DoseDistillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    import logging

    logging.basicConfig(level=logging.INFO, format="%(message)s")
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
