"""Command-line surface for the dose-modeling pipeline.

Every command returns its output, which ``run_command`` prints. A writing
command writes into ``--out``, else ``DOSEDISTILL_OUT``, and ``run_command``
records the parsed arguments there, that directory among them, as
``run_config.json``; re-running them reproduces every output byte for byte.
Exit codes: 0 ok, 2 usage, 3 data error or out of memory, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import fields
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
    load_bytes,
    load_text,
    parse_and_validate,
    split_cohorts,
    standardize,
    write_csv,
)
from .distillation import DistillationConfig, PrivilegedInputs, _usable_cpus
from .distillation import run_study, sweep_profiles
from .errors import DataError, DoseDistillError, NoFeasibleProfileError, NumericError
from .evaluation import RISK_LABELS, STUDY_STATS, mean_std
from .feature_selection import DEFAULT_EPSILON, DEFAULT_FOLDS, backward_attribute_elimination
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


def _out_dir(args) -> Path | None:
    """The output directory a writing command names, stored back in
    ``args.out``; ``_made`` creates it once the command has something to
    write, so a failing command leaves none behind. Only ``prepare``
    without ``--dump-encoded`` may name none (``None``): it writes nothing.

    A path that can never be a directory (it, or its nearest existing
    ancestor, is a file) is refused here, before the command does any work.
    """
    args.out = args.out or os.environ.get("DOSEDISTILL_OUT")
    if not args.out:
        if args.command == "prepare" and not args.dump_encoded:
            return None
        raise DataError("no output directory: pass --out or set DOSEDISTILL_OUT")
    path = Path(args.out)
    try:
        existing = next(p for p in (path, *path.parents) if p.exists())
    except OSError as exc:  # a name too long, say: exists() lets it through
        raise DataError(f"cannot make output directory {path}: {exc.strerror}") from None
    if not existing.is_dir():
        raise DataError(
            f"cannot make output directory {path}: {existing} is not a directory"
        )
    return path


def _made(out: str | Path) -> Path:
    """The directory ``out``, made with its missing parents. If one cannot be
    made, the ones made here are removed, deepest first, and no other."""
    path = Path(out)
    made = []
    try:
        for p in reversed((path, *path.parents)):
            if not p.is_dir():
                p.mkdir()
                made.append(p)
    except OSError as exc:
        for p in reversed(made):
            p.rmdir()
        raise DataError(f"cannot make output directory {path}: {exc.strerror}") from None
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


def _config(cls, args):
    """A ``cls`` whose fields named by parsed options take their values."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if f.name in args})


def _distill_config(args) -> DistillationConfig:
    return DistillationConfig(
        lambda_grid=_parse_grid(args.grid),
        privileged_inputs=PrivilegedInputs(args.privileged_inputs),
        split_ratio=args.ratio,
        train=_config(TrainConfig, args),
    )


def _whole_number(least: int):
    """An argparse type: a number written in digits, at least ``least``."""
    def parse(text: str) -> int:
        if not (text.strip().isdecimal() and int(text) >= least):
            raise argparse.ArgumentTypeError(
                f"must be a whole number of at least {least}, got {text!r}"
            )
        return int(text)
    return parse


def _fraction(text: str) -> float:
    """An argparse type: a number strictly between 0 and 1."""
    try:
        if 0 < (value := float(text)) < 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text!r}")


def _number(text: str) -> float:
    """An argparse type: a number, ``inf`` and ``-inf`` included, but not ``nan``."""
    try:
        if not math.isnan(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a number, got {text!r}")


def _add_field_args(p: argparse.ArgumentParser, cls, *names: str, **help: str) -> None:
    """One option per named field of ``cls``, typed and defaulted by the field."""
    for name in names:
        default = getattr(cls, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(default),
                       default=default, help=help.get(name))


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument("--schema", required=True, help="sidecar schema JSON")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    ratio = DistillationConfig.split_ratio
    p.add_argument("--ratio", type=_fraction, default=ratio,
                   help=f"training fraction of the split (default {ratio})")
    p.add_argument("--seed", type=_whole_number(0), default=TrainConfig.seed,
                   help="master seed")
    _add_field_args(p, TrainConfig, "learning_rate", "batch_size", "max_epochs",
                    "patience", "hidden")
    p.add_argument("--grid", default="0:1:0.1",  # parses to DEFAULT_GRID
                   help="imitation-weight grid, start:stop:step or comma list")
    p.add_argument("--privileged-inputs",
                   default=DistillationConfig.privileged_inputs.value,
                   choices=[m.value for m in PrivilegedInputs])
    p.add_argument("--jobs", type=_whole_number(1), default=None,
                   help="worker processes that share out the profiles' models, at "
                   "most one per model; outputs do not depend on it "
                   "(default: the usable CPUs)")


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
    chosen = [profiles.resolve(n) for n in names]
    for k, (name, profile) in enumerate(zip(names, chosen)):
        if profile in chosen[:k]:
            raise DataError(f"--profile {name!r} repeats profile {profile.name!r}")
    return chosen


# ---------------------------------------------------------------- commands


def _cmd_synth(args) -> str:
    spec = _config(SyntheticSpec, args)
    columns, schema = generate_synthetic(spec, args.seed)
    out = _made(args.out)
    write_dataset(columns, schema, out / "data.csv", out / "schema.json")
    return f"synth: wrote {spec.n} records (d={spec.d}) to {out}"


def _cmd_prepare(args) -> str:
    catalog, records = load_and_validate(args.data, args.schema)
    cohort = standardize(records, catalog)
    if args.dump_encoded:
        cohort_to_csv(cohort, _made(args.out) / "encoded.csv")
    return (
        f"prepare: {len(records)} usable records, d={catalog.d}, "
        f"{sum(1 for f in catalog.features if f.kind == 'categorical')} categorical"
    )


def _cmd_select_features(args) -> str:
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
    out = _made(args.out)
    serialize.save_json(out / "bae.json", obj)
    return (
        f"select-features: kept {len(result.kept)}/{catalog.d}, "
        f"removed {len(result.removed)}, report in {out / 'bae.json'}"
    )


def _cmd_profiles_list(args) -> str:
    catalog = _layout_catalog(args.schema)
    profiles = default_catalog(catalog)
    cats = list(FeatureCategory)
    name_w = max(len(p.name) for p in profiles) + 2
    header = "Profile".ljust(name_w) + "".join(c.label.ljust(13) for c in cats)
    rows = [
        p.name.ljust(name_w)
        + "".join(("✗" if c in p.redacted_categories else "✓").ljust(13) for c in cats)
        for p in profiles
    ]
    return "\n".join([header, "-" * len(header), *rows])


def _write_table(path: Path, header: Sequence[str], rows) -> None:
    """A CSV with one header row; floats are written with six significant digits."""
    write_csv(path, header, (
        [f"{v:.6g}" if isinstance(v, float) else v for v in row] for row in rows
    ))


def _cmd_train(args) -> str:
    """Sweep each requested profile's grid; write its pack, report and per-lambda table."""
    config = _distill_config(args)
    catalog, records = load_and_validate(args.data, args.schema)
    profiles = _resolve_profiles(catalog, args.profile)
    train, valid = config.split(records, catalog)
    swept = sweep_profiles(train, valid, profiles, config, jobs=args.jobs)
    bundles = [best for _, best in swept]
    out = _made(args.out)
    pack = serialize.pack_to_obj(catalog, train.standardizer, bundles, config)
    serialize.save_json(out / "pack.json", pack)
    serialize.save_json(out / "report.json", {
        b.profile.name: {"lambda": b.lam, "metrics": serialize.report_to_obj(b.metrics)}
        for b in bundles
    })
    _write_table(
        out / "sweep.csv",
        ["profile", "lambda", "mae", "mape", "sw", "under", "over"],
        (
            [best.profile.name, f"{lam:g}", rep.mae, rep.mape,
             rep.within_pct, rep.under_pct, rep.over_pct]
            for points, best in swept
            for lam, rep in points
        ),
    )
    summary = ", ".join(
        f"{b.profile.name}: mae {b.metrics.mae:.2f} @ lambda {b.lam:g}"
        for b in bundles
    )
    return f"train: {summary}; pack in {out / 'pack.json'}"


def _cmd_evaluate(args) -> str:
    config = _distill_config(args)
    catalog, records = load_and_validate(args.data, args.schema)
    profiles = default_catalog(catalog)
    results = run_study(records, catalog, profiles, config, args.runs, args.jobs)

    stats = {
        key: {stat: mean_std(reports, stat) for stat in STUDY_STATS}
        for key, reports in sorted(results.items())
    }

    study_obj = {"risk_legend": dict(RISK_LABELS)}
    study_obj |= {
        f"{kind}|{name}": {
            "model": kind,
            "profile": name,
            "per_run": [serialize.report_to_obj(rep) for rep in results[kind, name]],
            **{f"{stat}_mean": mean for stat, (mean, _) in arm.items()},
            **{f"{stat}_std": std for stat, (_, std) in arm.items()},
        }
        for (kind, name), arm in stats.items()
    }
    out = _made(args.out)
    serialize.save_json(out / "study.json", study_obj)

    _write_table(
        out / "accuracy.csv",
        ["model", "profile", "mae", "mae_std", "mape", "mape_std"],
        ([*key, *arm["mae"], *arm["mape"]] for key, arm in stats.items()),
    )
    window = ("under", "within", "over")
    _write_table(
        out / "safety.csv",
        ["model", "profile", "under_pct", "within_pct", "over_pct",
         "under_std", "within_std", "over_std"],
        ([*key, *(arm[s][i] for i in (0, 1) for s in window)] for key, arm in stats.items()),
    )
    return (
        f"evaluate: {args.runs} run(s) x {len(profiles)} profiles; "
        f"tables in {out / 'accuracy.csv'} and {out / 'safety.csv'}"
    )


def _parse_disclosure(spec: str, catalog: FeatureCatalog, standardizer) -> Disclosure:
    values: dict[int, float] = {}
    for pair in spec.split(","):
        pair = pair.strip()
        if not pair:
            continue
        if "=" not in pair:
            raise DataError(f"bad disclosure item {pair!r}; expected name=value")
        name, raw = pair.split("=", 1)
        name = name.strip()
        idx = catalog.index_of(name)
        if idx in values:
            raise DataError(f"feature {name!r} is disclosed more than once")
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
        mean, std = float(standardizer.means[idx]), float(standardizer.stds[idx])
        values[idx] = (encoded - mean) / std  # plain floats overflow to inf, unwarned
        if not math.isfinite(values[idx]):
            raise DataError(f"feature {name!r}: {raw!r} is non-finite once standardized")
    if not values:
        raise DataError("disclosure is empty; pass --disclose name=value,...")
    return Disclosure(values)


# (key, catalog, train, valid, teachers, {disclosed set: bundle}) of the last
# on-demand data to pass a pack check; key: (data bytes, schema text, recipe)
_last_on_demand: tuple | None = None


def _on_demand(args, disclosure: Disclosure, catalog, standardizer, config):
    """The bundle that serves ``disclosure``, trained on ``--data`` on demand.

    The bundle is trained as the pack's profiles were: its split, grid and
    privileged mode. It depends only on the disclosed set, the bytes of
    ``--data``, the text of ``--schema`` and the pack's recipe, so the last
    of these to pass the pack check, made on every call, are kept with their
    split, their teachers and every set trained on them, even by a call that
    fails later; any other file or recipe starts afresh.
    """
    global _last_on_demand
    data_path, schema_path = Path(args.data), Path(args.schema)
    schema_text = load_text(schema_path)
    # checked before the data is read, so its errors come first, as in
    # load_and_validate
    schema = _parse_schema(schema_path, schema_text)
    key = (load_bytes(data_path, "data file"), schema_text, config)
    last = _last_on_demand  # one read: another thread may replace it meanwhile
    if last is None or last[0] != key:
        data_catalog, records = parse_and_validate(schema, key[0], data_path)
        last = (key, data_catalog, *config.split(records, data_catalog), {}, {})
    _, data_catalog, train, valid, teachers, bundles = last
    if not (
        data_catalog == catalog
        and np.array_equal(train.standardizer.means, standardizer.means)
        and np.array_equal(train.standardizer.stds, standardizer.stds)
    ):
        raise DataError("--data is not the data this model pack was trained on")
    _last_on_demand = last
    if disclosure.disclosed not in bundles:
        try:
            bundles[disclosure.disclosed] = train_on_demand(
                train, valid, disclosure, config, teachers
            )
        except ValueError as exc:  # the pack's recipe, such as a size numpy refuses
            raise DataError(f"model pack {args.model} cannot train on demand: {exc}") from None
    return bundles[disclosure.disclosed]


def _cmd_predict(args) -> str:
    catalog, standardizer, bundles, config = serialize.load_pack(args.model)
    disclosure = _parse_disclosure(args.disclose, catalog, standardizer)
    try:
        profile, exact = best_feasible([b.profile for b in bundles], disclosure)
        bundle = next(b for b in bundles if b.profile is profile)
    except NoFeasibleProfileError:
        if not (args.data and args.schema):
            raise NoFeasibleProfileError(
                "no stored profile fits this disclosure; re-run with --data/--schema "
                "to train one on demand"
            ) from None
        bundle = _on_demand(args, disclosure, catalog, standardizer, config)
        profile, exact = bundle.profile, True

    x_visible = [disclosure.values[i] for i in profile.visible_features]
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        dose = float(bundle.distilled.predict([x_visible])[0])
    if not math.isfinite(dose):
        raise NumericError(f"profile {profile.name!r} predicts a non-finite dose ({dose})")
    if dose <= 0:
        raise NumericError(
            f"profile {profile.name!r} predicts a non-positive dose ({dose:.2f} mg/week)"
        )
    match = "exact match" if exact else "fallback: closest feasible profile"
    return f"profile: {profile.name} ({match})\npredicted weekly dose: {dose:.2f} mg/week"


# ---------------------------------------------------------------- parser


@functools.cache  # one per process: parsing leaves the parser as it found it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dosedistill",
        description="Train and evaluate per-profile dose models that never "
        "need a patient's withheld features at prediction time.",
        epilog=SEED_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    writes = argparse.ArgumentParser(add_help=False)  # every writing command's --out
    writes.add_argument("--out", help="output directory (default: $DOSEDISTILL_OUT)")

    p = sub.add_parser("synth", parents=[writes], help="generate a synthetic dataset")
    p.add_argument("--seed", type=_whole_number(0), default=0)
    _add_field_args(p, SyntheticSpec, "n", "demographic", "background", "phenotypic",
                    "genotypic", "categorical_per_category", "rho", "noise_std", "base_dose",
                    rho="correlation between withheld-signal and visible signal")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("prepare", parents=[writes], help="validate and encode a dataset")
    _add_data_args(p)
    p.add_argument("--dump-encoded", action="store_true",
                   help="write the encoded standardized matrix as OUT/encoded.csv")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("select-features", parents=[writes],
                       help="backward attribute elimination")
    _add_data_args(p)
    p.add_argument("--epsilon", type=_number, default=DEFAULT_EPSILON,
                   help="max tolerated CV-MAE degradation per removal")
    p.add_argument("--folds", type=_whole_number(2), default=DEFAULT_FOLDS)
    p.add_argument("--ratio", type=_fraction, default=DistillationConfig.split_ratio)
    p.add_argument("--seed", type=_whole_number(0), default=0)
    p.add_argument("--no-protect-genotypic", action="store_true",
                   help="allow genotypic features to be eliminated")
    p.set_defaults(func=_cmd_select_features)

    p = sub.add_parser("profiles", help="profile catalog operations")
    psub = p.add_subparsers(dest="profiles_command", required=True)
    pl = psub.add_parser("list", help="print the default profile table")
    pl.add_argument("--schema", required=True)
    pl.set_defaults(func=_cmd_profiles_list)

    p = sub.add_parser("train", parents=[writes],
                       help="train per-profile model bundles over the imitation-weight "
                       "grid; writes a pack, its report and the per-lambda table")
    _add_data_args(p)
    p.add_argument("--profile", action="append",
                   help="profile name (repeatable; default: all nine)")
    _add_train_args(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", parents=[writes],
                       help="multi-split accuracy and safety study")
    _add_data_args(p)
    p.add_argument("--runs", type=_whole_number(1), default=10)
    _add_train_args(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="predict a dose from a disclosure")
    p.add_argument("--model", required=True, help="model pack JSON from train")
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
        if getattr(args, "jobs", 1) is None:  # --jobs's default, read per call
            args.jobs = _usable_cpus()
        out = _out_dir(args) if "out" in args else None  # None: no files written
        text = args.func(args)
        if out is not None:  # the parsed arguments, ``command`` among them
            serialize.save_json(_made(out) / "run_config.json",
                                {k: v for k, v in vars(args).items() if k != "func"})
        print(text)  # last, so a failed record write prints no success line
        return EXIT_OK
    except MemoryError as exc:  # numpy's failed allocations among them
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
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
