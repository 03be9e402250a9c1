#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line of stdout.

    python3 bench/run.py --workload {train,ingest,serve} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The program is imported from ``src/``; the
process re-executes itself once with the pinned environment of
``common.PINNED_ENV``. ``--trace 0`` prints the end-to-end metrics, untraced.
``--trace 1`` alternates untraced rounds with rounds that record spans around
the program's public functions for ``--seconds``, prints the
per-layer metrics and writes the spans to
``bench/_work/trace-<workload>-s<seed>.json``. Set-up and run details go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import Outcome, log, median  # noqa: E402

SETUPS = 3
IMPORT_PAIRS = 5


def load_workloads() -> dict:
    from workload_ingest import Ingest
    from workload_serve import Serve
    from workload_train import Train

    return {w.name: w for w in (Train, Ingest, Serve)}


class Context:
    """What a workload needs from the runner: paths, seed, counters, CLI calls."""

    clock = staticmethod(time.perf_counter)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.round = 0
        self.tracer = None
        self.in_process_setup = False
        self.reference = None  # a common.Reference in untraced runs
        self.references: list[float] = []

    def gauge(self) -> None:
        """Time the reference task, if this run has one."""
        if self.reference is not None:
            self.references.append(self.reference())

    def cli(self, argv):
        return common.run_cli(argv)

    def setup_cli(self, argv):
        # untraced set-up runs in child processes, so the workload's peak RSS
        # is its own
        if self.in_process_setup:
            return common.run_cli(argv)
        return common.run_cli_subprocess(argv, timeout=170)

    def cold_cli(self, argv):
        return common.run_cli_subprocess(argv)

    def label(self, kind: str) -> None:
        if self.tracer is not None:
            self.tracer.request = f"r{self.round}:{kind}"


def fits(times: list[float], start: float, seconds: float) -> bool:
    """Whether another round of median length still ends within ``seconds``.

    Always true before the first round, so a run measures at least one round
    and, with rounds longer than ``seconds``, exactly one.
    """
    return not times or time.perf_counter() - start + median(times) <= seconds


def run_rounds(workload, ctx: Context, seconds: float, count: int | None = None) -> list[float]:
    """Exactly ``count`` whole rounds, or as many as fit in ``seconds``.

    The reference task runs after each round, if the run has one, and counts
    towards the round's time.
    """
    times = []
    start = time.perf_counter()
    while (len(times) < count) if count is not None else fits(times, start, seconds):
        ctx.round += 1
        t0 = time.perf_counter()
        workload.round()
        ctx.gauge()
        times.append(time.perf_counter() - t0)
    return times


def import_ms() -> float:
    """A fresh ``import dosedistill.cli`` minus a bare interpreter, in ms."""
    env = common.pinned_environ()

    def once(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        return time.perf_counter() - t0

    bare, full = [], []
    for _ in range(IMPORT_PAIRS):
        bare.append(once("pass"))
        full.append(once("import dosedistill.cli"))
    return 1e3 * (median(full) - median(bare))


def per_layer(spans, rounds: int, setup_spans, extras: dict) -> dict[str, tuple[float, str]]:
    from tracing import busy_seconds, self_seconds

    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    selfs = self_seconds(spans)

    def calls(name):
        return len(by[name]) / rounds

    def busy(name):
        return busy_seconds(by[name]) / rounds

    def mean_ms(name):
        got = by[name]
        return 1e3 * sum(s.seconds for s in got) / len(got) if got else 0.0

    def ratio(name, key):
        got = by[name]
        return len({json.dumps(s.attrs[key]) for s in got}) / len(got) if got else 0.0

    stored = {s.request for s in by["cli.run_command"] if s.request.endswith(":stored")}
    predict_self = [1e3 * selfs[s.id] for s in by["cli.run_command"] if s.request in stored]
    load_per_request = defaultdict(float)
    for name in ("serialize.load_json", "serialize.pack_from_obj"):
        for s in by[name]:
            if s.request in stored:
                load_per_request[s.request] += 1e3 * s.seconds
    saves = [s for s in by["serialize.save_json"] if s.attrs.get("file") == "pack.json"]
    assign = by["profiles.best_feasible"]

    m = {
        "cli.import_ms": (extras["import_ms"], "ms"),
        "cli.build_parser_ms": (mean_ms("cli.build_parser"), "ms"),
        "cli.predict_self_ms": (median(predict_self) if predict_self else 0.0, "ms"),
        "serialize.pack_load_ms": (
            median(load_per_request.values()) if load_per_request else 0.0, "ms"),
        "serialize.pack_bytes": (float(extras["pack_bytes"]), "bytes"),
        "serialize.pack_save_ms": (
            1e3 * (busy("serialize.pack_to_obj") + busy_seconds(saves) / rounds), "ms"),
        "dataset.load_s": (busy("dataset.load_and_validate"), "s"),
        "dataset.split_s": (busy("dataset.split_cohorts"), "s"),
        "dataset.rows": (sum(s.attrs.get("rows", 0) for s in by["dataset.load_and_validate"])
                         / rounds, "count"),
        "dataset.load_calls": (calls("dataset.load_and_validate"), "count"),
        "feature_selection.bae_s": (busy("feature_selection.backward_attribute_elimination"), "s"),
        "feature_selection.subset_score_calls": (calls("feature_selection.subset_score"), "count"),
        "feature_selection.subset_score_ms": (mean_ms("feature_selection.subset_score"), "ms"),
        "models.train_mlp_calls": (calls("models.train_mlp"), "count"),
        "models.train_mlp_s": (busy("models.train_mlp"), "s"),
        "models.train_mlp_ms_per_call": (mean_ms("models.train_mlp"), "ms"),
        "models.fit_lsq_calls": (calls("models.fit_least_squares"), "count"),
        "models.fit_lsq_s": (busy("models.fit_least_squares"), "s"),
        "distillation.sweep_calls": (calls("distillation.sweep_lambda"), "count"),
        "distillation.sweep_s": (busy("distillation.sweep_lambda"), "s"),
        "distillation.teacher_calls": (calls("distillation.train_privileged"), "count"),
        "distillation.teacher_s": (busy("distillation.train_privileged"), "s"),
        "distillation.student_calls": (calls("distillation.train_distilled"), "count"),
        "distillation.student_s": (busy("distillation.train_distilled"), "s"),
        "distillation.teacher_distinct_ratio": (
            ratio("distillation.train_privileged", "input"), "ratio"),
        "evaluation.evaluate_calls": (calls("evaluation.evaluate_model"), "count"),
        "evaluation.evaluate_s": (busy("evaluation.evaluate_model"), "s"),
        "profiles.assign_us": (
            1e6 * sum(s.seconds for s in assign) / len(assign) if assign else 0.0, "us"),
        "profiles.ondemand_calls": (calls("profiles.train_on_demand"), "count"),
        "profiles.ondemand_s": (busy("profiles.train_on_demand"), "s"),
        "profiles.ondemand_distinct_ratio": (
            ratio("profiles.train_on_demand", "disclosed"), "ratio"),
        "synthetic.generate_s": (busy_seconds(
            [s for s in setup_spans if s.name == "synthetic.generate_synthetic"]), "s"),
        "trace.overhead_pct": (extras["overhead_pct"], "%"),
        "trace.spans_per_round": (len(spans) / rounds, "count"),
    }
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "dosedistill" / "cli.py").is_file():
        log(f"no program source at {common.SRC}/dosedistill; run from a full checkout")
        return 2
    if not common.environment_is_pinned():
        os.execve(sys.executable, [sys.executable, *sys.argv], common.pinned_environ())
    common.require_program()

    workloads = load_workloads()
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
        return 2

    work = common.fresh_dir(common.WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}")
    ctx = Context(args.seed, work)
    workload = workloads[args.workload](ctx)
    outcome = Outcome()
    try:
        if args.trace:
            outcome.metrics = traced(workload, ctx, args)
        else:
            ctx.reference = common.Reference()
            ctx.gauge()
            setups = []
            for _ in range(SETUPS):
                t0 = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - t0)
                ctx.gauge()
            workload.prepare()
            run_rounds(workload, ctx, args.seconds)
            outcome.put("setup_s", median(setups), "s")
            outcome.put("peak_rss_mb", common.peak_rss_mb(), "MB")
            workload.finish(outcome)
            scale = common.drift_scale(ctx.references)
            outcome.notes.update(setups_s=setups, references_s=ctx.references, scale=scale,
                                 raw={n: v for n, (v, u) in outcome.metrics.items()
                                      if u in common.TIME_UNITS})
            outcome.scale_times(scale)
    except common.CheckFailed as exc:
        log(f"output check failed: {exc}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome.attempted, outcome.failed = ctx.attempted, ctx.failed
    log(f"{args.workload} seed {args.seed}: " + json.dumps(outcome.notes, default=str))
    print(common.result_line(True, outcome), flush=True)
    return 0


def traced(workload, ctx: Context, args) -> dict:
    from tracing import Tracer, layer_table

    tracer = Tracer()
    ctx.in_process_setup = True
    tracer.install()
    ctx.tracer = tracer
    workload.setup()
    tracer.uninstall()
    ctx.tracer = None
    workload.prepare()
    setup_spans, tracer.spans = tracer.spans, []

    # untraced and traced rounds alternate, so drift in the machine's speed
    # falls on both sides of the overhead estimate
    plain, with_spans, pairs = [], [], []
    start = time.perf_counter()
    while fits(pairs, start, args.seconds):
        plain += run_rounds(workload, ctx, 0, count=1)
        tracer.install()
        ctx.tracer = tracer
        try:
            with_spans += run_rounds(workload, ctx, 0, count=1)
        finally:
            tracer.uninstall()
            ctx.tracer = None
        pairs.append(plain[-1] + with_spans[-1])

    pack = ctx.work / ("out" if args.workload == "train" else "pack") / "pack.json"
    extras = {
        "import_ms": import_ms(),
        "pack_bytes": pack.stat().st_size if pack.exists() else 0,
        "overhead_pct": 100.0 * (median(with_spans) - median(plain)) / median(plain),
    }
    metrics = per_layer(tracer.spans, len(with_spans), setup_spans, extras)
    table = layer_table(tracer.spans)
    path = common.WORK / f"trace-{args.workload}-s{args.seed}.json"
    tracer.spans = setup_spans + tracer.spans
    tracer.write(path)
    log(f"spans written to {path}")
    log(f"{len(with_spans)} traced vs {len(plain)} untraced round(s): "
        f"traced {median(with_spans):.3f} s, untraced {median(plain):.3f} s")
    for layer, row in table.items():
        log(f"  {layer:<18} spans {row['spans']:>7}  busy {row['busy_s']:9.3f} s"
            f"  self {row['self_s']:9.3f} s")
    return {name: (float(v), unit) for name, (v, unit) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
