"""Shared plumbing for the benchmark: environment, paths, CLI calls, statistics.

Every workload runs the program from the checkout's own ``src/`` tree: the
in-process calls import it from there and the subprocess calls get it on
``PYTHONPATH``. Nothing here imports the program at module import time, so
``run.py`` can pin the environment first.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

# Pinned for every workload and every child process: one BLAS thread (threaded
# OpenBLAS made elimination at 100k rows swing 2.2-2.9 s), no inherited job
# count or output directory, and a fixed hash seed.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
UNSET_ENV = ("DOSEDISTILL_JOBS", "DOSEDISTILL_OUT")


# The reference task's median time, in seconds, on the machine where the
# README's reference figures were taken, at its usual speed.
REFERENCE_S = 0.36
TIME_UNITS = ("s", "ms")


def drift_scale(references: list[float]) -> float:
    """The factor that takes the machine's drift out of a run's times.

    ``REFERENCE_S / median(references)``: the run's times become the times
    at the reference speed. When the machine's speed doubled halfway through
    a set of ten runs per workload, the program's raw timings followed the
    run's median reference time at log-log slopes of 0.81-1.05, and the
    scaled timings spread 0.06-0.18 where the raw ones spread 0.47-0.65.
    """
    return REFERENCE_S / median(references)


class Reference:
    """A fixed task of the benchmark's own that gauges the machine's speed now.

    On a shared VM the same work runs up to a third slower for a minute or
    more at a time, so whole runs fall inside a slow stretch, and the program
    and this task slow together. ``run.py`` times the task before set-up,
    after each set-up and after each round, and scales the run's times by
    ``drift_scale`` of those samples. The task mixes the two kinds of work the
    program does: parsing CSV rows into dicts of Python objects, and k-fold
    least squares in numpy. Its data are fixed and small (well under 1 MB), so
    it adds little to a workload's peak RSS; a version with a few MB of data
    ran at different speeds in different workloads' processes. It runs with
    the garbage collector off, so its time does not depend on how many objects
    the program keeps alive.
    """

    ROWS = 100
    PASSES = 320
    LSQ_ROWS = 2000
    LSQ_PASSES = 32
    FOLDS = 5

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20261018)
        cats = rng.integers(0, 4, (self.ROWS, 4))
        nums = rng.standard_normal((self.ROWS, 9))
        header = ["id", *(f"c{j}" for j in range(4)), *(f"x{j}" for j in range(9))]
        lines = [",".join(header)]
        for i in range(self.ROWS):
            lines.append(",".join([f"p{i}", *("ABCD"[k] for k in cats[i]),
                                   *(f"{v:.6f}" for v in nums[i])]))
        self.text = "\n".join(lines) + "\n"
        self.X = rng.standard_normal((self.LSQ_ROWS, 13))
        self.y = self.X @ rng.standard_normal(13) + rng.standard_normal(self.LSQ_ROWS)
        self.folds = np.array_split(rng.permutation(self.LSQ_ROWS), self.FOLDS)
        self()  # warm-up: the first call pays one-off costs

    def __call__(self) -> float:
        import csv
        import gc

        import numpy as np

        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(self.PASSES):
                rows = []
                for rec in csv.DictReader(io.StringIO(self.text)):
                    rows.append({k: (v if k[0] != "x" else float(v)) for k, v in rec.items()})
                del rows
            for _ in range(self.LSQ_PASSES):
                for fold in self.folds:
                    keep = np.ones(len(self.y), bool)
                    keep[fold] = False
                    beta = np.linalg.lstsq(self.X[keep], self.y[keep], rcond=None)[0]
                    float(np.abs(self.X[fold] @ beta - self.y[fold]).mean())
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own reckoning."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def pinned_environ() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment_is_pinned() -> bool:
    return all(os.environ.get(k) == v for k, v in PINNED_ENV.items()) and not any(
        k in os.environ for k in UNSET_ENV
    )


def require_program() -> None:
    """Fail unless this checkout holds the program's source tree."""
    if not (SRC / "dosedistill" / "cli.py").is_file():
        raise SystemExit(f"bench: no program source at {SRC}/dosedistill; "
                         "run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dosedistill

    where = Path(dosedistill.__file__).resolve().parent
    if where != (SRC / "dosedistill").resolve():
        raise SystemExit(f"bench: imported dosedistill from {where}, not {SRC}")


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    seconds: float


def run_cli(argv: list[str]) -> CliResult:
    """One in-process ``cli.run_command`` call, timed, with its output captured."""
    from dosedistill import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.run_command(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a raw traceback: the call failed
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - t0
    return CliResult(code, out.getvalue(), err.getvalue(), seconds)


def run_cli_subprocess(argv: list[str], timeout: float = 120.0) -> CliResult:
    """One cold ``python -m dosedistill.cli`` process, timed from spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dosedistill.cli", *argv],
        env=pinned_environ(), capture_output=True, text=True, timeout=timeout,
        cwd=ROOT,
    )
    seconds = time.perf_counter() - t0
    return CliResult(proc.returncode, proc.stdout, proc.stderr, seconds)


def require_ok(res: CliResult, what: str) -> CliResult:
    check(res.code == 0, f"{what} exited {res.code}: {res.err.strip()[-400:]}")
    return res


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are not included
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no values")
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def tail(values, beyond: int = 10) -> tuple[float, float] | None:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (percentile, value), or None with fewer than 40 samples, where
    such a percentile would be no tail.
    """
    vals = sorted(values)
    n = len(vals)
    if n < 40:
        return None
    k = n - beyond - 1  # index with exactly `beyond` samples after it
    return 100.0 * (k + 1) / n, vals[k]


def quartiles(values) -> tuple[float, float, float]:
    from statistics import quantiles

    vals = list(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = quantiles(vals, n=4)
    return q1, q2, q3


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        if not math.isfinite(value):
            raise CheckFailed(f"metric {name} is not finite: {value}")
        self.metrics[name] = (float(value), unit)

    def scale_times(self, scale: float) -> None:
        for name, (value, unit) in self.metrics.items():
            if unit in TIME_UNITS:
                self.metrics[name] = (value * scale, unit)


def result_line(correct: bool, outcome: Outcome) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    })


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def log(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr, flush=True)
