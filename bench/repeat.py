#!/usr/bin/env python3
"""Run every workload N times and summarize each end-to-end metric.

    python3 bench/repeat.py --runs 10 [--seed0 100]
    python3 bench/repeat.py --compare bench/_work/repeat-A.json bench/_work/repeat-B.json

Run ``i`` uses seed ``seed0 + i`` for every workload, and the workload order
rotates by one each run, so no workload always runs first or after the same
neighbour. For each workload and metric it prints the median, the first and
third quartiles (``statistics.quantiles(n=4)``) and their distance as a share
of the median next to the metric's bound in ``BENCHMARK.json``, plus the
share of failed operations. All results are saved to
``bench/_work/repeat-<time>.json``. ``--compare`` checks a second saved set
against a first: each median may be worse by at most the bound, and no
workload may fail a larger share of its operations. Fewer failures pass, so
mending a kept failure is not flagged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, WORK, median, quartiles  # noqa: E402


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [*spec()["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(runs: dict[str, list[dict]]) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    out = {}
    for workload, results in runs.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        rows = {}
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = quartiles(vals)
            rows[name] = {"median": median(vals), "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / abs(median(vals)), "bound": bounds[name],
                          "values": vals}
        out[workload] = {"metrics": rows, "failed_shares": sorted(shares),
                         "wall_s": sum(r["wall_s"] for r in results)}
    return out


def print_summary(summary: dict) -> None:
    for workload, s in summary.items():
        print(f"{workload}: failed share {s['failed_shares']}, {s['wall_s']:.0f} s in all")
        for name, row in s["metrics"].items():
            flag = "" if row["spread"] <= row["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {name:<14} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                  f"q3 {row['q3']:<12.6g} spread {row['spread']:.4f} / bound "
                  f"{row['bound']}{flag}")


def compare(first: Path, second: Path) -> int:
    better = {m["name"]: m["better"] for m in spec()["end_to_end"]}
    a = json.loads(first.read_text())["summary"]
    b = json.loads(second.read_text())["summary"]
    bad = 0
    for workload in a:
        if max(b[workload]["failed_shares"]) > max(a[workload]["failed_shares"]):
            print(f"{workload}: failed share rose: {a[workload]['failed_shares']} "
                  f"-> {b[workload]['failed_shares']}")
            bad += 1
        for name, row in a[workload]["metrics"].items():
            m1, m2 = row["median"], b[workload]["metrics"][name]["median"]
            worse = (m2 - m1) / abs(m1) if better[name] == "lower" else (m1 - m2) / abs(m1)
            ok = worse <= row["bound"]
            bad += not ok
            print(f"  {workload:<7} {name:<14} {m1:<12.6g} -> {m2:<12.6g} "
                  f"worse by {100 * worse:+.2f} % (bound {100 * row['bound']:.0f} %)"
                  f"{'' if ok else '  <-- beyond the bound'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    names = [w["name"] for w in spec()["workloads"]]
    seconds = spec()["run_seconds"]
    runs: dict[str, list[dict]] = {n: [] for n in names}
    for i in range(args.runs):
        seed = args.seed0 + i
        for workload in names[i % len(names):] + names[:i % len(names)]:
            result = run_once(workload, seed, seconds)
            runs[workload].append(result)
            print(f"run {i + 1}/{args.runs} {workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
    summary = summarize(runs)
    print_summary(summary)
    WORK.mkdir(exist_ok=True)
    path = WORK / f"repeat-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"seconds": seconds, "seed0": args.seed0,
                                "runs": runs, "summary": summary}, indent=1) + "\n")
    print(f"saved to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
