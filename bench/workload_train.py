"""``train``: one ``train`` command on the default synthetic cohort.

The cohort is ``synth``'s default (1,200 rows, d = 13, generator seed 0); the
command is typed as a user would, so the CLI's own ``--jobs`` default
applies. How long training runs depends on the data through early stopping
(16-33 s across generator seeds on one machine), so the benchmark seed does
not pick the data: it reorders the CSV's columns and renames the patient
ids, which the program must be invariant to, and the checks confirm that it
is.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import oracle
from common import CheckFailed, check, median, require_ok

GRID_POINTS = 11  # the default grid 0:1:0.1


def write_cohort(ctx, out: Path, n: int | None = None) -> None:
    """Have the program synthesize a cohort (generator seed 0) into ``out``."""
    argv = ["synth", "--out", str(out)]
    if n is not None:
        argv += ["--n", str(n)]
    require_ok(ctx.setup_cli(argv), "synth")


def reorder_columns(path: Path, seed: int) -> None:
    """Shuffle the column order and rename the ids, both from ``seed``."""
    rng = np.random.default_rng(seed)
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    order = list(rng.permutation(len(header)))
    id_col = header.index("patient_id")
    prefix = f"s{seed}-"
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([header[j] for j in order])
        for row in body:
            row[id_col] = prefix + row[id_col]
            writer.writerow([row[j] for j in order])


class Train:
    name = "train"

    def __init__(self, ctx):
        self.ctx = ctx
        self.cohort = ctx.work / "cohort"
        self.times: list[float] = []
        self.first_pack: bytes | None = None
        self.valid_mae = 0.0

    def setup(self) -> None:
        write_cohort(self.ctx, self.cohort)
        reorder_columns(self.cohort / "data.csv", self.ctx.seed)

    def prepare(self) -> None:
        self.schema = oracle.Schema.read(self.cohort / "schema.json")
        self.table = oracle.Table.read(self.cohort / "data.csv", self.schema)
        self.std = oracle.standardize_split(self.table, self.schema, 0.65, 0)

    def round(self) -> None:
        out = self.ctx.work / "out"
        self.ctx.label("train")
        res = self.ctx.cli(["train", "--data", str(self.cohort / "data.csv"),
                            "--schema", str(self.cohort / "schema.json"),
                            "--out", str(out)])
        self.ctx.attempted += 1
        require_ok(res, "train")
        self.times.append(res.seconds)
        self.pack_bytes = (out / "pack.json").stat().st_size
        packed = (out / "pack.json").read_bytes()
        if self.first_pack is None:
            self.check_outputs(out)
            self.first_pack = packed
        elif packed != self.first_pack:
            raise CheckFailed("a second train run wrote a different pack")

    def check_outputs(self, out: Path) -> None:
        pack = oracle.PackView.read(out / "pack.json", self.schema)
        check(len(pack.profiles) == 9, f"pack holds {len(pack.profiles)} profiles, not 9")
        oracle.check_pack_matches_split(pack, self.std, self.table)
        scored = oracle.score_bundles(pack, self.std)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        oracle.check_report(report, scored, len(self.std.y_valid))
        self.models = len(pack.profiles) * (1 + GRID_POINTS)
        self.valid_mae = float(np.mean([report[p]["metrics"]["mae"] for p in pack.profiles]))
        self.safe_doses = sum(within for _, within in scored.values())

    def finish(self, outcome) -> None:
        train_s = median(self.times)
        outcome.put("valid_mae_mg", self.valid_mae, "mg/week")
        outcome.put("job_s", train_s, "s")
        outcome.put("call_ms", 1e3 * train_s / self.models, "ms")
        outcome.notes.update(train_s=train_s, models=self.models, rounds=len(self.times),
                             safe_doses=self.safe_doses, pack_bytes=self.pack_bytes)
