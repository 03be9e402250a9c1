"""``ingest``: load, split and eliminate features on a 100k-row cohort.

Set-up has the program synthesize 100,000 rows (generator seed 0), then
blanks the target in ``BLANK_TARGET`` rows and one feature in
``BLANK_FEATURE`` others, so the drop path runs. The benchmark seed picks
those rows and features and is the split and fold seed. The elimination's
path (which features go, and so how many subsets are scored) is the same on
every seed; a seed-dependent generator would change it and with it the work.
A round calls ``load_and_validate``, ``split_cohorts`` and
``backward_attribute_elimination`` with the genotypic features protected;
``train_mlp`` never runs here.
"""

from __future__ import annotations

import csv
import gc
from pathlib import Path

import numpy as np

import oracle
from common import CheckFailed, check, median
from workload_train import write_cohort

ROWS = 100_000
BLANK_TARGET = 600
BLANK_FEATURE = 400
RATIO = 0.65
EPSILON = 0.05
FOLDS = 5


def blank_cells(src: Path, dst: Path, schema: oracle.Schema, seed: int) -> dict[str, set[str]]:
    """Copy ``src`` to ``dst`` with seeded blanks; return the categorical labels
    of the rows that survive."""
    rng = np.random.default_rng(seed)
    picked = rng.choice(ROWS, BLANK_TARGET + BLANK_FEATURE, replace=False)
    no_target = set(picked[:BLANK_TARGET].tolist())
    no_feature = dict(zip(picked[BLANK_TARGET:].tolist(),
                          rng.integers(0, len(schema.names), BLANK_FEATURE).tolist()))
    cats = [n for n, k in zip(schema.names, schema.kinds) if k == "categorical"]
    labels: dict[str, set[str]] = {n: set() for n in cats}
    with src.open(newline="", encoding="utf-8") as fin, \
            dst.open("w", newline="", encoding="utf-8") as fout:
        reader = csv.reader(fin)
        writer = csv.writer(fout, lineterminator="\n")
        header = next(reader)
        writer.writerow(header)
        target = header.index(schema.target)
        where = {n: header.index(n) for n in schema.names}
        for i, row in enumerate(reader):
            if i in no_target:
                row[target] = ""
            elif i in no_feature:
                row[where[schema.names[no_feature[i]]]] = ""
            else:
                for n in cats:
                    labels[n].add(row[where[n]])
            writer.writerow(row)
        check(i + 1 == ROWS, f"synth wrote {i + 1} rows, not {ROWS}")
    return labels


class Ingest:
    name = "ingest"

    def __init__(self, ctx):
        self.ctx = ctx
        self.cohort = ctx.work / "cohort"
        self.data = ctx.work / "ingest.csv"
        self.load_split: list[float] = []
        self.eliminate: list[float] = []
        self.first = None

    def setup(self) -> None:
        write_cohort(self.ctx, self.cohort, n=ROWS)
        self.schema = oracle.Schema.read(self.cohort / "schema.json")
        self.labels = blank_cells(self.cohort / "data.csv", self.data, self.schema,
                                  self.ctx.seed)
        (self.cohort / "data.csv").unlink()

    def prepare(self) -> None:
        self.protected = frozenset(self.schema.indices("genotypic"))

    def round(self) -> None:
        from dosedistill import dataset, feature_selection

        ctx, seed = self.ctx, self.ctx.seed
        ctx.label("ingest")
        ctx.attempted += 1
        t0 = ctx.clock()
        catalog, records = dataset.load_and_validate(self.data, self.cohort / "schema.json")
        train, valid = dataset.split_cohorts(records, catalog, RATIO, seed)
        t1 = ctx.clock()
        result = feature_selection.backward_attribute_elimination(
            train, self.protected, EPSILON, FOLDS, seed)
        t2 = ctx.clock()
        self.load_split.append(t1 - t0)
        self.eliminate.append(t2 - t1)
        summary = (len(records), result)
        if self.first is None:
            self.check_outputs(catalog, records, train, valid, result)
            self.first = summary
        elif summary != self.first:
            raise CheckFailed("a second ingest round gave a different result")
        del catalog, records, train, valid
        gc.collect()

    def check_outputs(self, catalog, records, train, valid, result) -> None:
        kept = ROWS - BLANK_TARGET - BLANK_FEATURE
        check(len(records) == kept,
              f"{len(records)} rows kept, {ROWS} written minus "
              f"{BLANK_TARGET + BLANK_FEATURE} blanked is {kept}")
        check(tuple(catalog.names) == self.schema.names, "catalog order differs from the schema")
        for f in catalog.features:
            if f.kind == "categorical":
                check(dict(f.encoding_map) == oracle.label_codes(self.labels[f.name]),
                      f"{f.name}: codes {dict(f.encoding_map)} do not follow sorted "
                      f"label order of {sorted(self.labels[f.name])}")
        n_train = int(round(RATIO * kept))
        check(len(train) == n_train and len(valid) == kept - n_train,
              f"split {len(train)}/{len(valid)}, expected {n_train}/{kept - n_train}")
        X = train.X
        check(np.all(np.abs(X.mean(axis=0)) < 1e-9), "train columns do not have mean 0")
        check(np.all(np.abs(X.std(axis=0) - 1.0) < 1e-9),
              "train columns do not have population std 1")
        check(np.array_equal(valid.standardizer.means, train.standardizer.means)
              and np.array_equal(valid.standardizer.stds, train.standardizer.stds),
              "validation rows were not scaled with the training standardizer")
        oracle.check_elimination(X, train.y, result.kept, result.removed,
                                 result.baseline_score, self.protected, EPSILON, FOLDS,
                                 self.ctx.seed)
        self.cv_mae = result.removed[-1][1] if result.removed else result.baseline_score
        self.rows = len(records)

    def finish(self, outcome) -> None:
        load_split = median(self.load_split)
        outcome.put("valid_mae_mg", self.cv_mae, "mg/week")
        outcome.put("job_s", median(self.eliminate), "s")
        outcome.put("call_ms", 1e3 * load_split, "ms")
        outcome.notes.update(rows_per_s=ROWS / load_split, rows_kept=self.rows,
                             load_split_s=self.load_split, eliminate_s=self.eliminate,
                             removed=[i for i, _ in self.first[1].removed],
                             rounds=len(self.eliminate))
