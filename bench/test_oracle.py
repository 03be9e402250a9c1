"""The benchmark's output checks accept the program's outputs and reject wrong ones.

    python3 -m pytest -q bench/test_oracle.py

Each check runs once on real outputs of the program (small cohorts, short
training) and must pass, then on a deliberately wrong copy and must fail.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.require_program()

import oracle  # noqa: E402
import workload_ingest  # noqa: E402
import workload_serve  # noqa: E402
from common import CheckFailed, CliResult, run_cli  # noqa: E402

FAST = ["--max-epochs", "8", "--patience", "3", "--jobs", "1"]


class Ctx:
    """The runner's context, reduced to in-process calls."""

    def __init__(self, work: Path, seed: int = 3):
        self.work, self.seed = work, seed
        self.attempted = self.failed = 0

    def cli(self, argv):
        return run_cli(argv)

    setup_cli = cold_cli = cli

    clock = staticmethod(time.perf_counter)

    def label(self, kind):
        pass


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    work = tmp_path_factory.mktemp("train")
    assert run_cli(["synth", "--out", str(work), "--n", "300", "--seed", "4"]).code == 0
    res = run_cli(["train", "--data", str(work / "data.csv"), "--schema",
                   str(work / "schema.json"), "--out", str(work), "--grid", "0,1", *FAST])
    assert res.code == 0, res.err
    schema = oracle.Schema.read(work / "schema.json")
    table = oracle.Table.read(work / "data.csv", schema)
    std = oracle.standardize_split(table, schema, 0.65, 0)
    report = json.loads((work / "report.json").read_text())
    return SimpleNamespace(work=work, schema=schema, table=table, std=std, report=report)


def write_pack(trained, tmp_path, mutate) -> Path:
    obj = json.loads((trained.work / "pack.json").read_text())
    mutate(obj)
    path = tmp_path / "pack.json"
    path.write_text(json.dumps(obj))
    return path


def encode_array(a: np.ndarray) -> dict:
    import base64

    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode()}


class TestTrainChecks:
    def test_real_outputs_pass(self, trained):
        pack = oracle.PackView.read(trained.work / "pack.json", trained.schema)
        oracle.check_pack_matches_split(pack, trained.std, trained.table)
        oracle.check_report(trained.report, oracle.score_bundles(pack, trained.std),
                            len(trained.std.y_valid))

    def test_perturbed_weight_fails_the_forward_pass(self, trained, tmp_path):
        def mutate(obj):
            w = oracle.decode_array(obj["bundles"][3]["distilled"]["W1"]).copy()
            w[0, 0] += 0.05
            obj["bundles"][3]["distilled"]["W1"] = encode_array(w)

        pack = oracle.PackView.read(write_pack(trained, tmp_path, mutate), trained.schema)
        with pytest.raises(CheckFailed, match="MAE"):
            oracle.check_report(trained.report, oracle.score_bundles(pack, trained.std),
                                len(trained.std.y_valid))

    def test_wrong_within_count_fails(self, trained):
        pack = oracle.PackView.read(trained.work / "pack.json", trained.schema)
        report = copy.deepcopy(trained.report)
        report[oracle.PUBLIC]["metrics"]["safety"]["within"] += 1
        with pytest.raises(CheckFailed, match="within"):
            oracle.check_report(report, oracle.score_bundles(pack, trained.std),
                                len(trained.std.y_valid))

    def test_window_boundaries_are_inclusive(self):
        got = oracle.within_window([80.0, 120.0, 79.99, 120.01], [100.0] * 4)
        assert got.tolist() == [True, True, False, False]

    def test_model_reading_a_withheld_column_fails(self, trained, tmp_path):
        def mutate(obj):
            b = next(b for b in obj["bundles"] if b["profile"]["name"] == "With all except genotypic")
            b["profile"]["redacted_features"] = b["profile"]["redacted_features"][:1]

        with pytest.raises(CheckFailed, match="redacts"):
            oracle.PackView.read(write_pack(trained, tmp_path, mutate), trained.schema)

    def test_wrong_standardizer_fails(self, trained, tmp_path):
        def mutate(obj):
            means = oracle.decode_array(obj["standardizer"]["means"]).copy()
            means[2] += 1e-6
            obj["standardizer"]["means"] = encode_array(means)

        pack = oracle.PackView.read(write_pack(trained, tmp_path, mutate), trained.schema)
        with pytest.raises(CheckFailed, match="standardizer"):
            oracle.check_pack_matches_split(pack, trained.std, trained.table)

    def test_unsorted_codes_fail(self, trained, tmp_path):
        def mutate(obj):
            f = next(f for f in obj["catalog"]["features"] if f["kind"] == "categorical")
            labels = sorted(f["encoding_map"])
            f["encoding_map"] = {label: len(labels) - 1 - i for i, label in enumerate(labels)}

        pack = oracle.PackView.read(write_pack(trained, tmp_path, mutate), trained.schema)
        with pytest.raises(CheckFailed, match="sorted label order"):
            oracle.check_pack_matches_split(pack, trained.std, trained.table)


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setattr(workload_ingest, "ROWS", 3000)
    mp.setattr(workload_ingest, "BLANK_TARGET", 30)
    mp.setattr(workload_ingest, "BLANK_FEATURE", 20)
    ctx = Ctx(tmp_path_factory.mktemp("ingest"))
    wl = workload_ingest.Ingest(ctx)
    wl.setup()
    wl.prepare()

    from dosedistill import dataset, feature_selection

    catalog, records = dataset.load_and_validate(wl.data, wl.cohort / "schema.json")
    train, valid = dataset.split_cohorts(records, catalog, workload_ingest.RATIO, ctx.seed)
    result = feature_selection.backward_attribute_elimination(
        train, wl.protected, workload_ingest.EPSILON, workload_ingest.FOLDS, ctx.seed)
    yield SimpleNamespace(wl=wl, catalog=catalog, records=records, train=train,
                          valid=valid, result=result)
    mp.undo()


class TestIngestChecks:
    def check(self, ing, **changes):
        parts = dict(catalog=ing.catalog, records=ing.records, train=ing.train,
                     valid=ing.valid, result=ing.result)
        parts.update(changes)
        ing.wl.check_outputs(**parts)

    def test_real_outputs_pass(self, ingested):
        assert ingested.result.removed, "the small cohort should still remove features"
        self.check(ingested)

    def test_wrong_kept_count_fails(self, ingested):
        with pytest.raises(CheckFailed, match="rows kept"):
            self.check(ingested, records=ingested.records[:-1])

    def test_unsorted_codes_fail(self, ingested):
        feats = list(ingested.catalog.features)
        j = next(i for i, f in enumerate(feats) if f.kind == "categorical")
        labels = sorted(feats[j].encoding_map)
        feats[j] = replace(feats[j], encoding_map={
            label: len(labels) - 1 - i for i, label in enumerate(labels)})
        with pytest.raises(CheckFailed, match="sorted"):
            self.check(ingested, catalog=replace(ingested.catalog, features=tuple(feats)))

    def test_unscaled_train_columns_fail(self, ingested):
        class Rescaled:
            X = ingested.train.X * 1.01
            y = ingested.train.y
            standardizer = ingested.train.standardizer

            def __len__(self):
                return len(ingested.train)

        with pytest.raises(CheckFailed, match="std 1"):
            self.check(ingested, train=Rescaled())

    def test_removed_protected_feature_fails(self, ingested):
        g = min(ingested.wl.protected)
        r = ingested.result
        bad = replace(r, kept=tuple(i for i in r.kept if i != g),
                      removed=r.removed + ((g, r.removed[-1][1]),))
        with pytest.raises(CheckFailed, match="protected"):
            self.check(ingested, result=bad)

    def test_wrong_removal_score_fails(self, ingested):
        r = ingested.result
        (i, s), *rest = r.removed
        bad = replace(r, removed=((i, s + 1e-3), *rest))
        with pytest.raises(CheckFailed, match="lstsq gives"):
            self.check(ingested, result=bad)

    def test_stopping_early_fails(self, ingested):
        r = ingested.result
        i, _ = r.removed[-1]
        bad = replace(r, kept=tuple(sorted(r.kept + (i,))), removed=r.removed[:-1])
        with pytest.raises(CheckFailed, match="stopped"):
            self.check(ingested, result=bad)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setattr(workload_serve, "SETUP_GRID", "0")
    ctx = Ctx(tmp_path_factory.mktemp("serve"))
    wl = workload_serve.Serve(ctx)
    wl.setup()
    wl.prepare()
    yield wl
    mp.undo()


def answer(wl, req):
    return run_cli(wl.predict_argv(req))


class TestServeChecks:
    def stored(self, wl, exact):
        return next(r for r in wl.requests if r.kind == "stored"
                    and oracle.feasible_pick(wl.pack, r.disclosed)[1] == exact)

    def test_real_answers_pass(self, served):
        for exact in (True, False):
            req = self.stored(served, exact)
            assert served.verify(req, answer(served, req))[1] is exact

    def test_wrong_profile_fails(self, served):
        req = self.stored(served, False)
        res = answer(served, req)
        name = oracle.parse_predict(res.out)[0]
        res.out = res.out.replace(name, oracle.PUBLIC)
        with pytest.raises(CheckFailed, match="feasibility-first"):
            served.verify(req, res)

    def test_wrong_dose_fails(self, served):
        req = self.stored(served, True)
        res = answer(served, req)
        dose = oracle.parse_predict(res.out)[2]
        res.out = res.out.replace(f"{dose:.2f}", f"{dose + 0.02:.2f}")
        with pytest.raises(CheckFailed, match="forward pass"):
            served.verify(req, res)

    def test_feasibility_first_prefers_the_larger_profile(self, served):
        pack = served.pack
        everything = frozenset(range(len(served.schema.names)))
        assert oracle.feasible_pick(pack, everything) == (0, True)
        no_geno = everything - set(served.schema.indices("genotypic"))
        pos, exact = oracle.feasible_pick(pack, no_geno - {0})
        assert pack.profiles[pos] != "With all except genotypic" and not exact

    def test_on_demand_profile_must_disclose_the_set(self, served):
        req = next(r for r in served.requests if r.kind == "on_demand")
        other = CliResult(0, f"profile: {oracle.on_demand_name(req.disclosed - {min(req.disclosed)})}"
                             " (exact match)\npredicted weekly dose: 50.00 mg/week\n", "", 0.0)
        with pytest.raises(CheckFailed, match="feasibility-first"):
            served.verify(req, other)

    def test_non_finite_counts_as_failed_unless_refused(self, served):
        req = next(r for r in served.requests if r.kind == "non_finite")
        accepted = CliResult(0, "profile: Public patient (exact match)\n"
                                "predicted weekly dose: nan mg/week\n", "", 0.0)
        refused = CliResult(3, "", "error: non-finite value\n", 0.0)
        assert served.verify(req, accepted) is None
        assert served.verify(req, refused) == ("refused",)
