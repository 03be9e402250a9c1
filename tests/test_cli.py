"""End-to-end command-line behavior."""

import csv
import json

import pytest

from dosedistill.cli import run_command
from dosedistill.dataset import load_and_validate, split_cohorts
from dosedistill.distillation import DistillationConfig
from dosedistill.models import TrainConfig
from dosedistill.profiles import Disclosure, train_on_demand
from dosedistill.serialize import pack_from_obj

FAST = [
    "--max-epochs", "25", "--patience", "5", "--jobs", "1",
]


def synth(tmp_path, n=240, seed=7):
    out = tmp_path / "data"
    assert run_command(["synth", "--out", str(out), "--seed", str(seed),
                        "--n", str(n)]) == 0
    return out / "data.csv", out / "schema.json"


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestSynthPrepare:
    def test_synth_writes_dataset_and_config(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        assert data.exists() and schema.exists()
        assert (tmp_path / "data" / "run_config.json").exists()
        assert "wrote 240 records" in capsys.readouterr().out

    def test_prepare_summary_and_dump(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        dump = tmp_path / "encoded.csv"
        code = run_command([
            "prepare", "--data", str(data), "--schema", str(schema),
            "--dump-encoded", str(dump),
        ])
        assert code == 0
        assert "240 usable records" in capsys.readouterr().out
        rows = read_rows(dump)
        assert len(rows) == 241  # header + records

    def test_prepare_missing_file_exits_3(self, tmp_path, capsys):
        code = run_command([
            "prepare", "--data", str(tmp_path / "nope.csv"),
            "--schema", str(tmp_path / "nope.json"),
        ])
        assert code == 3

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_command(["frobnicate"])
        assert err.value.code == 2

    def test_bad_grid_is_usage_error(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        # non-finite or too-fine ranges must fail before the range is built
        for grid in ("zero-to-one", "0:nan:0.1", "nan:1:0.1", "0:1:nan", "0:inf:0.1",
                     "-0.5:1:0.1", "0:2:0.1", "0:1:0", "0:1:0.0009", "0:1:1e-300"):
            code = run_command([
                "sweep", "--data", str(data), "--schema", str(schema),
                "--out", str(tmp_path / "s"), f"--grid={grid}", *FAST,
            ])
            assert code == 2, grid
            assert "bad grid" in capsys.readouterr().err, grid

    @pytest.mark.parametrize("bad_file", ["data", "schema", "pack"])
    def test_non_utf8_file_is_data_error(self, tmp_path, capsys, bad_file):
        data, schema = synth(tmp_path)
        pack = tmp_path / "pack.json"
        pack.write_text('{"format_version": 1}')
        bad = {"data": data, "schema": schema, "pack": pack}[bad_file]
        bad.write_bytes(bad.read_bytes().replace(b"1", b"\xe9", 1))
        if bad_file == "pack":
            argv = ["predict", "--model", str(pack), "--disclose", "demographic_0=1"]
        else:
            argv = ["prepare", "--data", str(data), "--schema", str(schema)]
        assert run_command(argv) == 3
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err and bad.name in err

    @pytest.mark.parametrize(
        "grid",
        [
            "0:1.5:0.5",  # runs past 1: was clamped, training lambda = 1 twice
            "0:1.2:0.4",  # stops at 1.2: was silently clamped to 1.0
            "0,0,0.5",  # a repeated point
        ],
    )
    def test_grid_outside_unit_interval_or_repeated_is_usage_error(
        self, tmp_path, capsys, grid
    ):
        data, schema = synth(tmp_path)
        out = tmp_path / "s"
        code = run_command([
            "sweep", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--profile", "public", "--grid", grid, *FAST,
        ])
        assert code == 2
        assert "strictly ascending" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()


class TestProfilesList:
    def test_table_lists_nine_profiles(self, tmp_path, capsys):
        _, schema = synth(tmp_path)
        assert run_command(["profiles", "list", "--schema", str(schema)]) == 0
        out = capsys.readouterr().out
        assert "Public patient" in out
        assert "With all except genotypic" in out
        assert "Genotypic except others" in out
        assert out.count("✓") + out.count("✗") == 36  # 9 profiles x 4

    @pytest.mark.parametrize("entry, key", [
        ({"name": "a", "kind": "numeric"}, "category"),
        ({"name": "a", "category": 5, "kind": "numeric"}, "category"),
        (1, "name"),
    ])
    def test_malformed_feature_entry_exits_3(self, tmp_path, capsys, entry, key):
        _, schema = synth(tmp_path)
        obj = json.loads(schema.read_text())
        obj["features"][0] = entry
        schema.write_text(json.dumps(obj))
        assert run_command(["profiles", "list", "--schema", str(schema)]) == 3
        assert f"missing {key!r}" in capsys.readouterr().err


class TestSelectFeatures:
    def test_writes_bae_report(self, tmp_path):
        data, schema = synth(tmp_path)
        out = tmp_path / "bae"
        code = run_command([
            "select-features", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--epsilon", "0.1",
        ])
        assert code == 0
        report = json.loads((out / "bae.json").read_text())
        assert set(report) >= {"kept", "removed", "baseline_cv_mae", "trace"}
        # genotypic features are protected by default
        assert {"genotypic_0", "genotypic_1"} <= set(report["kept"])


class TestTrainPredict:
    def test_train_public_writes_model_and_report(self, tmp_path):
        data, schema = synth(tmp_path)
        out = tmp_path / "m"
        code = run_command([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--profile", "public", "--grid", "0,1", *FAST,
        ])
        assert code == 0
        assert (out / "pack.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert "Public patient" in report
        assert report["Public patient"]["metrics"]["mae"] > 0

    def test_rerun_is_byte_identical(self, tmp_path):
        data, schema = synth(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_command([
                "train", "--data", str(data), "--schema", str(schema),
                "--out", str(out), "--profile", "with all except genotypic",
                "--grid", "0,0.5", *FAST,
            ])
            assert code == 0
            outs.append(out)
        for fname in ("pack.json", "report.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_outputs_identical_regardless_of_jobs(self, tmp_path):
        data, schema = synth(tmp_path)
        outs = []
        for name, jobs in (("j1", "1"), ("j4", "4")):
            out = tmp_path / name
            code = run_command([
                "train", "--data", str(data), "--schema", str(schema),
                "--out", str(out), "--profile", "with all except background",
                "--grid", "0,0.5,1", "--max-epochs", "25", "--patience", "5",
                "--jobs", jobs,
            ])
            assert code == 0
            outs.append(out)
        assert (outs[0] / "pack.json").read_bytes() == (
            outs[1] / "pack.json"
        ).read_bytes()

    def test_predict_assigns_genotypic_withheld_profile(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        out = tmp_path / "m"
        assert run_command([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--grid", "0,1", *FAST,
        ]) == 0
        capsys.readouterr()

        header, first = read_rows(data)[:2]
        row = dict(zip(header, first))
        pairs = ",".join(
            f"{col}={row[col]}"
            for col in header
            if col not in ("patient_id", "weekly_dose_mg")
            and not col.startswith("genotypic")
        )
        code = run_command(["predict", "--model", str(out / "pack.json"),
                            "--disclose", pairs])
        assert code == 0
        printed = capsys.readouterr().out
        assert "With all except genotypic" in printed
        assert "exact match" in printed
        assert "mg/week" in printed

    def test_predict_infeasible_exits_3_then_on_demand_succeeds(
        self, tmp_path, capsys
    ):
        data, schema = synth(tmp_path)
        out = tmp_path / "m"
        assert run_command([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--profile", "public", "--grid", "0", *FAST,
        ]) == 0
        capsys.readouterr()

        lone = "demographic_1=0.3"
        code = run_command(["predict", "--model", str(out / "pack.json"),
                            "--disclose", lone])
        assert code == 3
        assert "on demand" in capsys.readouterr().err

        code = run_command([
            "predict", "--model", str(out / "pack.json"), "--disclose", lone,
            "--data", str(data), "--schema", str(schema),
        ])
        assert code == 0
        assert "custom-" in capsys.readouterr().out

    def test_on_demand_uses_the_packs_split_grid_and_training(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        pack = tmp_path / "m" / "pack.json"
        assert run_command([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(pack.parent), "--profile", "public",
            "--seed", "5", "--ratio", "0.7", "--grid", "0", *FAST,
        ]) == 0
        capsys.readouterr()
        assert run_command([
            "predict", "--model", str(pack), "--disclose", "demographic_1=0.3",
            "--data", str(data), "--schema", str(schema),
        ]) == 0
        printed = capsys.readouterr().out

        catalog, records = load_and_validate(data, schema)
        train, valid = split_cohorts(records, catalog, 0.7, 5)
        config = DistillationConfig(
            lambda_grid=(0.0,),
            train=TrainConfig(seed=5, max_epochs=25, patience=5),
        )
        _, standardizer, _, _, _ = pack_from_obj(json.loads(pack.read_text()))
        x = (0.3 - standardizer.means[1]) / standardizer.stds[1]
        bundle = train_on_demand(train, valid, Disclosure(frozenset({1}), {1: x}), config)
        dose = float(bundle.distilled.predict([[x]])[0])
        assert f"predicted weekly dose: {dose:.2f} mg/week" in printed

    def test_on_demand_refuses_data_the_pack_was_not_trained_on(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        out = tmp_path / "m"
        assert run_command([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--profile", "public", "--grid", "0", *FAST,
        ]) == 0
        other, other_schema = synth(tmp_path / "other", seed=8)
        capsys.readouterr()
        code = run_command([
            "predict", "--model", str(out / "pack.json"), "--disclose", "demographic_1=0.3",
            "--data", str(other), "--schema", str(other_schema),
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert "predicted weekly dose" not in captured.out
        assert "not the data this model pack was trained on" in captured.err

    def test_predict_unseen_label_exits_3(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        out = tmp_path / "m"
        assert run_command([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--profile", "public", "--grid", "0", *FAST,
        ]) == 0
        code = run_command([
            "predict", "--model", str(out / "pack.json"),
            "--disclose", "demographic_0=MARTIAN",
        ])
        assert code == 3


class TestDisclosureValues:
    """A disclosure must give each feature once, as a finite number or a label."""

    @pytest.fixture
    def pack_and_row(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        out = tmp_path / "m"
        assert run_command([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--profile", "public", "--grid", "0", *FAST,
        ]) == 0
        capsys.readouterr()
        header, first = read_rows(data)[:2]
        row = {
            col: value for col, value in zip(header, first)
            if col not in ("patient_id", "weekly_dose_mg")
        }
        return out / "pack.json", row

    def predict(self, pack, pairs):
        return run_command(["predict", "--model", str(pack), "--disclose", pairs])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_3_without_a_dose(
        self, pack_and_row, capsys, value
    ):
        pack, row = pack_and_row
        row["demographic_2"] = value
        pairs = ",".join(f"{k}={v}" for k, v in row.items())
        assert self.predict(pack, pairs) == 3
        captured = capsys.readouterr()
        assert "predicted weekly dose" not in captured.out
        assert "non-finite" in captured.err and "demographic_2" in captured.err

    def test_repeated_feature_exits_3_without_a_dose(self, pack_and_row, capsys):
        pack, row = pack_and_row
        pairs = ",".join(f"{k}={v}" for k, v in row.items()) + ",demographic_1=0.5"
        assert self.predict(pack, pairs) == 3
        captured = capsys.readouterr()
        assert "predicted weekly dose" not in captured.out
        assert "more than once" in captured.err and "demographic_1" in captured.err

    def test_pack_without_standardizer_exits_3(self, pack_and_row, capsys):
        pack, row = pack_and_row
        obj = json.loads(pack.read_text())
        del obj["standardizer"]
        pack.write_text(json.dumps(obj))
        assert self.predict(pack, ",".join(f"{k}={v}" for k, v in row.items())) == 3
        assert "malformed model pack" in capsys.readouterr().err


class TestFixedLambda:
    def test_train_at_fixed_lambda(self, tmp_path):
        data, schema = synth(tmp_path)
        out = tmp_path / "m"
        code = run_command([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--profile", "With all except genotypic",
            "--lambda", "0.7", *FAST,
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["With all except genotypic"]["lambda"] == 0.7

    def test_fixed_lambda_is_a_one_point_sweep(self, tmp_path):
        data, schema = synth(tmp_path)
        outs = {}
        for name, weight in (("fixed", ["--lambda", "0.7", "--grid", "0,1"]),
                             ("grid", ["--grid", "0.7"])):
            outs[name] = tmp_path / name
            assert run_command([
                "train", "--data", str(data), "--schema", str(schema),
                "--out", str(outs[name]), "--profile", "With all except genotypic",
                *weight, *FAST,
            ]) == 0
        for fname in ("pack.json", "report.json"):
            assert (outs["fixed"] / fname).read_bytes() == (
                outs["grid"] / fname
            ).read_bytes()

    def test_redacted_only_mode_handles_public_profile(self, tmp_path):
        data, schema = synth(tmp_path)
        out = tmp_path / "m"
        code = run_command([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--profile", "public",
            "--profile", "With all except genotypic",
            "--privileged-inputs", "redacted_only", "--lambda", "0.5", *FAST,
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"Public patient", "With all except genotypic"}


class TestSweep:
    def test_eleven_point_grid_csv(self, tmp_path):
        data, schema = synth(tmp_path, n=200)
        out = tmp_path / "s"
        code = run_command([
            "sweep", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--profile", "With all except genotypic",
            "--grid", "0:1:0.1", *FAST,
        ])
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert rows[0] == ["profile", "lambda", "mae", "mape", "sw", "under", "over"]
        assert len(rows) == 12  # header + 11 grid points
        assert [r[1] for r in rows[1:]] == [
            "0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1",
        ]


class TestEvaluate:
    def test_study_outputs(self, tmp_path):
        data, schema = synth(tmp_path, n=200)
        out = tmp_path / "e"
        code = run_command([
            "evaluate", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--runs", "1", "--grid", "0,1", *FAST,
        ])
        assert code == 0
        study = json.loads((out / "study.json").read_text())
        assert any(k.startswith("linear|") for k in study)
        assert any(k.startswith("distilled|") for k in study)
        acc = read_rows(out / "accuracy.csv")
        safety = read_rows(out / "safety.csv")
        # linear + mlp on public, partial + distilled per profile
        assert len(acc) == len(safety) == 1 + 2 + 2 * 9
