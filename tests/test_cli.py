"""End-to-end command-line behavior."""

import ast
import copy
import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dosedistill
from dosedistill import cli, distillation, models
from dosedistill.cli import _parse_disclosure, run_command
from dosedistill.dataset import (
    _parse_schema,
    load_and_validate,
    parse_and_validate,
    split_cohorts,
    standardize,
)
from dosedistill.distillation import DEFAULT_GRID, DistillationConfig
from dosedistill.errors import DataError, TrainingDivergedError
from dosedistill.feature_selection import DEFAULT_EPSILON, DEFAULT_FOLDS
from dosedistill.models import MlpModel, TrainConfig
from dosedistill.profiles import Disclosure, train_on_demand
from dosedistill.serialize import (
    config_digest,
    load_pack,
    pack_from_obj,
    pack_to_obj,
    save_json,
)
from dosedistill.synthetic import SyntheticSpec

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


THREE_PROFILES = [
    "--profile", "Public patient", "--profile", "With all except background",
    "--profile", "With all except genotypic",
]


def diverge_in_this_process(*args):
    """A stand-in for a worker's stack; module level, so a pool can send it."""
    raise TrainingDivergedError(f"loss became nan in process {os.getpid()}")


def outputs_by_jobs(tmp_path, argv, files):
    """Run ``argv`` at ``--jobs 1``, ``2``, ``3`` and the default; every run
    must leave no worker process behind. Returns each run's files as bytes."""
    runs = []
    for jobs in (["--jobs", "1"], ["--jobs", "2"], ["--jobs", "3"], []):
        out = tmp_path / ("jobs-" + (jobs[-1] if jobs else "default"))
        assert run_command([*argv, "--out", str(out), *jobs]) == 0
        assert multiprocessing.active_children() == []
        runs.append({name: (out / name).read_bytes() for name in files})
    return runs


class TestSynthPrepare:
    def test_synth_writes_dataset_and_config(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        assert data.exists() and schema.exists()
        assert (tmp_path / "data" / "run_config.json").exists()
        assert "wrote 240 records" in capsys.readouterr().out

    def test_prepare_summary_and_dump(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        out = tmp_path / "p"
        code = run_command([
            "prepare", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--dump-encoded",
        ])
        assert code == 0
        assert "240 usable records" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["encoded.csv", "run_config.json"]
        rows = read_rows(out / "encoded.csv")
        assert len(rows) == 241  # header + records

    def test_blank_lines_between_rows_are_skipped_and_not_counted(
        self, tmp_path, capsys
    ):
        data, schema = synth(tmp_path, n=60)
        lines = data.read_text().splitlines(keepends=True)
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("".join(line + "\n" for line in lines))
        dumps = []
        for name, path in (("plain", data), ("spaced", spaced)):
            dumps.append(tmp_path / name / "encoded.csv")
            assert run_command([
                "prepare", "--data", str(path), "--schema", str(schema),
                "--out", str(tmp_path / name), "--dump-encoded",
            ]) == 0
        assert dumps[0].read_bytes() == dumps[1].read_bytes()

        row = lines[5].split(",")  # the fifth data row
        row[2] = "heavy"  # demographic_1, a numeric column
        lines[5] = ",".join(row)
        spaced.write_text("".join(line + "\n" for line in lines))
        capsys.readouterr()
        assert run_command(["prepare", "--data", str(spaced), "--schema", str(schema)]) == 3
        assert capsys.readouterr().err == (
            f"error: {spaced}: row 6, column 'demographic_1': unparseable number 'heavy'\n"
        )

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: obj | {"target_unit": "monthly"},
         "target_unit must be 'weekly' or 'daily'"),
        (lambda obj: obj | {"features": [*obj["features"], {
            "name": obj["target"], "category": "background", "kind": "numeric"}]},
         "target column 'weekly_dose_mg' also declared as a feature"),
        (lambda obj: obj | {"features": [*obj["features"], obj["features"][1]]},
         "duplicate feature names: ['demographic_1']"),
        (lambda obj: obj | {"id": ["x"]}, "'id' must be a string or null"),
        (lambda obj: obj | {"id": {"a": 1}}, "'id' must be a string or null"),
        (lambda obj: obj | {"id": 5}, "'id' must be a string or null"),
        (lambda obj: obj | {"id": True}, "'id' must be a string or null"),
    ], ids=["monthly-unit", "target-as-feature", "duplicate-feature",
            "id-list", "id-object", "id-number", "id-true"])
    def test_a_schema_the_data_cannot_follow_exits_3(
        self, tmp_path, capsys, edit, message
    ):
        """Every reader refuses the schema, before any cell of the data."""
        data, schema = synth(tmp_path, n=60)
        schema.write_text(json.dumps(edit(json.loads(schema.read_text()))))
        lines = data.read_text().splitlines(keepends=True)
        row = lines[1].split(",")
        row[2] = "heavy"  # demographic_1, a numeric column
        lines[1] = ",".join(row)
        data.write_text("".join(lines))
        capsys.readouterr()
        for argv in (["prepare", "--data", str(data)], ["profiles", "list"]):
            assert run_command([*argv, "--schema", str(schema)]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err, argv

    @pytest.mark.parametrize("options, message", [
        (["--n", "1"], "need n >= 2, got 1"),
        (["--demographic", "-1"], "per-category feature counts must be non-negative"),
        (["--rho", "1.5"], "rho must be in [-1, 1], got 1.5"),
        (["--noise-std", "-1"], "noise_std must be non-negative"),
        (["--demographic", "0", "--background", "0", "--phenotypic", "0"],
         "spec leaves no visible features to generate a signal from"),
        (["--noise-std", "nan"], "noise_std must be finite, got nan"),
        (["--base-dose", "nan"], "base_dose must be finite, got nan"),
        (["--base-dose", "inf"], "base_dose must be finite, got inf"),
    ])
    def test_a_spec_synth_refuses_exits_3_and_writes_nothing(
        self, tmp_path, capsys, options, message
    ):
        out = tmp_path / "s"
        assert run_command(["synth", "--n", "50", *options, "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, callee, exc, detail", [
        ("synth", "generate_synthetic", MemoryError("Unable to allocate 8.00 TiB"),
         "Unable to allocate 8.00 TiB"),
        ("train", "sweep_profiles", MemoryError(), "an allocation failed"),
    ])
    def test_out_of_memory_exits_3_by_name_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, command, callee, exc, detail
    ):
        """numpy's failed allocation is a MemoryError; the function the
        command calls raises one here, so nothing huge is allocated."""
        data, schema = synth(tmp_path)

        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, callee, exhausted)
        out = tmp_path / "out"
        inputs = [] if command == "synth" else ["--data", str(data), "--schema", str(schema)]
        capsys.readouterr()
        assert run_command([command, *inputs, "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", f"error: out of memory: {detail}\n")
        assert not out.exists()

    def test_a_failed_record_write_prints_no_success_line(self, tmp_path, capsys):
        out = tmp_path / "s"
        (out / "run_config.json").mkdir(parents=True)
        capsys.readouterr()
        assert run_command(["synth", "--n", "30", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out / 'run_config.json'}: ")

    def test_prepare_missing_file_exits_3(self, tmp_path, capsys):
        code = run_command([
            "prepare", "--data", str(tmp_path / "nope.csv"),
            "--schema", str(tmp_path / "nope.json"),
        ])
        assert code == 3

    @pytest.mark.parametrize("command, options, code", [
        ("train", {"--data": "no/such/dir/nope.csv"}, 3),
        ("evaluate", {"--ratio": "0.001"}, 3),  # a one-row training split, after the load
        ("evaluate", {"--grid": "0,0"}, 2),
        ("select-features", {"--folds": "100000"}, 3),
    ])
    def test_failing_command_leaves_no_output_directory(
        self, tmp_path, command, options, code
    ):
        data, schema = synth(tmp_path)
        fresh = tmp_path / "fresh"
        options = {"--data": str(data), "--schema": str(schema), "--out": str(fresh)} | options
        assert run_command([command, *(x for pair in options.items() for x in pair)]) == code
        assert not fresh.exists()

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_command(["frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "command", ["synth", "select-features", "train", "evaluate"]
    )
    def test_negative_seed_is_usage_error_naming_it(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        argv = [command, "--out", str(out), "--seed", "-1"]
        if command != "synth":
            argv += ["--data", "d.csv", "--schema", "s.json"]
        with pytest.raises(SystemExit) as err:
            run_command(argv)
        assert err.value.code == 2
        assert ("argument --seed: must be a whole number of at least 0, got '-1'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_grid_is_usage_error(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        # non-finite or too-fine ranges must fail before the range is built
        for grid in ("zero-to-one", "0:nan:0.1", "nan:1:0.1", "0:1:nan", "0:inf:0.1",
                     "-0.5:1:0.1", "0:2:0.1", "0:1:0", "0:1:0.0009", "0:1:1e-300"):
            code = run_command([
                "train", "--data", str(data), "--schema", str(schema),
                "--out", str(tmp_path / "s"), f"--grid={grid}", *FAST,
            ])
            assert code == 2, grid
            assert "bad grid" in capsys.readouterr().err, grid

    @pytest.mark.parametrize("bad_file", [
        "data", "schema", "pack",
        "schema-missing", "schema-not-json", "pack-missing", "pack-not-json",
        "data-dir", "schema-dir", "pack-dir",
    ])
    def test_non_utf8_file_is_data_error(self, tmp_path, capsys, bad_file):
        """An input that is not UTF-8, is missing, is not JSON or is a
        directory exits 3 and is named."""
        data, schema = synth(tmp_path)
        pack = tmp_path / "pack.json"
        pack.write_text('{"format_version": 1}')
        name, _, damage = bad_file.partition("-")
        bad = {"data": data, "schema": schema, "pack": pack}[name]
        if damage == "missing":
            bad.unlink()
            expected = "file not found"
        elif damage == "not-json":
            bad.write_text("{not json", encoding="utf-8")
            expected = "not valid JSON"
        elif damage == "dir":
            bad.unlink()
            bad.mkdir()
            expected = "cannot read"
        else:
            bad.write_bytes(bad.read_bytes().replace(b"1", b"\xe9", 1))
            expected = "not valid UTF-8"
        if name == "pack":
            argv = ["predict", "--model", str(pack), "--disclose", "demographic_0=1"]
        else:
            argv = ["prepare", "--data", str(data), "--schema", str(schema)]
        assert run_command(argv) == 3
        err = capsys.readouterr().err
        assert expected in err and bad.name in err

    @pytest.mark.parametrize(
        "target", ["out-is-a-file", "dump-out-under-a-file", "train-out-under-a-file"]
    )
    def test_unwritable_output_is_data_error(self, tmp_path, capsys, monkeypatch, target):
        """An output that cannot be made exits 3 and is named, with no traceback,
        before any data is read or fitting starts."""
        data, schema = synth(tmp_path)
        work = []
        monkeypatch.setattr(cli, "load_and_validate", lambda *a: work.append(a))
        monkeypatch.setattr(cli, "sweep_profiles", lambda *a, **k: work.append(a))
        if target == "out-is-a-file":
            bad = tmp_path / "taken"
            bad.write_text("")
            argv = ["synth", "--out", str(bad)]
        elif target == "train-out-under-a-file":
            (tmp_path / "taken").write_text("")
            bad = tmp_path / "taken" / "run"
            argv = ["train", "--data", str(data), "--schema", str(schema),
                    "--out", str(bad)]
        else:
            (tmp_path / "taken").write_text("")
            bad = tmp_path / "taken" / "p"
            argv = ["prepare", "--data", str(data), "--schema", str(schema),
                    "--out", str(bad), "--dump-encoded"]
        capsys.readouterr()
        assert run_command(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "error: cannot" in captured.err
        assert str(bad) in captured.err
        assert work == []

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
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--profile", "public", "--grid", grid, *FAST,
        ])
        assert code == 2
        assert "strictly ascending" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()


NO_OUT = "error: no output directory: pass --out or set DOSEDISTILL_OUT\n"

WRITING_COMMANDS = {
    "synth": ["--n", "60"],
    "prepare": ["--dump-encoded"],
    "select-features": [],
    "train": ["--profile", "public", "--grid", "0", *FAST],
    "evaluate": ["--runs", "1", "--grid", "0", *FAST],
}


def data_args(command, data, schema):
    return [] if command == "synth" else ["--data", str(data), "--schema", str(schema)]


class TestOutputDirectory:
    """Where a writing command writes: ``--out``, else ``DOSEDISTILL_OUT``."""

    @pytest.mark.parametrize("command", WRITING_COMMANDS)
    def test_no_output_directory_is_a_data_error(
        self, tmp_path, capsys, monkeypatch, command
    ):
        data, schema = synth(tmp_path)
        monkeypatch.delenv("DOSEDISTILL_OUT", raising=False)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        capsys.readouterr()
        argv = [command, *data_args(command, data, schema), *WRITING_COMMANDS[command]]
        assert run_command(argv) == 3
        assert capsys.readouterr() == ("", NO_OUT)
        assert list(work.iterdir()) == []
        assert sorted(p.name for p in data.parent.iterdir()) == [
            "data.csv", "run_config.json", "schema.json",
        ]

    def test_the_environment_names_the_output_directory(self, tmp_path, monkeypatch):
        env = tmp_path / "env"
        monkeypatch.setenv("DOSEDISTILL_OUT", str(env))
        assert run_command(["synth", "--n", "60"]) == 0
        assert sorted(p.name for p in env.iterdir()) == [
            "data.csv", "run_config.json", "schema.json",
        ]
        config = json.loads((env / "run_config.json").read_text())
        assert (config["command"], config["out"]) == ("synth", str(env))

        # --out wins over the environment
        before = (env / "data.csv").read_bytes()
        data, schema = synth(tmp_path)
        assert (env / "data.csv").read_bytes() == before
        assert data.read_bytes() != before

        # a failing command makes no directory there
        fresh = tmp_path / "fresh"
        monkeypatch.setenv("DOSEDISTILL_OUT", str(fresh))
        assert run_command([
            "train", "--data", str(tmp_path / "nope.csv"), "--schema", str(schema),
        ]) == 3
        assert not fresh.exists()

    @pytest.mark.parametrize("command, named_by", [
        ("select-features", "--out"), ("synth", "DOSEDISTILL_OUT"),
    ])
    def test_a_name_too_long_is_a_data_error(
        self, tmp_path, capsys, monkeypatch, command, named_by
    ):
        data, schema = synth(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        name = "x" * 300  # over the 255 bytes a file name may have
        argv = [command, *data_args(command, data, schema), *WRITING_COMMANDS[command]]
        if named_by == "--out":
            monkeypatch.delenv("DOSEDISTILL_OUT", raising=False)
            argv += ["--out", name]
        else:
            monkeypatch.setenv("DOSEDISTILL_OUT", name)
        capsys.readouterr()
        assert run_command(argv) == 3
        assert capsys.readouterr() == (
            "", f"error: cannot make output directory {name}: File name too long\n"
        )
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("existing", [[], ["ok"], ["ok", "ok/a"]])
    def test_a_failed_mkdir_removes_only_the_directories_it_made(
        self, tmp_path, capsys, monkeypatch, existing
    ):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        for name in existing:
            Path(name).mkdir()
        out = f"ok/a/{'x' * 300}/sub"
        assert run_command(["synth", "--n", "60", "--out", out]) == 3
        assert capsys.readouterr() == (
            "", f"error: cannot make output directory {out}: File name too long\n"
        )
        assert sorted(p.relative_to(work).as_posix() for p in work.rglob("*")) == existing

    @pytest.mark.parametrize("command", WRITING_COMMANDS)
    def test_every_file_a_command_writes_is_under_its_output_directory(
        self, tmp_path, monkeypatch, command
    ):
        data, schema = synth(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.delenv("DOSEDISTILL_OUT", raising=False)
        before = set(tmp_path.rglob("*"))
        argv = [command, *data_args(command, data, schema), "--out", "o",
                *WRITING_COMMANDS[command]]
        assert run_command(argv) == 0
        made = set(tmp_path.rglob("*")) - before
        assert made and all(p.is_relative_to(work / "o") for p in made)

    def test_prepare_writes_its_record_under_the_environment(
        self, tmp_path, monkeypatch
    ):
        data, schema = synth(tmp_path)
        env = tmp_path / "envp"
        monkeypatch.setenv("DOSEDISTILL_OUT", str(env))
        argv = ["prepare", "--data", str(data), "--schema", str(schema)]
        assert run_command(argv) == 0
        assert sorted(p.name for p in env.iterdir()) == ["run_config.json"]
        assert json.loads((env / "run_config.json").read_text())["out"] == str(env)

        # with neither --out nor the variable, prepare writes nothing
        monkeypatch.delenv("DOSEDISTILL_OUT")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run_command(argv) == 0
        assert list(work.iterdir()) == []

    def test_prepare_out_writes_its_run_config(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        out = tmp_path / "p"
        assert run_command([
            "prepare", "--data", str(data), "--schema", str(schema), "--out", str(out),
        ]) == 0
        assert "240 usable records" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]
        assert json.loads((out / "run_config.json").read_text()) == {
            "command": "prepare", "data": str(data), "schema": str(schema),
            "out": str(out), "dump_encoded": False,
        }

        fresh = tmp_path / "fresh"
        assert run_command([
            "prepare", "--data", str(tmp_path / "nope.csv"), "--schema", str(schema),
            "--out", str(fresh),
        ]) == 3
        assert not fresh.exists()

    @pytest.mark.parametrize("command", WRITING_COMMANDS)
    def test_run_config_records_the_command_and_its_arguments(self, tmp_path, command):
        data, schema = synth(tmp_path)
        out = tmp_path / "o"
        argv = [command, *data_args(command, data, schema), "--out", str(out),
                *WRITING_COMMANDS[command]]
        assert run_command(argv) == 0
        config = json.loads((out / "run_config.json").read_text())
        parsed = vars(cli.build_parser().parse_args(argv))
        assert config == {k: v for k, v in parsed.items() if k != "func"}
        assert config["command"] == command

    @pytest.mark.parametrize("command", WRITING_COMMANDS)
    def test_a_recorded_run_replays_byte_for_byte(self, tmp_path, monkeypatch, command):
        """A run named by ``DOSEDISTILL_OUT`` alone, replayed from its record
        into a fresh directory, writes the same bytes and the same record."""
        data, schema = synth(tmp_path)
        env = tmp_path / "env"
        monkeypatch.setenv("DOSEDISTILL_OUT", str(env))
        argv = [command, *data_args(command, data, schema), *WRITING_COMMANDS[command]]
        assert run_command(argv) == 0
        record = json.loads((env / "run_config.json").read_text())
        assert record["out"] == str(env)

        monkeypatch.delenv("DOSEDISTILL_OUT")
        fresh = tmp_path / "replay"
        assert run_command(recorded_argv(record | {"out": str(fresh)})) == 0
        names = sorted(p.name for p in env.iterdir())
        assert sorted(p.name for p in fresh.iterdir()) == names
        for name in names:
            if name != "run_config.json":
                assert (fresh / name).read_bytes() == (env / name).read_bytes(), name
        replayed = json.loads((fresh / "run_config.json").read_text())
        assert replayed == record | {"out": str(fresh)}


def recorded_argv(record: dict) -> list[str]:
    """The command line a ``run_config.json`` records."""
    argv = [record["command"]]
    for key, value in record.items():
        option = "--" + key.replace("_", "-")
        if key == "command" or value is None or value is False:
            continue
        if value is True:
            argv.append(option)
        else:
            argv += [x for v in (value if isinstance(value, list) else [value])
                     for x in (option, str(v))]
    return argv


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


@pytest.mark.parametrize("command, backed, count", [
    ("synth", _field_defaults(SyntheticSpec), 9),
    ("select-features", {"epsilon": DEFAULT_EPSILON, "folds": DEFAULT_FOLDS,
                         "ratio": DistillationConfig.split_ratio}, 3),
    *((command, _field_defaults(TrainConfig) | {"ratio": DistillationConfig.split_ratio}, 7)
      for command in ("train", "evaluate")),
])
def test_an_option_backed_by_a_config_field_takes_its_default_and_type(
    command, backed, count
):
    """Unset, each option that sets a config field parses to the field's default."""
    args = cli.build_parser().parse_args([command, *data_args(command, "d.csv", "s.json")])
    options = backed.keys() & vars(args).keys()
    assert len(options) == count
    for name in options:
        value = getattr(args, name)
        assert (value, type(value)) == (backed[name], type(backed[name])), name
    if command == "synth":
        assert cli._config(SyntheticSpec, args) == SyntheticSpec()
    elif command != "select-features":
        assert cli._distill_config(args) == DistillationConfig()
        assert cli._parse_grid("0:1:0.1") == DEFAULT_GRID


def _enclosing_functions(node: ast.AST, where: str, match):
    """The enclosing function of every node under ``node`` that ``match`` accepts."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _enclosing_functions(child, child.name, match)
            continue
        if match(child):
            yield where
        yield from _enclosing_functions(child, where, match)


def _places_in_the_package(match) -> list[tuple[str, str]]:
    """(file, enclosing function) of every node of the package ``match`` accepts."""
    package = Path(dosedistill.__file__).parent
    return [
        (path.name, where)
        for path in sorted(package.glob("*.py"))
        for where in _enclosing_functions(
            ast.parse(path.read_text(encoding="utf-8")), "<module>", match
        )
    ]


def test_the_run_record_is_written_by_run_command_alone():
    """Every writing command's ``run_config.json`` is written in one place."""
    places = _places_in_the_package(
        lambda node: isinstance(node, ast.Constant) and node.value == "run_config.json"
    )
    assert places == [("cli.py", "run_command")]


def test_run_command_is_the_one_printer():
    """Every command returns its output; only ``run_command`` prints."""
    places = _places_in_the_package(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "print"
    )
    assert places and set(places) == {("cli.py", "run_command")}


class TestOneParserPerProcess:
    """``build_parser`` runs once per process; no call may see another's state."""

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv, code", [
        (["predict", "--model", "pack.json"], 2),
        (["train", "--jobs", "0"], 2),
        (["--help"], 0),
        (["predict", "--help"], 0),
    ])
    def test_usage_and_help_are_the_same_each_time(self, capsys, argv, code):
        printed = []
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                run_command(argv)
            assert err.value.code == code
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1]
        assert "usage: dosedistill" in printed[0].out + printed[0].err

    def test_an_option_given_once_is_not_kept(self, tmp_path, monkeypatch):
        seen = []

        def stop(args):
            seen.append(args.profile)
            raise DataError("stopped before fitting")

        monkeypatch.setattr(cli, "_distill_config", stop)
        for extra in (["--profile", "Public patient"], []):
            assert run_command([
                "train", "--data", "d.csv", "--schema", "s.json",
                "--out", str(tmp_path / "m"), *extra,
            ]) == 3
        assert seen == [["Public patient"], None]


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

    def test_unknown_kind_exits_3_like_prepare(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        obj = json.loads(schema.read_text())
        obj["features"][0]["kind"] = "bogus"
        schema.write_text(json.dumps(obj))
        for argv in (
            ["profiles", "list", "--schema", str(schema)],
            ["prepare", "--data", str(data), "--schema", str(schema)],
        ):
            assert run_command(argv) == 3
            captured = capsys.readouterr()
            assert "unknown kind 'bogus'" in captured.err
            assert "Public patient" not in captured.out


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

    def test_nan_epsilon_is_usage_error(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        out = tmp_path / "bae"
        with pytest.raises(SystemExit) as err:
            run_command([
                "select-features", "--data", str(data), "--schema", str(schema),
                "--out", str(out), "--epsilon", "nan",
            ])
        assert err.value.code == 2
        assert ("argument --epsilon: must be a number, got 'nan'"
                in capsys.readouterr().err)
        assert not (out / "bae.json").exists()

    def test_a_word_for_epsilon_is_usage_error(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        out = tmp_path / "bae"
        with pytest.raises(SystemExit) as err:
            run_command([
                "select-features", "--data", str(data), "--schema", str(schema),
                "--out", str(out), "--epsilon", "abc",
            ])
        assert err.value.code == 2
        assert ("argument --epsilon: must be a number, got 'abc'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["inf", "-0.5"])
    def test_infinite_or_negative_epsilon_is_taken(self, tmp_path, epsilon):
        data, schema = synth(tmp_path)
        out = tmp_path / "bae"
        assert run_command([
            "select-features", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--epsilon", epsilon,
        ]) == 0
        report = json.loads((out / "bae.json").read_text())
        assert json.loads((out / "run_config.json").read_text())["epsilon"] == float(epsilon)
        if epsilon == "inf":  # every unprotected feature goes
            assert report["kept"] == ["genotypic_0", "genotypic_1"]
        else:  # on this cohort no removal gains half a mg/week
            assert report["removed"] == []

    @pytest.mark.parametrize("option, value", [
        ("--folds", "1"), ("--folds", "0"), ("--folds", "2.5"),
        ("--ratio", "0"), ("--ratio", "1"), ("--ratio", "-0.5"), ("--ratio", "1.5"),
        ("--ratio", "nan"), ("--ratio", "inf"), ("--ratio", "half"),
        ("--epsilon", "nan"),
    ])
    def test_bad_folds_or_ratio_is_refused_before_the_data_is_read(
        self, tmp_path, capsys, option, value
    ):
        # the data file does not exist: reading it would exit 3
        out = tmp_path / "bae"
        with pytest.raises(SystemExit) as err:
            run_command([
                "select-features", "--data", str(tmp_path / "nope.csv"),
                "--schema", str(tmp_path / "nope.json"), "--out", str(out), option, value,
            ])
        assert err.value.code == 2
        assert f"argument {option}: must be " in capsys.readouterr().err
        assert not out.exists()


class TestTrainPredict:
    def test_zero_epochs_is_usage_error(self, tmp_path, capsys):
        """Zero epochs would pack the untrained initial weights as a model."""
        data, schema = synth(tmp_path)
        out = tmp_path / "m"
        code = run_command([
            "train", "--data", str(data), "--schema", str(schema), "--out", str(out),
            "--profile", "public", "--max-epochs", "0", "--patience", "0", "--jobs", "1",
        ])
        assert code == 2
        assert "usage error: max_epochs must be >= 1" in capsys.readouterr().err
        assert not (out / "pack.json").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("value", ["1", "1.5", "nan"])
    def test_a_ratio_outside_the_unit_interval_is_refused_by_argparse(
        self, tmp_path, capsys, command, value
    ):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as err:
            run_command([command, "--data", "d.csv", "--schema", "s.json",
                         "--out", str(out), "--ratio", value])
        assert err.value.code == 2
        assert (f"argument --ratio: must be a number in (0, 1), got {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_a_profile_named_twice_is_refused(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        out = tmp_path / "m"
        capsys.readouterr()
        assert run_command([
            "train", "--data", str(data), "--schema", str(schema), "--out", str(out),
            "--profile", "public", "--profile", "Public patient", "--grid", "0", *FAST,
        ]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --profile 'Public patient' repeats profile 'Public patient'\n"
        assert not out.exists()

    def test_a_pack_with_a_copied_bundle_is_malformed(self, public_pack, tmp_path, capsys):
        """A re-signed pack whose bundles repeat a profile is refused: no
        reader could tell which of them serves it."""
        obj = json.loads(public_pack.read_text())
        obj["bundles"].append(copy.deepcopy(obj["bundles"][0]))
        del obj["digest"]
        obj["digest"] = config_digest(obj)
        pack = tmp_path / "pack.json"
        save_json(pack, obj)
        assert run_command(["predict", "--model", str(pack),
                            "--disclose", "demographic_1=0.5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: malformed model pack: ValueError: profile 'Public patient' has two bundles"
        )

    @pytest.mark.parametrize("zero", ["-0", "-0.0", "-1e-400"])
    def test_a_negative_zero_in_a_comma_grid_is_zero(self, zero):
        assert math.copysign(1.0, cli._parse_grid(f"{zero},0.5")[0]) == 1.0

    def test_a_negative_zero_lambda_is_written_as_zero(self, tmp_path, capsys):
        data, schema = synth(tmp_path)
        out = tmp_path / "m"
        assert run_command([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--profile", "public", "--grid=-0", *FAST,
        ]) == 0
        assert "@ lambda 0;" in capsys.readouterr().out
        assert [row[1] for row in read_rows(out / "sweep.csv")] == ["lambda", "0"]

    def test_predict_data_without_schema_is_usage_error(self, public_pack, capsys):
        """A stored profile serves this disclosure, and ``--data`` is still
        refused without ``--schema``, before any file is read."""
        header, first = read_rows(public_pack.parent / "data" / "data.csv")[:2]
        pairs = ",".join(f"{col}={value}" for col, value in zip(header, first)
                         if col not in ("patient_id", "weekly_dose_mg"))
        argv = ["predict", "--model", str(public_pack), "--disclose", pairs]
        assert run_command(argv) == 0
        capsys.readouterr()
        assert run_command([*argv, "--data", "missing.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage error: --data and --schema go together; --schema is missing\n"
        )

    def test_predict_schema_without_data_is_usage_error(self, public_pack, capsys):
        assert run_command([
            "predict", "--model", str(public_pack), "--disclose", "demographic_1=0.3",
            "--schema", "schema.json",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage error: --data and --schema go together; --data is missing\n"
        )

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
        first, *rest = outputs_by_jobs(tmp_path, [
            "train", "--data", str(data), "--schema", str(schema), *THREE_PROFILES,
            "--grid", "0,0.5,1", "--max-epochs", "25", "--patience", "5",
        ], ("pack.json", "report.json"))
        assert all(run == first for run in rest)
        assert len(json.loads(first["report.json"])) == 3

    @pytest.mark.parametrize("jobs", ["0", "-3", "two", "1.5", ""])
    def test_bad_jobs_is_usage_error(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as err:
            run_command([
                "train", "--data", "d.csv", "--schema", "s.json",
                "--out", str(tmp_path / "m"), f"--jobs={jobs}",
            ])
        assert err.value.code == 2
        assert "--jobs: must be a whole number of at least 1" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_default_jobs_is_read_on_each_call(self, tmp_path, monkeypatch):
        """The parser is built once per process, so it must not freeze the
        usable CPUs of its first call into ``--jobs``."""
        data, schema = synth(tmp_path)
        for cpus in (3, 1):
            monkeypatch.setattr(cli, "_usable_cpus", lambda cpus=cpus: cpus)
            out = tmp_path / f"cpus-{cpus}"
            assert run_command([
                "train", "--data", str(data), "--schema", str(schema), "--out", str(out),
                "--profile", "Public patient", "--grid", "0",
                "--max-epochs", "1", "--patience", "0",
            ]) == 0
            assert json.loads((out / "run_config.json").read_text())["jobs"] == cpus

    def test_huge_jobs_is_capped_at_the_model_count(self, tmp_path, pool_sizes, monkeypatch):
        monkeypatch.setattr(distillation, "_usable_cpus", lambda: 64)
        data, schema = synth(tmp_path)
        assert run_command([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(tmp_path / "m"), *THREE_PROFILES, "--grid", "0",
            "--max-epochs", "5", "--patience", "2", "--jobs", str(10**9),
        ]) == 0
        assert pool_sizes == [3]

    def test_jobs_beyond_the_usable_cpus_starts_no_more_and_is_recorded_as_given(
        self, tmp_path, pool_sizes, monkeypatch
    ):
        monkeypatch.setattr(distillation, "_usable_cpus", lambda: 2)
        data, schema = synth(tmp_path)
        out = tmp_path / "m"
        assert run_command([
            "train", "--data", str(data), "--schema", str(schema), "--out", str(out),
            *THREE_PROFILES, "--grid", "0", "--max-epochs", "5", "--patience", "2",
            "--jobs", str(10**5),
        ]) == 0
        assert pool_sizes == [2]
        assert json.loads((out / "run_config.json").read_text())["jobs"] == 10**5

    def test_a_finite_divergence_exits_4_and_writes_nothing(self, tmp_path, capsys):
        """At a learning rate of 1e9 every loss stays finite, but the models
        end orders of magnitude worse than a constant dose."""
        out = tmp_path / "data"
        assert run_command(["synth", "--out", str(out), "--seed", "5"]) == 0
        capsys.readouterr()
        code = run_command([
            "train", "--data", str(out / "data.csv"), "--schema", str(out / "schema.json"),
            "--out", str(tmp_path / "m"), "--learning-rate", "1e9", "--seed", "5",
            "--jobs", "1",
        ])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure: training diverged: ")
        assert not (tmp_path / "m").exists()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the stand-in reaches the workers only through fork")
    def test_divergence_in_a_worker_exits_4(self, tmp_path, capsys, monkeypatch):
        data, schema = synth(tmp_path)
        monkeypatch.setattr(distillation, "train_mlp_stack", diverge_in_this_process)
        code = run_command([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(tmp_path / "m"), *THREE_PROFILES, "--grid", "0",
            "--max-epochs", "5", "--patience", "2", "--jobs", "2",
        ])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("numeric failure: loss became nan in process ")
        assert f"in process {os.getpid()}\n" not in err  # raised in a worker
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

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
        _, standardizer, _, _ = pack_from_obj(json.loads(pack.read_text()))
        x = (0.3 - standardizer.means[1]) / standardizer.stds[1]
        bundle = train_on_demand(train, valid, Disclosure({1: x}), config)
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


class TestOnDemandMemo:
    """A process keeps the last on-demand training data: its split, its
    teachers and every set trained on it, keyed by the exact texts of
    ``--data`` and ``--schema`` and the pack's recipe."""

    @pytest.fixture
    def fits(self, monkeypatch):
        """Count ``train_on_demand`` calls and the size of every stack trained
        (a teacher is a stack of one; the grid below has two points)."""
        monkeypatch.setattr(cli, "_last_on_demand", None)
        seen = {"on_demand": 0, "stacks": []}
        on_demand, stack = cli.train_on_demand, models.train_mlp_stack

        def counted_on_demand(*args, **kwargs):
            seen["on_demand"] += 1
            return on_demand(*args, **kwargs)

        def counted_stack(X, targets, config, columns=None):
            seen["stacks"].append(len(targets))
            return stack(X, targets, config, columns)

        monkeypatch.setattr(cli, "train_on_demand", counted_on_demand)
        monkeypatch.setattr(models, "train_mlp_stack", counted_stack)
        monkeypatch.setattr(distillation, "train_mlp_stack", counted_stack)
        return seen

    def train(self, capsys, fits, tmp_path, data, schema, *extra):
        """A public-only pack; its stacks are not counted."""
        out = tmp_path / "m"
        assert run_command([
            "train", "--data", str(data), "--schema", str(schema), "--out", str(out),
            "--profile", "public", "--grid", "0,1", *FAST, *extra,
        ]) == 0
        capsys.readouterr()
        fits["stacks"].clear()
        return out / "pack.json"

    def predict(self, capsys, pack, data, schema, columns):
        header, first = read_rows(data)[:2]
        row = dict(zip(header, first))
        code = run_command([
            "predict", "--model", str(pack), "--disclose",
            ",".join(f"{c}={row[c]}" for c in columns),
            "--data", str(data), "--schema", str(schema),
        ])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_a_set_that_comes_back_is_not_trained_again(self, tmp_path, capsys, fits):
        data, schema = synth(tmp_path)
        pack = self.train(capsys, fits, tmp_path, data, schema)
        columns = ["demographic_1", "background_1"]
        first = self.predict(capsys, pack, data, schema, columns)
        assert first[0] == 0 and "custom-" in first[1]
        assert fits["on_demand"] == 1
        assert self.predict(capsys, pack, data, schema, columns) == first
        assert fits["on_demand"] == 1

        src = str(Path(dosedistill.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        row = dict(zip(*read_rows(data)[:2]))
        cold = subprocess.run([
            sys.executable, "-m", "dosedistill.cli", "predict", "--model", str(pack),
            "--disclose", ",".join(f"{c}={row[c]}" for c in columns),
            "--data", str(data), "--schema", str(schema),
        ], env=env, capture_output=True, text=True)
        assert (cold.returncode, cold.stdout) == (0, first[1])

    @pytest.mark.parametrize("mode, teachers", [
        ("all_features", 1), ("redacted_only", 2),
    ])
    def test_on_demand_sets_share_their_teachers(
        self, tmp_path, capsys, fits, mode, teachers
    ):
        data, schema = synth(tmp_path)
        pack = self.train(
            capsys, fits, tmp_path, data, schema, "--privileged-inputs", mode
        )
        sets = (["demographic_1"], ["demographic_1", "background_1"])
        printed = [self.predict(capsys, pack, data, schema, cols) for cols in sets]
        printed += [self.predict(capsys, pack, data, schema, cols) for cols in sets]
        assert all(code == 0 for code, _, _ in printed)
        assert printed[:2] == printed[2:]
        assert fits["on_demand"] == 2
        assert sorted(fits["stacks"]) == [1] * teachers + [2, 2]

    @pytest.mark.parametrize("change", ["data", "schema", "recipe"])
    def test_other_texts_or_another_recipe_train_afresh(
        self, tmp_path, capsys, fits, change
    ):
        data, schema = synth(tmp_path)
        pack = self.train(capsys, fits, tmp_path, data, schema)
        columns = ["demographic_1"]
        first = self.predict(capsys, pack, data, schema, columns)
        assert first[0] == 0 and fits["on_demand"] == 1
        if change == "data":  # a patient id: the rows read the same
            data.write_bytes(data.read_bytes().replace(b"p00000", b"q00000", 1))
        elif change == "schema":  # JSON whitespace: the schema reads the same
            schema.write_bytes(schema.read_bytes().replace(b" ", b"\t", 1))
        else:
            pack = self.train(
                capsys, fits, tmp_path / "seed-1", data, schema, "--seed", "1"
            )
            fresh = self.predict(capsys, pack, data, schema, columns)
            assert fresh[0] == 0 and fits["on_demand"] == 2
            return
        assert self.predict(capsys, pack, data, schema, columns) == first
        assert fits["on_demand"] == 2

    def test_another_pack_is_refused_with_the_memo_warm(self, tmp_path, capsys, fits):
        data, schema = synth(tmp_path)
        pack = self.train(capsys, fits, tmp_path, data, schema)
        assert self.predict(capsys, pack, data, schema, ["demographic_1"])[0] == 0
        other, other_schema = synth(tmp_path / "other", seed=8)
        other_pack = self.train(capsys, fits, tmp_path / "other", other, other_schema)
        code, out, err = self.predict(capsys, other_pack, data, schema, ["demographic_1"])
        assert code == 3 and out == ""
        assert "not the data this model pack was trained on" in err
        assert fits["on_demand"] == 1
        assert self.predict(capsys, pack, data, schema, ["demographic_1"])[0] == 0
        assert fits["on_demand"] == 1

    def test_another_cohort_is_refused_and_not_kept(self, tmp_path, capsys, fits):
        data, schema = synth(tmp_path)
        pack = self.train(capsys, fits, tmp_path, data, schema)
        first = self.predict(capsys, pack, data, schema, ["demographic_1"])
        assert first[0] == 0 and fits["on_demand"] == 1
        other, other_schema = synth(tmp_path / "other", seed=8)
        capsys.readouterr()
        code, out, err = self.predict(capsys, pack, other, other_schema, ["demographic_1"])
        assert code == 3 and out == ""
        assert "not the data this model pack was trained on" in err
        assert self.predict(capsys, pack, data, schema, ["demographic_1"]) == first
        assert fits["on_demand"] == 1 and fits["stacks"] == [1, 2]

    def test_a_set_whose_dose_is_refused_is_not_trained_again(
        self, tmp_path, capsys, fits
    ):
        """The bundle depends on the data and the set alone, not on the
        patient, so a refused dose keeps it for the next patient."""
        data, schema = synth(tmp_path)
        pack = self.train(capsys, fits, tmp_path, data, schema)
        code = run_command([
            "predict", "--model", str(pack), "--disclose", "demographic_1=-1e6",
            "--data", str(data), "--schema", str(schema),
        ])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert "non-positive dose" in captured.err
        code, out, _ = self.predict(capsys, pack, data, schema, ["demographic_1"])
        assert code == 0 and "custom-" in out
        assert fits["on_demand"] == 1


LOADER_SCHEMA = """{
  "target": "weekly_dose_mg",
  "features": [
    {"name": "weight", "category": "background", "kind": "numeric"},
    {"name": "race", "category": "demographic", "kind": "categorical"}
  ]
}"""


class TestOnDemandLoader:
    """The on-demand path parses the texts it read, with ``load_and_validate``'s
    rules and errors."""

    @pytest.mark.parametrize("body", [
        b"weight,race,weekly_dose_mg\n70,A\n",  # short row: no usable rows
        b"weight,race,weekly_dose_mg\n70,A,30\nheavy,B,40\n",
        b"weight,race,weekly_dose_mg\n70,A,30\n80,B,0\n",
        b"weight,race,extra,weekly_dose_mg\n70,A,1,30\n",
        b"weight,weekly_dose_mg\n70,30\n",
        b"weight,race,weekly_dose_mg\n70,\xe9,30\n",
        b"",
        None,  # missing file
    ])
    def test_bad_csv_is_the_same_data_error(
        self, tmp_path, capsys, monkeypatch, public_pack, body
    ):
        monkeypatch.setattr(cli, "_last_on_demand", None)
        data, schema = tmp_path / "d.csv", tmp_path / "s.json"
        schema.write_text(LOADER_SCHEMA)
        if body is not None:
            data.write_bytes(body)
        with pytest.raises(DataError) as loaded:
            load_and_validate(data, schema)
        assert run_command([
            "predict", "--model", str(public_pack), "--disclose", "demographic_1=0.3",
            "--data", str(data), "--schema", str(schema),
        ]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {loaded.value}\n"
        assert cli._last_on_demand is None

    @pytest.mark.parametrize("schema_text", [
        "{not json", '{"features": []}', '{"target": "y", "features": []}',
        '{"id": ["x"], "target": "y", '
        '"features": [{"name": "w", "category": "background", "kind": "numeric"}]}',
        '{"target": "y", '
        '"features": [{"name": "w", "category": "astrological", "kind": "numeric"}]}',
    ])
    @pytest.mark.parametrize("body", [None, b"weight,race,weekly_dose_mg\n70,\xe9,30\n"])
    def test_a_bad_schema_is_reported_before_bad_data(
        self, tmp_path, capsys, monkeypatch, public_pack, schema_text, body
    ):
        monkeypatch.setattr(cli, "_last_on_demand", None)
        data, schema = tmp_path / "d.csv", tmp_path / "s.json"
        schema.write_text(schema_text)
        if body is not None:
            data.write_bytes(body)
        with pytest.raises(DataError) as loaded:
            load_and_validate(data, schema)
        assert str(schema) in str(loaded.value)
        assert run_command([
            "predict", "--model", str(public_pack), "--disclose", "demographic_1=0.3",
            "--data", str(data), "--schema", str(schema),
        ]) == 3
        assert capsys.readouterr().err == f"error: {loaded.value}\n"

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_parse_and_validate_reads_as_load_and_validate(self, tmp_path, end):
        data, schema = synth(tmp_path)
        # CRLF or CR line ends, and a label with one inside its quotes: the
        # text is parsed as written, line ends untranslated
        text = data.read_text().replace("\n", end).replace(",A,", f',"A{end}B",', 1)
        data.write_bytes(text.encode())
        loaded = load_and_validate(data, schema)
        parsed = parse_and_validate(_parse_schema(schema), data.read_bytes(), data)
        assert parsed[0] == loaded[0]
        for a, b in zip(parsed[1].__dict__.values(), loaded[1].__dict__.values()):
            assert np.array_equal(a, b)

    def test_a_recipe_numpy_cannot_size_is_the_packs_data_error(
        self, tmp_path, capsys, monkeypatch, public_pack
    ):
        """A re-signed hidden width of 2**62 passes the recipe's 64-bit bound,
        and numpy refuses it with a ``ValueError`` when on-demand training
        sizes the teacher: the pack is at fault, so it exits 3 naming it."""
        monkeypatch.setattr(cli, "_last_on_demand", None)
        obj = json.loads(public_pack.read_text())
        obj["train_config"]["hidden"] = 2**62
        del obj["digest"]
        obj["digest"] = config_digest(obj)
        pack = tmp_path / "pack.json"
        save_json(pack, obj)
        data = public_pack.parent / "data"
        assert run_command([
            "predict", "--model", str(pack), "--disclose", "demographic_1=0.3",
            "--data", str(data / "data.csv"), "--schema", str(data / "schema.json"),
        ]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: model pack {pack} cannot train on demand: ")


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

    # demographic_2's training std is below 1, so +-1.79e308 overflows to
    # +-inf once standardized
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1.79e308", "-1.79e308"])
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

    def test_non_finite_dose_exits_4_without_a_dose(self, pack_and_row, capsys):
        pack, row = pack_and_row
        catalog, standardizer, bundles, config = pack_from_obj(
            json.loads(pack.read_text())
        )
        hidden, dim = bundles[0].distilled.W1.shape
        # every hidden unit outputs 1e308, so the output sum overflows to inf
        overflowing = MlpModel(
            np.zeros((hidden, dim)), np.full(hidden, 1e308), np.ones(hidden), 0.0
        )
        bundles = [replace(bundles[0], distilled=overflowing)]
        save_json(pack, pack_to_obj(catalog, standardizer, bundles, config))
        assert self.predict(pack, ",".join(f"{k}={v}" for k, v in row.items())) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite dose" in captured.err

    # demographic_1 far below its training values drives the public profile's
    # dose below zero (about -3 mg/week at -150)
    @pytest.mark.parametrize("value", ["-150", "-1e6"])
    def test_non_positive_dose_exits_4_without_a_dose(self, pack_and_row, capsys, value):
        pack, row = pack_and_row
        row["demographic_1"] = value
        assert self.predict(pack, ",".join(f"{k}={v}" for k, v in row.items())) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-positive dose" in captured.err

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

    def test_an_edited_pack_is_checked_again(self, pack_and_row, capsys):
        """A process keeps the last pack's decode by the file's exact text: an
        edit under the old digest is refused, and the restored bytes serve
        the same dose again."""
        pack, row = pack_and_row
        pairs = ",".join(f"{k}={v}" for k, v in row.items())
        original = pack.read_bytes()
        assert self.predict(pack, pairs) == 0
        dose = capsys.readouterr().out
        assert "predicted weekly dose" in dose
        obj = json.loads(original)
        distilled = obj["bundles"][0]["distilled"]
        distilled["b2"] = (float.fromhex(distilled["b2"]) + 1.0).hex()
        save_json(pack, obj)
        assert self.predict(pack, pairs) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "malformed model pack" in captured.err
        pack.write_bytes(original)
        assert self.predict(pack, pairs) == 0
        assert capsys.readouterr().out == dose
        _, standardizer, bundles, _ = load_pack(pack)
        assert isinstance(bundles, tuple)
        for array in (standardizer.means, bundles[0].distilled.W1):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


@pytest.fixture(scope="module")
def catalog_and_standardizer(tmp_path_factory):
    data, schema = synth(tmp_path_factory.mktemp("disclose"), n=60)
    catalog, records = load_and_validate(data, schema)
    return catalog, standardize(records, catalog).standardizer


@pytest.fixture(scope="module")
def public_pack(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("public")
    data, schema = synth(tmp)
    assert run_command([
        "train", "--data", str(data), "--schema", str(schema),
        "--out", str(tmp), "--profile", "public", "--grid", "0", *FAST,
    ]) == 0
    return tmp / "pack.json"


def disclosure_specs(names):
    """Comma-joined items built from catalog names, '=', values and junk."""
    text = st.text(alphabet=st.characters(codec="utf-8"), max_size=8)
    value = st.one_of(
        text,
        st.sampled_from(["A", "B", "C", "nan", "inf", "-inf", "1e999", " 2 ", ""]),
        st.floats(allow_nan=True, allow_infinity=True).map(str),
        st.integers(-10**6, 10**6).map(str),
    )
    name = st.sampled_from(names)
    item = st.one_of(
        st.tuples(name, st.just("="), value).map("".join),
        st.tuples(st.one_of(name, text), st.sampled_from(["=", "", "=="]), value)
        .map("".join),
        text,
    )
    return st.lists(item, max_size=6).map(",".join)


class TestDisclosureSpecs:
    """Whatever ``--disclose`` holds, it parses or is a named data error."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_spec_parses_or_is_data_error(self, catalog_and_standardizer, data):
        catalog, standardizer = catalog_and_standardizer
        spec = data.draw(disclosure_specs(list(catalog.names)))
        try:
            disclosure = _parse_disclosure(spec, catalog, standardizer)
        except DataError:
            return
        assert disclosure.disclosed and len(disclosure.values) <= catalog.d

    @pytest.mark.parametrize("raw, problem", [
        ("x", "unparseable number 'x'"), ("nan", "'nan' is non-finite once standardized"),
    ])
    def test_an_error_names_the_feature_without_its_padding(
        self, catalog_and_standardizer, raw, problem
    ):
        with pytest.raises(DataError) as err:
            _parse_disclosure(f" demographic_1 ={raw}", *catalog_and_standardizer)
        assert str(err.value) == f"feature 'demographic_1': {problem}"

    @pytest.mark.parametrize("spec", [
        ",", "demographic_0", "no_such_feature=1", "=1", "demographic_1=abc",
        "demographic_0=MARTIAN", "demographic_1=1,demographic_1=2",
    ])
    def test_malformed_spec_exits_3_without_a_dose(self, public_pack, capsys, spec):
        assert run_command(["predict", "--model", str(public_pack), "--disclose", spec]) == 3
        captured = capsys.readouterr()
        assert "predicted weekly dose" not in captured.out
        assert captured.err.startswith("error: ")


class TestFixedLambda:
    def test_train_at_fixed_lambda(self, tmp_path):
        data, schema = synth(tmp_path)
        out = tmp_path / "m"
        code = run_command([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--profile", "With all except genotypic",
            "--grid", "0.7", *FAST,
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["With all except genotypic"]["lambda"] == 0.7

    def test_redacted_only_mode_handles_public_profile(self, tmp_path):
        data, schema = synth(tmp_path)
        out = tmp_path / "m"
        code = run_command([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--profile", "public",
            "--profile", "With all except genotypic",
            "--privileged-inputs", "redacted_only", "--grid", "0.5", *FAST,
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"Public patient", "With all except genotypic"}


class TestSweep:
    def test_eleven_point_grid_csv(self, tmp_path):
        data, schema = synth(tmp_path, n=200)
        out = tmp_path / "s"
        code = run_command([
            "train", "--data", str(data), "--schema", str(schema),
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

    def test_outputs_identical_regardless_of_jobs(self, tmp_path):
        data, schema = synth(tmp_path, n=200)
        first, *rest = outputs_by_jobs(tmp_path, [
            "train", "--data", str(data), "--schema", str(schema), *THREE_PROFILES,
            "--grid", "0:1:0.5", "--max-epochs", "25", "--patience", "5",
        ], ("sweep.csv", "pack.json"))
        assert all(run == first for run in rest)
        assert len(first["sweep.csv"].splitlines()) == 1 + 3 * 3

    def test_each_profiles_least_mae_row_carries_its_reported_lambda(self, tmp_path):
        """The table and the report come from one fit: a profile's row of
        least MAE is at the lambda report.json names, a tie going to the
        smaller lambda."""
        data, schema = synth(tmp_path, n=200)
        out = tmp_path / "t"
        assert run_command([
            "train", "--data", str(data), "--schema", str(schema), "--out", str(out),
            *THREE_PROFILES, "--grid", "0:1:0.25", *FAST,
        ]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "pack.json", "report.json", "run_config.json", "sweep.csv",
        ]
        report = json.loads((out / "report.json").read_text())
        _, *rows = read_rows(out / "sweep.csv")
        assert list(dict.fromkeys(name for name, *_ in rows)) == list(report)
        for name, entry in report.items():
            points = [(float(mae), float(lam)) for profile, lam, mae, *_ in rows
                      if profile == name]
            assert len(points) == 5
            assert min(points)[1] == entry["lambda"], name

    def test_the_sweep_command_is_gone(self, tmp_path, capsys):
        """`train` writes the table; a recorded `sweep` run no longer replays."""
        out = tmp_path / "s"
        with pytest.raises(SystemExit) as err:
            run_command(["sweep", "--data", "d.csv", "--schema", "s.json",
                         "--out", str(out)])
        assert err.value.code == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluate:
    @pytest.mark.parametrize("runs", ["0", "-1", "2.5"])
    def test_bad_runs_is_refused_before_the_data_is_read(self, tmp_path, capsys, runs):
        # the data file does not exist: reading it would exit 3
        out = tmp_path / "e"
        with pytest.raises(SystemExit) as err:
            run_command([
                "evaluate", "--data", str(tmp_path / "nope.csv"),
                "--schema", str(tmp_path / "nope.json"), "--out", str(out), "--runs", runs,
            ])
        assert err.value.code == 2
        assert "argument --runs: must be " in capsys.readouterr().err
        assert not out.exists()

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

    def test_tables_restate_the_study(self, tmp_path):
        """Every accuracy.csv and safety.csv cell is its study.json value at six
        significant digits; two runs, so the stds are not all zero."""
        data, schema = synth(tmp_path, n=200)
        out = tmp_path / "e"
        assert run_command([
            "evaluate", "--data", str(data), "--schema", str(schema),
            "--out", str(out), "--runs", "2", "--grid", "0,1", *FAST,
        ]) == 0
        study = json.loads((out / "study.json").read_text())
        arms = {key: arm for key, arm in study.items() if key != "risk_legend"}
        stats = ("mae", "mape", "under", "within", "over")
        for arm in arms.values():
            assert set(arm) == {"model", "profile", "per_run"} | {
                f"{stat}_{part}" for stat in stats for part in ("mean", "std")
            }
            assert len(arm["per_run"]) == 2
        assert any(arm["mae_std"] > 0 for arm in arms.values())

        columns = {
            "accuracy.csv": ["mae_mean", "mae_std", "mape_mean", "mape_std"],
            "safety.csv": ["under_mean", "within_mean", "over_mean",
                           "under_std", "within_std", "over_std"],
        }
        for table, keys in columns.items():
            header, *rows = read_rows(out / table)
            assert header[:2] == ["model", "profile"] and len(header) == 2 + len(keys)
            assert [f"{model}|{profile}" for model, profile, *_ in rows] == sorted(arms)
            for model, profile, *cells in rows:
                arm = arms[f"{model}|{profile}"]
                assert (arm["model"], arm["profile"]) == (model, profile)
                assert cells == [f"{arm[key]:.6g}" for key in keys]

    def test_outputs_identical_regardless_of_jobs(self, tmp_path):
        data, schema = synth(tmp_path, n=200)
        first, *rest = outputs_by_jobs(tmp_path, [
            "evaluate", "--data", str(data), "--schema", str(schema), "--runs", "1",
            "--grid", "0,1", "--max-epochs", "25", "--patience", "5",
        ], ("study.json", "accuracy.csv", "safety.csv"))
        assert all(run == first for run in rest)

    def test_train_and_evaluate_share_one_recipe(self, tmp_path):
        """With the same arguments, run 0 of a study trains every redacting
        profile as `train` does: same split, seed, grid and teacher. The
        public profile's study arm is the plain MLP, so it is left out."""
        data, schema = synth(tmp_path, n=200)
        args = ["--data", str(data), "--schema", str(schema),
                "--seed", "3", "--ratio", "0.6", "--max-epochs", "30"]
        assert run_command(["train", "--out", str(tmp_path / "t"), *args]) == 0
        assert run_command(
            ["evaluate", "--out", str(tmp_path / "e"), "--runs", "1", *args]
        ) == 0
        report = json.loads((tmp_path / "t" / "report.json").read_text())
        study = json.loads((tmp_path / "e" / "study.json").read_text())
        redacting = [name for name in report if name != "Public patient"]
        assert len(redacting) == 8
        for name in redacting:
            assert study[f"distilled|{name}"]["per_run"][0] == report[name]["metrics"]

        _, _, _, config = pack_from_obj(json.loads((tmp_path / "t" / "pack.json").read_text()))
        assert config == DistillationConfig(
            split_ratio=0.6, train=TrainConfig(seed=3, max_epochs=30)
        )


def test_cold_import_leaves_the_pool_out():
    """``import dosedistill.cli`` loads no process pool: serving never fans
    out, so it must not pay the pool's memory or import time."""
    src = str(Path(dosedistill.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, dosedistill.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
