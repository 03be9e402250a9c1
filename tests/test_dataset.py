"""Loading, validation, encoding, standardization, splitting, synthesis."""

import ast
import csv
import io
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dosedistill
from dosedistill.dataset import (
    Cohort,
    FeatureCategory,
    StandardizationParams,
    _parse_schema,
    load_and_validate,
    load_bytes,
    load_text,
    parse_and_validate,
    split_cohorts,
    standardize,
)
from dosedistill.errors import DataError
from dosedistill.synthetic import (
    SyntheticSpec,
    generate_synthetic,
    synthetic_latents,
    write_dataset,
)

from conftest import make_catalog, make_rows, write_synth


def write_files(tmp_path, csv_text, schema_text):
    data = tmp_path / "d.csv"
    schema = tmp_path / "s.json"
    data.write_text(csv_text)
    schema.write_text(schema_text)
    return data, schema


BASIC_SCHEMA = """{
  "target": "weekly_dose_mg",
  "features": [
    {"name": "weight", "category": "background", "kind": "numeric"},
    {"name": "race", "category": "demographic", "kind": "categorical"}
  ]
}"""


class TestLoad:
    def test_three_row_csv(self, tmp_path):
        data, schema = write_files(
            tmp_path,
            "weight,race,weekly_dose_mg\n70,A,30\n80,B,40\n90,A,50\n",
            BASIC_SCHEMA,
        )
        catalog, records = load_and_validate(data, schema)
        assert catalog.names == ("weight", "race")
        assert [f.category for f in catalog.features] == [
            FeatureCategory.BACKGROUND,
            FeatureCategory.DEMOGRAPHIC,
        ]
        assert len(records) == 3
        assert records.y[0] == 30.0

    def test_zero_dose_is_error_naming_row(self, tmp_path):
        data, schema = write_files(
            tmp_path,
            "weight,race,weekly_dose_mg\n70,A,30\n80,B,0\n",
            BASIC_SCHEMA,
        )
        with pytest.raises(DataError, match=r"row 3.*positive"):
            load_and_validate(data, schema)

    def test_unknown_column_rejected(self, tmp_path):
        data, schema = write_files(
            tmp_path,
            "weight,race,extra,weekly_dose_mg\n70,A,1,30\n",
            BASIC_SCHEMA,
        )
        with pytest.raises(DataError, match="unknown column.*extra"):
            load_and_validate(data, schema)

    def test_missing_column_rejected(self, tmp_path):
        data, schema = write_files(
            tmp_path, "weight,weekly_dose_mg\n70,30\n", BASIC_SCHEMA
        )
        with pytest.raises(DataError, match="missing.*race"):
            load_and_validate(data, schema)

    def test_unparseable_numeric_names_row_and_column(self, tmp_path):
        data, schema = write_files(
            tmp_path,
            "weight,race,weekly_dose_mg\n70,A,30\nheavy,B,40\n",
            BASIC_SCHEMA,
        )
        with pytest.raises(DataError, match=r"row 3.*'weight'.*heavy"):
            load_and_validate(data, schema)

    def test_nonfinite_cells_rejected(self, tmp_path):
        data, schema = write_files(
            tmp_path,
            "weight,race,weekly_dose_mg\nnan,A,30\n",
            BASIC_SCHEMA,
        )
        with pytest.raises(DataError, match=r"row 2.*'weight'.*non-finite"):
            load_and_validate(data, schema)
        data, schema = write_files(
            tmp_path,
            "weight,race,weekly_dose_mg\n70,A,inf\n",
            BASIC_SCHEMA,
        )
        with pytest.raises(DataError, match=r"row 2.*non-finite"):
            load_and_validate(data, schema)

    def test_bad_utf8_past_the_first_chunk_names_its_file_position(self, tmp_path):
        """The streamed read names the byte's position in the file, as
        ``load_text`` does, not its position in the decoder's chunk."""
        head = "weight,race,weekly_dose_mg\n" + "70,A,30\n" * 2250
        data, schema = write_files(tmp_path, "", BASIC_SCHEMA)
        data.write_bytes(head.encode() + b"80,\xe9,40\n")
        with pytest.raises(DataError) as loaded:
            load_and_validate(data, schema)
        with pytest.raises(DataError) as read:
            load_text(data)
        assert str(loaded.value) == str(read.value)
        assert f"position {len(head) + 3}" in str(loaded.value)

    def test_missing_target_rows_dropped(self, tmp_path):
        data, schema = write_files(
            tmp_path,
            "weight,race,weekly_dose_mg\n70,A,30\n80,B,\n90,A,50\n",
            BASIC_SCHEMA,
        )
        _, records = load_and_validate(data, schema)
        assert list(records.y) == [30.0, 50.0]

    def test_missing_feature_rows_dropped(self, tmp_path):
        data, schema = write_files(
            tmp_path,
            "weight,race,weekly_dose_mg\n70,A,30\n,B,40\n90,A,50\n",
            BASIC_SCHEMA,
        )
        _, records = load_and_validate(data, schema)
        assert len(records) == 2

    def test_a_row_dropped_part_way_leaves_no_cell_behind(self, tmp_path):
        """Row 3 is dropped at its blank ``site`` after its ``race`` label Z
        and its weight were read: Z, seen in no kept row, is no label, and
        the rows after it keep their own cells."""
        schema = BASIC_SCHEMA.replace(
            '"kind": "categorical"}',
            '"kind": "categorical"},\n'
            '    {"name": "site", "category": "background", "kind": "categorical"}',
        )
        data, schema = write_files(
            tmp_path,
            "race,weight,site,weekly_dose_mg\nA,70,s,30\nZ,99,,40\nB,80,t,50\n",
            schema,
        )
        catalog, records = load_and_validate(data, schema)
        assert catalog.names == ("weight", "race", "site")
        assert [f.encoding_map for f in catalog.features] == [
            None, {"A": 0, "B": 1}, {"s": 0, "t": 1},
        ]
        assert records.M.tolist() == [[70.0, 0.0, 0.0], [80.0, 1.0, 1.0]]
        assert list(records.ids) == ["row2", "row4"]
        assert list(records.y) == [30.0, 50.0]

    def test_daily_unit_converted_to_weekly(self, tmp_path):
        schema_daily = BASIC_SCHEMA.replace(
            '"target": "weekly_dose_mg",',
            '"target": "weekly_dose_mg", "target_unit": "daily",',
        )
        data, schema = write_files(
            tmp_path, "weight,race,weekly_dose_mg\n70,A,5\n", schema_daily
        )
        _, records = load_and_validate(data, schema)
        assert records.y[0] == 35.0

    def test_iwpc_shaped_export_d33(self, tmp_path):
        spec = SyntheticSpec(
            n=60, demographic=6, background=24, phenotypic=1, genotypic=2
        )
        data, schema = write_synth(tmp_path, spec, seed=3)
        catalog, records = load_and_validate(data, schema)
        assert catalog.d == 33
        per_cat = {c: len(catalog.indices_for(c)) for c in FeatureCategory}
        assert per_cat == {
            FeatureCategory.DEMOGRAPHIC: 6,
            FeatureCategory.BACKGROUND: 24,
            FeatureCategory.PHENOTYPIC: 1,
            FeatureCategory.GENOTYPIC: 2,
        }


def numeric_records(values):
    return make_rows(np.asarray(values, dtype=float)[:, None], np.full(len(values), 10.0))


class TestEncodeStandardize:
    def test_column_1_2_3(self):
        catalog = make_catalog(1, names=["v"])
        cohort = standardize(numeric_records([1, 2, 3]), catalog)
        params = cohort.standardizer
        np.testing.assert_allclose(
            cohort.X[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4
        )
        assert params.means[0] == pytest.approx(2.0)
        assert params.stds[0] == pytest.approx(0.816496580927726)

    def test_already_standardized_column_unchanged(self):
        col = [-1.224744871391589, 0.0, 1.224744871391589]
        catalog = make_catalog(1, names=["v"])
        cohort = standardize(numeric_records(col), catalog)
        np.testing.assert_allclose(cohort.X[:, 0], col, atol=1e-12)

    def test_categorical_codes_then_standardized(self, tmp_path):
        data, schema = write_files(
            tmp_path,
            "weight,race,weekly_dose_mg\n1,A,30\n2,B,40\n3,A,50\n",
            BASIC_SCHEMA,
        )
        catalog, records = load_and_validate(data, schema)
        race = catalog.features[1]
        assert race.encoding_map == {"A": 0, "B": 1}
        cohort = standardize(records, catalog)
        np.testing.assert_allclose(
            cohort.X[:, 1],
            [-0.7071067811865475, 1.414213562373095, -0.7071067811865475],
            atol=1e-12,
        )

    def test_unseen_label_rejected_after_fit(self, tmp_path):
        data, schema = write_files(
            tmp_path,
            "weight,race,weekly_dose_mg\n1,A,30\n2,B,40\n",
            BASIC_SCHEMA,
        )
        catalog, _ = load_and_validate(data, schema)
        with pytest.raises(DataError, match="unseen label 'C'"):
            catalog.features[1].encode("C")

    def test_zero_variance_column_rejected(self):
        catalog = make_catalog(1, names=["v"])
        with pytest.raises(DataError, match="zero-variance"):
            standardize(numeric_records([5, 5, 5]), catalog)

    def test_fit_on_subset_only(self):
        catalog = make_catalog(1, names=["v"])
        params = standardize(numeric_records([1, 2, 3]), catalog).standardizer
        other = standardize(numeric_records([100]), catalog, params)
        assert params.means[0] == pytest.approx(2.0)
        # the row outside the fit is transformed with the fitted stats
        assert other.X[0, 0] == pytest.approx((100 - 2.0) / 0.816496580927726)

    def test_label_round_trip(self, small_dataset):
        catalog, _ = small_dataset
        for feat in catalog.features:
            if feat.encoding_map:
                labels = {code: label for label, code in feat.encoding_map.items()}
                for label in feat.encoding_map:
                    assert labels[feat.encode(label)] == label


class TestCohortInvariants:
    def cohort(self, X=((1.0,), (2.0,)), y=(30.0, 40.0), ids=("a", "b")):
        params = StandardizationParams(np.zeros(1), np.ones(1))
        return Cohort(np.array(ids, dtype=object), np.array(X), np.array(y),
                      make_catalog(1, names=["v"]), params)

    def test_valid_cohort_accepted(self):
        assert len(self.cohort()) == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_x_or_y_rejected(self, bad):
        with pytest.raises(DataError, match="record b: non-finite"):
            self.cohort(X=((1.0,), (bad,)))
        with pytest.raises(DataError, match="record b: non-finite"):
            self.cohort(y=(30.0, bad))

    @pytest.mark.parametrize("dose", [0.0, -5.0])
    def test_nonpositive_dose_rejected(self, dose):
        with pytest.raises(DataError, match="record a: dose must be positive"):
            self.cohort(y=(dose, 40.0))

    @pytest.mark.parametrize(
        "change",
        [
            {"X": ((1.0,), (2.0,), (3.0,))},
            {"X": ((1.0, 0.0), (2.0, 0.0))},
            {"X": (1.0, 2.0)},
            {"y": (30.0, 40.0, 50.0)},
            {"y": ((30.0, 40.0),)},
            {"ids": ("a",)},
        ],
    )
    def test_shape_mismatch_rejected(self, change):
        with pytest.raises(DataError, match="shapes disagree"):
            self.cohort(**change)


class TestSplit:
    def test_1877_at_065(self, tmp_path):
        spec = SyntheticSpec(n=1877)
        data, schema = write_synth(tmp_path, spec, seed=5)
        catalog, records = load_and_validate(data, schema)
        train, valid = split_cohorts(records, catalog, 0.65, seed=9)
        assert len(train) == 1220  # round(0.65 * 1877)
        assert len(valid) == 657

    def test_same_seed_same_partition(self, small_dataset):
        catalog, records = small_dataset
        t1, v1 = split_cohorts(records, catalog, 0.7, seed=4)
        t2, v2 = split_cohorts(records, catalog, 0.7, seed=4)
        assert list(t1.ids) == list(t2.ids)
        assert list(v1.ids) == list(v2.ids)

    def test_ratio_half_of_four(self):
        records = numeric_records([1, 2, 3, 4])
        catalog = make_catalog(1, names=["v"])
        train, valid = split_cohorts(records, catalog, 0.5, seed=0)
        assert len(train) == 2 and len(valid) == 2

    def test_partition_is_exact(self, small_dataset):
        catalog, records = small_dataset
        train, valid = split_cohorts(records, catalog, 0.65, seed=2)
        got = sorted(train.ids) + sorted(valid.ids)
        assert sorted(got) == sorted(records.ids)
        assert not set(train.ids) & set(valid.ids)

    def test_standardizer_fit_on_train_only(self, small_dataset):
        catalog, records = small_dataset
        train, valid = split_cohorts(records, catalog, 0.65, seed=2)
        assert np.abs(train.X.mean(axis=0)).max() < 1e-9
        assert np.abs(train.X.std(axis=0) - 1).max() < 1e-9
        # validation cohort shares the training standardizer, so it is not
        # exactly centered
        assert train.standardizer is valid.standardizer
        assert np.abs(valid.X.mean(axis=0)).max() > 1e-9

    def test_too_few_records(self):
        catalog = make_catalog(1, names=["v"])
        with pytest.raises(DataError, match="at least 2"):
            split_cohorts(numeric_records([1]), catalog, 0.5, seed=0)

    def test_bad_ratio(self):
        catalog = make_catalog(1, names=["v"])
        with pytest.raises(ValueError):
            split_cohorts(numeric_records([1, 2]), catalog, 1.5, seed=0)


class TestSynthetic:
    def test_deterministic_and_byte_identical(self, tmp_path):
        spec = SyntheticSpec(n=50)
        rows1, schema1 = generate_synthetic(spec, seed=12)
        rows2, schema2 = generate_synthetic(spec, seed=12)
        assert rows1 == rows2 and schema1 == schema2
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        write_dataset(rows1, schema1, a / "d.csv", a / "s.json")
        write_dataset(rows2, schema2, b / "d.csv", b / "s.json")
        assert (a / "d.csv").read_bytes() == (b / "d.csv").read_bytes()
        assert (a / "s.json").read_bytes() == (b / "s.json").read_bytes()

    def test_csv_equals_a_row_by_row_dict_writer(self, tmp_path):
        spec = SyntheticSpec(n=50)
        columns, schema = generate_synthetic(spec, seed=3)
        write_dataset(columns, schema, tmp_path / "d.csv", tmp_path / "s.json")
        fieldnames = ["patient_id", *(f["name"] for f in schema["features"]), "weekly_dose_mg"]
        with (tmp_path / "ref.csv").open("w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames, lineterminator="\n")
            writer.writeheader()
            for i in range(spec.n):
                writer.writerow({name: column[i] for name, column in columns.items()})
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_genotypic_features_are_the_privileged_three_level_columns(self):
        spec = SyntheticSpec(n=300, genotypic=3)
        visible, privileged = spec.partition()
        layout = spec.layout()
        assert privileged == [
            i for i, (_, cat, _) in enumerate(layout) if cat is FeatureCategory.GENOTYPIC
        ] == [11, 12, 13]
        assert sorted(visible + privileged) == list(range(spec.d))
        columns, _ = generate_synthetic(spec, seed=4)
        for name, _, kind in layout:
            if kind == "categorical":
                assert set(columns[name]) == {"A", "B", "C"}

    def test_different_seed_differs(self):
        spec = SyntheticSpec(n=50)
        assert generate_synthetic(spec, 1)[0] != generate_synthetic(spec, 2)[0]

    def test_rho_empirical_correlation(self):
        spec = SyntheticSpec(n=2000, rho=0.8)
        lat = synthetic_latents(spec, seed=21)
        r = np.corrcoef(lat.visible_signal, lat.privileged_signal)[0, 1]
        assert abs(r - 0.8) < 0.1

    def test_nonpositive_dose_spec_rejected(self):
        spec = SyntheticSpec(n=500, base_dose=0.5)
        with pytest.raises(DataError, match="non-positive dose"):
            generate_synthetic(spec, seed=0)

    def test_doses_positive_and_loadable(self, tmp_path):
        data, schema = write_synth(tmp_path, SyntheticSpec(n=80), seed=6)
        _, records = load_and_validate(data, schema)
        assert len(records) == 80
        assert all(records.y > 0)


@settings(max_examples=100, deadline=None)
@given(
    labels=st.sets(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)),
            min_size=1,
            max_size=12,
        ),
        min_size=1,
        max_size=8,
    )
)
def test_encoding_round_trip_property(labels):
    from dosedistill.dataset import Feature

    encoding = {label: code for code, label in enumerate(sorted(labels))}
    feat = Feature("f", FeatureCategory.DEMOGRAPHIC, "categorical", encoding)
    decoded = {code: label for label, code in feat.encoding_map.items()}
    for label in labels:
        assert decoded[feat.encode(label)] == label


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=40),
    ratio=st.floats(min_value=0.2, max_value=0.8),
    seed=st.integers(min_value=0, max_value=999),
)
def test_split_partition_property(n, ratio, seed):
    assume(2 <= round(ratio * n) <= n - 1)  # a 1-row cohort cannot be standardized
    rng = np.random.default_rng(n * 1000 + seed)
    records = numeric_records(rng.standard_normal(n))
    catalog = make_catalog(1, names=["v"])
    train, valid = split_cohorts(records, catalog, ratio, seed)
    ids = sorted([*train.ids, *valid.ids])
    assert ids == sorted(records.ids)
    assert len(train) >= 1 and len(valid) >= 1


def reference_parse(schema: dict, data: bytes, path: str):
    """``parse_and_validate``'s rules, one row at a time: the kept ids, ``M``,
    ``y`` and encoding maps, or the first DataError."""
    target, id_col = schema["target"], schema.get("id")
    scale = 7.0 if schema.get("target_unit") == "daily" else 1.0

    def number(cell, lineno, column):
        try:
            value = float(cell)
        except ValueError:
            raise DataError(
                f"{path}: row {lineno}, column {column!r}: unparseable number {cell!r}"
            ) from None
        if not math.isfinite(value):
            raise DataError(f"{path}: row {lineno}, column {column!r}: non-finite value {cell!r}")
        return value

    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    header = next(reader)
    kept, lineno = [], 1
    for row in reader:
        if not row:
            continue
        lineno += 1
        cell = {name: row[i].strip() if i < len(row) else "" for i, name in enumerate(header)}
        if not cell[target]:
            continue
        dose = number(cell[target], lineno, target)
        if dose <= 0:
            raise DataError(
                f"{path}: row {lineno}, column {target!r}: dose must be positive, "
                f"got {cell[target]}"
            )
        values = []
        for f in schema["features"]:
            name = f["name"]
            if not cell[name]:
                break
            values.append(number(cell[name], lineno, name) if f["kind"] == "numeric" else cell[name])
        else:
            kept.append(((cell[id_col] if id_col else "") or f"row{lineno}", values, dose * scale))
    if not kept:
        raise DataError(f"{path}: no usable rows after validation")
    maps = [
        {label: code for code, label in enumerate(sorted({v[j] for _, v, _ in kept}))}
        if f["kind"] == "categorical" else None
        for j, f in enumerate(schema["features"])
    ]
    M = np.array([[v if m is None else m[v] for v, m in zip(values, maps)]
                  for _, values, _ in kept], dtype=float)
    return [i for i, _, _ in kept], M, np.array([y for _, _, y in kept]), maps


NUMBER_CELLS = ["1", "2.5", "-3", "0", " 4 ", "1e3"] * 3 + ["", " ", "x", "nan", "inf", "1e999"]
LABEL_CELLS = ["A", "B", "c", " A", "B\t", "1"] * 3 + ["", "  "]
DOSE_CELLS = ["30", " 7.5 ", "12", "40"] * 4 + ["", " ", "0", "-2", "x", "nan"]
ID_CELLS = ["", " ", "p1", " p2 ", "row3"]


@st.composite
def small_tables(draw):
    """A schema and CSV bytes: numeric and categorical columns in any header
    order, blanks and padding in any cell, short rows, blank lines, bad
    numbers, ``nan`` and non-positive doses."""
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical"]), min_size=1, max_size=4))
    names = [f"f{j}" for j in range(len(kinds))]
    id_col = draw(st.sampled_from([None, "pid"]))
    schema = {
        "target": "dose", "id": id_col,
        "target_unit": draw(st.sampled_from(["weekly", "daily"])),
        "features": [{"name": n, "category": "background", "kind": k}
                     for n, k in zip(names, kinds)],
    }
    cells = {"dose": DOSE_CELLS, "pid": ID_CELLS} | {
        n: NUMBER_CELLS if k == "numeric" else LABEL_CELLS for n, k in zip(names, kinds)
    }
    header = draw(st.permutations(names + ["dose"] + ([id_col] if id_col else [])))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 10))):
        row = [draw(st.sampled_from(cells[name])) for name in header]
        if draw(st.integers(0, 5)) == 0:  # a short row, or a blank line
            row = row[:draw(st.integers(0, len(row) - 1))]
        lines.append(",".join(row))
    return schema, ("\n".join(lines) + "\n").encode()


@settings(max_examples=300, deadline=None)
@given(table=small_tables())
def test_the_row_loop_matches_a_row_by_row_reference(table):
    schema, data = table
    try:
        ids, M, y, maps = reference_parse(schema, data, "t.csv")
    except DataError as expected:
        with pytest.raises(DataError) as got:
            parse_and_validate(schema, data, "t.csv")
        assert str(got.value) == str(expected)
        return
    catalog, rows = parse_and_validate(schema, data, "t.csv")
    assert list(rows.ids) == ids
    assert rows.M.shape == M.shape and rows.M.tobytes() == M.tobytes()
    assert rows.y.tobytes() == y.tobytes()
    assert [f.encoding_map and list(f.encoding_map.items()) for f in catalog.features] == [
        m and list(m.items()) for m in maps
    ]


def test_parsing_holds_few_bytes_per_kept_row(tmp_path):
    """A numeric cell is held as 8 raw bytes while the CSV is parsed, not as
    a float object. On this 20,000-row, d = 13 cohort the traced peak of the
    parse is about 304 B per kept row with typed column buffers, and about
    546 B with a list of float objects per column."""
    data, schema = write_synth(tmp_path, SyntheticSpec(n=20_000), seed=3)
    checked, raw = _parse_schema(schema), load_bytes(data)
    tracemalloc.start()
    try:
        _, rows = parse_and_validate(checked, raw, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 20_000
    assert peak / len(rows) < 420, f"{peak / len(rows):.0f} B per row"


def test_only_the_dataset_module_touches_files():
    """Every file format is decided in dataset.py: no other module opens,
    reads or writes a file or makes its own CSV writer."""
    banned = ("open(", "read_text(", "write_text(", "read_bytes(", "write_bytes(",
              "csv.writer", "csv.DictWriter")
    package = Path(dosedistill.__file__).parent
    found = [
        f"{path.name}: {token}"
        for path in sorted(package.glob("*.py")) if path.name != "dataset.py"
        for token in banned if token in path.read_text(encoding="utf-8")
    ]
    assert found == []


def _opens_to_write(call: ast.Call) -> bool:
    """Whether ``open(file, mode)`` or ``path.open(mode)`` names a write mode."""
    args = call.args[1:] if isinstance(call.func, ast.Name) else call.args
    modes = [*args[:1], *(k.value for k in call.keywords if k.arg == "mode")]
    return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes)


def _file_reads(node: ast.AST, where: str):
    """The enclosing function of every file read under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _file_reads(child, child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("read_bytes", "read_text") or (
                name == "open" and not _opens_to_write(child)
            ):
                yield where
        yield from _file_reads(child, where)


def test_the_one_file_read_is_load_bytes():
    """Every input file is read by ``dataset.load_bytes``: nothing else in the
    package reads a file's bytes or text, or opens one without a write mode."""
    package = Path(dosedistill.__file__).parent
    reads = [
        (path.name, where)
        for path in sorted(package.glob("*.py"))
        for where in _file_reads(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    ]
    assert reads == [("dataset.py", "load_bytes")]
