"""Pack round trips and format guards."""

import ast
import copy
import inspect
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosedistill import serialize
from dosedistill.cli import run_command
from dosedistill.dataset import load_and_validate, split_cohorts
from dosedistill.distillation import DistillationConfig, sweep_lambda, train_privileged
from dosedistill.errors import DataError
from dosedistill.models import TrainConfig
from dosedistill.profiles import Disclosure, default_catalog, train_on_demand
from dosedistill.serialize import (
    config_digest,
    decode_array,
    encode_array,
    load_json,
    load_pack,
    pack_from_obj,
    pack_to_obj,
    save_json,
)
from dosedistill.synthetic import SyntheticSpec

from conftest import write_synth


def test_array_codec_bit_faithful():
    a = np.array([0.1, -1e-300, 1e300, 7.000000000000001])
    back = decode_array(encode_array(a))
    assert np.array_equal(a, back)
    assert back.dtype == np.float64


DECODERS = {"decode_array", "model_from_obj", "catalog_from_obj", "standardizer_from_obj",
            "report_from_obj", "bundle_from_obj"}


def test_the_per_part_decoders_only_build():
    """A per-part decoder neither branches nor refuses: each value checks
    itself as it is built, and ``pack_from_obj`` refuses the rest by
    encoding the parts again."""
    defs = {node.name: node for node in ast.parse(inspect.getsource(serialize)).body
            if isinstance(node, ast.FunctionDef) and node.name in DECODERS}
    assert set(defs) == DECODERS
    for name, node in defs.items():
        branches = [type(n).__name__ for n in ast.walk(node)
                    if isinstance(n, (ast.Raise, ast.If, ast.IfExp, ast.Try, ast.Assert))]
        assert branches == [], name


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    data, schema = write_synth(tmp_path_factory.mktemp("pack"), SyntheticSpec(n=120), seed=2)
    catalog, records = load_and_validate(data, schema)
    train, valid = split_cohorts(records, catalog, 0.7, seed=0)
    profile = default_catalog(catalog).resolve("With all except genotypic")
    config = DistillationConfig(
        lambda_grid=(0.0, 1.0),
        split_ratio=0.7,
        train=TrainConfig(seed=1, max_epochs=20, patience=5),
    )
    teacher = train_privileged(train, profile, config)
    _, bundle = sweep_lambda(train, valid, profile, config, teacher)
    return catalog, train, bundle, config


def test_pack_round_trip_and_version_guard(trained):
    catalog, train, bundle, config = trained
    obj = pack_to_obj(catalog, train.standardizer, [bundle], config)
    catalog2, standardizer2, bundles2, config2 = pack_from_obj(obj)
    assert catalog2 == catalog
    assert np.array_equal(standardizer2.means, train.standardizer.means)
    assert bundles2[0].lam == bundle.lam
    assert np.array_equal(bundles2[0].distilled.W1, bundle.distilled.W1)
    assert config2 == config
    assert config2.split_ratio == 0.7

    for version in (1, 99):
        obj["format_version"] = version
        with pytest.raises(DataError, match=f"version {version}"):
            pack_from_obj(obj)


def test_pack_refuses_a_temperature_it_cannot_store(trained):
    catalog, train, bundle, config = trained
    hot = replace(config, temperature=50.0)
    with pytest.raises(ValueError, match="temperature"):
        pack_to_obj(catalog, train.standardizer, [bundle], hot)


def test_pack_refuses_a_profile_that_is_not_its_catalogs(trained):
    """A reader knows a stored profile by its name alone, so neither an
    on-demand profile nor a catalog name over another mask can be packed."""
    catalog, train, bundle, config = trained
    custom = train_on_demand(train, train, Disclosure({0: 0.0, 1: 0.0}), config)
    renamed = replace(custom, profile=replace(custom.profile, name=bundle.profile.name))
    for b in (custom, renamed):
        with pytest.raises(ValueError, match=f"profile {b.profile.name!r} is not one of"):
            pack_to_obj(catalog, train.standardizer, [bundle, b], config)


def key_paths(obj, prefix=()):
    """Every path to a dict key in a pack, the labels of an encoding map included."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield (*prefix, key)
            yield from key_paths(value, (*prefix, key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from key_paths(value, (*prefix, i))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pack_missing_any_key_is_data_error(trained, data):
    catalog, train, bundle, config = trained
    obj = pack_to_obj(catalog, train.standardizer, [bundle], config)
    path = data.draw(st.sampled_from(list(key_paths(obj))))
    broken = copy.deepcopy(obj)
    parent = broken
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
    with pytest.raises(DataError):
        pack_from_obj(broken)


def test_pack_that_lost_its_top_label_is_data_error(trained):
    catalog, train, bundle, config = trained
    obj = pack_to_obj(catalog, train.standardizer, [bundle], config)
    labels = next(f["encoding_map"] for f in obj["catalog"]["features"] if f["encoding_map"])
    # the codes left still run 0..k-1, so only the digest can tell
    del labels[max(labels, key=labels.get)]
    with pytest.raises(DataError, match="malformed model pack"):
        pack_from_obj(obj)


@pytest.mark.parametrize("key, value", [
    ("standardizer", []), ("catalog", "x"), ("bundles", {"a": 1}), ("train_config", None),
    ("lambda_grid", "x"), ("privileged_inputs", 3), ("split_ratio", "0.7"),
])
def test_pack_mistyped_value_is_data_error(trained, key, value):
    catalog, train, bundle, config = trained
    obj = pack_to_obj(catalog, train.standardizer, [bundle], config)
    obj[key] = value
    with pytest.raises(DataError, match="malformed model pack"):
        pack_from_obj(obj)


@pytest.mark.parametrize("ratio", [0, 1, 1.5])
def test_pack_with_an_out_of_range_recipe_is_data_error(trained, ratio):
    """A recipe no config can hold is refused on load, even under a valid
    digest, so neither the stored nor the on-demand path serves from it."""
    catalog, train, bundle, config = trained
    obj = pack_to_obj(catalog, train.standardizer, [bundle], config)
    obj["split_ratio"] = ratio
    del obj["digest"]
    obj["digest"] = config_digest(obj)
    with pytest.raises(DataError, match="malformed model pack"):
        pack_from_obj(obj)


def negative_count(metrics):
    """Under -5, with within raised by as many: the size and every
    percentage agree with the counts."""
    s = metrics["safety"]
    s.update(under=-5, within=s["within"] + s["under"] + 5)
    for count in ("under", "within", "over"):
        s[f"{count}_pct"] = 100.0 * s[count] / metrics["n"]


@pytest.mark.parametrize("edit", [
    lambda metrics: metrics.update(n=metrics["n"] + 1),
    lambda metrics: metrics["safety"].update(under=0, within=0, over=0),
    negative_count,
], ids=["n-disagrees-with-counts", "all-counts-zero", "negative-count"])
def test_pack_with_report_counts_no_evaluation_gives_is_data_error(trained, edit):
    """A report's size is its counts' sum, and at least one, even under a
    valid digest."""
    catalog, train, bundle, config = trained
    obj = pack_to_obj(catalog, train.standardizer, [bundle], config)
    edit(obj["bundles"][0]["metrics"])
    del obj["digest"]
    obj["digest"] = config_digest(obj)
    with pytest.raises(DataError, match="malformed model pack"):
        pack_from_obj(obj)


def shorten(encoded):
    return encode_array(decode_array(encoded)[:-1])


NOT_ITS_PARTS = "it is not what its decoded parts encode to"


@pytest.mark.parametrize("edit, message", [
    (lambda pack: pack["bundles"][0]["distilled"].update(b2="0x1p+2000"), "OverflowError"),
    (lambda pack: pack["bundles"][0]["profile"].update(dim=10**30), NOT_ITS_PARTS),
    (lambda pack: pack["bundles"][0]["distilled"].update(
        b1=shorten(pack["bundles"][0]["distilled"]["b1"])), "parameter shapes are inconsistent"),
    (lambda pack: pack["standardizer"].update(stds=shorten(pack["standardizer"]["stds"])),
     "means/stds must be equal-length vectors"),
    (lambda pack: pack["catalog"]["features"][1].update(
        name=pack["catalog"]["features"][0]["name"]), "duplicate feature names"),
    (lambda pack: pack["bundles"][0]["distilled"].update(kind="forest"), NOT_ITS_PARTS),
], ids=["b2-overflows", "dim-not-the-catalogs", "W1-b1-shapes-disagree",
        "means-stds-lengths-differ", "catalog-repeats-a-name", "kind-forest"])
def test_pack_whose_bundle_cannot_be_built_is_data_error(trained, edit, message):
    """A bias beyond a float, a profile as wide as no catalog, parameters or a
    standardizer whose shapes disagree, a catalog that names a feature twice
    and a model kind but ``mlp`` are refused under a valid digest; a bundle
    serves the catalog's profile of its name, so no profile 10**30 wide,
    which would exhaust memory, is ever built."""
    catalog, train, bundle, config = trained
    obj = pack_to_obj(catalog, train.standardizer, [bundle], config)
    edit(obj)
    del obj["digest"]
    obj["digest"] = config_digest(obj)
    with pytest.raises(DataError, match=f"malformed model pack: .*{message}"):
        pack_from_obj(obj)


def re_sign(obj, path, value):
    """Set the value at ``path`` of a pack (map it, when ``value`` is
    callable) and give the pack the digest of its new body."""
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value(parent[path[-1]]) if callable(value) else value
    del obj["digest"]
    obj["digest"] = config_digest(obj)


@pytest.mark.parametrize("path, value", [
    *((("bundles", 0, "lambda"), v) for v in ("x", [], None, math.nan, -1, True, 0.5)),
    *((("bundles", 0, "metrics", "mae"), v) for v in ("x", [], None, math.nan, -1, True)),
    (("bundles", 0, "metrics", "mape"), math.inf),
    (("bundles", 0, "metrics"), lambda m: m | {  # a float count, and n to match
        "n": float(m["n"]), "safety": m["safety"] | {"over": float(m["safety"]["over"])}}),
    (("bundles", 0, "profile", "name"), ""),
    (("bundles", 0, "profile", "name"), 7),
    (("bundles", 0, "profile", "name"), "custom-0000"),
    (("bundles", 0, "profile", "redacted_features", 0), 0),  # a demographic column
    (("lambda_grid",), [False, True]),
    (("train_config", "seed"), "x"),
    (("train_config", "seed"), -1),
    (("train_config", "hidden"), 1e30),
    (("train_config", "patience"), 1.5),
    (("train_config", "learning_rate"), True),
    *((("train_config", "adam_eps"), v) for v in (math.nan, -1, 0, math.inf)),
    pytest.param(("catalog", "features"), lambda fs: [f | {"category": "demographic"} for f in fs],
                 id="catalog-lacks-a-category"),
], ids=lambda x: "-".join(map(str, x)) if isinstance(x, tuple) else
   "float-count" if callable(x) else repr(x))
def test_pack_whose_values_mean_nothing_is_data_error(trained, path, value):
    """Under a valid digest, a bundle's lambda is a number on the pack's grid,
    its errors are finite numbers of at least 0, its counts whole numbers and
    its profile the catalog's of that name, mask and all, the catalog has
    every category, and the recipe's fields are numbers in range, whole where
    they count; a bool is no number here."""
    catalog, train, bundle, config = trained
    obj = pack_to_obj(catalog, train.standardizer, [bundle], config)
    re_sign(obj, path, value)
    with pytest.raises(DataError, match="malformed model pack"):
        pack_from_obj(obj)


def leaf_paths(obj, prefix=()):
    """Every path to a value of a pack that is not a non-empty dict or list."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from leaf_paths(value, (*prefix, key))
        else:
            yield (*prefix, key)


FUZZ_VALUES = [None, True, -1, 0, 1e30, -1e300, math.nan, "x", [], {}, "0x1p+2000", 1.5]
RECIPE_KEYS = ("train_config", "lambda_grid", "privileged_inputs", "split_ratio")
# in range for most fields of the recipe, so that an edit of it often trains
IN_RANGE = [1, 2, 0.5, 1e-3]
ARRAYS = ("W1", "b1", "w2", "means", "stds")
ELEMENT_VALUES = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e300, -1e300, 1e-300]


def set_element(index, value):
    """A map of an encoded array that sets its element ``index`` (modulo its size)."""
    def edit(encoded):
        a = decode_array(encoded).copy()
        a.flat[index % a.size] = value
        return encode_array(a)
    return edit


@pytest.fixture(scope="module")
def served_pack(tmp_path_factory):
    """A two-profile pack from `train`, a disclosure it serves, a
    demographic-only one that only on-demand training serves, the options
    that train it, and a path for an edited copy."""
    tmp = tmp_path_factory.mktemp("fuzz")
    data, schema = write_synth(tmp, SyntheticSpec(n=120), seed=4)
    assert run_command([
        "train", "--data", str(data), "--schema", str(schema), "--out", str(tmp / "m"),
        "--profile", "public", "--profile", "With all except genotypic",
        "--grid", "0,0.5", "--max-epochs", "5", "--patience", "2", "--jobs", "1",
    ]) == 0
    header, first = data.read_text().splitlines()[:2]
    named = [
        f"{name}={value}" for name, value in zip(header.split(","), first.split(","))
        if name not in ("patient_id", "weekly_dose_mg")
    ]
    disclosures = {
        False: ",".join(named),
        True: ",".join(p for p in named if p.startswith("demographic_")),
    }
    return (load_json(tmp / "m" / "pack.json"), disclosures,
            ["--data", str(data), "--schema", str(schema)], tmp / "edited.json")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_pack_with_any_one_leaf_re_signed_is_served_or_refused(served_pack, data):
    """``predict`` on a pack with one leaf set to an odd value, re-signed,
    exits 0, 3 or 4 and never raises, whether a stored profile serves or the
    pack's recipe trains one on demand (a recipe leaf may also take a value
    in range, so that it trains); half the stored draws set one element of
    a stored array, or a bias to a non-finite, instead; a pack it serves
    decodes to bundles whose fields mean what they say."""
    obj, disclosures, data_options, pack = served_pack
    obj = copy.deepcopy(obj)
    on_demand = data.draw(st.booleans())  # then a leaf of the recipe it trains by
    in_array = not on_demand and data.draw(st.booleans())
    leaves = [p for p in leaf_paths(obj) if p != ("digest",)
              and (not on_demand or p[0] in RECIPE_KEYS)]
    if in_array:
        leaves = [p[:-1] if p[-1] == "data" else p for p in leaves
                  if p[-1] == "b2" or (p[-1] == "data" and p[-2] in ARRAYS)]
    path = data.draw(st.sampled_from(leaves))
    values = st.sampled_from(FUZZ_VALUES)
    if on_demand:
        values = st.one_of(values, st.sampled_from(IN_RANGE))
    elif in_array and path[-1] == "b2":
        values = st.sampled_from(["inf", "-inf", "nan"])
    elif in_array:
        values = st.builds(set_element, st.integers(0, 10**4), st.sampled_from(ELEMENT_VALUES))
    re_sign(obj, path, data.draw(values))
    save_json(pack, obj)
    code = run_command(["predict", "--model", str(pack), "--disclose", disclosures[on_demand],
                        *(data_options if on_demand else [])])
    assert code in (0, 3, 4), path
    if code == 0:
        _, _, bundles, config = load_pack(pack)
        for b in bundles:
            assert type(b.lam) in (int, float) and b.lam in config.lambda_grid, path
            for value in (b.metrics.mae, b.metrics.mape):
                assert type(value) in (int, float) and 0 <= value < math.inf, path
            counts = (b.metrics.under, b.metrics.within, b.metrics.over)
            assert all(type(c) is int for c in counts), path
            assert type(b.profile.name) is str and b.profile.name, path


def test_load_pack_gives_each_thread_the_decode_of_the_file_it_read(trained, tmp_path):
    """Threads alternating two packs share one kept decode; none may be
    served the other file's decode when the kept one is replaced under it."""
    catalog, train, bundle, config = trained
    packs = []
    for ratio in (0.6, 0.7):
        path = tmp_path / f"pack-{ratio}.json"
        recipe = replace(config, split_ratio=ratio)
        save_json(path, pack_to_obj(catalog, train.standardizer, [bundle], recipe))
        packs.append((path, ratio))
    wrong = []

    def alternate(start):
        for i in range(start, start + 100):
            path, ratio = packs[i % 2]
            if load_pack(path)[3].split_ratio != ratio:
                wrong.append(path.name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=alternate, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
