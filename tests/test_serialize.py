"""Pack round trips and format guards."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosedistill.dataset import load_and_validate, split_cohorts
from dosedistill.distillation import DistillationConfig, sweep_lambda
from dosedistill.errors import DataError
from dosedistill.models import TrainConfig
from dosedistill.profiles import default_catalog
from dosedistill.serialize import (
    decode_array,
    encode_array,
    model_from_obj,
    pack_from_obj,
    pack_to_obj,
)
from dosedistill.synthetic import SyntheticSpec

from conftest import write_synth


def test_array_codec_bit_faithful():
    a = np.array([0.1, -1e-300, 1e300, 7.000000000000001])
    back = decode_array(encode_array(a))
    assert np.array_equal(a, back)
    assert back.dtype == np.float64


def test_unknown_model_kind_rejected():
    with pytest.raises(DataError, match="unknown model kind"):
        model_from_obj({"kind": "forest"})


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    data, schema = write_synth(tmp_path_factory.mktemp("pack"), SyntheticSpec(n=120), seed=2)
    catalog, records = load_and_validate(data, schema)
    train, valid = split_cohorts(records, catalog, 0.7, seed=0)
    profile = default_catalog(catalog).by_name("Genotypic except others")
    config = DistillationConfig(
        lambda_grid=(0.0, 1.0), train=TrainConfig(seed=1, max_epochs=20, patience=5)
    )
    _, bundle = sweep_lambda(train, valid, profile, config)
    return catalog, train, bundle, config


def test_pack_round_trip_and_version_guard(trained):
    catalog, train, bundle, config = trained
    obj = pack_to_obj(catalog, train.standardizer, [bundle], config, 0.7)
    catalog2, standardizer2, bundles2, config2, ratio2 = pack_from_obj(obj)
    assert catalog2 == catalog
    assert np.array_equal(standardizer2.means, train.standardizer.means)
    assert bundles2[0].lam == bundle.lam
    assert np.array_equal(bundles2[0].distilled.W1, bundle.distilled.W1)
    assert config2 == config
    assert ratio2 == 0.7

    for version in (1, 99):
        obj["format_version"] = version
        with pytest.raises(DataError, match=f"version {version}"):
            pack_from_obj(obj)


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
    obj = pack_to_obj(catalog, train.standardizer, [bundle], config, 0.7)
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
    obj = pack_to_obj(catalog, train.standardizer, [bundle], config, 0.7)
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
    obj = pack_to_obj(catalog, train.standardizer, [bundle], config, 0.7)
    obj[key] = value
    with pytest.raises(DataError, match="malformed model pack"):
        pack_from_obj(obj)
