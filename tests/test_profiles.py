"""Profile masks, assignment with fallbacks, on-demand training."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosedistill.dataset import FeatureCategory, split_cohorts
from dosedistill.distillation import DistillationConfig
from dosedistill.errors import DataError, NoFeasibleProfileError
from dosedistill.models import TrainConfig
from dosedistill.profiles import (
    Disclosure,
    Profile,
    best_feasible,
    default_catalog,
    train_on_demand,
)
from dosedistill.synthetic import SyntheticSpec

from conftest import make_catalog, write_synth

CAT = FeatureCategory

# warfarin-style layout: 2 demographic, 3 background, 1 phenotypic, 2 genotypic
WARF_NAMES = [
    "race", "age", "weight", "rifampicin", "cordarone",
    "smoker", "Cyp2C9", "VKORC1",
]
WARF_CATS = [
    CAT.DEMOGRAPHIC, CAT.DEMOGRAPHIC,
    CAT.BACKGROUND, CAT.BACKGROUND, CAT.BACKGROUND,
    CAT.PHENOTYPIC,
    CAT.GENOTYPIC, CAT.GENOTYPIC,
]


@pytest.fixture
def warf_catalog():
    return make_catalog(8, categories=WARF_CATS, names=WARF_NAMES)


def disclosure_of(indices):
    return Disclosure({i: 0.0 for i in indices})


class TestDefaultCatalog:
    def test_nine_profiles_public_first(self, warf_catalog):
        profiles = default_catalog(warf_catalog)
        assert len(profiles) == 9
        assert profiles.public.name == "Public patient"
        assert profiles.public.redacted_features == frozenset()

    def test_closed_genotypic_redacts_both_genes(self, warf_catalog):
        profiles = default_catalog(warf_catalog)
        closed = profiles.resolve("With all except genotypic")
        redacted_names = {WARF_NAMES[i] for i in closed.redacted_features}
        assert redacted_names == {"Cyp2C9", "VKORC1"}

    def test_strict_phenotypic_discloses_smoker_only(self, warf_catalog):
        profiles = default_catalog(warf_catalog)
        strict = profiles.resolve("Phenotypic except others")
        assert [WARF_NAMES[i] for i in strict.visible_features] == ["smoker"]

    def test_category_without_features_rejected(self):
        catalog = make_catalog(3, categories=[CAT.DEMOGRAPHIC] * 3)
        with pytest.raises(DataError, match="no background"):
            default_catalog(catalog)

    def test_resolve_names(self, warf_catalog):
        profiles = default_catalog(warf_catalog)
        assert profiles.resolve("public").name == "Public patient"
        assert profiles.resolve("With all except genotypic").name == (
            "With all except genotypic"
        )
        with pytest.raises(DataError, match="ambiguous|unknown"):
            profiles.resolve("With all")


class TestApplyMask:
    def test_public_identity(self, warf_catalog):
        profiles = default_catalog(warf_catalog)
        x = np.arange(8.0)
        np.testing.assert_array_equal(x[list(profiles.public.visible_features)], x)
        assert profiles.public.redacted_sorted == ()

    def test_split_preserves_order(self):
        profile = Profile("p", frozenset(), frozenset({0, 1}), 4)
        x = np.array([10.0, 11.0, 12.0, 13.0])
        np.testing.assert_array_equal(x[list(profile.visible_features)], [12.0, 13.0])
        np.testing.assert_array_equal(x[list(profile.redacted_sorted)], [10.0, 11.0])

    def test_profile_must_disclose_something(self):
        with pytest.raises(DataError, match="at least one"):
            Profile("nothing", frozenset(), frozenset({0, 1}), 2)


class TestAssignment:
    def test_full_disclosure_is_public_exact(self, warf_catalog):
        profiles = default_catalog(warf_catalog)
        profile, exact = best_feasible(profiles, disclosure_of(range(8)))
        assert profile.name == "Public patient" and exact

    def test_all_but_genotypic_exact(self, warf_catalog):
        profiles = default_catalog(warf_catalog)
        profile, exact = best_feasible(profiles, disclosure_of(range(6)))
        assert profile.name == "With all except genotypic" and exact

    def test_pheno_plus_geno_falls_back_to_larger_usable_set(self, warf_catalog):
        profiles = default_catalog(warf_catalog)
        disclosure = disclosure_of([5, 6, 7])  # smoker + both genes, no exact match

        # oracle: apply the stated rule over all nine masks directly
        feasible = [
            p for p in profiles
            if set(p.visible_features) <= disclosure.disclosed
        ]
        expected = max(feasible, key=lambda p: len(p.visible_features))

        profile, exact = best_feasible(profiles, disclosure)
        assert profile.name == expected.name == "Genotypic except others"
        assert not exact

    def test_no_feasible_profile_raises(self, warf_catalog):
        profiles = default_catalog(warf_catalog)
        with pytest.raises(NoFeasibleProfileError):
            best_feasible(profiles, disclosure_of([0]))  # race alone fits nothing

    def test_empty_disclosure_rejected(self):
        with pytest.raises(DataError):
            Disclosure({})


@settings(max_examples=200, deadline=None)
@given(subset=st.sets(st.integers(min_value=0, max_value=7), min_size=1))
def test_assignment_never_needs_withheld_feature(subset):
    catalog = make_catalog(8, categories=WARF_CATS, names=WARF_NAMES)
    profiles = default_catalog(catalog)
    disclosure = disclosure_of(subset)
    try:
        profile, exact = best_feasible(profiles, disclosure)
    except NoFeasibleProfileError:
        return
    assert set(profile.visible_features) <= disclosure.disclosed
    if exact:
        assert set(profile.visible_features) == disclosure.disclosed


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_exact_mask_disclosures_return_exact(data):
    catalog = make_catalog(8, categories=WARF_CATS, names=WARF_NAMES)
    profiles = default_catalog(catalog)
    profile = data.draw(st.sampled_from(list(profiles.profiles)))
    got, exact = best_feasible(profiles, disclosure_of(profile.visible_features))
    assert exact
    assert set(got.visible_features) == set(profile.visible_features)


class TestTrainOnDemand:
    def test_desk_scale_completes_quickly(self, tmp_path):
        from dosedistill.dataset import load_and_validate

        spec = SyntheticSpec(n=1500, demographic=6, background=10)
        data, schema = write_synth(tmp_path, spec, seed=4)
        catalog, records = load_and_validate(data, schema)
        train, valid = split_cohorts(records, catalog, 0.7, seed=1)
        config = DistillationConfig(train=TrainConfig(seed=3))

        start = time.monotonic()
        bundle = train_on_demand(train, valid, disclosure_of(range(10)), config)
        assert time.monotonic() - start < 60.0
        assert bundle.profile.visible_features == tuple(range(10))
