"""Patient profiles: named redaction masks and test-time profile assignment.

A profile marks which features a class of patients withholds. The default
catalog mirrors the experiment layout: one all-disclosing profile, one
"closed" profile per withheld category, and one "strict" profile per
solely-disclosed category. Assignment is feasibility-first: a profile is
eligible only if every feature its model needs was actually disclosed, so a
prediction can never require a withheld value.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

from .dataset import Cohort, FeatureCatalog, FeatureCategory
from .errors import DataError, NoFeasibleProfileError

if TYPE_CHECKING:  # pragma: no cover
    from .distillation import DistillationConfig, DistilledBundle

PUBLIC_PROFILE = "Public patient"


@dataclass(frozen=True)
class Profile:
    """A named redaction mask over a d-dimensional catalog."""

    name: str
    redacted_categories: frozenset[FeatureCategory]
    redacted_features: frozenset[int]
    dim: int

    def __post_init__(self):
        bad = sorted(i for i in self.redacted_features if not 0 <= i < self.dim)
        if bad:
            raise DataError(f"profile {self.name!r}: indices out of range: {bad}")
        if len(self.redacted_features) >= self.dim:
            raise DataError(
                f"profile {self.name!r} must disclose at least one feature"
            )

    @cached_property
    def visible_features(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.dim) if i not in self.redacted_features)

    @cached_property
    def redacted_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.redacted_features))

    @property
    def is_public(self) -> bool:
        return not self.redacted_features


def profile_from_categories(
    name: str, catalog: FeatureCatalog, redacted: frozenset[FeatureCategory]
) -> Profile:
    features = frozenset(
        i for c in redacted for i in catalog.indices_for(c)
    )
    return Profile(name, redacted, features, catalog.d)


@dataclass(frozen=True)
class ProfileCatalog:
    """Ordered profiles; the first entry must disclose everything."""

    profiles: tuple[Profile, ...]

    def __post_init__(self):
        if not self.profiles:
            raise DataError("profile catalog is empty")
        names = [p.name for p in self.profiles]
        if len(set(names)) != len(names):
            raise DataError("profile names must be unique")
        if not self.profiles[0].is_public:
            raise DataError("first profile must be the all-disclosing one")

    def __iter__(self):
        return iter(self.profiles)

    def __len__(self):
        return len(self.profiles)

    @property
    def public(self) -> Profile:
        return self.profiles[0]

    def resolve(self, query: str) -> Profile:
        """Find a profile by exact, case-insensitive, or prefix name match."""
        norm = " ".join(query.lower().split())
        exact = [p for p in self.profiles if p.name.lower() == norm]
        if exact:
            return exact[0]
        hits = [p for p in self.profiles if p.name.lower().startswith(norm)]
        if len(hits) == 1:
            return hits[0]
        options = ", ".join(repr(p.name) for p in self.profiles)
        kind = "ambiguous" if hits else "unknown"
        raise DataError(f"{kind} profile {query!r}; available: {options}")


def default_catalog(catalog: FeatureCatalog) -> ProfileCatalog:
    """Nine profiles: public, four closed, four strict, in category order."""
    for c in FeatureCategory:
        if not catalog.indices_for(c):
            raise DataError(f"catalog has no {c.label} features")
    profiles = [Profile(PUBLIC_PROFILE, frozenset(), frozenset(), catalog.d)]
    for c in FeatureCategory:
        profiles.append(
            profile_from_categories(
                f"With all except {c.label}", catalog, frozenset({c})
            )
        )
    for c in FeatureCategory:
        others = frozenset(set(FeatureCategory) - {c})
        profiles.append(
            profile_from_categories(
                f"{c.label.capitalize()} except others", catalog, others
            )
        )
    return ProfileCatalog(tuple(profiles))


@dataclass(frozen=True)
class Disclosure:
    """What a new patient chose to reveal: values keyed by feature index.
    ``disclosed``, the set of those indices, derives from ``values``."""

    values: Mapping[int, float]

    def __post_init__(self):
        if not self.values:
            raise DataError("a disclosure must reveal at least one feature")

    @cached_property
    def disclosed(self) -> frozenset[int]:
        return frozenset(self.values)


def best_feasible(
    profiles: Sequence[Profile], disclosure: Disclosure
) -> tuple[Profile, bool]:
    """Feasibility-first assignment over an ordered list of profiles."""
    feasible = [
        (pos, p)
        for pos, p in enumerate(profiles)
        if set(p.visible_features) <= disclosure.disclosed
    ]
    if not feasible:
        raise NoFeasibleProfileError(
            "no stored profile fits inside the disclosure; train one on demand"
        )
    _, best = min(feasible, key=lambda pp: (-len(pp[1].visible_features), pp[0]))
    exact = set(best.visible_features) == disclosure.disclosed
    return best, exact


def train_on_demand(
    train: Cohort,
    valid: Cohort,
    disclosure: Disclosure,
    config: "DistillationConfig",
    teachers: dict | None = None,
) -> "DistilledBundle":
    """Build a bundle for a disclosure no stored profile serves.

    The new profile redacts exactly the complement of the disclosed set; its
    imitation weight is picked on ``valid`` from ``config``'s grid.
    ``teachers`` is passed on to ``sweep_profiles``, so on-demand sets
    trained on the same ``train`` and ``config`` can share their teachers.
    """
    from .distillation import sweep_profiles

    d = train.catalog.d
    bad = sorted(i for i in disclosure.disclosed if not 0 <= i < d)
    if bad:
        raise DataError(f"disclosure indices out of range for d={d}: {bad}")
    redacted = frozenset(set(range(d)) - disclosure.disclosed)
    digest = hashlib.sha256(
        ",".join(map(str, sorted(disclosure.disclosed))).encode()
    ).hexdigest()[:8]
    profile = Profile(f"custom-{digest}", frozenset(), redacted, d)
    [(_, bundle)] = sweep_profiles(train, valid, [profile], config, teachers)
    return bundle
