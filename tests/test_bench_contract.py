"""The benchmark's tracer wraps program functions by name; they must exist.

``bench/tracing.py`` names the functions a traced run records and reads some
of their arguments by position. A rename or a reordered signature would only
show when the traced benchmark runs, so this checks the names and positions.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TRACED


def params(module: str, name: str) -> list[str]:
    fn = getattr(importlib.import_module(f"dosedistill.{module}"), name)
    return list(inspect.signature(fn).parameters)


def test_every_traced_name_resolves(traced):
    assert traced
    for module, name in traced:
        fn = getattr(importlib.import_module(f"dosedistill.{module}"), name, None)
        assert callable(fn), f"dosedistill.{module}.{name}"


def test_positional_arguments_the_tracer_reads(traced):
    assert ("distillation", "train_privileged") in traced
    assert params("distillation", "train_privileged")[:3] == ["train", "profile", "config"]
    assert ("profiles", "train_on_demand") in traced
    assert params("profiles", "train_on_demand")[2] == "disclosure"
