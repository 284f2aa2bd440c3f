"""The benchmark's tracer binds its layer functions by name: every name in
perfbench/spans.py's LAYERS must stay a function of its lossyqpt module."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
_SPANS = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_SPANS)
LAYERS = _SPANS.LAYERS


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_names_are_module_functions(layer):
    module = importlib.import_module(f"lossyqpt.{layer}")
    for name in LAYERS[layer]:
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), f"lossyqpt.{layer}.{name} is not a function"
        assert fn.__module__ == module.__name__, f"lossyqpt.{layer}.{name} is imported"
