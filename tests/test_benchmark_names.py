"""The benchmark's per-layer metrics name functions that must keep existing.

``perfbench`` times the public functions of lorentzseg by their
``<module>.<qualname>`` and reads each per-layer metric of BENCHMARK.json
from those spans, so renaming or removing a named function breaks the
traced benchmark run.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SPAN_FIELDS = ("s", "self_s", "calls")


def span_names():
    layers = json.loads(BENCHMARK.read_text())["per_layer"]
    names = set()
    for layer in layers:
        prefix, _, field = layer["name"].rpartition(".")
        if field in SPAN_FIELDS:
            names.add(prefix)
    return sorted(names)


def resolve(name):
    """The public function, or public classmethod of a public class, that
    the tracer names ``name``; None when there is none."""
    module_name, _, qualname = name.partition(".")
    if any(part.startswith("_") for part in qualname.split(".")):
        return None
    module = importlib.import_module(f"lorentzseg.{module_name}")
    head, _, method = qualname.partition(".")
    obj = vars(module).get(head)
    if method:
        if not inspect.isclass(obj):
            return None
        obj = vars(obj).get(method)
        if not isinstance(obj, classmethod):
            return None
        obj = obj.__func__
    if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
        return None
    return obj if obj.__qualname__ == qualname else None


@pytest.mark.parametrize("name", span_names())
def test_per_layer_name_is_a_public_function(name):
    assert resolve(name) is not None, f"BENCHMARK.json times {name}, which no longer exists"


def test_span_names_found():
    names = span_names()
    assert "grad.grad_distance_cross" in names
    assert "segtoy.DescriptorBank.fit" in names
