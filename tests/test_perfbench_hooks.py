"""The benchmark's tracer wraps toruskit functions by name; every name must resolve."""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    if not os.path.exists(TRACER):
        pytest.skip("perfbench/tracer.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = load_tracer()
    for mod_name, attr, *_ in tracer.FUNCTIONS:
        module = importlib.import_module("toruskit." + mod_name)
        assert callable(getattr(module, attr, None)), f"toruskit.{mod_name}.{attr}"
    for mod_name, cls_name, attr, *_ in tracer.METHODS:
        cls = getattr(importlib.import_module("toruskit." + mod_name), cls_name, None)
        assert cls is not None, f"toruskit.{mod_name}.{cls_name}"
        assert attr in cls.__dict__, f"toruskit.{mod_name}.{cls_name}.{attr}"
