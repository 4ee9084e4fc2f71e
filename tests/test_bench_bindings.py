"""The benchmark tracer wraps package functions at the bindings their
callers look up (perfbench/tracer.py). A refactor that renames or drops one
of those bindings would break the traced benchmark run; these tests make it
fail here first. The tracer module is only imported, never installed."""

import importlib
import importlib.util
from pathlib import Path

import pytest
import scipy.interpolate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("binding", _tracer().FUNCTION_BINDINGS,
                         ids=lambda b: f"{b[0]}.{b[1]}")
def test_function_binding_resolves(binding):
    module, attr, _span = binding
    assert callable(getattr(importlib.import_module(module), attr))


def test_rk_binding_resolves():
    module, attr = _tracer().RK_BINDING
    from hhlab.rk import AdaptiveRK
    assert getattr(importlib.import_module(module), attr) is AdaptiveRK


def test_radial_cubic_spline_is_scipys():
    import hhlab.radial
    assert hhlab.radial.CubicSpline is scipy.interpolate.CubicSpline
