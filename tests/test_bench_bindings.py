"""The benchmark tracer wraps package functions at the bindings their
callers look up (perfbench/tracer.py). A refactor that renames or drops one
of those bindings would break the traced benchmark run; these tests make it
fail here first. The tracer module is only imported, never installed."""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
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


def test_composition_quadrature_pairs_radial_then_angular(monkeypatch):
    """The tracer counts kernels.quad_points by pairing consecutive
    panel_quadrature calls (radial, then angular) into one tensor mesh."""
    import math

    import numpy as np

    import hhlab.kernels as kernels

    calls = []
    real = kernels.panel_quadrature

    def recording(breaks, order):
        nodes, weights = real(breaks, order)
        calls.append((float(breaks[-1]), nodes.size))
        return nodes, weights

    monkeypatch.setattr(kernels, "panel_quadrature", recording)
    d = 1.5
    kernels.riesz_compose_check(1.2, 1.7, np.zeros(4),
                                np.array([d, 0.0, 0.0, 0.0]), 4)
    assert len(calls) == 4
    assert [end for end, _ in calls] == pytest.approx(
        [400.0 * d, math.pi, 400.0 * d, math.pi])
    # the fine and the coarse level at the default budget
    levels = [(24, 26, 8), (14, 15, 6)]
    for (_, n_r), (_, n_theta), level in zip(calls[::2], calls[1::2],
                                             levels):
        assert n_r * n_theta <= kernels._mesh_cost(*level)
