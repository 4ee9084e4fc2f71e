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


def test_radial_params_are_numerics_params():
    """perfbench's workload and reference recorder import HardyHenonParams
    from hhlab.radial; the class lives in hhlab.numerics."""
    import hhlab.numerics
    import hhlab.radial
    assert hhlab.radial.HardyHenonParams is hhlab.numerics.HardyHenonParams


def test_radial_cubic_spline_is_scipys():
    import hhlab.radial
    assert hhlab.radial.CubicSpline is scipy.interpolate.CubicSpline


def test_composition_quadrature_pairs_radial_then_angular(monkeypatch):
    """The tracer counts kernels.quad_points by pairing consecutive
    panel_quadrature calls (radial, then angular) into one tensor mesh.
    Each refinement level's mesh is built once per process at unit
    distance, so a check at another distance builds nothing."""
    import hhlab.kernels as kernels

    calls = []
    real = kernels.panel_quadrature

    def recording(breaks, order):
        nodes, weights = real(breaks, order)
        calls.append((float(breaks[-1]), nodes.size))
        return nodes, weights

    monkeypatch.setattr(kernels, "panel_quadrature", recording)
    kernels._unit_mesh.cache_clear()
    kernels.riesz_compose_check(1.2, 1.7, np.zeros(4),
                                np.array([1.5, 0.0, 0.0, 0.0]), 4)
    assert len(calls) == 4
    assert [end for end, _ in calls] == pytest.approx(
        [400.0, math.pi, 400.0, math.pi])
    # the fine then the coarse level: the radial mesh has exactly
    # 3 n_sing + 10 panels of the orders _composition_mesh gives them, the
    # angular one exactly n_theta of the level's order
    for (_, n_r), (_, n_theta), (n_sing, theta_panels, order) in zip(
            calls[::2], calls[1::2], kernels._LEVELS):
        breaks, orders = kernels._composition_mesh(n_sing, order)
        assert len(orders) == breaks.size - 1 == 3 * n_sing + 10
        assert n_r == sum(orders)
        assert n_theta == theta_panels * order
    kernels.riesz_compose_check(1.2, 1.7, np.zeros(4),
                                np.array([0.0, 0.3, 0.0, 0.0]), 4)
    assert len(calls) == 4


def test_sample_builds_its_meshes_and_checks_through_kernels(monkeypatch):
    """A composition sample builds both levels' meshes in its first check,
    radial then angular per level, so the paired panel_quadrature calls
    count each level once, and every check reaches riesz_compose_check
    through the kernels module, the binding the tracer wraps, in draw
    order."""
    import hhlab.checks as checks
    import hhlab.kernels as kernels

    traced = {(module, attr) for module, attr, _ in _tracer().FUNCTION_BINDINGS}
    assert {("hhlab.kernels", "panel_quadrature"),
            ("hhlab.kernels", "riesz_compose_check")} <= traced
    events = []
    real_quadrature = kernels.panel_quadrature
    real_check = kernels.riesz_compose_check

    def recording(breaks, order):
        nodes, weights = real_quadrature(breaks, order)
        events.append(("quadrature", float(breaks[-1]), nodes.size))
        return nodes, weights

    def counting(*args):
        events.append(("check", args[4]))
        return real_check(*args)

    monkeypatch.setattr(kernels, "panel_quadrature", recording)
    monkeypatch.setattr(kernels, "riesz_compose_check", counting)
    kernels._unit_mesh.cache_clear()
    kernels._angular_weights.cache_clear()
    per_n = 16
    gaps = checks.composition_sample(np.random.default_rng(5), per_n)
    assert len(gaps) == 2 * per_n
    assert max(g["rel_gap"] for g in gaps) < checks.COMPOSITION_TOL
    quadratures = events[1:5]
    assert [e[0] for e in quadratures] == ["quadrature"] * 4
    assert [e[1] for e in quadratures] == pytest.approx(
        [400.0, math.pi, 400.0, math.pi])
    for (_, _, n_r), (_, _, n_theta), (n_sing, theta_panels, order) in zip(
            quadratures[::2], quadratures[1::2], kernels._LEVELS):
        assert n_r == sum(kernels._composition_mesh(n_sing, order)[1])
        assert n_theta == theta_panels * order
    assert events[:1] + events[5:] == \
        [("check", 4)] * per_n + [("check", 5)] * per_n


def test_every_green_solve_of_a_solve_is_traced(monkeypatch):
    """navier.green_solves_per_solve counts the Green solves the tracer sees
    under `hhlab solve`. Each one that solve_positive makes must pass
    through navier's iterated_green binding, which the tracer wraps; it is
    reached by apply_K, by the Newton Jacobian products and by the
    eigenpair's inverse power iteration (first_eigenpair). Inside, each
    iterated_green reaches its m layers through radial's poisson_solve_ball,
    which the tracer also wraps, so radial.poisson_solve_ball.calls counts
    every Green solve as well. navier's own poisson_solve_ball binding
    (torsion_function's) is not reached."""
    import hhlab.navier as navier
    import hhlab.radial as radial
    from hhlab.radial import HardyHenonParams

    names = ("apply_K", "iterated_green", "poisson_solve_ball",
             "first_eigenpair")
    traced = {(module, attr) for module, attr, _ in _tracer().FUNCTION_BINDINGS}
    assert {("hhlab.navier", name) for name in names} <= traced
    assert ("hhlab.radial", "poisson_solve_ball") in traced

    calls = dict.fromkeys(names, 0)
    solves = {"inside": 0, "outside": 0}
    # open calls of each wrapped navier binding
    depth = dict.fromkeys(names, 0)
    # radial poisson_solve_ball calls made inside navier's iterated_green,
    # and the iterated_green calls made inside first_eigenpair
    chain = {"layers": 0, "eigen": 0}

    def counting(name):
        real = getattr(navier, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            chain["eigen"] += (name == "iterated_green"
                               and depth["first_eigenpair"] > 0)
            depth[name] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[name] -= 1
        return wrapper

    for name in names:
        monkeypatch.setattr(navier, name, counting(name))
    real_layer = radial.poisson_solve_ball

    def counted_layer(*args, **kwargs):
        chain["layers"] += depth["iterated_green"] > 0
        return real_layer(*args, **kwargs)

    monkeypatch.setattr(radial, "poisson_solve_ball", counted_layer)
    real_solve = radial._GreenSolve.solve

    def counted_solve(self, *args, **kwargs):
        solves["inside" if any(depth.values()) else "outside"] += 1
        return real_solve(self, *args, **kwargs)

    monkeypatch.setattr(radial._GreenSolve, "solve", counted_solve)
    m = 2
    problem = navier.NavierProblem(HardyHenonParams(4, m, 0.0, 2.0, 0.5))
    sol = navier.solve_positive(problem, problem.default_grid(129))
    assert calls["poisson_solve_ball"] == 0
    assert solves["outside"] == 0
    assert solves["inside"] == (m * calls["iterated_green"]
                                + calls["poisson_solve_ball"])
    assert chain["layers"] == m * calls["iterated_green"]
    assert sol.stats.gmres_products > 0
    assert chain["eigen"] > 0
    assert calls["iterated_green"] == (calls["apply_K"]
                                       + sol.stats.gmres_products
                                       + chain["eigen"])


def test_every_weighted_cumulative_of_a_solve_is_traced(monkeypatch):
    """radial.weighted_cumulative counts the calls the tracer sees at the
    bindings it wraps under that span name. Every call the Liouville
    representation check makes (`checks.bubble_representation`) must go
    through one of them; solve_positive takes its integrals from the grid's
    cached Green solve and makes none."""
    import sys

    import hhlab.checks as checks
    import hhlab.navier as navier
    import hhlab.radial as radial
    from hhlab.radial import HardyHenonParams

    bindings = [(module, attr) for module, attr, span
                in _tracer().FUNCTION_BINDINGS
                if span == "radial.weighted_cumulative"]
    assert ("hhlab.radial", "weighted_cumulative") in bindings
    real = radial.weighted_cumulative
    through_binding = [0]
    executed = [0]

    def counting(*args, **kwargs):
        through_binding[0] += 1
        return real(*args, **kwargs)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is real.__code__:
            executed[0] += 1

    for module, attr in bindings:
        assert getattr(importlib.import_module(module), attr) is real
        monkeypatch.setattr(importlib.import_module(module), attr, counting)

    def run(call):
        through_binding[0] = executed[0] = 0
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
        return executed[0], through_binding[0]

    problem = navier.NavierProblem(HardyHenonParams(4, 2, 0.0, 2.0, 0.5))
    assert run(lambda: navier.solve_positive(
        problem, problem.default_grid(129))) == (0, 0)
    executed_calls, traced_calls = run(checks.bubble_representation)
    assert executed_calls > 0
    assert traced_calls == executed_calls


def test_scan_events_are_located_through_liouvilles_binding(monkeypatch):
    """rk.hermite_crossing counts the event locations the tracer sees at
    hhlab.liouville.hermite_crossing. Scan lanes must locate their events
    there too, once per event, as the single shoots do."""
    import hhlab.liouville as liouville
    from hhlab.radial import HardyHenonParams

    assert ("hhlab.liouville", "hermite_crossing") in {
        (module, attr) for module, attr, _ in _tracer().FUNCTION_BINDINGS}
    calls = []
    real = liouville.hermite_crossing

    def counting(*args, **kwargs):
        calls.append(args[0].t1)
        return real(*args, **kwargs)

    monkeypatch.setattr(liouville, "hermite_crossing", counting)
    params = HardyHenonParams(4, 2, 0.0, 2.0)
    axes = [np.array([0.5, 2.0, 8.0]), np.array([-1.0, 0.0, 1.0, 6.0])]
    res = liouville.scan(axes, params, 30.0)
    in_scan = len(calls)
    integrated = [rec for rec in res.records
                  if rec.r_star > liouville.DEFAULT_R0]
    assert integrated and in_scan >= len(integrated)
    calls.clear()
    for rec in res.records:
        liouville.shoot(list(rec.init), params, 30.0)
    assert in_scan == len(calls)


def test_handed_over_lanes_keep_their_records_under_the_tracers_stepper(
        monkeypatch):
    """The tracer binds a subclass of AdaptiveRK at hhlab.liouville that
    wraps the right-hand side and the step callback and whose `integrate`
    takes (t0, y0, t_end, step_callback) only. A scan that hands its last
    lanes to AdaptiveRK finishes them through that binding, so it must
    give the records of the untraced scan, bit for bit."""
    import functools

    import hhlab.liouville as liouville
    import hhlab.rk as rk
    from hhlab.radial import HardyHenonParams

    base = liouville.AdaptiveRK
    made = []

    class CountingShape(base):
        def __init__(self, rhs, *args, **kwargs):
            made.append(self)
            super().__init__(functools.wraps(rhs)(
                lambda r, y, rhs=rhs: rhs(r, y)), *args, **kwargs)

        def integrate(self, t0, y0, t_end, step_callback=None):
            if step_callback is not None:
                step_callback = functools.wraps(step_callback)(
                    lambda rec, fn=step_callback: fn(rec))
            return super().integrate(t0, y0, t_end, step_callback)

    params = HardyHenonParams(4, 2, 0.0, 2.0)
    axes = [np.linspace(0.5, 8.0, 6), np.linspace(-4.0, 4.0, 5)]
    monkeypatch.setattr(rk, "LANE_HANDOFF", 4)
    untraced = liouville.scan(axes, params, 30.0).records
    monkeypatch.setattr(liouville, "AdaptiveRK", CountingShape)
    traced = liouville.scan(axes, params, 30.0).records
    assert made
    assert [(rec.kind, rec.layer, np.float64(rec.r_star).tobytes(),
             rec.growth_fit) for rec in traced] == \
        [(rec.kind, rec.layer, np.float64(rec.r_star).tobytes(),
          rec.growth_fit) for rec in untraced]
