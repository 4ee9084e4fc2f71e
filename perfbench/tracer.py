"""Outside-in tracing of hhlab's public functions.

The package imports by name (``from .radial import poisson_solve_ball``), so a
function is wrapped at the binding its *caller* looks up, never inside
``src/hhlab``. Each wrapped call opens a span (name, start, end, parent,
root); a span's self time is its duration minus the time its children cover.
Spans stay in memory and are written out once, when the pass ends.

The RK right-hand side and step callback run hundreds of thousands of times
per scan. They are traced as aggregate-only frames: they take part in the
parent/child accounting and in the per-name totals, but are not kept as
individual spans, which would cost tens of MB per pass.
"""

from __future__ import annotations

import functools
import json
import time

MARK = "__perfbench_span__"

# (module, attribute, span name): the bindings the calling modules use.
# The span name names the function, so one function reached through two
# bindings (navier's and radial's poisson_solve_ball) shares one name.
FUNCTION_BINDINGS = [
    ("hhlab.liouville", "scan", "liouville.scan"),
    ("hhlab.liouville", "shoot", "liouville.shoot"),
    ("hhlab.liouville", "representation_check",
     "liouville.representation_check"),
    ("hhlab.liouville", "weighted_cumulative", "radial.weighted_cumulative"),
    ("hhlab.liouville", "hermite_crossing", "rk.hermite_crossing"),
    ("hhlab.navier", "solve_positive", "navier.solve_positive"),
    ("hhlab.navier", "apply_K", "navier.apply_K"),
    ("hhlab.navier", "first_eigenpair", "navier.first_eigenpair"),
    ("hhlab.navier", "build_certificates", "navier.build_certificates"),
    ("hhlab.navier", "torsion_function", "navier.torsion_function"),
    ("hhlab.navier", "poisson_solve_ball", "radial.poisson_solve_ball"),
    ("hhlab.navier", "iterated_green", "radial.iterated_green"),
    ("hhlab.radial", "poisson_solve_ball", "radial.poisson_solve_ball"),
    ("hhlab.radial", "weighted_cumulative", "radial.weighted_cumulative"),
    ("hhlab.radial", "polyharmonic_apply", "radial.polyharmonic_apply"),
    ("hhlab.radial", "CubicSpline", "radial.spline_build"),
    ("hhlab.kernels", "riesz_compose_check", "kernels.riesz_compose_check"),
    ("hhlab.kernels", "panel_quadrature", "kernels.panel_quadrature"),
    ("hhlab.ladder", "ladder_advance", "ladder.advance"),
    ("hhlab.ladder", "ladder_table", "ladder.table"),
    ("hhlab.ladder", "ladder_closed_form", "ladder.closed_form"),
    ("hhlab.ladder", "divergence_threshold", "ladder.divergence_threshold"),
]
RK_BINDING = ("hhlab.liouville", "AdaptiveRK")


class Tracer:
    def __init__(self):
        self.spans = []    # (id, name, start, end, parent id, root id)
        self.stack = []    # open frames: [id, name, start, child time, root]
        self.stats = {}    # name -> [calls, total s, self s]
        self.quad_points = 0
        self._pending_nodes = None
        self._next_id = 0

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        root = self.stack[-1][4] if self.stack else sid
        frame = [sid, name, time.perf_counter(), 0.0, root]
        self.stack.append(frame)
        return frame

    def _close(self, frame, keep):
        end = time.perf_counter()
        self.stack.pop()
        sid, name, start, child, root = frame
        dur = end - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        if keep:
            self.spans.append((sid, name, start, end,
                               None if parent is None else parent[0], root))

    def wrap(self, name, fn, keep=True):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, keep)

        functools.update_wrapper(traced, fn, updated=())
        setattr(traced, MARK, name)
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        frame = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, True)

    def count_quadrature(self, fn):
        """Wrap panel_quadrature; each composition integral asks for the
        radial then the angular nodes, so consecutive calls pair up into one
        tensor-product mesh of n_r * n_theta points."""
        tracer = self
        traced = self.wrap("kernels.panel_quadrature", fn)

        @functools.wraps(fn)
        def counted(breaks, order):
            nodes, weights = traced(breaks, order)
            if tracer._pending_nodes is None:
                tracer._pending_nodes = nodes.size
            else:
                tracer.quad_points += tracer._pending_nodes * nodes.size
                tracer._pending_nodes = None
            return nodes, weights

        setattr(counted, MARK, "kernels.panel_quadrature")
        return counted

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, root in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "root": root}) + "\n")


def _modules():
    import importlib
    return {name: importlib.import_module(name)
            for name in {b[0] for b in FUNCTION_BINDINGS}}


def install(tracer):
    """Replace every binding in FUNCTION_BINDINGS, and liouville's
    AdaptiveRK, with traced versions."""
    mods = _modules()
    for mod_name, attr, span in FUNCTION_BINDINGS:
        mod = mods[mod_name]
        fn = getattr(mod, attr)
        if attr == "panel_quadrature":
            setattr(mod, attr, tracer.count_quadrature(fn))
        else:
            setattr(mod, attr, tracer.wrap(span, fn))

    lv = mods[RK_BINDING[0]]
    base = getattr(lv, RK_BINDING[1])

    class CountingRK(base):
        """AdaptiveRK whose rhs and step callback are traced frames."""

        def __init__(self, rhs, *args, **kwargs):
            super().__init__(tracer.wrap("rk.rhs", rhs, keep=False),
                             *args, **kwargs)

        def integrate(self, t0, y0, t_end, step_callback=None):
            if step_callback is not None:
                step_callback = tracer.wrap("rk.step_callback",
                                            step_callback, keep=False)
            return tracer.span("rk.integrate", super().integrate,
                               t0, y0, t_end, step_callback)

    setattr(CountingRK, MARK, "rk.AdaptiveRK")
    setattr(lv, RK_BINDING[1], CountingRK)


def assert_untraced():
    """Raise unless every traced binding is the package's own object."""
    import scipy.interpolate
    import hhlab.rk
    mods = _modules()
    wrapped = []
    for mod_name, attr, _ in FUNCTION_BINDINGS:
        obj = getattr(mods[mod_name], attr)
        if hasattr(obj, MARK) or hasattr(obj, "__wrapped__"):
            wrapped.append(f"{mod_name}.{attr}")
    if mods["hhlab.radial"].CubicSpline is not scipy.interpolate.CubicSpline:
        wrapped.append("hhlab.radial.CubicSpline")
    if getattr(mods[RK_BINDING[0]], RK_BINDING[1]) is not hhlab.rk.AdaptiveRK:
        wrapped.append("hhlab.liouville.AdaptiveRK")
    if wrapped:
        raise RuntimeError("untraced pass found wrapped bindings: "
                           + ", ".join(wrapped))
