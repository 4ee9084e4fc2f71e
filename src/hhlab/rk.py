"""Embedded adaptive Runge-Kutta 5(4) stepper (Dormand-Prince pair).

Fifth-order propagation with fourth-order error estimate, PI-free step
control with rejection, and cubic Hermite dense output for event
localization. Self-contained and independent of scipy, so the shooting
classifier does not share an integration path with the solver-side oracles
or with the scipy cross-check in the tests.

Two steppers share the tableau and the step controller:

* `AdaptiveRK` integrates one trajectory. Its state is a short list of
  Python floats (2m = 2 to 8 components for the shooting problems), and
  every stage is written out as scalar arithmetic: at that size numpy's
  fixed cost per array operation is far larger than the floating-point
  work. `rhs(t, y)` takes and returns such lists. The trial step is
  generated as straight-line code once per state dimension
  (`_float_step`): the components are unpacked into locals, each stage
  state is one list display and the error norm is unrolled, so a step
  pays no per-component `zip` or loop. Every entry is the expression a
  loop over the components would evaluate, in the same order.
* `LaneRK` integrates many trajectories in lockstep, one row ("lane") of a
  (lanes, dim) array each. Every lane keeps its own t, h, step count and
  accept or reject decision, so each row follows the steps `AdaptiveRK`
  would take for it alone; one pass pays numpy's fixed costs once for all
  lanes. `rhs(t, y)` takes the lanes' times (lanes,) and states
  (lanes, dim) and returns the slopes as a (lanes, dim) array. Powers are
  taken in Python floats (`float_powers`), so a lane's arithmetic is the
  same as that of `AdaptiveRK`'s generated step, operation for operation,
  and a lane ends exactly where `AdaptiveRK` ends alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from math import isfinite
from typing import Callable, Optional

import numpy as np

from .errors import IntegratorError

# Dormand-Prince coefficients (Hairer, Norsett & Wanner, Table II.5.2)
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = (19372 / 6561, -25360 / 2187, 64448 / 6561,
                          -212 / 729)
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
# fifth-order weights; they are also row 7 of A, so the last stage is
# evaluated at the new state and reused as the next step's first (FSAL)
_B1, _B3, _B4, _B5, _B6 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                           11 / 84)
# fifth- minus fourth-order weights
_E1 = _B1 - 5179 / 57600
_E3 = _B3 - 7571 / 16695
_E4 = _B4 - 393 / 640
_E5 = _B5 - -92097 / 339200
_E6 = _B6 - 187 / 2100
_E7 = -1 / 40

# Step controller: h *= SAFETY err^EXPONENT after a step with scaled error
# err, clamped to [SHRINK_MIN, GROW_MAX]; a trial state that is not finite
# is retried at RETRY times the step
_SAFETY, _EXPONENT = 0.9, -0.2
_SHRINK_MIN, _GROW_MAX = 0.2, 5.0
_RETRY = 0.25
MAX_STEPS = 500_000         # trial steps per trajectory, rejected included
H_MIN_FACTOR = 1e-14        # smallest step relative to |t|
CROSSING_TOL = 1e-13        # event bracket width relative to max(1, |t|)


def _first_step(t: float, t_end: float) -> float:
    return min(1e-4 * max(abs(t), 1e-3), t_end - t)


def _step_factor(err: float) -> float:
    """The factor on h after a finite trial step with scaled error err. An
    error of 0 grows the step by GROW_MAX; a NaN error rejects the step and
    shrinks it by SHRINK_MIN."""
    if not err > 0.0:
        return _SHRINK_MIN if err != err else _GROW_MAX
    return min(_GROW_MAX, max(_SHRINK_MIN, _SAFETY * err ** _EXPONENT))


def float_powers(base: np.ndarray, exponent: float) -> np.ndarray:
    """base ** exponent elementwise, taken in Python floats (inf where that
    overflows). numpy's vector power rounds differently from float `**` in
    a few percent of cases; lanes that must compute what the float stepper
    computes take their powers here."""
    values = base.tolist()
    try:
        return np.fromiter(map(pow, values, repeat(exponent)), float,
                           len(values))
    except OverflowError:
        out = []
        for v in values:
            try:
                out.append(v ** exponent)
            except OverflowError:
                out.append(math.inf)
        return np.array(out)


def _integrator_error(message: str, t, y) -> IntegratorError:
    """An IntegratorError carrying the state (t, y) it stopped in."""
    exc = IntegratorError(message)
    exc.state = (float(t), [float(v) for v in y])
    return exc


@dataclass(slots=True)
class StepRecord:
    """One accepted step with endpoint slopes for dense evaluation."""

    t0: float
    t1: float
    y0: list
    y1: list
    f0: list
    f1: list

    def eval(self, t, j: int) -> float:
        """Component j of the cubic Hermite interpolant on [t0, t1]."""
        h = self.t1 - self.t0
        s = (t - self.t0) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * self.y0[j] + h01 * self.y1[j] \
            + h * (h10 * self.f0[j] + h11 * self.f1[j])


def hermite_crossing(rec: StepRecord, j: int, level: float) -> float:
    """Locate where component j of y(t) crosses `level` inside a step, by
    bisection on the Hermite interpolant of that component alone."""
    lo, hi = rec.t0, rec.t1
    glo = rec.y0[j] - level
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= CROSSING_TOL * max(1.0, abs(mid)):
            return mid
        gm = rec.eval(mid, j) - level
        if (glo <= 0.0) == (gm <= 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _DormandPrince:
    """Right-hand side and tolerances of either stepper. Both read the
    module's step limits MAX_STEPS and H_MIN_FACTOR as they integrate."""

    def __init__(self, rhs: Callable, rtol: float = 1e-8, atol: float = 1e-10):
        self.rhs = rhs
        self.rtol = rtol
        self.atol = atol


def _float_step_source(dim: int) -> str:
    """Source of the trial step of `AdaptiveRK` for states of `dim` floats.

    Each stage state is a list display over the unpacked components, each
    entry the expression the stage applies to one component, and the error
    norm is unrolled. Components are locals `s_i` (state), `a_i`..`g_i`
    (slopes k1..k6), `z_i` (new state) and `k_i` (slope k7); no whole
    vector's name has an underscore, so none can collide with a component
    at any dimension."""
    idx = range(dim)

    def names(letter):
        return "[" + ", ".join(f"{letter}_{i}" for i in idx) + "]"

    def combo(terms, i):
        # `C1 * x_i + C2 * y_i + ...` of (coefficient, letter) pairs
        return " + ".join(f"{coef} * {letter}_{i}" for coef, letter in terms)

    def stage(terms):
        return "[" + ", ".join(f"s_{i} + h * ({combo(terms, i)})"
                               for i in idx) + "]"

    lines = ["def step(self, t, y, h, f0):",
             "    rhs = self.rhs",
             f"    {names('s')} = y",
             f"    {names('a')} = f0"]
    stages = (("k2", "_C2 * h", "b", [("_A21", "a")]),
              ("k3", "_C3 * h", "c", [("_A31", "a"), ("_A32", "b")]),
              ("k4", "_C4 * h", "d", [("_A41", "a"), ("_A42", "b"),
                                      ("_A43", "c")]),
              ("k5", "_C5 * h", "e", [("_A51", "a"), ("_A52", "b"),
                                      ("_A53", "c"), ("_A54", "d")]),
              ("k6", "h", "g", [("_A61", "a"), ("_A62", "b"), ("_A63", "c"),
                                ("_A64", "d"), ("_A65", "e")]))
    for k, dt, letter, terms in stages:
        lines += [f"    {k} = rhs(t + {dt}, {stage(terms)})",
                  f"    {names(letter)} = {k}"]
    new_state = [("_B1", "a"), ("_B3", "c"), ("_B4", "d"), ("_B5", "e"),
                 ("_B6", "g")]
    lines += [f"    z_{i} = s_{i} + h * ({combo(new_state, i)})" for i in idx]
    lines += [f"    y1 = {names('z')}",
              "    k7 = rhs(t + h, y1)",
              f"    {names('k')} = k7",
              "    atol, rtol = self.atol, self.rtol",
              "    err = 0.0"]
    error = [("_E1", "a"), ("_E3", "c"), ("_E4", "d"), ("_E5", "e"),
             ("_E6", "g"), ("_E7", "k")]
    for i in idx:
        lines += [f"    ratio = abs(h * ({combo(error, i)}))",
                  f"    v, z = abs(s_{i}), abs(z_{i})",
                  "    ratio /= atol + rtol * (v if v > z else z)",
                  "    if ratio > err or ratio != ratio:"
                  "   # a NaN sticks, and rejects",
                  "        err = ratio"]
    lines.append("    return y1, k7, err")
    return "\n".join(lines) + "\n"


_FLOAT_STEPS: dict = {}    # state dimension -> generated trial step


def _float_step(dim: int) -> Callable:
    """The trial step of `AdaptiveRK` for states of `dim` floats, compiled
    from `_float_step_source` on first use and cached by dimension.

    `step(self, t, y, h, f0)` returns the new state, its slope and the
    max-norm of the scaled error (NaN when any error component is NaN). It
    reads `self.rhs`, `self.atol` and `self.rtol` at every call."""
    step = _FLOAT_STEPS.get(dim)
    if step is None:
        namespace = {}
        exec(compile(_float_step_source(dim), f"<AdaptiveRK step, dim {dim}>",
                     "exec"), globals(), namespace)
        step = _FLOAT_STEPS[dim] = namespace["step"]
    return step


class AdaptiveRK(_DormandPrince):
    """Adaptive Dormand-Prince 5(4) integrator with step rejection."""

    def integrate(self, t0: float, y0, t_end: float,
                  step_callback: Optional[Callable] = None):
        """Integrate from t0 to t_end.

        `step_callback(rec)` is invoked after every accepted step; returning
        a non-None value stops integration and that value is returned.
        Raises IntegratorError on step-size underflow or step budget
        exhaustion; the current state (t, y) is attached as `.state`.
        """
        t = float(t0)
        y = [float(v) for v in y0]
        step = _float_step(len(y))
        f = self.rhs(t, y)
        h = _first_step(t, t_end)
        steps = 0
        while t < t_end:
            h = min(h, t_end - t)
            if h < H_MIN_FACTOR * max(abs(t), 1e-30):
                raise _integrator_error(f"step size underflow at r={t:.6g}",
                                        t, y)
            y1, f1, err = step(self, t, y, h, f)
            steps += 1
            if steps > MAX_STEPS:
                raise _integrator_error("step budget exhausted", t, y)
            if not all(map(isfinite, y1)):
                h *= _RETRY
                continue
            if err <= 1.0:
                rec = StepRecord(t, t + h, y, y1, f, f1)
                t, y, f = t + h, y1, f1
                if step_callback is not None:
                    out = step_callback(rec)
                    if out is not None:
                        return out
            h *= _step_factor(err)
        return None


class LaneRK(_DormandPrince):
    """The Dormand-Prince 5(4) stepper of `AdaptiveRK`, advancing the rows
    of a (lanes, dim) array in lockstep."""

    def _step(self, t, y, h, f0):
        """One trial step of every lane: new states, their slopes and each
        lane's max-norm of the scaled error (NaN when any component is)."""
        rhs = self.rhs
        hc = h[:, None]
        k1 = f0
        k2 = rhs(t + _C2 * h, y + hc * (_A21 * k1))
        k3 = rhs(t + _C3 * h, y + hc * (_A31 * k1 + _A32 * k2))
        k4 = rhs(t + _C4 * h, y + hc * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = rhs(t + _C5 * h, y + hc * (_A51 * k1 + _A52 * k2 + _A53 * k3
                                        + _A54 * k4))
        k6 = rhs(t + h, y + hc * (_A61 * k1 + _A62 * k2 + _A63 * k3
                                  + _A64 * k4 + _A65 * k5))
        y1 = y + hc * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = rhs(t + h, y1)
        ratio = np.abs(hc * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5
                             + _E6 * k6 + _E7 * k7))
        ratio /= self.atol + self.rtol * np.maximum(np.abs(y), np.abs(y1))
        return y1, k7, ratio.max(axis=1)

    def integrate(self, t0: float, y0, t_end: float,
                  step_callback: Optional[Callable] = None):
        """Integrate every row of y0 from t0 to t_end.

        `step_callback(t0, t1, y0, y1, f0, f1)` is invoked after every pass
        with the steps accepted in it, one row per accepted lane. It returns
        a dict from row index to a stop value for the lanes that stop
        there, or None when none does. Lanes that stop, reach t_end or fail
        are dropped from the arrays.

        Returns (results, t, y). results[i] is lane i's stop value, None
        when it reached t_end, or the IntegratorError (step-size underflow
        or budget exhaustion, with `.state`) that ended it; t[i] and y[i]
        are its time and state after its last accepted step.
        """
        y = np.array(y0, dtype=float, ndmin=2)
        t = np.full(y.shape[0], float(t0))
        results = [None] * y.shape[0]
        t_out, y_out = t.copy(), y.copy()
        lane = np.arange(y.shape[0])
        h = np.full(lane.size, _first_step(float(t0), t_end))
        steps = np.zeros(lane.size, dtype=int)
        with np.errstate(all="ignore"):
            f = self.rhs(t, y) if lane.size else y
            while lane.size:
                h = np.minimum(h, t_end - t)
                # an underflowing lane fails before its step: the step is
                # taken with the others but neither counted nor accepted
                failed = h < H_MIN_FACTOR * np.maximum(np.abs(t), 1e-30)
                for i in np.flatnonzero(failed):
                    results[lane[i]] = _integrator_error(
                        f"step size underflow at r={t[i]:.6g}", t[i], y[i])
                y1, f1, err = self._step(t, y, h, f)
                steps += 1
                over = (steps > MAX_STEPS) & ~failed
                for i in np.flatnonzero(over):
                    results[lane[i]] = _integrator_error(
                        "step budget exhausted", t[i], y[i])
                done = failed | over
                finite = np.isfinite(y1).all(axis=1)
                rows = np.flatnonzero(finite & (err <= 1.0) & ~done)
                t0_ok, t1_ok = t[rows], t[rows] + h[rows]
                y0_ok, f0_ok = y[rows], f[rows]
                t[rows], y[rows], f[rows] = t1_ok, y1[rows], f1[rows]
                if step_callback is not None and rows.size:
                    stops = step_callback(t0_ok, t1_ok, y0_ok, y[rows],
                                          f0_ok, f[rows])
                    for k, value in (stops or {}).items():
                        results[lane[rows[k]]] = value
                        done[rows[k]] = True
                done |= t >= t_end
                # _step_factor of every lane (0 ** EXPONENT divides by zero)
                grow = err > 0.0
                factor = np.where(np.isnan(err), _SHRINK_MIN, _GROW_MAX)
                factor[grow] = np.clip(
                    _SAFETY * float_powers(err[grow], _EXPONENT),
                    _SHRINK_MIN, _GROW_MAX)
                h = h * np.where(finite, factor, _RETRY)
                if done.any():
                    ended = lane[done]
                    t_out[ended], y_out[ended] = t[done], y[done]
                    keep = ~done
                    lane, t, y, f, h, steps = (lane[keep], t[keep], y[keep],
                                               f[keep], h[keep], steps[keep])
        return results, t_out, y_out
