"""Embedded adaptive Runge-Kutta 5(4) stepper (Dormand-Prince pair).

Fifth-order propagation with fourth-order error estimate, PI-free step
control with rejection, and cubic Hermite dense output for event
localization. Self-contained and independent of scipy, so the shooting
classifier does not share an integration path with the solver-side oracles
or with the scipy cross-check in the tests.

The state is a short list of Python floats (2m = 2 to 8 components for the
shooting problems), and every stage is written out as scalar arithmetic:
at that size numpy's fixed cost per array operation is far larger than the
floating-point work. `rhs(t, y)` takes and returns such lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable, Optional

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


@dataclass(slots=True)
class StepRecord:
    """One accepted step with endpoint slopes for dense evaluation."""

    t0: float
    t1: float
    y0: list
    y1: list
    f0: list
    f1: list

    def eval(self, t):
        """Cubic Hermite interpolant on [t0, t1]."""
        h = self.t1 - self.t0
        s = (t - self.t0) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return [h00 * a + h01 * b + h * (h10 * fa + h11 * fb)
                for a, b, fa, fb in zip(self.y0, self.y1, self.f0, self.f1)]


def hermite_crossing(rec: StepRecord, component: Callable, level: float,
                     tol: float = 1e-13) -> float:
    """Locate where component(y(t)) crosses `level` inside a step, by
    bisection on the Hermite interpolant."""
    lo, hi = rec.t0, rec.t1
    glo = component(rec.y0) - level
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, abs(mid)):
            return mid
        gm = component(rec.eval(mid)) - level
        if (glo <= 0.0) == (gm <= 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class AdaptiveRK:
    """Adaptive Dormand-Prince 5(4) integrator with step rejection."""

    def __init__(self, rhs: Callable, rtol: float = 1e-8, atol: float = 1e-10,
                 max_steps: int = 500_000, h_min_factor: float = 1e-14):
        self.rhs = rhs
        self.rtol = rtol
        self.atol = atol
        self.max_steps = max_steps
        self.h_min_factor = h_min_factor

    def _step(self, t, y, h, f0):
        """One trial step: the new state, its slope and the max-norm of the
        scaled error (NaN when any error component is NaN)."""
        rhs = self.rhs
        k1 = f0
        k2 = rhs(t + _C2 * h, [v + h * (_A21 * a) for v, a in zip(y, k1)])
        k3 = rhs(t + _C3 * h, [v + h * (_A31 * a + _A32 * b)
                               for v, a, b in zip(y, k1, k2)])
        k4 = rhs(t + _C4 * h, [v + h * (_A41 * a + _A42 * b + _A43 * c)
                               for v, a, b, c in zip(y, k1, k2, k3)])
        k5 = rhs(t + _C5 * h, [v + h * (_A51 * a + _A52 * b + _A53 * c
                                         + _A54 * d)
                               for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
        k6 = rhs(t + h, [v + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d
                                   + _A65 * e)
                         for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
        y1 = [v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
              for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
        k7 = rhs(t + h, y1)
        atol, rtol = self.atol, self.rtol
        err = 0.0
        for v, z, a, c, d, e, g, k in zip(y, y1, k1, k3, k4, k5, k6, k7):
            ratio = abs(h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g
                             + _E7 * k))
            v, z = abs(v), abs(z)
            ratio /= atol + rtol * (v if v > z else z)
            if ratio > err or ratio != ratio:   # a NaN sticks, and rejects
                err = ratio
        return y1, k7, err

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
        f = self.rhs(t, y)
        h = min(1e-4 * max(abs(t), 1e-3), t_end - t)
        steps = 0
        while t < t_end:
            h = min(h, t_end - t)
            if h < self.h_min_factor * max(abs(t), 1e-30):
                exc = IntegratorError(f"step size underflow at r={t:.6g}")
                exc.state = (t, list(y))
                raise exc
            y1, f1, err = self._step(t, y, h, f)
            steps += 1
            if steps > self.max_steps:
                exc = IntegratorError("step budget exhausted")
                exc.state = (t, list(y))
                raise exc
            if not all(map(isfinite, y1)):
                h *= 0.25
                continue
            if err <= 1.0:
                rec = StepRecord(t, t + h, y, y1, f, f1)
                t, y, f = t + h, y1, f1
                if step_callback is not None:
                    out = step_callback(rec)
                    if out is not None:
                        return out
                h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
            else:
                h *= max(0.2, 0.9 * err ** -0.2)
        return None
