import math

import pytest

from hhlab.errors import IntegratorError
from hhlab.rk import AdaptiveRK, StepRecord, hermite_crossing


def collect(records):
    def callback(rec):
        records.append(rec)
    return callback


class TestAccuracy:
    def test_polynomial_rhs_is_integrated_exactly(self):
        # a fifth-order pair integrates y' = q(t) exactly for deg q <= 4,
        # and the chain y0' = y1, y1' = 12 t^2 whose solution is (t^4, 4t^3)
        def rhs(t, y):
            return [1 + 2 * t + 3 * t ** 2 + 4 * t ** 3 + 5 * t ** 4,
                    y[2], 12 * t ** 2]

        records = []
        AdaptiveRK(rhs, rtol=1e-6, atol=1e-9).integrate(
            0.0, [0.0, 0.0, 0.0], 2.0, collect(records))
        t, y = records[-1].t1, records[-1].y1
        assert t == 2.0
        assert y[0] == pytest.approx(2 + 4 + 8 + 16 + 32, rel=1e-14)
        assert y[1] == pytest.approx(16.0, rel=1e-14)
        assert y[2] == pytest.approx(32.0, rel=1e-14)

    @pytest.mark.parametrize("rtol", [1e-6, 1e-8, 1e-10])
    def test_exponential_decay_within_rtol(self, rtol):
        records = []
        AdaptiveRK(lambda t, y: [-y[0]], rtol=rtol, atol=1e-14).integrate(
            0.0, [1.0], 5.0, collect(records))
        assert records[-1].t1 == 5.0
        # per-step control keeps the global error over five decay times
        # within a small multiple of rtol (measured: at most 1.3 rtol)
        for rec in records:
            exact = math.exp(-rec.t1)
            assert abs(rec.y1[0] - exact) <= 2.0 * rtol * exact

    def test_state_is_floats_and_input_is_not_aliased(self):
        y0 = [1.0, 2.0]
        records = []
        AdaptiveRK(lambda t, y: [y[1], -y[0]]).integrate(
            0.0, y0, 1.0, collect(records))
        assert y0 == [1.0, 2.0]
        assert all(type(v) is float for v in records[-1].y1)


class TestControl:
    def test_non_finite_trial_step_is_retried_at_quarter_size(self):
        # y' = 1 has zero error estimate, so every finite step is accepted
        # and h grows fivefold: 1e-7, 5e-7, 2.5e-6, then 1.25e-5 is
        # poisoned at its third stage and retried at a quarter of its size
        poisoned = 1 + 6 * 3 + 1
        calls = []

        def rhs(t, y):
            calls.append(t)
            return [math.nan] if len(calls) == poisoned + 1 else [1.0]

        records = []
        AdaptiveRK(rhs).integrate(0.0, [0.0], 1.0, collect(records))
        steps = [rec.t1 - rec.t0 for rec in records]
        assert steps[:3] == pytest.approx([1e-7, 5e-7, 2.5e-6], rel=1e-9)
        assert steps[3] == pytest.approx(0.25 * 5 * steps[2], rel=1e-9)
        # exactly one discarded attempt of six evaluations
        assert len(calls) == 1 + 6 * (len(records) + 1)
        assert records[-1].t1 == 1.0
        assert records[-1].y1[0] == pytest.approx(1.0, rel=1e-14)

    def test_step_size_underflow_raises_with_state(self):
        # y' = y^2, y(0) = 1 blows up at t = 1
        with pytest.raises(IntegratorError, match="underflow") as info:
            AdaptiveRK(lambda t, y: [y[0] * y[0]]).integrate(0.0, [1.0], 2.0)
        t, y = info.value.state
        assert abs(t - 1.0) < 1e-6
        assert y[0] > 1e6

    def test_exhausted_step_budget_raises_with_state(self):
        integ = AdaptiveRK(lambda t, y: [-y[0]], rtol=1e-10, max_steps=10)
        with pytest.raises(IntegratorError, match="budget") as info:
            integ.integrate(0.0, [1.0], 10.0)
        t, y = info.value.state
        assert 0.0 < t < 10.0
        assert y[0] == pytest.approx(math.exp(-t), rel=1e-8)

    def test_callback_value_stops_integration(self):
        times, seen = [], []

        def rhs(t, y):
            times.append(t)
            return [math.cos(t)]

        def callback(rec):
            seen.append(rec.t1)
            return ("stop", rec.t1) if rec.t1 >= 1.0 else None

        out = AdaptiveRK(rhs).integrate(0.0, [0.0], 10.0, callback)
        assert out == ("stop", seen[-1])
        assert seen[-2] < 1.0 <= seen[-1] < 10.0
        # the last evaluation is the FSAL stage at the end of that step
        assert times[-1] == seen[-1]

    def test_integration_to_the_end_returns_none(self):
        assert AdaptiveRK(lambda t, y: [1.0]).integrate(0.0, [0.0], 1.0) \
            is None


def cubic(t):
    return (t - 0.3) * (t + 1.0) * (t - 2.0)


def cubic_slope(t):
    return 3 * t * t - 2.6 * t - 1.7


class TestHermite:
    REC = StepRecord(0.0, 1.0, [cubic(0.0)], [cubic(1.0)],
                     [cubic_slope(0.0)], [cubic_slope(1.0)])

    def test_interpolant_reproduces_a_cubic(self):
        for t in (0.0, 0.125, 0.3, 0.77, 1.0):
            assert self.REC.eval(t)[0] == pytest.approx(cubic(t), abs=1e-15)

    def test_crossing_finds_the_cubic_root(self):
        root = hermite_crossing(self.REC, lambda y: y[0], 0.0)
        assert abs(root - 0.3) < 1e-12

    def test_crossing_of_a_level(self):
        # cubic(t) = cubic(0.6) has its only root in [0, 1] at t = 0.6
        root = hermite_crossing(self.REC, lambda y: y[0], cubic(0.6))
        assert abs(root - 0.6) < 1e-12
