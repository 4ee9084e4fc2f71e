import math

import numpy as np
import pytest

import hhlab.rk
from hhlab.errors import IntegratorError
from hhlab.rk import AdaptiveRK, LaneRK, StepRecord, hermite_crossing


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

    def test_exhausted_step_budget_raises_with_state(self, monkeypatch):
        monkeypatch.setattr(hhlab.rk, "MAX_STEPS", 10)
        integ = AdaptiveRK(lambda t, y: [-y[0]], rtol=1e-10)
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
            assert self.REC.eval(t, 0) == pytest.approx(cubic(t), abs=1e-15)

    def test_crossing_finds_the_cubic_root(self):
        root = hermite_crossing(self.REC, 0, 0.0)
        assert abs(root - 0.3) < 1e-12

    def test_crossing_of_a_level(self):
        # cubic(t) = cubic(0.6) has its only root in [0, 1] at t = 0.6
        root = hermite_crossing(self.REC, 0, cubic(0.6))
        assert abs(root - 0.6) < 1e-12


def lanes_of(rhs):
    """A LaneRK right-hand side that applies the float `rhs` row by row."""
    def lane_rhs(t, y):
        return np.array([rhs(ti, yi) for ti, yi in zip(t.tolist(),
                                                      y.tolist())])
    return lane_rhs


class TestLaneRK:
    """Every lane must take exactly the steps AdaptiveRK takes for it alone
    (the per-row rhs below computes the same floats)."""

    @staticmethod
    def float_run(rhs, y0, t_end, stop=None, **kwargs):
        records = []

        def callback(rec):
            records.append(rec)
            return stop(rec) if stop else None
        try:
            out = AdaptiveRK(rhs, **kwargs).integrate(0.0, y0, t_end,
                                                      callback)
        except IntegratorError as exc:
            out = exc
        return out, records

    @staticmethod
    def lane_run(rhs, y0, t_end, stop=None, **kwargs):
        records = {}

        def callback(t0, t1, ya, yb, fa, fb):
            stops = {}
            for k in range(t0.size):
                rec = StepRecord(float(t0[k]), float(t1[k]), ya[k].tolist(),
                                 yb[k].tolist(), fa[k].tolist(),
                                 fb[k].tolist())
                records.setdefault(float(ya[k, -1]), []).append(rec)
                value = stop(rec) if stop else None
                if value is not None:
                    stops[k] = value
            return stops
        out = LaneRK(lanes_of(rhs), **kwargs).integrate(0.0, y0, t_end,
                                                        callback)
        return out, records

    def test_lanes_step_like_the_float_stepper(self):
        # y' = -k y with a different rate per lane, carried as a constant
        # last component that also labels the lane's records
        def rhs(t, y):
            return [-y[1] * y[0], 0.0]

        rates = [0.5, 1.0, 3.0, 20.0]
        (results, t, y), lane_records = self.lane_run(
            rhs, [[1.0, k] for k in rates], 2.0, rtol=1e-9, atol=1e-12)
        assert results == [None] * len(rates)
        for i, k in enumerate(rates):
            out, records = self.float_run(rhs, [1.0, k], 2.0, rtol=1e-9,
                                          atol=1e-12)
            assert out is None
            assert lane_records[k] == records
            assert (t[i], y[i].tolist()) == (records[-1].t1, records[-1].y1)

    def test_per_lane_stop_values(self):
        def rhs(t, y):
            return [math.cos(t * y[1]), 0.0]

        def stop(rec):
            return ("stop", rec.t1) if rec.y1[0] >= 0.5 else None

        rates = [1.0, 2.0, 40.0]
        (results, t, _), _ = self.lane_run(rhs, [[0.0, k] for k in rates],
                                           3.0, stop)
        for i, k in enumerate(rates):
            out, records = self.float_run(rhs, [0.0, k], 3.0, stop)
            assert results[i] == out
            assert t[i] == records[-1].t1
        # the fast lane never reaches 0.5 and runs to the end
        assert results[2] is None and t[2] == 3.0

    def test_non_finite_retry_and_underflow_per_lane(self):
        # y' = y^2 blows up at t = 1/y(0): the lane starting at 2 underflows
        # (after non-finite retries) while the one starting at -1 decays
        def rhs(t, y):
            try:
                return [y[0] * y[0] * y[1], 0.0]
            except OverflowError:
                return [math.inf, 0.0]

        starts = [[2.0, 1.0], [-1.0, 1.0], [1e150, 1e150]]
        (results, t, y), _ = self.lane_run(rhs, starts, 2.0)
        for i, y0 in enumerate(starts):
            out, records = self.float_run(rhs, y0, 2.0)
            if isinstance(out, IntegratorError):
                assert isinstance(results[i], IntegratorError)
                assert str(results[i]) == str(out)
                assert results[i].state == out.state
                assert (t[i], y[i].tolist()) == out.state
            else:
                assert results[i] is out is None
        assert "underflow" in str(results[0]) and results[1] is None
        assert "underflow" in str(results[2])

    def test_non_finite_trial_step_is_retried_at_quarter_size(self):
        # as in TestControl: y' = 1 grows h fivefold until the 21st
        # evaluation poisons a trial stage, here of the second lane only;
        # each lane's records must equal the float stepper's, poisoned alike
        poisoned = 1 + 6 * 3 + 1

        def float_rhs():
            calls = []

            def rhs(t, y):
                calls.append(t)
                return [math.nan if len(calls) == poisoned + 1 else 1.0, 0.0]
            return rhs

        lane_calls = []

        def lane_rhs(t, y):
            lane_calls.append(t)
            dy = np.zeros_like(y)
            dy[:, 0] = 1.0
            if len(lane_calls) == poisoned + 1:
                dy[1, 0] = math.nan
            return dy

        records = {}

        def callback(t0, t1, ya, yb, fa, fb):
            for k in range(t0.size):
                records.setdefault(float(ya[k, 1]), []).append(StepRecord(
                    float(t0[k]), float(t1[k]), ya[k].tolist(),
                    yb[k].tolist(), fa[k].tolist(), fb[k].tolist()))

        LaneRK(lane_rhs).integrate(0.0, [[0.0, 0.0], [0.0, 1.0]], 1.0,
                                   callback)
        _, clean = self.float_run(lambda t, y: [1.0, 0.0], [0.0, 0.0], 1.0)
        _, retried = self.float_run(float_rhs(), [0.0, 1.0], 1.0)
        assert records[0.0] == clean and records[1.0] == retried
        steps = [rec.t1 - rec.t0 for rec in retried]
        assert steps[3] == pytest.approx(0.25 * 5 * steps[2], rel=1e-9)

    def test_exhausted_budget_per_lane(self, monkeypatch):
        def rhs(t, y):
            return [-y[1] * y[0], 0.0]

        monkeypatch.setattr(hhlab.rk, "MAX_STEPS", 20)
        starts = [[1.0, 0.0], [1.0, 50.0]]
        (results, t, y), _ = self.lane_run(rhs, starts, 10.0, rtol=1e-10)
        # a zero rate has zero error, so the step grows fivefold each time
        assert results[0] is None and t[0] == 10.0
        out, _ = self.float_run(rhs, starts[1], 10.0, rtol=1e-10)
        assert isinstance(results[1], IntegratorError)
        assert "budget" in str(results[1])
        assert results[1].state == out.state

    def test_no_lanes(self):
        results, t, y = LaneRK(lanes_of(lambda t, y: y)).integrate(
            0.0, np.empty((0, 2)), 1.0)
        assert results == [] and t.shape == (0,) and y.shape == (0, 2)
