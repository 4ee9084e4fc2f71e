import functools
import math
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hhlab.rk
from hhlab.errors import IntegratorError
from hhlab.rk import AdaptiveRK, LaneRK, StepRecord, hermite_crossing

# the step control most tests below were written at; the package's own
# callers pass liouville's DEFAULT_RTOL/DEFAULT_ATOL
TOLS = {"rtol": 1e-8, "atol": 1e-10}


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
        AdaptiveRK(lambda t, y: [y[1], -y[0]], **TOLS).integrate(
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
        AdaptiveRK(rhs, **TOLS).integrate(0.0, [0.0], 1.0, collect(records))
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
            AdaptiveRK(lambda t, y: [y[0] * y[0]], **TOLS).integrate(
                0.0, [1.0], 2.0)
        t, y = info.value.state
        assert abs(t - 1.0) < 1e-6
        assert y[0] > 1e6

    def test_exhausted_step_budget_raises_with_state(self, monkeypatch):
        monkeypatch.setattr(hhlab.rk, "MAX_STEPS", 10)
        integ = AdaptiveRK(lambda t, y: [-y[0]], rtol=1e-10, atol=1e-10)
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

        out = AdaptiveRK(rhs, **TOLS).integrate(0.0, [0.0], 10.0, callback)
        assert out == ("stop", seen[-1])
        assert seen[-2] < 1.0 <= seen[-1] < 10.0
        # the last evaluation is the FSAL stage at the end of that step
        assert times[-1] == seen[-1]

    def test_integration_to_the_end_returns_none(self):
        assert AdaptiveRK(lambda t, y: [1.0], **TOLS).integrate(
            0.0, [0.0], 1.0) is None


@pytest.mark.parametrize("stepper", [AdaptiveRK, LaneRK])
@pytest.mark.parametrize("tols,message", [
    ({"rtol": math.nan}, "rtol must be finite, got nan"),
    ({"rtol": math.inf}, "rtol must be finite, got inf"),
    ({"atol": math.nan}, "atol must be finite, got nan"),
    ({"atol": -math.inf}, "atol must be finite, got -inf"),
    ({"rtol": 0.0}, "rtol and atol must be positive"),
    ({"atol": 0.0}, "rtol and atol must be positive"),
    ({"rtol": 0.0, "atol": 0.0}, "rtol and atol must be positive"),
    # unchecked, this integrates y' = -y to y(5) = 0.678 (exact 0.0067)
    ({"rtol": -1e-10, "atol": 1e-12}, "rtol and atol must be positive"),
    ({"atol": -1e-12}, "rtol and atol must be positive")])
def test_steppers_reject_invalid_tolerances_at_construction(stepper, tols,
                                                            message):
    def rhs(t, y):
        raise AssertionError("the right-hand side was called")

    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        stepper(rhs, **{**TOLS, **tols})


def cubic(t):
    return (t - 0.3) * (t + 1.0) * (t - 2.0)


def cubic_slope(t):
    return 3 * t * t - 2.6 * t - 1.7


def cubic_hermite(s, h, y0, y1, f0, f1):
    """The cubic Hermite interpolant of one component on a step of length h
    with endpoint values y0, y1 and slopes f0, f1, at s = (t - t0) / h:
    the expression `hermite_crossing` evaluates inline, operation for
    operation."""
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h01 * y1 + h * (h10 * f0 + h11 * f1)


def hermite_at(rec, t, j):
    """Component j of `rec`'s cubic Hermite interpolant at t, through
    `cubic_hermite` with the step's data."""
    h = rec.t1 - rec.t0
    return cubic_hermite((t - rec.t0) / h, h, rec.y0[j], rec.y1[j],
                         rec.f0[j], rec.f1[j])


class TestHermite:
    REC = StepRecord(0.0, 1.0, [cubic(0.0)], [cubic(1.0)],
                     [cubic_slope(0.0)], [cubic_slope(1.0)])

    def test_interpolant_reproduces_a_cubic(self):
        for t in (0.0, 0.125, 0.3, 0.77, 1.0):
            assert hermite_at(self.REC, t, 0) == pytest.approx(cubic(t),
                                                               abs=1e-15)

    def test_crossing_finds_the_cubic_root(self):
        root = hermite_crossing(self.REC, 0, 0.0)
        assert abs(root - 0.3) < 1e-12

    def test_crossing_of_a_level(self):
        # cubic(t) = cubic(0.6) has its only root in [0, 1] at t = 0.6
        root = hermite_crossing(self.REC, 0, cubic(0.6))
        assert abs(root - 0.6) < 1e-12

    def test_crossing_brackets_one_of_three_roots(self):
        # on [-1.5, 2.5] the cubic crosses 0 at -1, 0.3 and 2; Newton's
        # chord start and bisections may end at any of them, but the
        # result brackets a root to CROSSING_TOL
        rec = StepRecord(-1.5, 2.5, [cubic(-1.5)], [cubic(2.5)],
                         [cubic_slope(-1.5)], [cubic_slope(2.5)])
        root = hermite_crossing(rec, 0, 0.0)
        width = hhlab.rk.CROSSING_TOL * max(1.0, abs(root))
        assert min(abs(root - r) for r in (-1.0, 0.3, 2.0)) <= width
        assert sign_change_near(rec, 0, 0.0, root)

    def test_crossing_where_the_cubic_rounds_to_the_level(self):
        # the cubic starts at the level, dips below it and comes back near
        # t = 1.5756e-5, where it rounds to the level exactly over a span
        # of thousands of tolerance widths: Newton steps are 0 there, and
        # probing past them again and again would creep through the span
        y0 = -1225.127988955893
        rec = StepRecord(1e-7, 1e-7 + 10.0, [y0], [65.43793172274559],
                         [-0.0007274882044906939], [-77.51299885218923])
        root = hermite_crossing(rec, 0, y0)
        assert abs(root - 1.5756e-5) < 1e-9
        assert sign_change_near(rec, 0, y0, root)


def reference_hermite(rec, t, j):
    """Component j of the cubic Hermite interpolant of `rec` at t, every
    input read from the record at every call."""
    h = rec.t1 - rec.t0
    s = (t - rec.t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * rec.y0[j] + h01 * rec.y1[j] \
        + h * (h10 * rec.f0[j] + h11 * rec.f1[j])


def reference_crossing(rec, j, level):
    """Bisection on `reference_hermite`, carrying the low end's value: the
    location `hermite_crossing` made before it took Newton steps, kept as
    the tests' reference for a cubic with one root in the step."""
    lo, hi = rec.t0, rec.t1
    glo = rec.y0[j] - level
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= hhlab.rk.CROSSING_TOL * max(1.0, abs(mid)):
            return mid
        gm = reference_hermite(rec, mid, j) - level
        if (glo <= 0.0) == (gm <= 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def roundoff(rec, j, level, t):
    """A bound on the rounding error of `reference_hermite` - level at t:
    16 units of roundoff of the sum of its terms' magnitudes."""
    h = rec.t1 - rec.t0
    s = (t - rec.t0) / h
    terms = ((1 + 2 * s) * (1 - s) ** 2 * rec.y0[j],
             s * s * (3 - 2 * s) * rec.y1[j],
             h * s * (1 - s) ** 2 * rec.f0[j],
             h * s * s * (s - 1) * rec.f1[j], level)
    return 16 * sys.float_info.epsilon * sum(map(abs, terms))


def hermite_slope(rec, t, j):
    """The t-derivative of component j's cubic Hermite interpolant at t."""
    y0, y1, f0, f1 = rec.y0[j], rec.y1[j], rec.f0[j], rec.f1[j]
    h = rec.t1 - rec.t0
    s = (t - rec.t0) / h
    return 6 * s * (1 - s) * (y1 - y0) / h + (1 - s) * (1 - 3 * s) * f0 \
        + s * (3 * s - 2) * f1


def sign_change_near(rec, j, level, t):
    """Whether `reference_hermite` - level changes sign (as `g <= 0` reads
    it) between t and a point of the step at most CROSSING_TOL max(1, |t|)
    from it: a bracket around t no wider than the crossing's tolerance.

    Near a root the rounded cubic can flip sign more than once, so the
    points are a grid of 64 on either side of t, not the window's ends.
    Where the cubic is so flat that its rounding hides the sign across a
    window wider than the tolerance, it flips at scattered floats that no
    grid reaches; there t must be a root to within `roundoff`."""
    width = hhlab.rk.CROSSING_TOL * max(1.0, abs(t))
    g = reference_hermite(rec, t, j) - level
    return any(
        (reference_hermite(rec, min(rec.t1, max(rec.t0, t + d)), j)
         - level <= 0.0) != (g <= 0.0)
        for k in range(1, 65) for d in (k * width / 64, -k * width / 64)) \
        or abs(g) <= roundoff(rec, j, level, t)


def monotone(rec, j):
    """Whether component j's cubic Hermite interpolant is monotone on the
    step, so that it crosses each level between its end values once: its
    slope, a quadratic in s, keeps one sign at s = 0, at s = 1 and at its
    vertex when that lies inside."""
    y0, y1, f0, f1 = rec.y0[j], rec.y1[j], rec.f0[j], rec.f1[j]
    h = rec.t1 - rec.t0
    # the slope is a s^2 + b s + f0
    a = 3 * (f0 + f1) - 6 * (y1 - y0) / h
    b = 6 * (y1 - y0) / h - 4 * f0 - 2 * f1
    points = [0.0, 1.0] + ([-b / (2 * a)] if a != 0.0 and
                           0.0 < -b / (2 * a) < 1.0 else [])
    values = [hermite_slope(rec, rec.t0 + s * h, j) for s in points]
    return all(v > 0.0 for v in values) or all(v < 0.0 for v in values)


@settings(max_examples=300, deadline=None)
@given(t0=st.floats(1e-7, 1e3), h=st.floats(1e-12, 10.0),
       seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 8),
       where=st.floats(-0.5, 1.5))
def test_interpolant_and_crossing_match_the_reference(t0, h, seed, dim,
                                                      where):
    # any level, crossed inside the step or not; NaN slopes included
    rng = np.random.default_rng(seed)
    y0, y1, f0, f1 = (rng.standard_normal((4, dim))
                      * 10.0 ** rng.uniform(-3.0, 3.0, (4, dim))).tolist()
    if rng.random() < 0.1:
        f1[rng.integers(dim)] = math.nan
    rec = StepRecord(t0, t0 + h, y0, y1, f0, f1)
    t = t0 + where * h
    for j in range(dim):
        assert bits(hermite_at(rec, t, j)) == \
            bits(reference_hermite(rec, t, j))
        level = y0[j] + where * (y1[j] - y0[j])
        root = hermite_crossing(rec, j, level)
        assert rec.t0 <= root <= rec.t1
        if (y0[j] - level <= 0.0) == (y1[j] - level <= 0.0) \
                or math.isnan(f1[j]):
            continue
        assert sign_change_near(rec, j, level, root)
        if monotone(rec, j):
            # both locations lie within the tolerance of a sign change of
            # the rounded cubic, and its sign changes lie within the span
            # where rounding can hide its sign, roundoff / |slope|
            width = hhlab.rk.CROSSING_TOL * max(1.0, abs(root))
            band = roundoff(rec, j, level, root) \
                / abs(hermite_slope(rec, root, j))
            assert abs(root - reference_crossing(rec, j, level)) \
                <= width + 2 * band


def lanes_of(rhs):
    """A LaneRK right-hand side that applies the float `rhs` row by row and
    writes the slopes into its slot."""
    def lane_rhs(t, y, out):
        out[...] = [rhs(ti, yi) for ti, yi in zip(t.tolist(), y.tolist())]
    return lane_rhs


def taped_line(rate, tape):
    """y = (x, label) with x' = rate t, except at the calls (numbered from
    1) that `tape` maps to another slope of x. DP5(4) integrates x' = rate
    t exactly, so its error estimate is rounding and each accepted step
    grows h fivefold. A lane's trial step k makes calls 6k - 4 to 6k + 1
    (its stages k2..k7) after the one call at the start, in LaneRK's
    passes and in AdaptiveRK's loop alike."""
    calls = []

    def rhs(t, y):
        calls.append(t)
        return [tape.get(len(calls), rate * t), 0.0]
    return rhs


class TestLaneRK:
    """Every lane must take exactly the steps AdaptiveRK takes for it alone
    (the per-row rhs below computes the same floats). Lanes are stepped
    here to their end (no handoff); `TestHandoff` covers the lanes LaneRK
    hands back."""

    @pytest.fixture(autouse=True)
    def no_handoff(self, monkeypatch):
        monkeypatch.setattr(hhlab.rk, "LANE_HANDOFF", 0)

    @staticmethod
    def float_run(rhs, y0, t_end, stop=None, t0=0.0, **kwargs):
        records = []

        def callback(rec):
            records.append(rec)
            return stop(rec) if stop else None
        try:
            out = AdaptiveRK(rhs, **kwargs).integrate(t0, y0, t_end,
                                                      callback)
        except IntegratorError as exc:
            out = exc
        return out, records

    @staticmethod
    def lane_run(rhs, y0, t_end, stop=None, **kwargs):
        records = {}

        def callback(accept, t0, t1, ya, yb, fa, fb):
            stops = {}
            for k in np.flatnonzero(accept).tolist():
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
                                           3.0, stop, **TOLS)
        for i, k in enumerate(rates):
            out, records = self.float_run(rhs, [0.0, k], 3.0, stop, **TOLS)
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
        (results, t, y), _ = self.lane_run(rhs, starts, 2.0, **TOLS)
        for i, y0 in enumerate(starts):
            out, records = self.float_run(rhs, y0, 2.0, **TOLS)
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

        def lane_rhs(t, y, out):
            lane_calls.append(t)
            out[...] = 0.0
            out[:, 0] = 1.0
            if len(lane_calls) == poisoned + 1:
                out[1, 0] = math.nan

        records = {}

        def callback(accept, t0, t1, ya, yb, fa, fb):
            for k in np.flatnonzero(accept).tolist():
                records.setdefault(float(ya[k, 1]), []).append(StepRecord(
                    float(t0[k]), float(t1[k]), ya[k].tolist(),
                    yb[k].tolist(), fa[k].tolist(), fb[k].tolist()))

        LaneRK(lane_rhs, **TOLS).integrate(0.0, [[0.0, 0.0], [0.0, 1.0]], 1.0,
                                           callback)
        _, clean = self.float_run(lambda t, y: [1.0, 0.0], [0.0, 0.0], 1.0,
                                  **TOLS)
        _, retried = self.float_run(float_rhs(), [0.0, 1.0], 1.0, **TOLS)
        assert records[0.0] == clean and records[1.0] == retried
        steps = [rec.t1 - rec.t0 for rec in retried]
        assert steps[3] == pytest.approx(0.25 * 5 * steps[2], rel=1e-9)

    def test_exhausted_budget_per_lane(self, monkeypatch):
        def rhs(t, y):
            return [-y[1] * y[0], 0.0]

        monkeypatch.setattr(hhlab.rk, "MAX_STEPS", 20)
        starts = [[1.0, 0.0], [1.0, 50.0]]
        (results, t, y), _ = self.lane_run(rhs, starts, 10.0, rtol=1e-10,
                                           atol=1e-10)
        # a zero rate has zero error, so the step grows fivefold each time
        assert results[0] is None and t[0] == 10.0
        out, _ = self.float_run(rhs, starts[1], 10.0, rtol=1e-10,
                                atol=1e-10)
        assert isinstance(results[1], IntegratorError)
        assert "budget" in str(results[1])
        assert results[1].state == out.state

    def test_mixed_passes(self, monkeypatch):
        # six lanes y = (x, label) of `taped_line` from t = 1, where the
        # first step is 1e-4. In pass 18 lane 0, whose slope is inf,
        # underflows after 17 quarter-step retries; lane 1 is rejected (a
        # slope of -1e12 in one stage), lane 2 retries (a NaN slope), and
        # the rest accept: lanes 4 and 5 reach t_end, and lane 3 (x' =
        # 1000 t, behind since its rejection in pass 10) crosses the level
        # the callback's screen stops at. Pass 19 accepts all three live
        # lanes (the slot swap) and pass 20 rejects lane 5 alone (its
        # second rejection), which then spends the budget of 20 trial
        # steps in pass 21, after two compactions
        monkeypatch.setattr(hhlab.rk, "MAX_STEPS", 20)
        h18 = 1e-4 * 5.0 ** 17
        t_end = 1.0 + 0.75 * h18
        level = 0.4 * h18 ** 2
        stage = {k: 6 * k - 3 for k in (10, 18, 20)}    # each pass's k3
        lanes = [(math.inf, {}), (1.0, {stage[18]: -1e12}),
                 (1.0, {stage[18]: math.nan}), (1e3, {stage[10]: -1e12}),
                 (1.0, {}), (1.0, {stage[10]: -1e12, stage[20]: -1e12})]

        def stop(rec):
            return ("stop", rec.t1) if rec.y1[0] > level else None

        taped = [taped_line(rate, tape) for rate, tape in lanes]
        passes, lane_records = [], {}

        def callback(accept, t0, t1, ya, yb, fa, fb):
            labels = ya[:, 1].tolist()
            passes.append(dict(zip(labels, accept.tolist())))
            for k in np.flatnonzero(accept).tolist():
                lane_records.setdefault(labels[k], []).append(StepRecord(
                    float(t0[k]), float(t1[k]), ya[k].tolist(),
                    yb[k].tolist(), fa[k].tolist(), fb[k].tolist()))
            # the screen over every lane, a record only where it hits
            hit = np.flatnonzero(accept & (yb[:, 0] > level))
            return {k: stop(StepRecord(float(t0[k]), float(t1[k]),
                                       ya[k].tolist(), yb[k].tolist(),
                                       fa[k].tolist(), fb[k].tolist()))
                    for k in hit.tolist()}

        def lane_rhs(t, y, out):
            out[...] = [taped[int(yi[1])](ti, yi)
                        for ti, yi in zip(t.tolist(), y.tolist())]

        results, t, y = LaneRK(lane_rhs, **TOLS).integrate(
            1.0, [[0.0, float(i)] for i in range(6)], t_end, callback)
        assert len(passes) == 21
        assert passes[17] == {0.0: False, 1.0: False, 2.0: False, 3.0: True,
                              4.0: True, 5.0: True}
        assert passes[18] == {1.0: True, 2.0: True, 5.0: True}
        assert passes[19] == {1.0: True, 2.0: True, 5.0: False}
        assert passes[20] == {5.0: False}
        for i, (rate, tape) in enumerate(lanes):
            out, records = self.float_run(taped_line(rate, tape), [0.0, i],
                                          t_end, stop, t0=1.0, **TOLS)
            assert lane_records.get(float(i), []) == records
            if isinstance(out, IntegratorError):
                assert type(results[i]) is IntegratorError
                assert str(results[i]) == str(out)
                assert results[i].state == out.state
                assert (t[i], y[i].tolist()) == out.state
            else:
                assert results[i] == out
                assert (t[i], y[i].tolist()) == (records[-1].t1,
                                                 records[-1].y1)
        assert [type(out).__name__ for out in results] == [
            "IntegratorError", "NoneType", "NoneType", "tuple", "NoneType",
            "IntegratorError"]
        assert "underflow" in str(results[0]) and "budget" in str(results[5])
        assert results[3] == ("stop", t[3]) and t[3] < t_end == t[4]

    def test_no_lanes(self):
        results, t, y = LaneRK(lanes_of(lambda t, y: y), **TOLS).integrate(
            0.0, np.empty((0, 2)), 1.0)
        assert results == [] and t.shape == (0,) and y.shape == (0, 2)


class TestHandoff:
    """At LANE_HANDOFF live lanes or fewer, LaneRK hands every lane back
    as a `Resume`; `AdaptiveRK.resume` then finishes it with the steps
    AdaptiveRK takes for that lane alone."""

    @staticmethod
    def finish(rhs, y0, t_end, stop=None, **kwargs):
        # each lane's records: its lane steps, then its resumed steps
        (results, t, y), records = TestLaneRK.lane_run(rhs, y0, t_end, stop,
                                                       **kwargs)
        outs = []
        for i, out in enumerate(results):
            if isinstance(out, hhlab.rk.Resume):
                lane = records.setdefault(float(y[i, -1]), [])

                def callback(rec, lane=lane):
                    lane.append(rec)
                    return stop(rec) if stop else None
                try:
                    out = AdaptiveRK(rhs, **kwargs).resume(
                        t[i], y[i], t_end, *out, step_callback=callback)
                except IntegratorError as exc:
                    out = exc
            outs.append(out)
        return outs, records

    @pytest.mark.parametrize("handoff", [1, 2, 3, 4, 10])
    def test_handed_back_lanes_end_where_the_float_stepper_ends(
            self, monkeypatch, handoff):
        # the decay rates end the lanes at different passes, so each
        # handoff leaves a different number of lanes mid-run (all four at
        # pass 0 for 4 and 10)
        def rhs(t, y):
            return [-y[1] * y[0], 0.0]

        def stop(rec):
            return ("low", rec.t1) if rec.y1[0] < 0.1 else None

        monkeypatch.setattr(hhlab.rk, "LANE_HANDOFF", handoff)
        rates = [0.5, 2.0, 6.0, 30.0]
        outs, lane_records = self.finish(rhs, [[1.0, k] for k in rates], 2.0,
                                         stop, rtol=1e-9, atol=1e-12)
        for i, k in enumerate(rates):
            out, records = TestLaneRK.float_run(rhs, [1.0, k], 2.0, stop,
                                                rtol=1e-9, atol=1e-12)
            assert outs[i] == out
            assert lane_records[k] == records

    @pytest.mark.parametrize("handoff", [1, 2])
    def test_budget_counts_on_across_the_handoff(self, monkeypatch, handoff):
        # the slow lane ends early; the fast one spends its budget after it
        # is handed back, at the trial step where it would spend it alone
        def rhs(t, y):
            return [-y[1] * y[0], 0.0]

        monkeypatch.setattr(hhlab.rk, "LANE_HANDOFF", handoff)
        monkeypatch.setattr(hhlab.rk, "MAX_STEPS", 30)
        starts = [[1.0, 0.0], [1.0, 50.0], [1.0, 80.0]]
        outs, records = self.finish(rhs, starts, 10.0, rtol=1e-10,
                                    atol=1e-10)
        assert outs[0] is None
        for i in (1, 2):
            out, float_records = TestLaneRK.float_run(
                rhs, starts[i], 10.0, rtol=1e-10, atol=1e-10)
            assert "budget" in str(outs[i]) and str(outs[i]) == str(out)
            assert outs[i].state == out.state
            assert records[starts[i][1]] == float_records

    def test_pass_zero_handoff_resumes_at_the_first_step(self, monkeypatch):
        monkeypatch.setattr(hhlab.rk, "LANE_HANDOFF", 2)
        results, t, y = LaneRK(lanes_of(lambda t, y: [0.0, 0.0]),
                               **TOLS).integrate(0.5, [[1.0, 2.0]], 3.0)
        assert results == [hhlab.rk.Resume(hhlab.rk._first_step(0.5, 3.0),
                                           0)]
        assert t.tolist() == [0.5] and y.tolist() == [[1.0, 2.0]]


def reference_step(integ, t, y, h, f0):
    """The trial step written as loops over the components: the formula
    the generated step unrolls, operation for operation, with its own copy
    of the Dormand-Prince coefficients (Hairer, Norsett & Wanner, Table
    II.5.2) written as literals."""
    rhs = integ.rhs
    k1 = f0
    k2 = rhs(t + 1 / 5 * h, [v + h * (1 / 5 * a) for v, a in zip(y, k1)])
    k3 = rhs(t + 3 / 10 * h, [v + h * (3 / 40 * a + 9 / 40 * b)
                              for v, a, b in zip(y, k1, k2)])
    k4 = rhs(t + 4 / 5 * h, [v + h * (44 / 45 * a + -56 / 15 * b
                                      + 32 / 9 * d)
                             for v, a, b, d in zip(y, k1, k2, k3)])
    k5 = rhs(t + 8 / 9 * h, [v + h * (19372 / 6561 * a + -25360 / 2187 * b
                                      + 64448 / 6561 * d + -212 / 729 * e)
                             for v, a, b, d, e in zip(y, k1, k2, k3, k4)])
    k6 = rhs(t + h, [v + h * (9017 / 3168 * a + -355 / 33 * b
                              + 46732 / 5247 * d + 49 / 176 * e
                              + -5103 / 18656 * g)
                     for v, a, b, d, e, g in zip(y, k1, k2, k3, k4, k5)])
    y1 = [v + h * (35 / 384 * a + 500 / 1113 * d + 125 / 192 * e
                   + -2187 / 6784 * g + 11 / 84 * q)
          for v, a, d, e, g, q in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(t + h, y1)
    err = 0.0
    for v, z, a, d, e, g, q, k in zip(y, y1, k1, k3, k4, k5, k6, k7):
        # fifth- minus fourth-order weights
        ratio = abs(h * ((35 / 384 - 5179 / 57600) * a
                         + (500 / 1113 - 7571 / 16695) * d
                         + (125 / 192 - 393 / 640) * e
                         + (-2187 / 6784 - -92097 / 339200) * g
                         + (11 / 84 - 187 / 2100) * q + -1 / 40 * k))
        v, z = abs(v), abs(z)
        ratio /= integ.atol + integ.rtol * (v if v > z else z)
        if ratio > err or ratio != ratio:
            err = ratio
    return y1, k7, err


def tableau():
    """The Butcher tableau (A, c, b, b_hat) of the seven stages, read from
    the rows both steppers walk: `_STAGES` gives rows 2-6 of A and c,
    `_NEW_STATE` the fifth-order weights b, which are also row 7 (FSAL,
    c_7 = 1), and `_ERROR` the weights b - b_hat."""
    A, c = np.zeros((7, 7)), np.zeros(7)
    for row, (c_row, terms) in enumerate(hhlab.rk._STAGES, start=1):
        c[row] = c_row
        for coef, j in terms:
            A[row, j] = coef
    for coef, j in hhlab.rk._NEW_STATE:
        A[6, j] = coef
    c[6] = 1.0
    e = np.zeros(7)
    for coef, j in hhlab.rk._ERROR:
        e[j] = coef
    return A, c, A[6].copy(), A[6] - e


def order_conditions(A, c, w, order):
    """(sum, exact value) of the order conditions of the weights w up to
    `order` (<= 5), one per rooted tree (Hairer, Norsett & Wanner, Table
    II.2.2), with the row-sum simplification c = A 1."""
    Ac = A @ c
    trees = [(w.sum(), 1), (w @ c, 1 / 2), (w @ c ** 2, 1 / 3),
             (w @ Ac, 1 / 6), (w @ c ** 3, 1 / 4), (w @ (c * Ac), 1 / 8),
             (w @ (A @ c ** 2), 1 / 12), (w @ (A @ Ac), 1 / 24)]
    if order == 5:
        trees += [(w @ c ** 4, 1 / 5), (w @ (c ** 2 * Ac), 1 / 10),
                  (w @ (c * (A @ c ** 2)), 1 / 15),
                  (w @ (c * (A @ Ac)), 1 / 30), (w @ Ac ** 2, 1 / 20),
                  (w @ (A @ c ** 3), 1 / 20), (w @ (A @ (c * Ac)), 1 / 40),
                  (w @ (A @ (A @ c ** 2)), 1 / 60),
                  (w @ (A @ (A @ Ac)), 1 / 120)]
    return trees


class TestTableau:
    """The one statement of the pair meets the order conditions, to
    1e-14: a wrong coefficient in it fails here, whichever stepper reads
    it."""

    def test_rows_are_explicit_and_sum_to_their_node(self):
        # the new state's weights b are row 7 of A (FSAL): k7 is taken at
        # t + h, so they sum to 1
        rows = [*hhlab.rk._STAGES, (1.0, hhlab.rk._NEW_STATE)]
        for i, (c, terms) in enumerate(rows, start=1):
            assert [j for _, j in terms] == sorted({j for _, j in terms})
            assert all(j < i for _, j in terms)
            assert abs(math.fsum(coef for coef, _ in terms) - c) <= 1e-14
        assert rows[4][0] == 1.0    # k6 is taken at t + h
        assert all(j <= 6 for _, j in hhlab.rk._ERROR)

    def test_fifth_order_weights(self):
        A, c, b, _ = tableau()
        for value, exact in order_conditions(A, c, b, 5):
            assert abs(value - exact) <= 1e-14

    def test_embedded_weights_are_fourth_order_only(self):
        A, c, _, b_hat = tableau()
        for value, exact in order_conditions(A, c, b_hat, 4):
            assert abs(value - exact) <= 1e-14
        # not fifth order, or the error estimate would miss the h^5 term
        assert abs(b_hat @ c ** 4 - 1 / 5) > 1e-4


def bits(values):
    """The IEEE bit patterns of a float or a list of floats, so signed
    zeros compare too; every NaN reads "nan", since the payload a NaN
    operand passes on is not fixed by the operation order in CPython."""
    if isinstance(values, float):
        values = [values]
    return [b"nan" if v != v else struct.pack("<d", v) for v in values]


_EDGE = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308,
                         -1e308, 5e-324])


@st.composite
def _trial_steps(draw):
    """A dimension 1-8, a trial step (t, y, h, f0), tolerances, the six
    slopes the right-hand side returns in call order, and a component whose
    last slope is NaN (or None). Values are generic floats of random sign
    and magnitude (so a reordered sum rounds differently), with edge values
    written over some of them."""
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = (rng.standard_normal((8, dim))
              * 10.0 ** rng.uniform(-3.0, 3.0, (8, dim))).tolist()
    for row, col, edge in draw(st.lists(st.tuples(
            st.integers(0, 7), st.integers(0, dim - 1), _EDGE),
            max_size=4)):
        values[row][col] = edge
    y, f0, slopes = values[0], values[1], values[2:]
    nan_at = draw(st.one_of(st.none(), st.integers(0, dim - 1)))
    if nan_at is not None:
        slopes[-1][nan_at] = math.nan
    h = draw(st.one_of(st.floats(1e-12, 10.0), _EDGE))
    return (dim, draw(st.floats(-1e3, 1e3)), y, h, f0, slopes,
            draw(st.floats(1e-14, 1e-2)), draw(st.floats(1e-14, 1e-2)),
            nan_at)


def reference_step_factor(err):
    """The step controller's factor on h after a finite trial step with
    scaled error err, as a min/max clamp: an error of 0 grows h by 5, a NaN
    error shrinks it by 0.2."""
    if not err > 0.0:
        return 0.2 if err != err else 5.0
    return min(5.0, max(0.2, 0.9 * err ** -0.2))


def reference_integrate(integ, t0, y0, t_end, step_callback=None):
    """AdaptiveRK's integration loop written out around `reference_step`:
    the loop the generated one unrolls, statement for statement."""
    t0 = float(t0)
    return reference_resume(integ, t0, y0, t_end,
                            hhlab.rk._first_step(t0, t_end), 0, step_callback)


def reference_resume(integ, t, y, t_end, h, steps, step_callback=None):
    """`reference_integrate` from (t, y) with the trial step h, after
    `steps` trial steps."""
    t = float(t)
    y = [float(v) for v in y]
    f = integ.rhs(t, y)
    while t < t_end:
        h = min(h, t_end - t)
        if h < hhlab.rk.H_MIN_FACTOR * max(abs(t), 1e-30):
            raise hhlab.rk._integrator_error(
                f"step size underflow at r={t:.6g}", t, y)
        y1, f1, err = reference_step(integ, t, y, h, f)
        steps += 1
        if steps > hhlab.rk.MAX_STEPS:
            raise hhlab.rk._integrator_error("step budget exhausted", t, y)
        if not all(map(math.isfinite, y1)):
            h *= 0.25
            continue
        if err <= 1.0:
            rec = StepRecord(t, t + h, y, y1, f, f1)
            t, y, f = t + h, y1, f1
            if step_callback is not None:
                out = step_callback(rec)
                if out is not None:
                    return out
        h *= reference_step_factor(err)
    return None


def record_bits(rec):
    return [bits(rec.t0), bits(rec.t1), bits(rec.y0), bits(rec.y1),
            bits(rec.f0), bits(rec.f1)]


class TestGeneratedStep:
    """AdaptiveRK's integration loop is generated, the trial step inlined;
    it must do what `reference_integrate` does, bit for bit."""

    @staticmethod
    def taped(f0, slopes, calls):
        # returns f0 first, then the drawn slopes of every trial step in
        # call order, and records every call
        def rhs(t, y):
            calls.append(bits(t) + bits(list(y)))
            return list(slopes[(len(calls) - 2) % 6] if len(calls) > 1
                        else f0)
        return rhs

    @staticmethod
    def run(integrate, rhs, t0, y0, t_end, atol, rtol, stop_at):
        # the records and the return value or error of one run
        records = []

        def callback(rec):
            records.append(record_bits(rec))
            return "stop" if len(records) == stop_at else None
        try:
            out = integrate(AdaptiveRK(rhs, rtol=rtol, atol=atol), t0, y0,
                            t_end, callback)
        except IntegratorError as exc:
            out = (str(exc), bits(exc.state[0]), bits(exc.state[1]))
        return records, out

    @settings(max_examples=300, deadline=None)
    @given(case=_trial_steps(), budget=st.integers(1, 4),
           stop_at=st.one_of(st.none(), st.integers(1, 3)))
    def test_step_matches_the_component_loops(self, case, budget, stop_at):
        # every trial step sees the same six slopes; the span is the drawn
        # h, so a run may end at t_end, underflow, spend its budget of
        # trial steps or be stopped by its callback
        dim, t, y, h, f0, slopes, rtol, atol, nan_at = case
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hhlab.rk, "MAX_STEPS", budget)
            for integrate in (AdaptiveRK.integrate, reference_integrate):
                calls = []
                runs.append((calls, *self.run(
                    integrate, self.taped(f0, slopes, calls), t, y, t + h,
                    atol, rtol, stop_at)))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) % 6 == 1
        if nan_at is not None:
            # a NaN in any component's error sticks, and rejects every step
            assert runs[0][1] == []

    @settings(max_examples=150, deadline=None)
    @given(case=_trial_steps(), budget=st.integers(1, 4),
           spent=st.integers(0, 4), span=st.floats(0.5, 8.0),
           stop_at=st.one_of(st.none(), st.integers(1, 3)))
    def test_resume_matches_the_component_loops(self, case, budget, spent,
                                                span, stop_at):
        # resumed with the drawn step h after `spent` trial steps, over a
        # span of `span` h: the budget counts on from `spent`
        dim, t, y, h, f0, slopes, rtol, atol, nan_at = case
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hhlab.rk, "MAX_STEPS", budget)
            for resume in (AdaptiveRK.resume, reference_resume):
                def integrate(integ, t0, y0, t_end, callback):
                    return resume(integ, t0, y0, t_end, h, spent, callback)
                calls = []
                runs.append((calls, *self.run(
                    integrate, self.taped(f0, slopes, calls), t, y,
                    t + span * h, atol, rtol, stop_at)))
        assert runs[0] == runs[1]
        calls, records, out = runs[0]
        if spent >= budget and len(calls) > 1:
            # the first trial step taken spends the budget
            assert records == [] and "budget" in out[0]

    def test_integrate_compiles_one_loop_per_dimension(self, monkeypatch):
        # and one per kind of callback: none, or one that is called
        monkeypatch.setattr(hhlab.rk, "_LOOPS", {})
        for dim in (1, 2, 2, 5, 1):
            AdaptiveRK(lambda t, y: [-v for v in y], **TOLS).integrate(
                0.0, [1.0] * dim, 1.0)
        assert sorted(key[0] for key in hhlab.rk._LOOPS) == [1, 2, 5]
        AdaptiveRK(lambda t, y: [-v for v in y], **TOLS).integrate(
            0.0, [1.0, 1.0], 1.0, lambda rec: None)
        assert sorted(key[0] for key in hhlab.rk._LOOPS) == [1, 2, 2, 5]

    def test_rhs_is_read_at_every_step(self):
        # a right-hand side replaced after construction is the one called,
        # also in place of one that carries a fragment
        calls = []
        integ = AdaptiveRK(decay_with_fragment(0.5), **TOLS)

        def counted(t, y):
            calls.append(t)
            return [0.0, 0.0]
        integ.rhs = counted
        integ.integrate(0.0, [1.0, 2.0], 1.0)
        assert len(calls) % 6 == 1 and len(calls) > 6

    def test_fragments_are_written_in_and_wrappers_called(self):
        # an rhs and a callback that carry fragments run in the loop with
        # no call; wrapped as functools wraps them (the wrapper copies the
        # fragment, and has __wrapped__), both are called; the two routes
        # give the same steps, bit for bit
        runs = []
        for wrap in (False, True):
            rhs, calls, ends = decay_with_fragment(0.5), [], []

            def callback(rec):
                ends.append(rec.t1)
                return "stop" if len(ends) == 5 else None
            callback.splice = ("ends.append({t1})\n"
                               "if len(ends) == 5:\n"
                               "    return 'stop'", ("ends",), (ends,))
            if wrap:
                rhs = functools.wraps(rhs)(
                    lambda t, y, rhs=rhs: calls.append(t) or rhs(t, y))
                callback = functools.wraps(callback)(
                    lambda rec, fn=callback: fn(rec))
            out = AdaptiveRK(rhs, **TOLS).integrate(0.0, [1.0, -2.0], 3.0,
                                                    callback)
            runs.append((out, bits(ends)))
            assert len(calls) == (6 * 5 + 1 if wrap else 0)
        assert runs[0] == runs[1] and runs[0][0] == "stop"


def decay_with_fragment(rate):
    """y' = -rate y on two components, with the fragment of its slopes."""
    def rhs(t, y):
        return [-rate * y[0], -rate * y[1]]
    rhs.splice = ("{f[0]} = -rate * {y[0]}\n{f[1]} = -rate * {y[1]}",
                  ("rate",), (rate,))
    return rhs


def reference_lane_step(integ, t, y, h, f0):
    """The lane trial step as one broadcast expression per stage: the
    formula `LaneRK._step` accumulates in place, operation for operation,
    with its own literal copy of the coefficients of Table II.5.2."""
    def rhs(r, y):
        out = np.empty_like(y)
        integ.rhs(r, y, out)
        return out

    hc = h[:, None]
    k1 = f0
    k2 = rhs(t + 1 / 5 * h, y + hc * (1 / 5 * k1))
    k3 = rhs(t + 3 / 10 * h, y + hc * (3 / 40 * k1 + 9 / 40 * k2))
    k4 = rhs(t + 4 / 5 * h, y + hc * (44 / 45 * k1 + -56 / 15 * k2
                                      + 32 / 9 * k3))
    k5 = rhs(t + 8 / 9 * h, y + hc * (19372 / 6561 * k1
                                      + -25360 / 2187 * k2
                                      + 64448 / 6561 * k3
                                      + -212 / 729 * k4))
    k6 = rhs(t + h, y + hc * (9017 / 3168 * k1 + -355 / 33 * k2
                              + 46732 / 5247 * k3 + 49 / 176 * k4
                              + -5103 / 18656 * k5))
    y1 = y + hc * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                   + -2187 / 6784 * k5 + 11 / 84 * k6)
    k7 = rhs(t + h, y1)
    ratio = np.abs(hc * ((35 / 384 - 5179 / 57600) * k1
                         + (500 / 1113 - 7571 / 16695) * k3
                         + (125 / 192 - 393 / 640) * k4
                         + (-2187 / 6784 - -92097 / 339200) * k5
                         + (11 / 84 - 187 / 2100) * k6 + -1 / 40 * k7))
    ratio /= integ.atol + integ.rtol * np.maximum(np.abs(y), np.abs(y1))
    return y1, k7, ratio.max(axis=1)


def array_bits(a):
    """The NaN positions of an array and the IEEE bit patterns of the rest
    (signed zeros compare; a NaN's payload does not)."""
    a = np.array(a, dtype=float)
    nan = np.isnan(a)
    return nan.tolist(), np.where(nan, 0.0, a).view(np.uint64).tolist()


_LANE_EDGE = [math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324,
              -2e-310, 0.0, -0.0]


@st.composite
def _lane_steps(draw):
    """A lane trial step: 1, 2, 7 or 300 lanes of dimension 2-8 in C or F
    order, per-lane t and h, tolerances, and the six slopes the right-hand
    side returns in call order. Values are generic floats of random sign
    and magnitude, and some rows hold inf, NaN, huge or denormal entries."""
    lanes = draw(st.sampled_from([1, 2, 7, 300]))
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = (rng.standard_normal((8, lanes, dim))
              * 10.0 ** rng.uniform(-3.0, 3.0, (8, lanes, dim)))
    for _ in range(draw(st.integers(0, 6))):
        values[rng.integers(8), rng.integers(lanes), rng.integers(dim)] = \
            _LANE_EDGE[rng.integers(len(_LANE_EDGE))]
    h = 10.0 ** rng.uniform(-12.0, 1.0, lanes)
    if draw(st.booleans()):
        h[rng.integers(lanes)] = _LANE_EDGE[rng.integers(len(_LANE_EDGE))]
    t = rng.uniform(-1e3, 1e3, lanes)
    order = draw(st.sampled_from("CF"))
    values = [np.array(v, order=order) for v in values]
    return (t, values[0], h, values[1], values[2:],
            draw(st.floats(1e-14, 1e-2)), draw(st.floats(1e-14, 1e-2)))


class TestLaneStep:
    """`LaneRK._step` accumulates every stage in place; it must compute
    what the broadcast formula of `reference_lane_step` computes, bit for
    bit, and give the right-hand side the same stage states."""

    @staticmethod
    def taped(slopes, calls):
        # writes the drawn slopes into its slot in call order and records
        # a copy of every stage (the stage buffer is scratch)
        def rhs(t, y, out):
            calls.append((t.copy(), np.array(y)))
            out[...] = slopes[len(calls) - 1]
        return rhs

    @settings(max_examples=200, deadline=None)
    @given(case=_lane_steps())
    def test_step_matches_the_broadcast_formula(self, case):
        t, y, h, f0, slopes, rtol, atol = case
        runs = []
        with np.errstate(all="ignore"):
            for step in (LaneRK._step, reference_lane_step):
                calls = []
                integ = LaneRK(self.taped(slopes, calls), rtol=rtol,
                               atol=atol)
                y1, k7, err = step(integ, t, y.copy(order="K"), h,
                                   f0.copy(order="K"))
                runs.append(([array_bits(ti) + array_bits(yi)
                              for ti, yi in calls], array_bits(y1),
                             array_bits(k7), array_bits(err)))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == 6

    @pytest.mark.parametrize("errors", [
        [0.0, math.nan, 5e-324, 1e-30, 1e-4, 0.5, 1.0, 3.0, 1845.0, 1e5,
         math.inf],
        [5e-324, 1e-4, 0.5, 1.0, 3.0, 1845.0, 1e5, math.inf]],
        ids=["mixed", "all-positive"])
    def test_factors_are_the_float_step_factor(self, errors):
        # each lane's factor on h is `reference_step_factor` of its error,
        # or the 0.25 retry where its trial state is not finite
        err = np.array(errors)
        for finite in (np.ones(err.size, bool), np.arange(err.size) % 3 > 0):
            # under LaneRK.integrate's errstate: 0 ** -0.2 divides by zero
            with np.errstate(all="ignore"):
                got = hhlab.rk._lane_factors(err, finite)
            want = [reference_step_factor(e) if ok else hhlab.rk._RETRY
                    for e, ok in zip(errors, finite)]
            assert bits(got.tolist()) == bits(want)


def _power_or_inf(base, exponent):
    # float ** with its OverflowError read as inf, as float_powers reads it
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def lane_powers(base, exponent):
    # float_powers under the errstate its callers run it in
    with np.errstate(all="ignore"):
        return hhlab.rk.float_powers(base, exponent)


_POWER_EDGE = [0.0, -0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, 1.0,
               1e154, 1e300, 1.7976931348623157e308, math.inf, math.nan]


class TestFloatPowers:
    BASES = [0.0, -0.0, 1.0, 5e-324, 2.5e-310, 2.2250738585072014e-308,
             0.5, 3.7, 1e154, 1e200, 1e308, math.inf, math.nan]

    @pytest.mark.parametrize("exponent", [2.0, 3.0, 1.5, 4.7, 0.5, 1e-3,
                                          1.0000001, 400.0])
    def test_equals_float_power_bit_for_bit(self, exponent):
        got = lane_powers(np.array(self.BASES), exponent)
        want = [_power_or_inf(b, exponent) for b in self.BASES]
        assert bits(got.tolist()) == bits(want)
        if exponent >= 2.0:
            # (1e200) ** 2 and up leave the float range
            assert got[self.BASES.index(1e200)] == math.inf

    @pytest.mark.parametrize("exponent", [-0.2, -1.5, -3.0])
    def test_negative_exponent_on_positive_bases(self, exponent):
        # the step factor takes err ** -0.2 of positive errors only; a
        # denormal base overflows
        bases = [b for b in self.BASES if not b == 0.0]
        got = lane_powers(np.array(bases), exponent)
        assert bits(got.tolist()) == bits([_power_or_inf(b, exponent)
                                           for b in bases])

    @settings(max_examples=200, deadline=None)
    @given(exponent=st.floats(-3.0, 8.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_generic_bases(self, exponent, seed):
        rng = np.random.default_rng(seed)
        bases = 10.0 ** rng.uniform(-300.0, 300.0, 50)
        got = lane_powers(bases, exponent)
        assert bits(got.tolist()) == bits([_power_or_inf(b, exponent)
                                           for b in bases.tolist()])

    @settings(max_examples=300, deadline=None)
    @given(exponent=st.one_of(
               st.floats(1.0, 1e3, exclude_min=True),         # u^p
               st.integers(1, 499).map(lambda k: 2.0 * k + 1),  # odd p
               st.floats(-3.0, 2.0, exclude_max=True).map(lambda a: -a),
               st.just(-0.2)),                                 # err^-0.2
           edges=st.lists(st.sampled_from(_POWER_EDGE), max_size=12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_lane_exponents(self, exponent, edges, seed):
        # the powers lanes take: u^p with u >= 0 (-0.0 kept), r^(-a) of
        # radii r > 0 and err^-0.2 of errors > 0, over bases from
        # denormal to the top of the float range, where u^p and a
        # denormal's negative power overflow; inf and NaN pass through
        rng = np.random.default_rng(seed)
        bases = np.concatenate([10.0 ** rng.uniform(-323.0, 308.0, 60),
                                rng.uniform(0.0, 4.0, 20), edges])
        if exponent < 0.0:
            bases = bases[bases != 0.0]
        got = lane_powers(bases, exponent)
        assert bits(got.tolist()) == bits([_power_or_inf(b, exponent)
                                           for b in bases.tolist()])
