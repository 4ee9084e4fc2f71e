import dataclasses
import functools
import itertools
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hhlab.liouville
import hhlab.rk
from hhlab.errors import IntegratorError
from hhlab.liouville import (DEFAULT_BLOW_THRESHOLD, DEFAULT_R0,
                             DEFAULT_SIGN_TOL, OutcomeKind, bubble_amplitude,
                             bubble_oracle, reference_axes,
                             representation_check, scan, shoot, shoot_cell,
                             shoot_from)
from hhlab.navier import kelvin_transform
from hhlab.radial import (HardyHenonParams, RadialField, RadialGrid,
                          radial_laplacian, singular_solution)

CRITICAL = HardyHenonParams(4, 2, 0.0, 2.0)


class TestShoot:
    def test_negative_second_layer_never_survives_positive(self):
        # u1(0) < 0 starts below the required-positive cone
        out = shoot([1.0, -0.5], CRITICAL, 50.0)
        assert out.kind in (OutcomeKind.SIGN_LOSS, OutcomeKind.BLOW_UP)
        assert out.kind is OutcomeKind.SIGN_LOSS and out.layer_index == 1

    def test_zero_higher_layer_driven_negative(self):
        # -Lap u1 = u^p > 0 with u1(0) = 0 forces u1 < 0 immediately
        out = shoot([1.0, 0.0], CRITICAL, 50.0)
        assert out.kind is OutcomeKind.SIGN_LOSS
        assert out.layer_index == 1
        assert out.r_star < 1e-3

    def test_all_positive_layers_still_classified(self):
        out = shoot([5.0, 3.0], CRITICAL, 50.0)
        assert out.kind is not OutcomeKind.SURVIVED
        assert out.r_star <= 50.0

    def test_singular_solution_tracking(self, monkeypatch):
        # start exactly on C r^(-sigma); layers alternate sign, so the run
        # with shoot_from has the sign rule switched off; the trajectory
        # must follow the profile
        sigma, C = singular_solution(CRITICAL)
        r0, r_max = 0.5, 6.0
        state = [C * r0 ** -sigma, -sigma * C * r0 ** (-sigma - 1),
                 -8.0 * C * r0 ** -6.0, 48.0 * C * r0 ** -7.0]
        monkeypatch.setattr(hhlab.liouville, "DEFAULT_SIGN_TOL", math.inf)
        monkeypatch.setattr(hhlab.liouville, "DEFAULT_RTOL", 1e-12)
        monkeypatch.setattr(hhlab.liouville, "DEFAULT_ATOL", 1e-14)
        out = shoot_from(state, r0, CRITICAL, r_max)
        assert out.kind is OutcomeKind.SURVIVED
        exact = C * out.trace_r ** -sigma
        rel = np.max(np.abs(out.trace_y[:, 0] - exact) / exact)
        assert rel < 1e-4

    def test_input_validation(self):
        with pytest.raises(ValueError):
            shoot([-1.0, 0.5], CRITICAL, 10.0)
        with pytest.raises(ValueError):
            shoot([1.0], CRITICAL, 10.0)
        with pytest.raises(ValueError):
            shoot_from([1.0, 0.0, 1.0, 0.0], 0.0, CRITICAL, 10.0)

    @pytest.mark.parametrize("init,kwargs", [
        ([math.nan, 0.5], {}),      # NaN slips past a u(0) <= 0 test
        ([1.0, math.inf], {}),
        ([1.0, 0.5], {"r_max": math.nan}),
        ([1.0, 0.5], {"r_max": math.inf}),
        ([1.0, 0.5], {"r_max": DEFAULT_R0}),    # an empty span
        ([1.0, 0.5], {"r_max": -1.0}),
    ])
    def test_shoot_rejects_non_finite_and_non_positive_input(self, init,
                                                             kwargs):
        kwargs = {"r_max": 10.0, **kwargs}
        with pytest.raises(ValueError):
            shoot(init, CRITICAL, **kwargs)

    @pytest.mark.parametrize("state,r0,kwargs", [
        ([1.0, math.nan, 1.0, 0.0], 0.5, {}),
        ([1.0, 0.0, -math.inf, 0.0], 0.5, {}),
        ([1.0, 0.0, 1.0, 0.0], math.nan, {}),
        ([1.0, 0.0, 1.0, 0.0], 0.5, {"r_max": math.inf}),
    ])
    def test_shoot_from_rejects_non_finite_input(self, state, r0, kwargs):
        kwargs = {"r_max": 10.0, **kwargs}
        with pytest.raises(ValueError):
            shoot_from(state, r0, CRITICAL, **kwargs)

    def test_hardy_weight_start(self):
        # 0 < a < 2 integrates from a Taylor start off the origin
        params = HardyHenonParams(4, 2, 0.5, 2.0)
        out = shoot([1.0, 1.0], params, 20.0)
        assert out.kind in (OutcomeKind.SIGN_LOSS, OutcomeKind.BLOW_UP)

    def test_strong_hardy_weight_rejected_from_origin(self):
        params = HardyHenonParams(4, 2, 2.5, 2.0)
        with pytest.raises(ValueError):
            shoot([1.0, 1.0], params, 10.0)

    def test_taylor_start_consistency(self):
        y = hhlab.liouville.taylor_starts([[2.0, 3.0]], CRITICAL, 1e-6)[0]
        # u(r0) = u(0) - u1(0) r0^2 / (2n)
        assert y[0] == pytest.approx(2.0 - 3.0 * 1e-12 / 8.0)
        assert y[1] == pytest.approx(-3.0 * 1e-6 / 4.0)

    def test_blow_up_detection(self, monkeypatch):
        # with the sign classification disabled (huge tolerance), a negative
        # second layer pumps quadratic growth into u and the source feeds
        # back: the trajectory crosses the blow-up threshold at finite radius
        monkeypatch.setattr(hhlab.liouville, "DEFAULT_SIGN_TOL", 1e30)
        out = shoot([1.0, -1.0], CRITICAL, 100.0)
        assert out.kind is OutcomeKind.BLOW_UP
        assert out.r_star < 100.0
        assert out.trace_y[-1, 0] > 1e7


class TestScan:
    def test_empty_axis_gives_empty_table(self):
        res = scan([np.array([]), np.array([0.0])], CRITICAL, 10.0)
        assert res.records == ()
        assert res.tally["cells"] == 0

    def test_axis_count_must_match_layers(self):
        with pytest.raises(ValueError):
            scan([np.array([1.0])], CRITICAL, 10.0)

    def test_rejects_nonpositive_u0(self):
        with pytest.raises(ValueError):
            scan([np.array([0.0]), np.array([1.0])], CRITICAL, 10.0)

    @pytest.mark.parametrize("axes,r_max,kwargs", [
        ([[1.0, math.nan], [1.0]], 10.0, {}),
        ([[1.0], [math.inf]], 10.0, {}),
        ([[1.0], [1.0]], math.nan, {}),
    ])
    def test_rejects_bad_input_before_any_cell(self, axes, r_max, kwargs,
                                               monkeypatch):
        def no_cells(*args, **kw):
            raise AssertionError("a cell was started")

        monkeypatch.setattr("hhlab.liouville.taylor_starts", no_cells)
        with pytest.raises(ValueError):
            scan([np.array(ax) for ax in axes], CRITICAL, r_max, **kwargs)

    def test_growth_fit_without_trace(self):
        # growth_fit reads `end`, the last accepted step, not the trace
        params = HardyHenonParams(4, 1, 0.0, 3.0)
        kept = shoot([bubble_amplitude(4)], params, 50.0)
        bare = dataclasses.replace(kept, trace_r=None, trace_y=None)
        assert bare.growth_fit() == kept.growth_fit()
        assert kept.growth_fit() == kept.trace_y[-1, 0] / kept.trace_r[-1] ** 2

    def test_reduced_critical_scan_has_no_survivors(self):
        axes = [np.linspace(0.5, 8.0, 7), np.linspace(-8.0, 8.0, 7)]
        res = scan(axes, CRITICAL, 30.0)
        assert res.tally["cells"] == 49
        assert res.tally["all_positive_survivors"] == 0

    def test_failed_cell_fails_the_survivor_certificate(self):
        # a cell whose integration failed shows nothing about thm:1.1, so a
        # scan with no survivors but a failed cell does not pass it
        from hhlab.checks import scan_survivors
        from hhlab.liouville import ScanRecord, ScanResult
        failed = ScanResult(CRITICAL, (ScanRecord(
            (10.0, 1.0), "IntegratorFailure", None, DEFAULT_R0, None),))
        assert failed.tally["all_positive_survivors"] == 0
        [check] = scan_survivors(failed)
        assert (check.name, check.tag, check.value, check.bound, check.ok) \
            == ("no-all-positive-survivors", "thm:1.1", 1, 0, False)
        clean = ScanResult(CRITICAL, (ScanRecord(
            (10.0, 1.0), "SignLoss", 1, 1.5, None),))
        [check] = scan_survivors(clean)
        assert (check.value, check.ok) == (0, True)

    def test_subcritical_bubble_cell_survives(self):
        params = HardyHenonParams(4, 1, 0.0, 3.0)
        res = scan([np.array([bubble_amplitude(4)])], params, 50.0)
        assert res.tally["all_positive_survivors"] == 1
        rec = res.records[0]
        assert rec.kind == "Survived"
        assert rec.growth_fit is not None and rec.growth_fit < 1e-2

    def test_csv_layout(self, tmp_path):
        import io
        axes = [np.array([1.0, 2.0]), np.array([-1.0, 1.0])]
        res = scan(axes, CRITICAL, 10.0)
        buf = io.StringIO()
        res.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "init0,init1,kind,layer,r_star,growth_fit"
        assert len(lines) == 5


class TestEachInputCheckedOnce:
    """`shoot` and `scan` check their span and weight once, in their
    validators `shoot_cell` and `scan_cells`, and build the Taylor starts
    once."""

    def test_shoot(self, liouville_calls):
        shoot([2.0, 1.0], CRITICAL, 10.0)
        assert liouville_calls == {"_check_run": 1,
                                   "_check_origin_weight": 1,
                                   "taylor_starts": 1}

    def test_scan(self, liouville_calls):
        scan([[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]], CRITICAL, 10.0)
        assert liouville_calls == {"_check_run": 1,
                                   "_check_origin_weight": 1,
                                   "taylor_starts": 1}


def _shoot_record(init, params, r_max):
    """What `shoot` says about one cell, in ScanRecord terms: kind, layer,
    r* and growth_fit (survivors only), or IntegratorFailure where `shoot`
    raises IntegratorError."""
    try:
        out = shoot(init, params, r_max)
    except IntegratorError:
        return "IntegratorFailure", None, None, None
    growth = out.growth_fit() if out.kind is OutcomeKind.SURVIVED else None
    return out.kind.value, out.layer_index, out.r_star, growth


def _cells(axes):
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                    axis=1)


def _assert_identical(records, cells, params, r_max):
    """Cell by cell, the scan records are the shoot's, bit for bit."""
    assert len(records) == len(cells)
    for rec, init in zip(records, cells):
        kind, layer, r_star, growth = _shoot_record(init, params, r_max)
        assert rec.init == tuple(init)
        assert (rec.kind, rec.layer) == (kind, layer), init
        if kind == "IntegratorFailure":
            assert math.isnan(rec.r_star) and rec.growth_fit is None
            continue
        assert _bits([rec.r_star]) == _bits([r_star]), init
        assert (rec.growth_fit is None) == (growth is None), init
        if growth is not None:
            assert _bits([rec.growth_fit]) == _bits([growth]), init


# LANE_HANDOFF values that put no lane, one, about half or every lane of a
# scan of `lanes` integrated cells on the float stepper
HANDOFFS = {"none": lambda lanes: 0, "one": lambda lanes: 1,
            "middle": lambda lanes: max(2, lanes // 2),
            "all": lambda lanes: lanes}


def _lane_count(cells, params):
    """The cells of a scan whose Taylor start leaves r0: its lanes."""
    starts = hhlab.liouville.taylor_starts(cells, params, DEFAULT_R0)
    return sum(hhlab.liouville._start_event(DEFAULT_R0, start, params.m)
               is None for start in starts.tolist())


class TestScanLanes:
    """scan integrates its cells as the lanes of one LaneRK run, and
    finishes the last LANE_HANDOFF of them in AdaptiveRK's loop; the float
    stepper behind `shoot` is the oracle for every cell, on either side of
    the handoff."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 8), m=st.integers(1, 4),
           a=st.one_of(st.just(0.0), st.floats(-2.0, 1.9)),
           p=st.floats(1.0, 6.0, exclude_min=True),
           u0=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=4),
           u1=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
           higher=st.floats(-2.0, 2.0), r_max=st.floats(2.0, 20.0),
           handoff=st.sampled_from(sorted(HANDOFFS)))
    def test_scan_agrees_with_shoot_cell_by_cell(self, n, m, a, p, u0, u1,
                                                  higher, r_max, handoff):
        params = HardyHenonParams(n, m, a, p)
        axes = [u0] + [u1] * (m > 1) + [[higher]] * max(m - 2, 0)
        cells = _cells(axes)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hhlab.rk, "LANE_HANDOFF",
                       HANDOFFS[handoff](_lane_count(cells, params)))
            res = scan(axes, params, r_max)
        _assert_identical(res.records, cells, params, r_max)

    def test_reference_scans_match_shoot_exactly(self):
        # a lane repeats the float stepper's arithmetic operation for
        # operation, so the 882 reference cells agree to the last bit
        for m in (2, 3):
            params = HardyHenonParams(4, m, 0.0, 2.0)
            axes = reference_axes(params)
            res = scan(axes, params, 50.0)
            for rec, init in zip(res.records, _cells(axes)):
                kind, layer, r_star, _ = _shoot_record(init, params, 50.0)
                assert (rec.kind, rec.layer, rec.r_star) == \
                    (kind, layer, r_star)

    def test_strong_henon_weight_cell(self):
        # at a = -2000 the weight r^2000 leaves the float range past
        # r ~ 1.43, inside trial steps of the cell (2, 1); the lane and the
        # shoot both read it as inf and end at the same sign loss
        params = HardyHenonParams(4, 2, -2000.0, 2.0)
        axes = [np.array([2.0]), np.array([1.0])]
        res = scan(axes, params, 50.0)
        assert res.records[0][1:4] == ("SignLoss", 1, 1.0069919563093728)
        assert _shoot_record([2.0, 1.0], params, 50.0)[:3] == \
            res.records[0][1:4]

    def test_m1_scan_with_survivors(self):
        # second order, one axis: the n = 4, p = 3 bubble amplitude
        # survives with its growth fit
        axes = [np.array([0.2, 1.0, bubble_amplitude(4), 7.0])]
        kinds = set()
        for params in (HardyHenonParams(4, 1, 0.0, 3.0),
                       HardyHenonParams(3, 1, 0.0, 5.0),
                       HardyHenonParams(6, 1, -1.0, 1.5)):
            res = scan(axes, params, 30.0)
            _assert_identical(res.records, _cells(axes), params, 30.0)
            kinds |= {rec.kind for rec in res.records}
            if params.n == 4:
                assert res.records[2].kind == "Survived"
        assert kinds == {"Survived", "SignLoss"}

    # the cases below run with every lane on LaneRK (LANE_HANDOFF 0) and
    # with every lane handed to AdaptiveRK at pass 0 (LANE_HANDOFF 100)

    def test_blow_up_lanes(self, monkeypatch):
        # with the sign rule switched off, a negative second layer drives u
        # through the blow-up threshold, located on the Hermite step
        monkeypatch.setattr(hhlab.liouville, "DEFAULT_SIGN_TOL", 1e30)
        params = HardyHenonParams(4, 2, 0.0, 4.0)
        cells = _cells([np.array([0.5, 1.0]), np.array([-1.0, -1e10])])
        for handoff in (0, 100):
            monkeypatch.setattr(hhlab.rk, "LANE_HANDOFF", handoff)
            records = hhlab.liouville._scan_lanes(cells, params, 20.0)
            _assert_identical(records, cells, params, 20.0)
            assert {rec.kind for rec in records} == {"BlowUp"}
            assert all(DEFAULT_R0 < rec.r_star < 20.0 for rec in records)

    def test_non_finite_retry_and_underflow_blow_up_lanes(self, monkeypatch):
        # with no thresholds at all, u^p overflows in trial stages: those
        # lanes retry at a quarter step until h underflows above the
        # amplitude floor, a blow-up at the failure radius. The retries
        # are seen in LaneRK's trial states, and in the float stepper's as
        # the states it calls a wrapped right-hand side at
        non_finite = {0: [], 100: []}
        real_step = hhlab.rk.LaneRK._step

        def counting(self, t, y, h, f0):
            y1, f1, err = real_step(self, t, y, h, f0)
            non_finite[0].append(int(np.sum(~np.isfinite(y1).all(axis=1))))
            return y1, f1, err

        class WrappedRK(hhlab.rk.AdaptiveRK):
            def __init__(self, rhs, *args, **kwargs):
                @functools.wraps(rhs)
                def wrapped(r, y):
                    non_finite[100].append(not all(map(math.isfinite, y)))
                    return rhs(r, y)
                super().__init__(wrapped, *args, **kwargs)

        monkeypatch.setattr(hhlab.rk.LaneRK, "_step", counting)
        monkeypatch.setattr(hhlab.liouville, "DEFAULT_BLOW_THRESHOLD",
                            math.inf)
        monkeypatch.setattr(hhlab.liouville, "DEFAULT_SIGN_TOL", math.inf)
        params = HardyHenonParams(4, 2, 0.0, 4.0)
        cells = _cells([np.array([1.0, 1e30]), np.array([-1.0, -1e10])])
        for handoff in (0, 100):
            monkeypatch.setattr(hhlab.rk, "LANE_HANDOFF", handoff)
            with monkeypatch.context() as mp:
                mp.setattr(hhlab.liouville, "AdaptiveRK", WrappedRK)
                records = hhlab.liouville._scan_lanes(cells, params, 20.0)
            _assert_identical(records, cells, params, 20.0)
            assert {rec.kind for rec in records} == {"BlowUp"}
            assert sum(non_finite[handoff]) > 0

    def test_integrator_failure_lane(self, monkeypatch):
        # a step budget of 40 ends the long lanes below the amplitude floor:
        # recorded as IntegratorFailure, with the error shoot raises
        monkeypatch.setattr(hhlab.rk, "MAX_STEPS", 40)
        axes = [np.array([0.5, 5.0]), np.array([-1.0, 0.0, 8.0])]
        for handoff in (0, 100):
            monkeypatch.setattr(hhlab.rk, "LANE_HANDOFF", handoff)
            res = scan(axes, CRITICAL, 30.0)
            _assert_identical(res.records, _cells(axes), CRITICAL, 30.0)
            kinds = [rec.kind for rec in res.records]
            assert "IntegratorFailure" in kinds and "SignLoss" in kinds
            assert res.tally["IntegratorFailure"] == kinds.count(
                "IntegratorFailure")

    def test_budget_counts_on_across_the_handoff(self, monkeypatch):
        # the budget of 60 trial steps ends the long lanes; handed over
        # after one lane ends, they spend the rest of it in AdaptiveRK's
        # loop and fail at its step, as the shoots do
        monkeypatch.setattr(hhlab.rk, "MAX_STEPS", 60)
        axes = [np.array([0.5, 5.0]), np.array([-1.0, 0.0, 8.0])]
        cells = _cells(axes)
        lanes = _lane_count(cells, CRITICAL)
        passes = []
        real_step = hhlab.rk.LaneRK._step

        def counting(self, t, y, h, f0):
            passes.append(y.shape[0])
            return real_step(self, t, y, h, f0)

        monkeypatch.setattr(hhlab.rk.LaneRK, "_step", counting)
        monkeypatch.setattr(hhlab.rk, "LANE_HANDOFF", lanes - 1)
        res = scan(axes, CRITICAL, 30.0)
        _assert_identical(res.records, cells, CRITICAL, 30.0)
        assert passes[0] == lanes and 0 < len(passes) < 60
        assert "IntegratorFailure" in [rec.kind for rec in res.records]


def reference_radial_rhs(params):
    """The radial right-hand side as a loop over the rows: the formula the
    generated `_radial_rhs` unrolls, operation for operation."""
    n, m, p, a = params.n, params.m, params.p, params.a
    nm1 = n - 1.0
    top_row = 2 * m - 1

    def rhs(r, y):
        c = nm1 / r
        u = max(y[0], 0.0)
        try:
            top = u ** p
        except OverflowError:
            top = math.inf
        if a != 0.0:
            try:
                weight = r ** (-a)
            except OverflowError:
                weight = math.inf
            inf_times_zero = (top == math.inf and weight == 0.0
                              or top == 0.0 and weight == math.inf)
            if inf_times_zero and math.isfinite(u):
                # in log space, where u = 0 keeps its 0^p
                if u != 0.0:
                    try:
                        top = math.exp(p * math.log(u) - a * math.log(r))
                    except OverflowError:
                        top = math.inf
            else:
                top *= weight
        dy = y[1:]
        dy.append(-top - c * y[top_row])
        for i in range(1, top_row, 2):
            dy[i] = -dy[i] - c * y[i]
        return dy

    return rhs


def _bits(values):
    # IEEE bit patterns, so signed zeros compare; any NaN reads "nan"
    return [b"nan" if v != v else struct.pack("<d", v) for v in values]


def spliced_slopes(rhs, r, y):
    """The slopes at (r, y) of the fragment `rhs` carries, as AdaptiveRK
    writes it into its loop: its names bound to its values, its template
    read with the loop's component names."""
    template, names, values = rhs.splice
    state = [f"w_{i}" for i in range(len(y))]
    slopes = [f"b_{i}" for i in range(len(y))]
    scope = dict(zip(names, values), r=r, **dict(zip(state, y)))
    exec(template.format(r="r", y=state, f=slopes), {}, scope)
    return [scope[name] for name in slopes]


# u(0) negative, zero, tiny, ordinary or huge enough for u^p to overflow
_U0 = st.one_of(st.floats(-1e3, -1e-300), st.sampled_from([0.0, -0.0]),
                st.floats(5e-324, 1e-300), st.floats(1e-3, 1e3),
                st.floats(1e150, 1e308))


class TestGeneratedRhs:
    """`_radial_rhs` is generated once per m; it must compute what the
    loop of `reference_radial_rhs` computes, bit for bit."""

    # a = -2000: r^2000 underflows below r ~ 0.7 and overflows past 1.43,
    # so with _U0's huge and tiny u the direct source can be inf * 0
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 8), m=st.integers(1, 4),
           a=st.one_of(st.just(0.0), st.floats(-3.0, 1.9),
                       st.just(-2000.0)),
           p=st.floats(1.0, 8.0, exclude_min=True),
           r=st.floats(1e-8, 1e3), u0=_U0, seed=st.integers(0, 2 ** 32 - 1))
    def test_rhs_matches_the_row_loop(self, n, m, a, p, r, u0, seed):
        params = HardyHenonParams(n, m, a, p)
        rng = np.random.default_rng(seed)
        y = [u0] + (rng.standard_normal(2 * m - 1)
                    * 10.0 ** rng.uniform(-3.0, 3.0, 2 * m - 1)).tolist()
        got = hhlab.liouville._radial_rhs(params)(r, list(y))
        want = reference_radial_rhs(params)(r, list(y))
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("a", [0.0, 1.5, -2000.0])
    def test_overflowing_power_reads_inf(self, m, a):
        # float ** raises OverflowError where u^p or the weight r^(-a)
        # leaves the float range; the top slope is then -inf, with or
        # without the weight, called or written into AdaptiveRK's loop
        params = HardyHenonParams(4, m, a, 3.0)
        cases = [(1.0, [1e200] + [1.0] * (2 * m - 1))]   # u^p overflows
        if a != 0.0:    # the weight overflows
            cases.append((1e-300 if a > 0.0 else 2.0, [1.0] * (2 * m)))
        for r, y in cases:
            rhs = hhlab.liouville._radial_rhs(params)
            for got in (rhs(r, list(y)), spliced_slopes(rhs, r, y)):
                assert got[-1] == -math.inf
                assert _bits(got) == \
                    _bits(reference_radial_rhs(params)(r, list(y)))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_overflow_times_underflow_is_taken_in_log_space(self, m):
        # at a = -2000 and p = 3, u^3 overflows where r^2000 underflows
        # (r = 0.5), or underflows where r^2000 overflows (r = 2): the
        # direct product is inf * 0 = NaN, the source is exp(3 ln u + 2000
        # ln r), and u <= 0 gives its own 0^3; called, written into the
        # loop and lane by lane alike, beside a lane whose u^3 is finite
        params = HardyHenonParams(4, m, -2000.0, 3.0)
        def log_source(r, u):
            return math.exp(3.0 * math.log(u) + 2000.0 * math.log(r))

        cases = [(0.5, 1e200, log_source(0.5, 1e200)),
                 (2.0, 1e-200, log_source(2.0, 1e-200)),
                 (2.0, 0.0, 0.0), (2.0, -0.0, 0.0), (2.0, -1.0, 0.0),
                 (0.5, 2.0, 0.0)]      # 2^3 0.5^2000: 0 directly
        rhs = hhlab.liouville._radial_rhs(params)
        rows = []
        for r, u0, source in cases:
            y = [u0] + [1.0] * (2 * m - 1)
            want = reference_radial_rhs(params)(r, list(y))
            # the top slope is -source - (n - 1)/r u'
            assert want[-1] == pytest.approx(-source - 3.0 / r, rel=1e-13)
            for got in (rhs(r, list(y)), spliced_slopes(rhs, r, y)):
                assert _bits(got) == _bits(want)
            rows.append(want)
        r = np.array([case[0] for case in cases])
        y = np.ones((len(cases), 2 * m))
        y[:, 0] = [case[1] for case in cases]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lane_slopes(params, r, y)
        assert _lane_bits(got) == _lane_bits(rows)

    def test_one_source_per_shape(self, monkeypatch):
        # 50 shoots at different (n, p, a) and m = 2 compile one loop
        # (dimension 4, the weighted slopes, the classifying callback) and
        # the called forms of its two templates, one each
        monkeypatch.setattr(hhlab.rk, "_LOOPS", {})
        monkeypatch.setattr(hhlab.rk, "_CALLED", {})
        rng = np.random.default_rng(7)
        for _ in range(50):
            params = HardyHenonParams(int(rng.integers(3, 9)), 2,
                                      float(rng.uniform(-1.0, 1.5)),
                                      float(rng.uniform(1.2, 5.0)))
            shoot([float(rng.uniform(0.5, 5.0)),
                   float(rng.uniform(-3.0, 3.0))], params, 2.0)
        assert [key[0] for key in hhlab.rk._LOOPS] == [4]
        assert [key[:2] for key in hhlab.rk._CALLED] == [("rhs(r, y)", 4),
                                                         ("callback(rec)", 4)]


def _lane_bits(a):
    # NaN positions and the IEEE bit patterns of the rest of an array
    a = np.array(a, dtype=float)
    nan = np.isnan(a)
    return nan.tolist(), np.where(nan, 0.0, a).view(np.uint64).tolist()


def lane_slopes(params, r, y):
    """The slopes `_lane_rhs(params)` writes at (r, y) into a slot laid out
    as y, as a lane pass calls it (under `LaneRK.integrate`'s errstate).
    The call is made twice, into a slot filled with NaN and into one filled
    with 7.0: both must come out the same, so every entry is written, and
    r and y must keep their bits, so nothing but the slot is."""
    rhs = hhlab.liouville._lane_rhs(params)
    before = _lane_bits(r), _lane_bits(y)
    slots = []
    for fill in (math.nan, 7.0):
        out = np.full_like(y, fill)
        with np.errstate(all="ignore"):
            rhs(r, y, out)
        slots.append(out)
    assert _lane_bits(slots[0]) == _lane_bits(slots[1])
    assert (_lane_bits(r), _lane_bits(y)) == before
    return slots[0]


# a state entry: ordinary, huge, signed zero, infinite or NaN
_EDGE = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
_ENTRY = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e308, 1e308), _EDGE)


@st.composite
def _lane_states(draw):
    """m, and the radii and states of 1-12 lanes: u from `_U0` or `_EDGE`,
    the other entries from `_ENTRY`, radii from 1e-300 to inf. At
    a = -2000 the weight r^2000 of a radius below 0.7 underflows and of one
    above 1.43 overflows, so with a huge or tiny u the direct source is
    inf * 0, taken in log space."""
    m = draw(st.integers(1, 4))
    lanes = draw(st.integers(1, 12))
    r = draw(st.lists(st.floats(1e-300, math.inf), min_size=lanes,
                      max_size=lanes))
    y = [[draw(st.one_of(_U0, _EDGE))]
         + draw(st.lists(_ENTRY, min_size=2 * m - 1, max_size=2 * m - 1))
         for _ in range(lanes)]
    return m, r, y


class TestLaneRhs:
    """`_lane_rhs` must compute, for every lane, what the row loop of
    `reference_radial_rhs` computes, bit for bit, in either memory layout,
    u = -0.0 included (at an odd-integer p, (-0.0)^p is -0.0)."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 8), m=st.integers(1, 4),
           a=st.one_of(st.just(0.0), st.floats(-3.0, 1.9),
                       st.just(-2000.0)),
           p=st.one_of(st.floats(1.0, 8.0, exclude_min=True),
                       st.sampled_from([3.0, 5.0])),
           u0=st.lists(_U0, min_size=1, max_size=40),
           order=st.sampled_from("CF"), seed=st.integers(0, 2 ** 32 - 1))
    def test_lanes_match_the_row_loop(self, n, m, a, p, u0, order, seed):
        params = HardyHenonParams(n, m, a, p)
        rng = np.random.default_rng(seed)
        lanes = len(u0)
        r = 10.0 ** rng.uniform(-8.0, 3.0, lanes)
        y = np.empty((lanes, 2 * m), order=order)
        y[:, 0] = u0
        y[:, 1:] = (rng.standard_normal((lanes, 2 * m - 1))
                    * 10.0 ** rng.uniform(-3.0, 3.0, (lanes, 2 * m - 1)))
        # signed zeros in some entries, where a reordered sign would show
        zeros = rng.random((lanes, 2 * m - 1)) < 0.2
        y[:, 1:][zeros] = rng.choice([0.0, -0.0], zeros.sum())
        got = lane_slopes(params, r, y)
        row = reference_radial_rhs(params)
        want = [row(ri, yi) for ri, yi in zip(r.tolist(), y.tolist())]
        assert _lane_bits(got) == _lane_bits(want)
        assert got.flags["F_CONTIGUOUS"] == y.flags["F_CONTIGUOUS"]

    @settings(max_examples=200, deadline=None)
    @given(case=_lane_states(), n=st.integers(2, 8),
           a=st.one_of(st.just(0.0), st.floats(-3.0, 1.9),
                       st.just(-2000.0)),
           p=st.one_of(st.floats(1.0, 8.0, exclude_min=True),
                       st.integers(1, 4).map(lambda k: 2.0 * k + 1)),
           order=st.sampled_from("CF"))
    # u^p overflows at a lane with r = inf, where r^(-a) is 0: float `**`
    # raises on u^p, and the float right-hand side's source is 0
    @example(case=(1, [math.inf], [[1.35e154, 0.0]]), n=2, a=1.0, p=2.0,
             order="C")
    def test_slot_matches_the_float_rhs(self, case, n, a, p, order):
        # the slot a lane pass hands the right-hand side must receive, row
        # by row, the slopes `_radial_rhs` returns for that lane alone, with
        # the same IEEE bits (NaN compared by position)
        m, r, y = case
        params = HardyHenonParams(n, m, a, p)
        got = lane_slopes(params, np.array(r), np.array(y, order=order))
        rhs = hhlab.liouville._radial_rhs(params)
        want = [rhs(ri, list(yi)) for ri, yi in zip(r, y)]
        assert _lane_bits(got) == _lane_bits(want)


def _shot_bits(entry):
    """The outcome `entry()` returns as its kind, layer and the IEEE bits
    of r*, end and trace, or the message and state bits of the
    IntegratorError it raises."""
    try:
        out = entry()
    except IntegratorError as exc:
        return str(exc), _bits([exc.state[0]]), _bits(exc.state[1])
    return (out.kind, out.layer_index, _bits([out.r_star]), _bits(out.end),
            _lane_bits(out.trace_r), _lane_bits(out.trace_y))


class TestShootFrom:
    """`shoot_from` classifies an explicit state by `shoot`'s rules, in the
    one mode there is: from the Taylor start of origin data it gives the
    outcome `shoot` gives, sign losses at r0 and on the way included."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 8), m=st.integers(1, 4),
           a=st.one_of(st.just(0.0), st.floats(-3.0, 1.9)),
           p=st.floats(1.0, 6.0, exclude_min=True), u0=st.floats(0.1, 10.0),
           rest=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
           r_max=st.floats(1.5, 10.0))
    def test_taylor_start_gives_shoots_outcome(self, n, m, a, p, u0, rest,
                                               r_max):
        params = HardyHenonParams(n, m, a, p)
        init = [u0] + rest[:m - 1]
        start = hhlab.liouville.taylor_starts([init], params, DEFAULT_R0)[0]
        assert _shot_bits(lambda: shoot_from(start, DEFAULT_R0, params,
                                             r_max)) == \
            _shot_bits(lambda: shoot(init, params, r_max))


def _wrapped(fn, calls, copy):
    """fn in a plain function that counts its calls in `calls`, made as
    perfbench's tracer makes it (functools.update_wrapper, nothing
    updated) or as functools.wraps makes it (which copies fn's attributes,
    its fragment included)."""
    def call(*args):
        calls.append(None)
        return fn(*args)
    return functools.update_wrapper(call, fn,
                                    updated=("__dict__",) if copy else ())


class TestRoutes:
    """A shoot's right-hand side and step callback carry fragments that
    AdaptiveRK writes into its loop; wrapped, they are called instead. The
    two routes must give the same outcome and trace, bit for bit, and the
    called route the call counts perfbench derives its step counts from."""

    @staticmethod
    def run(entry, wrap_rhs, wrap_callback, copy):
        # the outcome of one shoot, or its IntegratorError, and the calls
        # made to the wrapped right-hand side and callback
        rhs_calls, callback_calls = [], []

        class WrappingRK(hhlab.rk.AdaptiveRK):
            def __init__(self, rhs, *args, **kwargs):
                if wrap_rhs:
                    rhs = _wrapped(rhs, rhs_calls, copy)
                super().__init__(rhs, *args, **kwargs)

            def integrate(self, t0, y0, t_end, step_callback=None):
                if wrap_callback:
                    step_callback = _wrapped(step_callback, callback_calls,
                                             copy)
                return super().integrate(t0, y0, t_end, step_callback)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hhlab.liouville, "AdaptiveRK", WrappingRK)
            out = _shot_bits(entry)
        return out, len(rhs_calls), len(callback_calls)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), m=st.integers(1, 4),
           a=st.one_of(st.just(0.0), st.floats(-3.0, 1.9),
                       st.just(-2000.0)),
           p=st.one_of(st.floats(1.0, 6.0, exclude_min=True),
                       st.just(400.0)),
           u0=st.floats(0.1, 10.0), rest=st.lists(
               st.floats(-10.0, 10.0), min_size=3, max_size=3),
           r_max=st.floats(1.5, 10.0), track=st.booleans(),
           wrap=st.sampled_from([(True, True), (True, False),
                                 (False, True)]),
           copy=st.booleans())
    def test_spliced_and_called_routes_agree(self, n, m, a, p, u0, rest,
                                             r_max, track, wrap, copy):
        # starts that end at r0 (a negative layer, or u(0)^400 past the
        # float range), sign losses, survivors and, tracked through sign
        # changes by shoot_from with the sign rule off, blow-ups, u^400
        # overflowing in the loop and step-size underflow; at a = -2000
        # the weight overflows
        params = HardyHenonParams(n, m, a, p)
        init = [u0] + rest[:m - 1]
        start = hhlab.liouville.taylor_starts([init], params, DEFAULT_R0)[0]
        if track and np.isfinite(start).all():
            def entry():
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(hhlab.liouville, "DEFAULT_SIGN_TOL", math.inf)
                    return shoot_from(start, DEFAULT_R0, params, r_max)
        else:
            def entry():
                return shoot(init, params, r_max)
        spliced, no_rhs_calls, no_callback_calls = self.run(
            entry, False, False, copy)
        assert no_rhs_calls == no_callback_calls == 0
        called, rhs_calls, callback_calls = self.run(entry, *wrap, copy)
        assert called == spliced
        if wrap[0] and rhs_calls:
            # one call to start, six per trial step
            assert rhs_calls % 6 == 1
        if wrap[1] and isinstance(called[0], OutcomeKind):
            # one call per accepted step, each a point of the whole trace
            accepted = len(called[4][0]) - 1
            assert callback_calls == accepted or accepted == 599
            if wrap[0]:
                assert callback_calls <= max(rhs_calls - 1, 0) // 6


def reference_taylor_start(init, params, r0):
    """The Taylor start of one cell as a loop over the layers: the formula
    `taylor_starts` computes column by column, operation for operation."""
    n, m, p, a = params.n, params.m, params.p, params.a
    init = np.asarray(init, dtype=float)
    y = np.empty(2 * m)
    for i in range(m - 1):
        y[2 * i] = init[i] - init[i + 1] * r0 ** 2 / (2.0 * n)
        y[2 * i + 1] = -init[i + 1] * r0 / n
    with np.errstate(over="ignore"):
        f0 = max(init[0], 0.0) ** p
        y[2 * m - 2] = init[m - 1] \
            - f0 * r0 ** (2.0 - a) / ((2.0 - a) * (n - a))
        y[2 * m - 1] = -f0 * r0 ** (1.0 - a) / (n - a)
    return y


class TestTaylorStarts:
    """`taylor_starts` builds every cell's start at once; cell by cell it
    must give the layer loop of `reference_taylor_start`, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 8), m=st.integers(1, 4),
           a=st.one_of(st.just(0.0), st.floats(-2.0, 1.9)),
           p=st.one_of(st.floats(1.0, 6.0, exclude_min=True),
                       st.sampled_from([2.0, 3.0, 5.0]),
                       st.floats(300.0, 1000.0)),
           r0=st.sampled_from([DEFAULT_R0, 1e-3, 0.1]),
           cells=st.integers(1, 20), seed=st.integers(0, 2 ** 32 - 1))
    def test_cells_match_the_one_cell_formula(self, n, m, a, p, r0, cells,
                                              seed):
        params = HardyHenonParams(n, m, a, p)
        rng = np.random.default_rng(seed)
        init = rng.uniform(-10.0, 10.0, (cells, m))
        init[:, 0] = rng.uniform(0.1, 10.0, cells) \
            * rng.choice([-1.0, 1.0, 1.0, 1.0], cells)
        # signed zeros, also in u(0), and zero higher layers, so that no
        # larger term absorbs the rounding of the correction from above
        zeros = rng.random((cells, m)) < 0.2
        init[zeros] = rng.choice([0.0, -0.0], zeros.sum())
        starts = hhlab.liouville.taylor_starts(init, params, r0)
        assert starts.shape == (cells, 2 * m)
        for cell, start in zip(init, starts):
            want = _bits(reference_taylor_start(cell, params, r0).tolist())
            assert _bits(start.tolist()) == want

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_overflowing_power_is_a_sign_loss_at_r0(self, m):
        # u(0)^p leaves the float range: the top layer starts at -inf, a
        # sign loss at r0 in scan and shoot alike
        params = HardyHenonParams(4, m, 0.5, 400.0)
        axes = [np.array([10.0, 0.5])] + [np.array([1.0])] * (m - 1)
        starts = hhlab.liouville.taylor_starts(_cells(axes), params,
                                               DEFAULT_R0)
        assert starts[0, -2] == -math.inf and starts[0, -1] == -math.inf
        assert np.isfinite(starts[1]).all()
        res = scan(axes, params, 10.0)
        assert (res.records[0].kind, res.records[0].layer,
                res.records[0].r_star) == ("SignLoss", m - 1, DEFAULT_R0)
        _assert_identical(res.records, _cells(axes), params, 10.0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_overflowing_power_warns_nothing(self, m):
        # the library API keeps its own floating-point state: where u(0)^p
        # overflows, scan, taylor_starts and shoot raise no RuntimeWarning
        # under numpy's default error handling, outside the CLI's errstate
        params = HardyHenonParams(4, m, 0.5, 400.0)
        axes = [np.array([10.0, 0.5])] + [np.array([1.0])] * (m - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = scan(axes, params, 10.0)
            starts = hhlab.liouville.taylor_starts(_cells(axes), params,
                                                   DEFAULT_R0)
            outs = [shoot(cell, params, 10.0) for cell in _cells(axes)]
        assert starts[0, -1] == -math.inf
        assert [(rec.kind, rec.layer) for rec in res.records] == \
            [(out.kind.value, out.layer_index) for out in outs]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_overflow_times_underflow_is_taken_in_log_space(self, m):
        # at p = 400, a = -2000, u(0) = 10: u(0)^p = inf and r0^(2-a) = 0,
        # whose direct product is NaN; in log space the source term is 0,
        # so the start is finite. The right-hand side meets the same inf * 0
        # (u^p r^2000) and takes it in log space too, so shoot classifies
        # the cell without an IntegratorError, no warning is raised and
        # scan records what shoot says, bit for bit. u(0) = 0.5 keeps its
        # direct product
        params = HardyHenonParams(4, m, -2000.0, 400.0)
        axes = [np.array([10.0, 0.5])] + [np.array([1.0])] * (m - 1)
        cells = _cells(axes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            starts = hhlab.liouville.taylor_starts(cells, params,
                                                   DEFAULT_R0)
            out = shoot(cells[0], params, 10.0)
            res = scan(axes, params, 10.0)
            _assert_identical(res.records, cells, params, 10.0)
        assert (out.kind, out.layer_index) == (OutcomeKind.SIGN_LOSS, m - 1)
        assert "IntegratorFailure" not in [rec.kind for rec in res.records]
        assert np.isfinite(starts).all()
        assert _bits(starts[:, -2:].tolist()[0]) == _bits([cells[0, -1],
                                                           -0.0])
        for cell, start in zip(cells[1:], starts[1:]):
            want = reference_taylor_start(cell, params, DEFAULT_R0)
            assert _bits(start.tolist()) == _bits(want.tolist())

    def test_log_space_product_is_the_exact_power(self):
        # 10^400 r0^65 = 10^10, where 10^400 overflows and r0^65 = 1e-390
        # underflows; the log-space product recovers it to rounding
        n, a = 4, -63.0
        params = HardyHenonParams(n, 2, a, 400.0)
        start = hhlab.liouville.taylor_starts([[10.0, 1.0]], params,
                                              DEFAULT_R0)[0]
        assert start[-2] == pytest.approx(1.0 - 1e10 / ((2 - a) * (n - a)),
                                          rel=1e-9)
        assert start[-1] == pytest.approx(-1e16 / (n - a), rel=1e-9)

    @pytest.mark.parametrize("init,params,message", [
        ([1.0, 2.0, 3.0], CRITICAL, "need 2 origin values, got shape"),
        ([[1.0, 2.0]], CRITICAL, "need 2 origin values, got shape"),
        ([1.0, math.inf], CRITICAL, "finite"),
        ([1.0, 1.0], HardyHenonParams(4, 2, 2.0, 2.0), "a < 2")])
    def test_one_cell_checks(self, init, params, message):
        with pytest.raises(ValueError, match=message):
            shoot_cell(init, params, 10.0)


class TestClassificationStability:
    def test_tolerance_halving_preserves_kinds(self, monkeypatch):
        axes = [np.linspace(0.5, 8.0, 5), np.linspace(-8.0, 8.0, 5)]
        runs = []
        for rtol, atol in ((1e-10, 1e-12), (5e-11, 5e-13)):
            monkeypatch.setattr(hhlab.liouville, "DEFAULT_RTOL", rtol)
            monkeypatch.setattr(hhlab.liouville, "DEFAULT_ATOL", atol)
            runs.append(scan(axes, CRITICAL, 30.0))
        base, tight = runs
        for r1, r2 in zip(base.records, tight.records):
            assert r1.kind == r2.kind
            assert r1.layer == r2.layer
            denom = max(abs(r1.r_star), 1e-5)
            assert abs(r1.r_star - r2.r_star) / denom < 1e-2


def _scipy_classify(init, params, r_max):
    """Classify one shot with scipy's DOP853, as an outside oracle for the
    package's own integrator (which must not share code with it)."""
    from scipy.integrate import solve_ivp
    n, m, p, a = params.n, params.m, params.p, params.a

    def rhs(r, y):
        dy = np.empty_like(y)
        dy[0::2] = y[1::2]
        src = np.append(y[2::2], max(y[0], 0.0) ** p * r ** -a)
        dy[1::2] = -src - (n - 1.0) / r * y[1::2]
        return dy

    def sign_event(i):
        def event(r, y):
            return y[2 * i] + DEFAULT_SIGN_TOL
        event.terminal, event.direction = True, -1
        return event

    def blow_event(r, y):
        return y[0] - DEFAULT_BLOW_THRESHOLD
    blow_event.terminal, blow_event.direction = True, 1

    sol = solve_ivp(rhs, (DEFAULT_R0, r_max),
                    hhlab.liouville.taylor_starts([init], params,
                                                  DEFAULT_R0)[0],
                    method="DOP853",
                    rtol=1e-12, atol=1e-14,
                    events=[sign_event(i) for i in range(m)] + [blow_event])
    hits = [(ts[0], k) for k, ts in enumerate(sol.t_events) if ts.size]
    if not hits:
        return OutcomeKind.SURVIVED, None, r_max
    r_star, k = min(hits)
    if k == m:
        return OutcomeKind.BLOW_UP, None, r_star
    return OutcomeKind.SIGN_LOSS, k, r_star


class TestScipyCrossOracle:
    @pytest.mark.parametrize("m", [2, 3])
    def test_reference_cells_agree_with_dop853(self, m):
        # 15 integrated cells per order: u(0) across the reference axis,
        # u1(0) in {0, 5, 10}; cells with u1(0) < 0 end at r0 unintegrated
        params = HardyHenonParams(4, m, 0.0, 2.0)
        axes = reference_axes(params)
        for i, j in itertools.product((0, 5, 10, 15, 20), (10, 15, 20)):
            init = [axes[0][i], axes[1][j]] + [1.0] * (m - 2)
            out = shoot(init, params, 50.0)
            assert out.r_star > DEFAULT_R0
            kind, layer, r_star = _scipy_classify(init, params, 50.0)
            assert (out.kind, out.layer_index) == (kind, layer), init
            assert abs(out.r_star - r_star) <= 1e-6 * r_star, init

    def test_shooting_path_does_not_use_solve_ivp(self):
        # navier's solver-side check may use scipy; the shooting classifier
        # and its integrator may not, or this oracle would check itself
        for module in (hhlab.liouville, hhlab.rk):
            assert "solve_ivp" not in Path(module.__file__).read_text()


class TestBubbleOracle:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_origin_value(self, n):
        grid = RadialGrid.uniform(0.0, 2.0, 65)
        u = bubble_oracle(n, grid)
        assert u.values[0] == pytest.approx((n * (n - 2.0)) ** ((n - 2) / 4))

    def test_pde_residual(self):
        u = bubble_oracle(4, RadialGrid.uniform(0.0, 10.0, 10001))
        lap = radial_laplacian(u, 4)
        residual = np.max(np.abs(lap.values - u.values ** 3))
        assert residual < 1e-8

    def test_kelvin_self_similarity(self):
        grid = RadialGrid.uniform(0.1, 8.0, 2001)
        u = bubble_oracle(4, grid)
        uk = kelvin_transform(u, 4)
        expected = bubble_amplitude(4) / (1.0 + uk.grid.nodes ** 2)
        np.testing.assert_allclose(uk.values, expected, atol=1e-8)


class TestRepresentationCheck:
    def test_bubble_cubed_reproduces_peak(self):
        grid = RadialGrid.graded(0.0, 20.0, 2049)
        u = bubble_oracle(4, grid)
        check = representation_check(u.with_values(u.values ** 3), 4)
        target = 2.0 * math.sqrt(2.0)
        assert abs(check.potential_at_0 - target) < 1e-3
        assert abs(check.direct - target) < 1e-3
        assert not check.truncated
        assert check.tail_fraction < 1e-3

    def test_compact_nonnegative_source_positive(self):
        grid = RadialGrid.uniform(0.0, 2.0, 513)
        vals = np.where(grid.nodes <= 1.0, (1.0 - grid.nodes ** 2) ** 2, 0.0)
        check = representation_check(RadialField(grid, vals), 4)
        assert check.potential_at_0 > 0.0
        assert not check.truncated

    def test_zero_source(self):
        grid = RadialGrid.uniform(0.0, 2.0, 513)
        check = representation_check(RadialField.constant(grid, 0.0), 5)
        assert check.potential_at_0 == 0.0
        assert check.direct == 0.0

    @pytest.mark.parametrize("truncated", [False, True])
    def test_registry_check_fails_a_truncated_representation(
            self, truncated, monkeypatch):
        # the exact potential passes `bubble-representation` only with the
        # source's tail accounted for, as the acceptance battery requires
        import hhlab.checks
        target = 2.0 * math.sqrt(2.0)
        monkeypatch.setattr(hhlab.liouville, "representation_check",
                            lambda f, n: hhlab.liouville.RepresentationCheck(
                                target, target, 0.0, truncated))
        check = hhlab.checks.bubble_representation()
        assert check.value == target
        assert check.ok is not truncated

    def test_slow_decay_flagged(self):
        grid = RadialGrid.uniform(0.0, 20.0, 2049)
        f = RadialField.from_function(grid,
                                      lambda r: 1.0 / (1.0 + r ** 2))
        check = representation_check(f, 4)
        assert check.truncated

