import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hhlab.liouville
import hhlab.rk
from hhlab.errors import IntegratorError
from hhlab.liouville import (DEFAULT_BLOW_THRESHOLD, DEFAULT_R0,
                             DEFAULT_SIGN_TOL, OutcomeKind, bubble_amplitude,
                             bubble_oracle, reference_axes,
                             representation_check, scan, shoot, shoot_from,
                             taylor_start)
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

    def test_singular_solution_tracking(self):
        # start exactly on C r^(-sigma); layers alternate sign so the run
        # uses classify=False; the trajectory must follow the profile
        sigma, C = singular_solution(CRITICAL)
        r0, r_max = 0.5, 6.0
        state = [C * r0 ** -sigma, -sigma * C * r0 ** (-sigma - 1),
                 -8.0 * C * r0 ** -6.0, 48.0 * C * r0 ** -7.0]
        out = shoot_from(state, r0, CRITICAL, r_max, rtol=1e-12, atol=1e-14,
                         classify=False)
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
        ([1.0, 0.5], {"rtol": 0.0}),
        ([1.0, 0.5], {"atol": -1e-12}),
        ([1.0, 0.5], {"rtol": math.nan}),
        ([1.0, 0.5], {"atol": math.inf}),
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
        ([1.0, 0.0, 1.0, 0.0], 0.5, {"rtol": -1.0}),
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
        y = taylor_start([2.0, 3.0], CRITICAL, 1e-6)
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
        ([[1.0], [1.0]], 10.0, {"rtol": 0.0}),
        ([[1.0], [1.0]], 10.0, {"atol": math.nan}),
    ])
    def test_rejects_bad_input_before_any_cell(self, axes, r_max, kwargs,
                                               monkeypatch):
        def no_cells(*args, **kw):
            raise AssertionError("a cell was integrated")

        monkeypatch.setattr("hhlab.liouville._scan_lanes", no_cells)
        with pytest.raises(ValueError):
            scan([np.array(ax) for ax in axes], CRITICAL, r_max, **kwargs)

    def test_growth_fit_without_trace(self):
        params = HardyHenonParams(4, 1, 0.0, 3.0)
        kept = shoot([bubble_amplitude(4)], params, 50.0)
        bare = shoot([bubble_amplitude(4)], params, 50.0, keep_trace=False)
        assert bare.trace_r is None and bare.trace_y is None
        assert bare.growth_fit() == kept.growth_fit()
        assert kept.growth_fit() == kept.trace_y[-1, 0] / kept.trace_r[-1] ** 2

    def test_reduced_critical_scan_has_no_survivors(self):
        axes = [np.linspace(0.5, 8.0, 7), np.linspace(-8.0, 8.0, 7)]
        res = scan(axes, CRITICAL, 30.0)
        assert res.tally["cells"] == 49
        assert res.tally["all_positive_survivors"] == 0

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


def _shoot_record(init, params, r_max):
    """What `shoot` says about one cell, in ScanRecord terms: kind, layer,
    r*, growth_fit (survivors only), or the IntegratorError message."""
    try:
        out = shoot(init, params, r_max, keep_trace=False)
    except IntegratorError as exc:
        return "IntegratorFailure", None, None, None, str(exc)
    growth = out.growth_fit() if out.kind is OutcomeKind.SURVIVED else None
    return out.kind.value, out.layer_index, out.r_star, growth, None


def _cells(axes):
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                    axis=1)


def _assert_agrees(records, cells, params, r_max):
    """Cell by cell, the lane records match the float stepper's shoot: kind,
    layer and error exactly, r* and growth_fit to 1e-9 relative."""
    assert len(records) == len(cells)
    for rec, init in zip(records, cells):
        kind, layer, r_star, growth, error = _shoot_record(init, params,
                                                           r_max)
        assert rec.init == tuple(init)
        assert (rec.kind, rec.layer, rec.error) == (kind, layer, error), init
        if error is not None:
            assert math.isnan(rec.r_star) and rec.growth_fit is None
            continue
        assert rec.r_star == pytest.approx(r_star, rel=1e-9, abs=0.0), init
        if growth is None:
            assert rec.growth_fit is None
        else:
            assert rec.growth_fit == pytest.approx(growth, rel=1e-9), init


class TestScanLanes:
    """scan integrates its cells as the lanes of one LaneRK run; the float
    stepper behind `shoot` is the oracle for every lane."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 8), m=st.integers(1, 4),
           a=st.one_of(st.just(0.0), st.floats(-2.0, 1.9)),
           p=st.floats(1.0, 6.0, exclude_min=True),
           u0=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3),
           u1=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3),
           higher=st.floats(-2.0, 2.0), r_max=st.floats(2.0, 20.0))
    def test_scan_agrees_with_shoot_cell_by_cell(self, n, m, a, p, u0, u1,
                                                  higher, r_max):
        params = HardyHenonParams(n, m, a, p)
        axes = [u0] + [u1] * (m > 1) + [[higher]] * max(m - 2, 0)
        res = scan(axes, params, r_max)
        _assert_agrees(res.records, _cells(axes), params, r_max)

    def test_reference_scans_match_shoot_exactly(self):
        # a lane repeats the float stepper's arithmetic operation for
        # operation, so the 882 reference cells agree to the last bit
        for m in (2, 3):
            params = HardyHenonParams(4, m, 0.0, 2.0)
            axes = reference_axes(params)
            res = scan(axes, params, 50.0)
            for rec, init in zip(res.records, _cells(axes)):
                kind, layer, r_star, _, _ = _shoot_record(init, params, 50.0)
                assert (rec.kind, rec.layer, rec.r_star) == \
                    (kind, layer, r_star)

    def test_m1_scan_with_survivors(self):
        # second order, one axis: the n = 4, p = 3 bubble amplitude
        # survives with its growth fit
        axes = [np.array([0.2, 1.0, bubble_amplitude(4), 7.0])]
        kinds = set()
        for params in (HardyHenonParams(4, 1, 0.0, 3.0),
                       HardyHenonParams(3, 1, 0.0, 5.0),
                       HardyHenonParams(6, 1, -1.0, 1.5)):
            res = scan(axes, params, 30.0)
            _assert_agrees(res.records, _cells(axes), params, 30.0)
            kinds |= {rec.kind for rec in res.records}
            if params.n == 4:
                assert res.records[2].kind == "Survived"
        assert kinds == {"Survived", "SignLoss"}

    def test_blow_up_lanes(self, monkeypatch):
        # with the sign rule switched off, a negative second layer drives u
        # through the blow-up threshold, located on the Hermite step
        monkeypatch.setattr(hhlab.liouville, "DEFAULT_SIGN_TOL", 1e30)
        params = HardyHenonParams(4, 2, 0.0, 4.0)
        cells = _cells([np.array([0.5, 1.0]), np.array([-1.0, -1e10])])
        records = hhlab.liouville._scan_lanes(cells, params, 20.0, 1e-10,
                                              1e-12)
        _assert_agrees(records, cells, params, 20.0)
        assert {rec.kind for rec in records} == {"BlowUp"}
        assert all(DEFAULT_R0 < rec.r_star < 20.0 for rec in records)

    def test_non_finite_retry_and_underflow_blow_up_lanes(self, monkeypatch):
        # with no thresholds at all, u^p overflows in trial stages: those
        # lanes retry at a quarter step until h underflows above the
        # amplitude floor, a blow-up at the failure radius
        non_finite = []
        real_step = hhlab.rk.LaneRK._step

        def counting(self, t, y, h, f0):
            y1, f1, err = real_step(self, t, y, h, f0)
            non_finite.append(int(np.sum(~np.isfinite(y1).all(axis=1))))
            return y1, f1, err

        monkeypatch.setattr(hhlab.rk.LaneRK, "_step", counting)
        monkeypatch.setattr(hhlab.liouville, "DEFAULT_BLOW_THRESHOLD",
                            math.inf)
        monkeypatch.setattr(hhlab.liouville, "DEFAULT_SIGN_TOL", math.inf)
        params = HardyHenonParams(4, 2, 0.0, 4.0)
        cells = _cells([np.array([1.0, 1e30]), np.array([-1.0, -1e10])])
        records = hhlab.liouville._scan_lanes(cells, params, 20.0, 1e-10,
                                              1e-12)
        _assert_agrees(records, cells, params, 20.0)
        assert {rec.kind for rec in records} == {"BlowUp"}
        assert sum(non_finite) > 0

    def test_integrator_failure_lane(self, monkeypatch):
        # a step budget of 40 ends the long lanes below the amplitude floor:
        # recorded as IntegratorFailure, with the error shoot raises
        monkeypatch.setattr(hhlab.rk, "MAX_STEPS", 40)
        axes = [np.array([0.5, 5.0]), np.array([-1.0, 0.0, 8.0])]
        res = scan(axes, CRITICAL, 30.0)
        _assert_agrees(res.records, _cells(axes), CRITICAL, 30.0)
        kinds = [rec.kind for rec in res.records]
        assert "IntegratorFailure" in kinds and "SignLoss" in kinds
        assert res.tally["IntegratorFailure"] == kinds.count(
            "IntegratorFailure")


class TestClassificationStability:
    def test_tolerance_halving_preserves_kinds(self):
        axes = [np.linspace(0.5, 8.0, 5), np.linspace(-8.0, 8.0, 5)]
        base = scan(axes, CRITICAL, 30.0, rtol=1e-10, atol=1e-12)
        tight = scan(axes, CRITICAL, 30.0, rtol=5e-11, atol=5e-13)
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
                    taylor_start(init, params, DEFAULT_R0), method="DOP853",
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
            out = shoot(init, params, 50.0, keep_trace=False)
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
        u = bubble_oracle(4)  # default grid: h = 1e-3 on [0, 10]
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

    def test_slow_decay_flagged(self):
        grid = RadialGrid.uniform(0.0, 20.0, 2049)
        f = RadialField.from_function(grid,
                                      lambda r: 1.0 / (1.0 + r ** 2))
        check = representation_check(f, 4)
        assert check.truncated

