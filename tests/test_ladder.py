import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhlab.ladder import (LadderState, default_alpha0, divergence_threshold,
                          geometry_constant, ladder_advance,
                          ladder_advance_direct, ladder_closed_form,
                          ladder_table, log_amplitude_bound,
                          monomial_poisson_coefficient)
from hhlab.radial import (HardyHenonParams, RadialField, RadialGrid,
                          poisson_solve_ball)


def _random_state(rng):
    params = HardyHenonParams(int(rng.integers(2, 7)), 2,
                              float(rng.uniform(-1.0, 1.0)),
                              float(rng.uniform(1.3, 3.5)))
    l0 = float(np.exp(rng.uniform(-2.0, 15.0)))
    return l0, LadderState.initial(l0, params, M=float(rng.uniform(0.0, 5.0)),
                                   alpha0=float(rng.uniform(1.0, 10.0)))


class TestAdvance:
    def test_reference_step(self):
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        s = LadderState.initial(1.0, params, M=0.0, alpha0=1.0)
        s1 = ladder_advance(s)
        assert s1.k == 1
        assert s1.l == pytest.approx(1.0 / 256.0, rel=1e-14)
        assert s1.alpha == pytest.approx(4.0)

    def test_alpha_is_geometric(self):
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        s = LadderState.initial(2.0, params, alpha0=1.0)
        cur = s
        for k in range(11):
            assert cur.alpha == pytest.approx((2.0 * params.p) ** k,
                                              rel=1e-14)
            cur = ladder_advance(cur)

    def test_log_space_matches_direct(self, rng):
        for _ in range(10):
            _, s = _random_state(rng)
            cur = s
            for _ in range(8):
                nxt = ladder_advance(cur)
                direct = ladder_advance_direct(cur)
                if 0.0 < direct < math.inf:
                    assert nxt.log_l == pytest.approx(math.log(direct),
                                                      abs=1e-12)
                cur = nxt

    def test_exponent_carried_in_log_space_past_overflow(self):
        # alpha_k = 4^(k+1) leaves the float range at k = 511; its log
        # goes on, and so does the amplitude
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        s0 = LadderState.initial(math.e * divergence_threshold(params),
                                 params)
        rows = ladder_table(s0, 1000)
        assert rows[-1][0] == 1000 and math.isfinite(rows[-1][1])
        cur = s0
        for k in range(1001):
            if k <= 510:
                assert math.isfinite(cur.alpha)
                assert cur.log_alpha == math.log(cur.alpha)
            else:
                assert cur.alpha == math.inf
                assert cur.log_alpha == pytest.approx((k + 1) * math.log(4.0),
                                                      rel=1e-13)
            assert cur.log_l == rows[k][1]
            cur = ladder_advance(cur)

    def test_log_alpha_is_checked(self):
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        for log_alpha in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="exponent alpha"):
                LadderState(0, 0.0, math.inf, 1.0, 0.0, params, log_alpha)
        s = LadderState(0, 0.0, math.inf, 1.0, 0.0, params, 900.0)
        assert s.log_alpha == 900.0

    def test_state_validation(self):
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        with pytest.raises(ValueError):
            LadderState.initial(-1.0, params)
        with pytest.raises(ValueError):
            LadderState(0, 0.0, 0.5, 1.0, 0.0, params)
        with pytest.raises(ValueError):
            LadderState(0, 0.0, 1.0, 1.5, 0.0, params)

    @pytest.mark.parametrize("l0", [math.nan, math.inf])
    def test_rejects_non_finite_l0(self, l0):
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        with pytest.raises(ValueError, match="amplitude l0"):
            LadderState.initial(l0, params)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        with pytest.raises(ValueError, match="alpha"):
            LadderState.initial(1.0, params, alpha0=alpha)


class TestClosedForm:
    def test_k0_reduces_to_l0(self, rng):
        for _ in range(5):
            l0, s = _random_state(rng)
            cf = ladder_closed_form(0, l0, s)
            assert cf.log_exact == pytest.approx(math.log(l0), abs=1e-13)

    def test_matches_recurrence(self, rng):
        worst = 0.0
        for _ in range(15):
            l0, s = _random_state(rng)
            cur = s
            for k in range(13):
                cf = ladder_closed_form(k, l0, s)
                gap = abs(cf.log_exact - cur.log_l) \
                    / max(1.0, abs(cur.log_l))
                worst = max(worst, gap)
                cur = ladder_advance(cur)
        assert worst < 1e-9

    def test_lower_bound_never_exceeds_recurrence(self, rng):
        for _ in range(15):
            l0, s = _random_state(rng)
            cur = s
            for k in range(13):
                cf = ladder_closed_form(k, l0, s)
                assert cf.log_lower_bound <= cur.log_l \
                    + 1e-9 * max(1.0, abs(cur.log_l))
                cur = ladder_advance(cur)


@st.composite
def _ladder_starts(draw):
    """(params, M, l0, k): a start l0 = threshold * e^s with s in [0.05, 10],
    so it lies clear of the divergence threshold on its growing side."""
    n = draw(st.sampled_from([4, 6, 8, 10]))
    p = draw(st.floats(1.1, 6.0))
    a = draw(st.floats(-3.0, 1.9))
    # a Henon weight leaves C0 = 1 for every M, however large
    M = draw(st.floats(0.0, 1e200) if a < 0.0 else st.floats(0.0, 50.0))
    params = HardyHenonParams(n, max(1, n // 2), a, p)
    threshold = divergence_threshold(params, M)
    assume(math.isfinite(threshold))
    log_l0 = math.log(threshold) + draw(st.floats(0.05, 10.0))
    assume(log_l0 < math.log(np.finfo(float).max))
    return params, M, math.exp(log_l0), draw(st.integers(0, 12))


@settings(max_examples=200, deadline=None)
@given(start=_ladder_starts())
def test_recurrence_matches_closed_form(start):
    params, M, l0, k_max = start
    s0 = LadderState.initial(l0, params, M)
    for k, log_l, _ in ladder_table(s0, k_max):
        cf = ladder_closed_form(k, l0, s0)
        assert abs(cf.log_exact - log_l) <= 1e-12 * max(1.0, abs(log_l))
        assert cf.log_lower_bound <= log_l


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 10), p=st.floats(1.05, 1e3), a=st.floats(-3.0, 1.9),
       M=st.floats(0.0, 50.0), log_l0=st.floats(-50.0, 50.0),
       alpha0=st.floats(1.0, 10.0), k_max=st.integers(0, 60))
def test_log_amplitude_bound_holds_on_every_row(n, p, a, M, log_l0, alpha0,
                                                k_max):
    """The O(1) bound the ladder command guards with lies above |log l_k|
    on every row, above or below the threshold, and grows with k. Where
    every term has one sign the bound is |log l_k| itself, so each row
    carries the rounding the recurrence amplifies, about k eps relative."""
    params = HardyHenonParams(n, max(1, n // 2), a, p)
    s0 = LadderState.initial(math.exp(log_l0), params, M, alpha0)
    bound = log_amplitude_bound(s0, k_max)
    assume(math.isfinite(bound))
    eps = np.finfo(float).eps
    for k, log_l, _ in ladder_table(s0, k_max):
        row_bound = log_amplitude_bound(s0, k)
        assert abs(log_l) <= row_bound * (1.0 + 4.0 * (k + 1) * eps)
        assert row_bound <= bound


def test_log_amplitude_bound_overflows_to_inf():
    params = HardyHenonParams(4, 2, 0.0, 2.0)
    s0 = LadderState.initial(1.0, params)
    assert math.isfinite(log_amplitude_bound(s0, 1000))
    assert log_amplitude_bound(s0, 1100) == math.inf
    with pytest.raises(ValueError):
        log_amplitude_bound(s0, -1)


class TestThreshold:
    def test_reference_value(self):
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        assert divergence_threshold(params, 0.0) == pytest.approx(
            16777216.0, rel=1e-9)
        assert default_alpha0(params) == pytest.approx(4.0)

    def test_weightless_case_ignores_M(self):
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        assert divergence_threshold(params, 0.0) == pytest.approx(
            divergence_threshold(params, 37.0), rel=1e-14)

    def test_monotone_in_M_for_hardy_weight(self):
        params = HardyHenonParams(4, 2, 1.0, 2.0)
        ms = [0.0, 1.0, 5.0, 20.0]
        vals = [divergence_threshold(params, M) for M in ms]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_geometry_constant(self):
        params = HardyHenonParams(4, 2, 1.0, 2.0)
        assert geometry_constant(params, 1.0) == pytest.approx(0.5)
        neg = HardyHenonParams(4, 2, -1.0, 2.0)
        assert geometry_constant(neg, 5.0) == 1.0

    @pytest.mark.parametrize("a", [0.0, -2.0])
    @pytest.mark.parametrize("M", [50.0, 1e200, 1e300])
    def test_geometry_constant_is_one_without_hardy_weight(self, a, M):
        # (1 + M)^(-a) >= 1 for a <= 0, and it overflows at M = 1e200
        params = HardyHenonParams(4, 2, a, 2.0)
        assert geometry_constant(params, M) == 1.0
        assert divergence_threshold(params, M) == divergence_threshold(
            HardyHenonParams(4, 2, 0.0, 2.0), 0.0)

    @pytest.mark.parametrize("M", [math.nan, math.inf])
    def test_geometry_constant_rejects_non_finite_M(self, M):
        params = HardyHenonParams(4, 2, 1.0, 2.0)
        with pytest.raises(ValueError, match="M must be finite"):
            geometry_constant(params, M)

    @pytest.mark.parametrize("M", [-2.0, -1.0, -0.5, math.nan])
    def test_threshold_rejects_bad_M(self, M):
        # a hardy weight, so that M enters the threshold through log1p
        params = HardyHenonParams(4, 2, 1.0, 2.0)
        with pytest.raises(ValueError, match="path length M"):
            divergence_threshold(params, M)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 10), a=st.floats(-3.0, 1.9),
           M=st.floats(0.0, 50.0),
           p=st.one_of(st.floats(1.0, 1e6, exclude_min=True),
                       st.floats(1e6, sys.float_info.max),
                       st.sampled_from([1.3e154, 1.4e154, 9e307,
                                        sys.float_info.max])))
    def test_threshold_is_defined_for_every_finite_p(self, n, a, M, p):
        # (p-1)^2 overflows above p ~ 1.3e154, though the threshold tends
        # to 1 there; near p = 1 only its log is finite, and it reads inf
        params = HardyHenonParams(n, max(1, n // 2), min(a, n - 1.0), p)
        thr = divergence_threshold(params, M)
        assert thr >= 1.0
        if p >= 1.5:
            assert math.isfinite(thr)
        if p >= 1e6:
            assert thr == pytest.approx(1.0, abs=1e-3)

    def test_threshold_is_continuous_where_its_form_switches(self):
        # the log-space form of (2p)^(np/(p-1)^2) takes over where the
        # float (p-1)^2 overflows; both sides agree to rounding
        params = HardyHenonParams(4, 2, 1.0, 2.0)
        below = divergence_threshold(
            HardyHenonParams(4, 2, 1.0, 1.3407807929942596e154), 3.0)
        above = divergence_threshold(
            HardyHenonParams(4, 2, 1.0, 1.3407807929942598e154), 3.0)
        assert below == pytest.approx(above, rel=1e-15)
        assert divergence_threshold(params, 3.0) > below

    def test_divergence_above_threshold(self):
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        n, p = params.n, params.p
        l0 = divergence_threshold(params, 0.0)
        s = LadderState.initial(l0, params)
        cur = s
        prev_log = cur.log_l
        increasing_tail = True
        for k in range(41):
            bound = n * k / (p - 1.0) * math.log(2.0 * p)
            assert cur.log_l >= bound - 1e-9 * max(1.0, abs(bound))
            if k >= 5 and cur.log_l <= prev_log:
                increasing_tail = False
            prev_log = cur.log_l
            cur = ladder_advance(cur)
        assert increasing_tail

    def test_alpha_growth_inequality(self):
        # alpha_{k+1} = 2 alpha_k p >= alpha_k p + 2n with the default alpha0
        for n, p in ((4, 2.0), (6, 1.5), (2, 9.0)):
            params = HardyHenonParams(n, max(1, n // 2), 0.0, p)
            s = LadderState.initial(5.0, params)
            cur = s
            for _ in range(10):
                nxt = ladder_advance(cur)
                assert nxt.alpha >= cur.alpha * p + 2 * n - 1e-12
                cur = nxt


class TestMonomialCoefficient:
    def test_reference_values(self):
        assert monomial_poisson_coefficient(0.0, 4) == pytest.approx(1 / 8)
        assert monomial_poisson_coefficient(8.0, 4) == pytest.approx(1 / 120)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            monomial_poisson_coefficient(-2.0, 4)
        with pytest.raises(ValueError):
            monomial_poisson_coefficient(-4.0, 4)
        with pytest.raises(ValueError):
            monomial_poisson_coefficient(-5.0, 4)

    def test_numeric_cross_check(self):
        grid = RadialGrid.graded(0.0, 1.0, 1025)
        for beta in (0.0, 1.0, 2.5, 8.0):
            for n in (4, 6):
                f = RadialField.from_function(grid, lambda r: r ** beta)
                u = poisson_solve_ball(f, 1.0, n)
                coeff = monomial_poisson_coefficient(beta, n)
                assert abs(u.values[0] - coeff) < 1e-6


def test_table_shape():
    params = HardyHenonParams(4, 2, 0.0, 2.0)
    s = LadderState.initial(10.0, params)
    rows = ladder_table(s, 12)
    assert len(rows) == 13
    assert rows[0] == (0, math.log(10.0), 4.0)
    assert all(rows[i + 1][2] == pytest.approx(4.0 * rows[i][2])
               for i in range(12))
