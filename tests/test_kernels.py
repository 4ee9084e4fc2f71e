import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhlab.errors import KernelDomainError
from hhlab.checks import composition_sample
from hhlab.kernels import (_GRADING, _LEVELS, _MERGE_FRACTION,
                           _OUTER_RADIUS, _composition_integral,
                           _composition_mesh, _unit_mesh, green_ball,
                           riesz_compose_check, riesz_constant)
from hhlab.numerics import (geometric_breaks, graded_breaks,
                            panel_quadrature, sin_power_integral,
                            surface_area)
from hhlab.liouville import representation_check
from hhlab.radial import RadialField, RadialGrid


class TestRieszConstant:
    def test_order_two_dim_four(self):
        assert riesz_constant(2, 4) == pytest.approx(
            1.0 / (4 * math.pi ** 2), abs=1e-15)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_order_two_family(self, n):
        expected = math.gamma((n - 2) / 2) / (4 * math.pi ** (n / 2))
        assert riesz_constant(2, n) == pytest.approx(expected, rel=1e-14)

    def test_order_four_dim_five(self):
        assert riesz_constant(4, 5) == pytest.approx(
            1.0 / (16 * math.pi ** 2), abs=1e-14)

    def test_positive_and_finite_on_order_sweep(self):
        for n in (2, 3, 4, 5, 8):
            for alpha in np.linspace(0.05, n - 0.05, 37):
                c = riesz_constant(float(alpha), n)
                assert math.isfinite(c) and c > 0.0

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 4.0, 5.5])
    def test_domain_errors(self, alpha):
        with pytest.raises(KernelDomainError):
            riesz_constant(alpha, 4)


class TestGreenBall:
    def test_boundary_vanishing(self, rng):
        x = np.array([0.2, -0.1, 0.05, 0.3])
        for _ in range(5):
            y = rng.normal(size=4)
            y *= 1.0 / np.linalg.norm(y)
            # on the sphere both terms coincide (zero up to round-off); the
            # outside branch returns an exact zero
            assert abs(green_ball(x, y, 1.0, 4)) < 1e-14
            assert green_ball(x, 1.000001 * y, 1.0, 4) == 0.0
            assert abs(green_ball(x, 0.999999 * y, 1.0, 4)) < 1e-4

    def test_symmetry(self, rng):
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, 5)
            y = rng.uniform(-0.5, 0.5, 5)
            if np.linalg.norm(x - y) < 1e-3:
                continue
            g1 = green_ball(x, y, 1.0, 5)
            g2 = green_ball(y, x, 1.0, 5)
            assert abs(g1 - g2) <= 1e-12 * max(1.0, abs(g1))

    def test_positive_interior(self, rng):
        for _ in range(20):
            x = rng.uniform(-0.4, 0.4, 4)
            y = rng.uniform(-0.4, 0.4, 4)
            if np.linalg.norm(x - y) < 1e-6:
                continue
            assert green_ball(x, y, 1.0, 4) > 0.0

    def test_origin_reduction(self):
        y = np.array([0.3, -0.2, 0.1, 0.4])
        R, n = 1.5, 4
        expected = riesz_constant(2, n) * (
            np.linalg.norm(y) ** (2 - n) - R ** (2 - n))
        assert green_ball(np.zeros(n), y, R, n) == pytest.approx(
            expected, rel=1e-13)

    def test_outside_zero_and_diagonal_error(self):
        x = np.array([2.0, 0.0, 0.0, 0.0])
        y = np.array([0.1, 0.0, 0.0, 0.0])
        assert green_ball(x, y, 1.0, 4) == 0.0
        with pytest.raises(KernelDomainError):
            green_ball(y, y, 1.0, 4)

    def test_harmonic_off_diagonal(self):
        # -Lap_x G(. , y) = 0 away from y, by centered second differences
        R, n = 1.0, 4
        y = np.array([0.45, 0.0, 0.0, 0.0])
        x = np.array([-0.2, 0.15, 0.1, -0.05])
        h = 1e-3
        lap = 0.0
        g0 = green_ball(x, y, R, n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            lap += (green_ball(x + e, y, R, n)
                    + green_ball(x - e, y, R, n) - 2.0 * g0) / h ** 2
        assert abs(lap) < 1e-4 * abs(g0) / h ** 0  # O(h^2) floor

    def test_wrapper_validation(self):
        with pytest.raises(KernelDomainError):
            green_ball(np.zeros(2), np.array([0.5, 0.0]), 1.0, 2)
        with pytest.raises(KernelDomainError):
            green_ball(np.zeros(4), np.array([0.5, 0, 0, 0.0]), -1.0, 4)


def _forbid_meshing(monkeypatch):
    """Empty the unit-mesh cache and make building a mesh fail, so that a
    check which rejects its input must do so before any mesh exists."""
    def no_mesh(*args, **kwargs):
        raise AssertionError("a quadrature mesh was built")

    _unit_mesh.cache_clear()
    monkeypatch.setattr("hhlab.kernels.panel_quadrature", no_mesh)


class TestComposition:
    def test_matches_closed_form_n5(self):
        lhs, rhs = riesz_compose_check(
            2.0, 2.0, np.zeros(5), np.array([1.0, 0, 0, 0, 0]), 5)
        assert rhs == pytest.approx(riesz_constant(4, 5), rel=1e-14)
        assert abs(lhs / rhs - 1.0) < 1e-2

    def test_closed_form_value_n4(self):
        _, rhs = riesz_compose_check(
            1.0, 1.0, np.zeros(4), np.array([2.0, 0, 0, 0]), 4)
        assert rhs == pytest.approx(riesz_constant(2, 4) / 4.0, rel=1e-14)
        assert rhs == pytest.approx(1.0 / (16 * math.pi ** 2), rel=1e-13)

    def test_scaling_homogeneity(self):
        a1, a2, n = 1.3, 2.1, 4
        lhs1, _ = riesz_compose_check(a1, a2, np.zeros(n),
                                      np.array([1.0, 0, 0, 0]), n)
        lam = 3.0
        lhs2, _ = riesz_compose_check(a1, a2, np.zeros(n),
                                      np.array([lam, 0, 0, 0]), n)
        assert lhs2 == pytest.approx(lhs1 * lam ** (a1 + a2 - n), rel=1e-12)

    def test_order_domain_errors(self):
        x, z = np.zeros(4), np.array([1.0, 0, 0, 0])
        with pytest.raises(KernelDomainError):
            riesz_compose_check(0.0, 1.0, x, z, 4)
        with pytest.raises(KernelDomainError):
            riesz_compose_check(2.5, 2.0, x, z, 4)  # sum exceeds n
        with pytest.raises(KernelDomainError):
            riesz_compose_check(1.0, 1.0, x, x, 4)

    @pytest.mark.parametrize("n", [4.5, 4.0, 1, "4"])
    def test_rejects_bad_dimension(self, n):
        with pytest.raises(KernelDomainError):
            riesz_compose_check(1.0, 1.0, np.zeros(4),
                                np.array([1.0, 0, 0, 0]), n)

    @pytest.mark.parametrize("x,z", [
        (np.zeros(3), np.array([1.0, 0, 0, 0])),
        (np.zeros(4), np.array([1.0, 0, 0])),
        (np.zeros((2, 4)), np.array([1.0, 0, 0, 0])),
        (np.array([math.nan, 0, 0, 0]), np.array([1.0, 0, 0, 0])),
        (np.zeros(4), np.array([math.inf, 0, 0, 0])),
        (np.full(4, math.inf), np.full(4, math.inf)),
        (np.full(4, 1e308), np.full(4, -1e308)),  # |x - z| overflows
        (np.zeros(4), np.array([1e-160, 0, 0, 0])),  # |x - z|^-2 overflows
        (np.zeros(4), np.array([1e170, 0, 0, 0])),  # |x - z|^-2 underflows
    ], ids=["x-3-vector", "z-3-vector", "x-matrix", "x-nan", "z-inf",
            "both-inf", "distance-overflow", "power-overflow",
            "power-underflow"])
    def test_rejects_bad_points_before_meshing(self, x, z, monkeypatch):
        _forbid_meshing(monkeypatch)
        with pytest.raises(KernelDomainError):
            riesz_compose_check(1.0, 1.0, x, z, 4)

    def test_accepts_numpy_integer_dimension(self):
        lhs, rhs = riesz_compose_check(1.0, 1.0, np.zeros(4),
                                       np.array([1.0, 0, 0, 0]), np.int64(4))
        assert abs(lhs / rhs - 1.0) < 1e-2


def _broadcast_composition_integral(alpha1, alpha2, d, n, n_sing, n_theta,
                                    order):
    """The composition integral with its full-size broadcast integrand on a
    mesh built afresh at unit distance, times d^(alpha1+alpha2-n); the
    oracle for the blocked evaluation on the cached mesh."""
    r_breaks, r_orders = _composition_mesh(n_sing, order)
    r_nodes, r_weights = panel_quadrature(r_breaks, r_orders)
    theta_breaks = graded_breaks(0.0, math.pi, n_theta, _GRADING,
                                 toward="start")
    t_nodes, t_weights = panel_quadrature(theta_breaks, order)
    sin_half2 = np.sin(0.5 * t_nodes) ** 2
    sin_pow = np.sin(t_nodes) ** (n - 2)
    r = r_nodes[:, None]
    q2 = (r - 1.0) ** 2 + 4.0 * r * sin_half2[None, :]
    integrand = (r_nodes ** (alpha1 - 1))[:, None] * \
        q2 ** (0.5 * (alpha2 - n)) * sin_pow[None, :]
    core = float(r_weights @ (integrand @ t_weights))
    r_out = r_breaks[-1]
    tail = sin_power_integral(n) * r_out ** (alpha1 + alpha2 - n) / \
        (n - alpha1 - alpha2)
    c = riesz_constant(alpha1, n) * riesz_constant(alpha2, n)
    return c * surface_area(n - 1) * (core + tail) * \
        d ** (alpha1 + alpha2 - n)



@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([3, 4, 5, 6]), u1=st.floats(0.05, 0.95),
       u2=st.floats(0.05, 0.95), d=st.floats(1e-2, 1e2),
       level=st.sampled_from(_LEVELS))
def test_composition_integral_matches_broadcast_formula(n, u1, u2, d, level):
    # alpha1, alpha2 and their sum anywhere inside (0, n)
    alpha1, alpha2 = u1 * u2 * n, u1 * (1.0 - u2) * n
    blocked = _composition_integral(alpha1, alpha2, d, n, *level)
    oracle = _broadcast_composition_integral(alpha1, alpha2, d, n, *level)
    assert blocked == pytest.approx(oracle, rel=1e-12, abs=0.0)


def _selftest_orders(n, u1, u2):
    """The orders kernels-selftest draws: each in [0.5, n - 1.1], the sum in
    [1, n - 0.4]; u1, u2 in [0, 1] place the pair inside that domain."""
    total = 1.0 + u1 * (n - 1.4)
    lo, hi = max(0.5, total - (n - 1.1)), min(n - 1.1, total - 0.5)
    alpha1 = lo + u2 * (hi - lo)
    return alpha1, total - alpha1


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([3, 4, 5, 6]), u1=st.floats(0.0, 1.0),
       u2=st.floats(0.0, 1.0), k=st.integers(-5, 5),
       lam=st.floats(0.05, 20.0), seed=st.integers(0, 2 ** 32 - 1))
def test_composition_scaling_law(n, u1, u2, k, lam, seed):
    """lhs(lam (x - z)) = lam^(alpha1 + alpha2 - n) lhs(x - z).

    The quadrature runs on one mesh at unit distance for every |x - z|, so
    only the rounding of |x - z| and of the powers is left, for lam = 2^k
    and for a general lam alike."""
    alpha1, alpha2 = _selftest_orders(n, u1, u2)
    rng = np.random.default_rng(seed)
    x, z = rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n)
    lhs, rhs = riesz_compose_check(alpha1, alpha2, x, z, n)
    for scale in (2.0 ** k, lam):
        lhs_s, rhs_s = riesz_compose_check(alpha1, alpha2, scale * x,
                                           scale * z, n)
        factor = scale ** (alpha1 + alpha2 - n)
        assert lhs_s == pytest.approx(factor * lhs, rel=1e-12, abs=0.0)
        assert rhs_s == pytest.approx(factor * rhs, rel=1e-12, abs=0.0)


def _mesh_blocks(mesh):
    """(rows, angular nodes, angular weights, ln Q) of each row block of a
    cached unit mesh, in row order."""
    r_nodes, _, blocks = mesh
    start = 0
    for t_nodes, t_weights, log_q in blocks:
        yield r_nodes[start:start + len(log_q)], t_nodes, t_weights, log_q
        start += len(log_q)
    assert start == r_nodes.size


def _mesh_arrays(mesh):
    """Every array a cached unit mesh holds."""
    r_nodes, r_weights, blocks = mesh
    return [r_nodes, r_weights, *(a for block in blocks for a in block)]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8),
       u1=st.floats(1e-6, 1.0 - 1e-6), u2=st.floats(1e-6, 1.0 - 1e-6))
def test_blocked_angular_rules_match_full_mesh(n, u1, u2):
    """Each row block's merged angular panel integrates to rounding: on
    both levels the blocked integral equals the untrimmed full-mesh
    broadcast formula within 1e-13, for alpha1, alpha2 anywhere in (0, n)
    with their sum in (0, n)."""
    alpha1, alpha2 = u1 * u2 * n, u1 * (1.0 - u2) * n
    for level in _LEVELS:
        blocked = _composition_integral(alpha1, alpha2, 1.0, n, *level)
        oracle = _broadcast_composition_integral(alpha1, alpha2, 1.0, n,
                                                 *level)
        assert blocked == pytest.approx(oracle, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("level", _LEVELS)
def test_far_breaks_end_exactly_at_the_outer_radius(level):
    # past the 3 n_sing graded panels the mesh is geometric_breaks to 400,
    # whose last break is the outer radius itself
    n_sing, _, order = level
    far = geometric_breaks(2.0, 400.0, 1.7)
    breaks, _ = _composition_mesh(n_sing, order)
    np.testing.assert_array_equal(breaks[3 * n_sing:], far)
    assert breaks[-1] == _OUTER_RADIUS


@pytest.mark.parametrize("level", _LEVELS)
def test_radial_orders_rise_away_from_each_singular_end(level):
    """The k-th graded panel from rho = 0 or rho = 1 (k = 0 touching it)
    has Gauss order min(order, 1 + round(0.6 k)); the far panels have the
    level's order, and each graded chain shrinks by _GRADING per panel."""
    n_sing, _, order = level
    breaks, orders = _composition_mesh(n_sing, order)
    assert len(orders) == breaks.size - 1 == 3 * n_sing + 10
    rising = [min(order, 1 + round(0.6 * k)) for k in range(n_sing)]
    assert orders[:n_sing] == rising
    assert orders[n_sing:2 * n_sing] == rising[::-1]
    assert orders[2 * n_sing:3 * n_sing] == rising
    assert orders[3 * n_sing:] == [order] * 10
    # beside rho = 1 the widths fall to about 1e-13, and the breaks there
    # are rounded to 1.1e-16
    widths = np.diff(breaks)
    for chain in (widths[1:n_sing], widths[2 * n_sing - 2:n_sing - 1:-1],
                  widths[2 * n_sing + 1:3 * n_sing]):
        np.testing.assert_allclose(chain[:-1] / chain[1:], _GRADING,
                                   rtol=1e-2)


def _broadcast_panel_quadrature(breaks, order):
    """One Gauss order on every panel, as one broadcast over the panels:
    panel_quadrature's rule for an integer order, operation for
    operation."""
    x, w = np.polynomial.legendre.leggauss(order)
    a = np.asarray(breaks, dtype=float)
    half = 0.5 * (a[1:] - a[:-1])
    mid = 0.5 * (a[1:] + a[:-1])
    return ((mid[:, None] + half[:, None] * x[None, :]).ravel(),
            (half[:, None] * w[None, :]).ravel())


@pytest.mark.parametrize("order", [1, 2, 6, 8])
def test_panel_quadrature_integer_order_is_unchanged(order):
    n_sing, _, level_order = _LEVELS[0]
    breaks, _ = _composition_mesh(n_sing, level_order)
    nodes, weights = panel_quadrature(breaks, order)
    expected = _broadcast_panel_quadrature(breaks, order)
    np.testing.assert_array_equal(nodes, expected[0])
    np.testing.assert_array_equal(weights, expected[1])
    # the same order given once per panel gives the same bits
    for got, want in zip(panel_quadrature(breaks,
                                          [order] * (breaks.size - 1)),
                         (nodes, weights)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("orders", [[1, 3, 8, 2], np.array([5, 1, 1, 4])],
                         ids=["list", "array"])
def test_panel_quadrature_per_panel_orders_concatenate_panel_rules(orders):
    breaks = [0.0, 0.1, 0.5, 2.0, 3.0]
    nodes, weights = panel_quadrature(breaks, orders)
    start = 0
    for i, k in enumerate(orders):
        one_nodes, one_weights = panel_quadrature(breaks[i:i + 2], int(k))
        np.testing.assert_array_equal(nodes[start:start + k], one_nodes)
        np.testing.assert_array_equal(weights[start:start + k], one_weights)
        start += k
    assert start == nodes.size == weights.size
    assert weights.sum() == pytest.approx(3.0, rel=1e-15)


@pytest.mark.parametrize("orders", [[3], [3, 3, 3]])
def test_panel_quadrature_rejects_an_order_count_not_the_panel_count(orders):
    with pytest.raises(ValueError, match="orders for 2 panels"):
        panel_quadrature([0.0, 1.0, 2.0], orders)


@pytest.mark.parametrize("a,b", [(0.0, 400.0), (-1.0, 400.0),
                                 (2.0, math.inf), (2.0, 2.0), (400.0, 2.0),
                                 (math.nan, 400.0), (2.0, math.nan)])
def test_geometric_breaks_rejects_a_span_it_cannot_reach(a, b):
    # with a <= 0 the widths never grow and b = inf is never reached, so
    # the panel loop would append until memory ran out
    with pytest.raises(ValueError, match="0 < a < b < inf"):
        geometric_breaks(a, b, 1.7)


@pytest.mark.parametrize("growth", [1.0, 0.5, math.nan])
def test_geometric_breaks_rejects_growth_not_above_one(growth):
    # a NaN growth would end the mesh after one panel, [a, b]
    with pytest.raises(ValueError, match="growth must exceed 1"):
        geometric_breaks(2.0, 400.0, growth)


@pytest.mark.parametrize("level", _LEVELS)
def test_merged_angular_panel_stays_below_the_singular_distance(level):
    """A block merges the graded angular panels below its largest break b
    at or below c min(1, delta(rho)) over its rows into one Gauss panel,
    where Q vanishes at theta = +-i delta(rho), and keeps the full mesh
    above b: its remaining nodes and weights are exactly a suffix of the
    full angular mesh. A block whose reach lies below the first break keeps
    the full mesh."""
    n_sing, n_theta, order = level
    theta_breaks = graded_breaks(0.0, math.pi, n_theta, _GRADING,
                                 toward="start")
    full_nodes, full_weights = panel_quadrature(theta_breaks, order)
    merged_blocks = 0
    for rows, t_nodes, t_weights, _ in _mesh_blocks(_unit_mesh(*level)):
        kept = t_nodes.size - order
        assert kept % order == 0
        j = n_theta - kept // order
        np.testing.assert_array_equal(t_nodes[order:], full_nodes[j * order:])
        np.testing.assert_array_equal(t_weights[order:],
                                      full_weights[j * order:])
        b = theta_breaks[j]
        assert 0.0 < t_nodes[:order].min() and t_nodes[:order].max() < b
        assert t_weights[:order].sum() == pytest.approx(b, rel=1e-14, abs=0.0)
        delta = 2.0 * np.arcsinh(np.abs(rows - 1.0) / (2.0 * np.sqrt(rows)))
        reach = _MERGE_FRACTION * np.minimum(1.0, delta).min()
        # b is the largest graded break at or below the reach
        assert theta_breaks[j + 1] > reach
        if j > 1:
            assert b <= reach
            merged_blocks += 1
        else:
            np.testing.assert_array_equal(t_nodes, full_nodes)
            np.testing.assert_array_equal(t_weights, full_weights)
    assert merged_blocks > 0


# the worst rel_gap of the kernels-selftest sample (100 per n) on the
# previous radial mesh: panels graded by 0.4 with order 8 (6 on the coarse
# level) on every one
@pytest.mark.parametrize("seed,previous_worst",
                         [(101, 8.9e-7), (311, 1.7e-6), (7, 2.1e-6)])
def test_selftest_sample_beats_the_previous_mesh(seed, previous_worst):
    gaps = composition_sample(np.random.default_rng(seed), 100)
    assert len(gaps) == 200
    assert max(g["rel_gap"] for g in gaps) < previous_worst


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_levels_agree_at_the_corners_of_the_selftest_orders(n):
    """The coarse and fine levels agree to 1e-3 at the corners of the order
    domain kernels-selftest draws from, five times inside the 5e-3 at which
    riesz_compose_check raises."""
    for u1 in (0.0, 1.0):
        for u2 in (0.0, 1.0):
            alpha1, alpha2 = _selftest_orders(n, u1, u2)
            fine, coarse = (_composition_integral(alpha1, alpha2, 1.0, n,
                                                  *level)
                            for level in _LEVELS)
            assert abs(fine - coarse) < 1e-3 * abs(fine)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8),
       u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       level=st.sampled_from(_LEVELS))
def test_cached_log_kernel_power_matches_power(n, u, level):
    """exp(e ln Q) on the cached ln Q against Q**e on Q recomputed from the
    cached nodes: exp amplifies the rounding of e ln Q by |e ln Q|, and the
    log, the product and the two powers each add about one rounding."""
    mesh = _unit_mesh(*level)
    for a in _mesh_arrays(mesh):
        assert not a.flags.writeable
        assert np.isfinite(a).all()
    e = 0.5 * (u * n - n)    # alpha2 = u n in (0, n)
    for rows, t_nodes, _, log_q in _mesh_blocks(mesh):
        q = np.multiply.outer(4.0 * rows, np.sin(0.5 * t_nodes) ** 2)
        q += ((rows - 1.0) ** 2)[:, None]
        rel = np.abs(np.exp(e * log_q) / q ** e - 1.0)
        bound = (np.abs(e * log_q) + 4.0) * np.finfo(float).eps
        assert (rel <= bound).all()


def test_mesh_build_holds_no_second_mesh_array():
    """Building both levels peaks within 1.2x the cached arrays' bytes:
    each row block's ln Q is formed and logged in place, so the build holds
    no array of the mesh's size besides the cache."""
    _unit_mesh.cache_clear()
    tracemalloc.start()
    try:
        meshes = [_unit_mesh(*level) for level in _LEVELS]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = sum(a.nbytes for mesh in meshes for a in _mesh_arrays(mesh))
    assert peak <= 1.2 * nbytes


def test_representation_consistency_cross_module():
    # compactly supported smooth radial source: the kernel integral at the
    # origin equals the radial double-integral route to 1e-6
    grid = RadialGrid.uniform(0.0, 2.0, 4001)
    r = grid.nodes
    vals = np.where(r <= 1.0, (1.0 - r ** 2) ** 3, 0.0)
    f = RadialField(grid, vals)
    for n in (4, 5):
        check = representation_check(f, n)
        # independent oracle: R_{2,n} |S^{n-1}| int_0^1 r (1-r^2)^3 dr,
        # the moment integral is exactly 1/8
        expected = riesz_constant(2, n) * (
            2 * math.pi ** (n / 2) / math.gamma(n / 2)) / 8.0
        assert check.potential_at_0 == pytest.approx(expected, abs=1e-8)
        assert check.direct == pytest.approx(check.potential_at_0, abs=1e-6)
        assert not check.truncated
