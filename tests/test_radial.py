import io
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from hhlab.errors import (AmplitudeRangeError, GridError,
                          NonIntegrableSourceError)
from hhlab.navier import NavierProblem, first_eigenpair, torsion_function
from hhlab.radial import (HardyHenonParams, RadialField, RadialGrid,
                          iterated_green, poisson_solve_ball,
                          polyharmonic_apply, radial_laplacian, rescale,
                          singular_solution, weighted_cumulative)

# every float, with the signed zeros, infinities, NaN, denormals and the
# extremes drawn often
_CSV_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -2.5e-310, 1e308, -1e308, 1.7976931348623157e308]))


class TestParams:
    def test_classification(self):
        assert HardyHenonParams(4, 2).order_class == "critical"
        assert HardyHenonParams(4, 3).order_class == "super-critical"
        assert HardyHenonParams(4, 1).order_class == "sub-critical"

    def test_sigma(self):
        assert HardyHenonParams(4, 2, 2.0, 2.0).sigma == pytest.approx(2.0)
        assert HardyHenonParams(4, 2, 0.0, 2.0).sigma == pytest.approx(4.0)

    @pytest.mark.parametrize("kwargs", [
        dict(n=1, m=1), dict(n=4, m=0), dict(n=4, m=2, p=1.0),
        dict(n=4, m=2, a=4.0), dict(n=4, m=2, t=-1.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            HardyHenonParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(n=4, m=2, t=math.nan), dict(n=4, m=2, t=math.inf),
        dict(n=4, m=2, p=math.inf), dict(n=4, m=2, p=math.nan),
        dict(n=4, m=2, a=-math.inf), dict(n=4, m=2, a=math.nan),
        dict(n=4.5, m=2), dict(n=4.0, m=2), dict(n=4, m=1.5),
    ])
    def test_rejects_non_finite_and_non_integer(self, kwargs):
        with pytest.raises(ValueError):
            HardyHenonParams(**kwargs)

    def test_accepts_numpy_integers(self):
        assert HardyHenonParams(np.int64(4), np.int64(2)).order_class == \
            "critical"


class TestGridAndField:
    def test_factories(self):
        g = RadialGrid.uniform(0.0, 1.0, 64)
        assert len(g) == 64
        np.testing.assert_allclose(np.diff(g.nodes), 1.0 / 63, rtol=1e-12)
        g2 = RadialGrid.graded(0.0, 1.0, 129)
        assert g2.r0 == 0.0 and g2.r_max == 1.0
        # refinement toward both ends
        d = np.diff(g2.nodes)
        assert d[0] < d[len(d) // 2] and d[-1] < d[len(d) // 2]

    def test_invariants(self):
        with pytest.raises(GridError):
            RadialGrid(np.linspace(0, 1, 16))  # too few nodes
        bad = np.linspace(0, 1, 64)
        bad[10] = bad[9]
        with pytest.raises(GridError):
            RadialGrid(bad)
        with pytest.raises(GridError):
            RadialGrid(np.linspace(-0.5, 1, 64))

    @pytest.mark.parametrize("make", [
        lambda: RadialGrid.uniform(0.0, math.inf, 64),
        lambda: RadialGrid.graded(0.0, math.nan, 64),
        lambda: RadialGrid.graded(0.0, math.inf, 64),
        lambda: RadialGrid(np.append(np.linspace(0, 1, 63), math.inf)),
        lambda: RadialGrid(np.append(np.linspace(0, 1, 63), math.nan)),
    ], ids=["uniform-inf", "graded-nan", "graded-inf", "last-inf",
            "last-nan"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_rejects_non_finite_nodes(self, make):
        with pytest.raises(GridError):
            make()

    def test_field_finite_and_shape(self):
        g = RadialGrid.uniform(0.0, 1.0, 64)
        with pytest.raises(GridError):
            RadialField(g, np.full(64, np.nan))
        with pytest.raises(GridError):
            RadialField(g, np.ones(63))

    def test_field_values_frozen(self):
        g = RadialGrid.uniform(0.0, 1.0, 64)
        f = RadialField(g, np.ones(64))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_adopt_freezes_without_copying(self):
        g = RadialGrid.uniform(0.0, 1.0, 64)
        vals = np.ones(64)
        f = RadialField.adopt(g, vals)
        assert f.values is vals and not vals.flags.writeable
        with pytest.raises(GridError):
            RadialField.adopt(g, np.full(64, np.inf))
        with pytest.raises(GridError):
            RadialField.adopt(g, np.ones(63))

    def test_csv_round_trip(self, tmp_path):
        g = RadialGrid.graded(0.0, 2.0, 65)
        f = RadialField.from_function(g, lambda r: np.exp(-r))
        path = tmp_path / "field.csv"
        f.to_csv(str(path), "u(n=4,m=2,p=2,a=0,t=0,R=2)")
        text = path.read_text().splitlines()
        assert text[0] == "r,u(n=4,m=2,p=2,a=0,t=0,R=2)"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back[:, 0], g.nodes)
        np.testing.assert_array_equal(back[:, 1], f.values)

    def test_csv_bytes_match_per_row_formatting(self, rng):
        # the writer formats Python floats in blocks of rows (two blocks
        # here); the bytes are those of formatting each numpy value on its
        # own row
        g = RadialGrid.graded(0.0, 3.0, 257)
        vals = rng.normal(size=len(g)) * 10.0 ** rng.integers(-300, 300,
                                                              len(g))
        vals[:6] = [-0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.0]
        f = RadialField(g, vals)
        buf = io.StringIO()
        f.to_csv(buf, "u")
        want = "r,u\n" + "".join(f"{r:.17g},{v:.17g}\n"
                                 for r, v in zip(g.nodes, f.values))
        assert buf.getvalue() == want
        assert want.splitlines()[1] == "0,-0"

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_CSV_FLOATS, _CSV_FLOATS), min_size=1,
                    max_size=600))
    def test_csv_blocks_match_the_row_formula(self, rows):
        # one % operation per block of rows gives the bytes of an f-string
        # per row; RadialField rejects inf and NaN, so the writer runs on
        # a stand-in that carries them
        nodes = np.array([r for r, _ in rows])
        values = np.array([v for _, v in rows])
        stand_in = SimpleNamespace(grid=SimpleNamespace(nodes=nodes),
                                   values=values)
        buf = io.StringIO()
        RadialField.to_csv(stand_in, buf, "u")
        want = "r,u\n" + "".join(f"{r:.17g},{v:.17g}\n"
                                 for r, v in zip(nodes.tolist(),
                                                 values.tolist()))
        assert buf.getvalue() == want


class TestRadialLaplacian:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_quadratic(self, n):
        g = RadialGrid.uniform(0.0, 2.0, 501)
        f = RadialField.from_function(g, lambda r: r ** 2)
        lap = radial_laplacian(f, n)
        np.testing.assert_allclose(lap.values, -2.0 * n, atol=1e-7)

    def test_power_law(self):
        g = RadialGrid.uniform(0.5, 2.0, 1501)
        f = RadialField.from_function(g, lambda r: r ** -4.0)
        lap = radial_laplacian(f, 4)
        expected = -8.0 * g.nodes ** -6.0
        rel = np.abs(lap.values - expected) / np.abs(expected)
        assert rel.max() < 1e-5

    def test_constant(self):
        g = RadialGrid.graded(0.0, 1.0, 65)
        lap = radial_laplacian(RadialField.constant(g, 3.5), 5)
        np.testing.assert_allclose(lap.values, 0.0, atol=1e-20)


class TestPoissonSolve:
    def test_constant_source(self):
        g = RadialGrid.graded(0.0, 2.0, 513)
        u = poisson_solve_ball(RadialField.constant(g, 1.0), 2.0, 4)
        np.testing.assert_allclose(u.values, (4.0 - g.nodes ** 2) / 8.0,
                                   atol=1e-13)

    @pytest.mark.parametrize("beta,n", [(0.0, 4), (1.0, 4), (2.5, 6),
                                        (8.0, 6)])
    def test_monomial_closed_form(self, beta, n):
        grid = RadialGrid.graded(0.0, 1.0, 1025)
        f = RadialField.from_function(grid, lambda r: r ** beta)
        u = poisson_solve_ball(f, 1.0, n)
        coeff = 1.0 / ((beta + 2.0) * (beta + n))
        expected = coeff * (1.0 - grid.nodes ** (beta + 2.0))
        np.testing.assert_allclose(u.values, expected, atol=1e-7)

    def test_linearity(self, rng):
        g = RadialGrid.graded(0.0, 1.0, 257)
        f1 = RadialField(g, rng.uniform(0.0, 1.0, len(g)))
        f2 = RadialField(g, rng.uniform(0.0, 1.0, len(g)))
        u1 = poisson_solve_ball(f1, 1.0, 4)
        u2 = poisson_solve_ball(f2, 1.0, 4)
        u12 = poisson_solve_ball(f1.with_values(f1.values + f2.values),
                                 1.0, 4)
        np.testing.assert_allclose(u12.values, u1.values + u2.values,
                                   atol=1e-10)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_weighted_source(self):
        # beyond r = 1 the weight r^(n-1) can carry a finite field past the
        # float range
        g = RadialGrid.uniform(0.0, 10.0, 64)
        f = RadialField.constant(g, 1e307)
        with pytest.raises(NonIntegrableSourceError):
            poisson_solve_ball(f, 10.0, 4)

    def test_grid_must_end_at_radius(self):
        g = RadialGrid.uniform(0.0, 1.0, 64)
        with pytest.raises(GridError):
            poisson_solve_ball(RadialField.constant(g, 1.0), 2.0, 4)

    def test_grid_must_start_at_origin(self):
        # so must every Navier solve that takes a grid
        g = RadialGrid.uniform(1e-3, 1.0, 64)
        problem = NavierProblem(HardyHenonParams(4, 2), 1.0)
        with pytest.raises(GridError):
            poisson_solve_ball(RadialField.constant(g, 1.0), 1.0, 4)
        with pytest.raises(GridError):
            first_eigenpair(problem, grid=g)
        with pytest.raises(GridError):
            torsion_function(problem, grid=g)

    def test_solve_then_laplacian_recovers_source(self):
        g = RadialGrid.uniform(0.0, 1.0, 801)
        f = RadialField.from_function(g, lambda r: np.cos(2.0 * r) + 1.5)
        u = poisson_solve_ball(f, 1.0, 4)
        lap = radial_laplacian(u, 4)
        inner = slice(4, -4)
        rel = np.abs(lap.values - f.values)[inner] / np.max(f.values)
        assert rel.max() < 1e-6

    def test_maximum_principle_surrogate(self, rng):
        # nonnegative sources give nonnegative output; nonincreasing sources
        # give radially nonincreasing output
        g = RadialGrid.graded(0.0, 1.0, 257)
        r = g.nodes
        nonincreasing = [
            np.ones(len(g)),
            np.exp(-3.0 * r ** 2),
            (1.0 - r ** 2) ** 2,
            1.0 / (1.0 + np.exp((r - 0.5) / 0.05)),
        ]
        for vals in nonincreasing:
            u = poisson_solve_ball(RadialField(g, vals), 1.0, 4)
            scale = u.values.max()
            assert u.values.min() >= -1e-12 * scale
            assert np.all(np.diff(u.values) <= 1e-10 * scale)
        rough = RadialField(g, rng.uniform(0.0, 1.0, len(g)))
        u = poisson_solve_ball(rough, 1.0, 4)
        assert u.values.min() >= -1e-10 * u.values.max()


def _reference_solve(r, vals, n):
    """The double integral through scipy's CubicSpline and
    weighted_cumulative, independent of the cached per-grid solve."""
    F = weighted_cumulative(r, vals, n)
    integrand = np.zeros_like(F)
    integrand[1:] = F[1:] * r[1:] ** (1 - n)
    outer = CubicSpline(r, integrand).antiderivative()
    u = outer(r[-1]) - outer(r)
    u[-1] = 0.0
    return u


_CUBIC_GRIDS = {"graded-513": RadialGrid.graded(0.0, 1.0, 513).nodes,
                "uniform-257": RadialGrid.uniform(0.0, 1.0, 257).nodes,
                "graded-20-2049": RadialGrid.graded(0.0, 20.0, 2049).nodes}


@pytest.mark.parametrize("grid", list(_CUBIC_GRIDS))
@pytest.mark.parametrize("n", range(1, 9))
@settings(max_examples=8, deadline=None)
@given(c=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_weighted_cumulative_is_exact_on_cubics(n, grid, c):
    """The not-a-knot spline reproduces a cubic f, and the weight t^(n-1)
    is integrated exactly per panel, so F(r) = sum_k c_k r^(n+k)/(n+k) up
    to the rounding of a running sum over N panels: N eps times the size
    of those terms at the grid's end. A wrong panel integral leaves an
    O(h^4) error, orders above that."""
    r = _CUBIC_GRIDS[grid]
    vals = sum(ck * r ** k for k, ck in enumerate(c))
    exact = sum(ck * r ** (n + k) / (n + k) for k, ck in enumerate(c))
    size = sum(abs(ck) * r[-1] ** (n + k) / (n + k) for k, ck in enumerate(c))
    F = weighted_cumulative(r, vals, n)
    assert np.abs(F - exact).max() <= r.size * np.finfo(float).eps * size


def _grids(sizes):
    for N in sizes:
        yield pytest.param(RadialGrid.uniform(0.0, 1.0, N), id=f"uniform-{N}")
        yield pytest.param(RadialGrid.graded(0.0, 1.0, N),
                           id=f"geometric-{N}")


class TestCachedGreenSolve:
    @pytest.mark.parametrize("grid", list(_grids((32, 257, 4097))))
    def test_spline_matches_scipy(self, grid, rng):
        # the kernel integrates the spline from its node slopes: scipy's
        # linear coefficients at the left nodes and its derivative at the end
        r = grid.nodes
        for vals in (np.exp(-r) * np.cos(5.0 * r), (1.0 - r ** 2) ** 3,
                     rng.uniform(-1.0, 1.0, r.size)):
            spline = CubicSpline(r, vals)
            want = np.append(spline.c[2], spline(r[-1], 1))
            s, d = grid.green(4).slopes(vals)
            assert s.shape == want.shape
            assert np.max(np.abs(s - want)) <= 1e-12 * np.max(np.abs(want))
            np.testing.assert_array_equal(d, np.diff(vals))

    @pytest.mark.parametrize("r0", [0.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_solve_matches_spline_double_integral(self, n, r0):
        for grid in (RadialGrid.uniform(r0, 1.0, 257),
                     RadialGrid.graded(r0, 1.0, 513)):
            r = grid.nodes
            f = RadialField.from_function(
                grid, lambda s: np.exp(-2.0 * s) + s ** 2)
            want = _reference_solve(r, f.values, n)
            got = poisson_solve_ball(f, 1.0, n).values
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_cached_per_grid_and_dimension(self):
        g = RadialGrid.graded(0.0, 1.0, 65)
        assert g.green(4) is g.green(4)
        assert g.green(3) is not g.green(4)
        poisson_solve_ball(RadialField.constant(g, 1.0), 1.0, 5)
        assert g.green(5) is g.green(5)


_green_grids = st.builds(
    lambda kind, R, N: getattr(RadialGrid, kind)(0.0, R, N),
    st.sampled_from(["uniform", "graded"]), st.floats(0.1, 10.0),
    st.integers(32, 2049))


# coefficients of normal size: subnormal products carry no relative precision
_coefficients = st.one_of(st.just(0.0), st.floats(1e-3, 10.0),
                          st.floats(-10.0, -1e-3))


@settings(max_examples=60, deadline=None)
@given(grid=_green_grids, n=st.integers(2, 8), seed=st.integers(0, 2 ** 32),
       alpha=_coefficients, beta=_coefficients)
def test_green_solve_is_linear(grid, n, seed, alpha, beta):
    # the Newton solver's Jacobian products rely on this
    rng = np.random.default_rng(seed)
    R = grid.r_max
    f, g = (rng.uniform(-1.0, 1.0, len(grid)) for _ in range(2))
    Pf, Pg, Pfg = (poisson_solve_ball(RadialField(grid, v), R, n).values
                   for v in (f, g, alpha * f + beta * g))
    scale = abs(alpha) * np.max(np.abs(Pf)) + abs(beta) * np.max(np.abs(Pg))
    assert np.max(np.abs(Pfg - (alpha * Pf + beta * Pg))) <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(grid=_green_grids, n=st.integers(2, 8), k=st.sampled_from([0, 1, 2]))
def test_green_solve_is_exact_on_low_monomials(grid, n, k):
    # cubic splines reproduce f = r^k and r^(1-n) F = r^(k+1)/(n+k), and
    # the panel weights integrate them exactly: only round-off remains
    r, R = grid.nodes, grid.r_max
    u = poisson_solve_ball(RadialField(grid, r ** k), R, n).values
    exact = (R ** (k + 2) - r ** (k + 2)) / ((k + 2) * (n + k))
    assert np.max(np.abs(u - exact)) <= 1e-13 * np.max(exact)


@settings(max_examples=80, deadline=None)
@given(grid=_green_grids, n=st.integers(2, 8), seed=st.integers(0, 2 ** 32),
       c=st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_green_kernel_matches_scipy_double_integral(grid, n, seed, c):
    # the fused kernel against the same double integral through scipy's
    # CubicSpline. Sources stay above 0.2, so neither integral cancels
    r, R = grid.nodes, grid.r_max
    vals = 1.5 + 0.5 * (c[0] * np.cos(3.0 * r / R) + c[1] * (r / R) ** 2) \
        + 0.3 * c[2] * np.random.default_rng(seed).uniform(-1.0, 1.0, r.size)
    want = _reference_solve(r, vals, n)
    got = poisson_solve_ball(RadialField(grid, vals), R, n).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    total = weighted_cumulative(r, vals, n)[-1]
    assert abs(grid.green(n).integral(vals) - total) <= 1e-12 * abs(total)


class TestIteratedGreen:
    def test_m1_reduces_to_single_solve(self):
        g = RadialGrid.graded(0.0, 1.0, 257)
        f = RadialField.from_function(g, lambda r: 1.0 + r)
        layers = iterated_green(f, 1.0, 4, 1)
        u = poisson_solve_ball(f, 1.0, 4)
        assert len(layers) == 1
        np.testing.assert_allclose(layers[0].values, u.values, rtol=0)

    def test_biharmonic_closed_form(self):
        # symbolic composition of the monomial rule for f = 1, m = 2, n = 4:
        # layer1 = (1-r^2)/8, layer0 = (1-r^2)(2-r^2)/192 (checked by
        # applying -Lap: layer0'' + (3/r) layer0' = (r^2-1)/8)
        g = RadialGrid.graded(0.0, 1.0, 513)
        layers = iterated_green(RadialField.constant(g, 1.0), 1.0, 4, 2)
        r = g.nodes
        np.testing.assert_allclose(layers[1].values,
                                   (1.0 - r ** 2) / 8.0, atol=1e-14)
        np.testing.assert_allclose(
            layers[0].values,
            (1.0 - r ** 2) * (2.0 - r ** 2) / 192.0, atol=1e-9)

    def test_navier_boundary_data(self):
        g = RadialGrid.graded(0.0, 1.5, 257)
        f = RadialField.from_function(g, lambda r: np.exp(-r))
        for layer in iterated_green(f, 1.5, 6, 3):
            assert abs(layer.values[-1]) < 1e-10

    def test_consecutive_layers_satisfy_the_chain(self):
        # -Lap layer_i = layer_{i+1} within discretization residual
        g = RadialGrid.uniform(0.0, 1.0, 801)
        f = RadialField.from_function(g, lambda r: 1.0 + np.cos(r))
        layers = iterated_green(f, 1.0, 4, 3)
        inner = slice(4, -4)
        for i in range(len(layers) - 1):
            lap = radial_laplacian(layers[i], 4)
            err = np.abs(lap.values - layers[i + 1].values)[inner]
            scale = np.max(np.abs(layers[i + 1].values))
            assert err.max() < 1e-6 * max(scale, 1e-30)


class TestSingularSolution:
    def test_reference_case(self):
        found = singular_solution(HardyHenonParams(4, 2, 0.0, 2.0))
        assert found is not None
        sigma, amplitude = found
        assert sigma == pytest.approx(4.0)
        assert amplitude == pytest.approx(192.0)

    def test_degenerate_factor_returns_none(self):
        assert singular_solution(HardyHenonParams(4, 2, 0.0, 3.0)) is None

    def test_sigma_formula(self):
        assert HardyHenonParams(4, 2, 2.0, 2.0).sigma == pytest.approx(2.0)

    def test_pde_residual(self):
        sigma, amplitude = singular_solution(HardyHenonParams(4, 2, 0.0, 2.0))
        grid = RadialGrid.uniform(0.45, 2.05, 401)
        u = RadialField.from_function(grid, lambda r: amplitude * r ** -sigma)
        op = polyharmonic_apply(u, 4, 2, width=7)
        rhs = amplitude ** 2 * grid.nodes ** -8.0
        window = (grid.nodes >= 0.5) & (grid.nodes <= 2.0)
        residual = np.max(np.abs(op.values - rhs)[window])
        assert residual < 1e-5 * amplitude ** 2


# (n, m, a, p) at super-critical order 2m > n where C r^(-sigma) exists
SUPER_CRITICAL_SINGULAR = [
    (2, 2, 0.0, 2.0), (3, 2, 0.0, 2.0), (3, 2, 0.0, 3.0), (3, 2, 0.5, 3.0),
    (2, 2, 1.5, 5.0), (4, 3, 1.5, 5.0), (5, 3, 0.5, 3.0), (5, 3, 1.5, 5.0),
    (5, 4, 0.5, 3.0), (6, 4, 1.5, 5.0), (7, 4, 1.5, 5.0),
]


class TestSingularSolutionSuperCritical:
    def test_sigma_is_two_m_minus_a(self):
        assert HardyHenonParams(3, 2, 0.0, 3.0).sigma == pytest.approx(2.0)
        assert HardyHenonParams(5, 3, 0.5, 3.0).sigma == pytest.approx(2.75)
        # at critical order 2m = n it is (n - a)/(p - 1), as before
        assert HardyHenonParams(6, 3, 1.0, 2.5).sigma == pytest.approx(
            5.0 / 1.5)

    @pytest.mark.parametrize("n,m,a,p", SUPER_CRITICAL_SINGULAR)
    def test_ode_tracks_the_profile(self, n, m, a, p, monkeypatch):
        # integrate the layer system outward from the exact layers of
        # C r^(-sigma), u_i = C P_i r^(-sigma-2i), with the package's own
        # stepper: the trajectory stays on the profile only if sigma and C
        # solve the top equation -Lap u_{m-1} = r^(-a) u^p
        from hhlab.liouville import shoot_from
        monkeypatch.setattr("hhlab.liouville.DEFAULT_BLOW_THRESHOLD",
                            math.inf)
        params = HardyHenonParams(n, m, a, p)
        sigma, amplitude = singular_solution(params)
        r0, state, coef = 1.0, [], amplitude
        for i in range(m):
            s = sigma + 2 * i
            state += [coef * r0 ** -s, -s * coef * r0 ** (-s - 1)]
            coef *= s * (n - 2 - s)
        out = shoot_from(state, r0, params, 3.0, rtol=1e-12, atol=1e-14,
                         classify=False)
        exact = amplitude * out.trace_r ** -sigma
        assert np.max(np.abs(out.trace_y[:, 0] - exact) / exact) < 1e-8

    @pytest.mark.parametrize("n,m,a,p", [
        (3, 2, 0.0, 2.0), (3, 2, 0.0, 3.0), (3, 2, 0.5, 2.0),
        (3, 2, 0.5, 3.0), (3, 2, -1.0, 3.0)])
    def test_pde_residual(self, n, m, a, p):
        # the finite-difference residual of `hhlab singular`, same bound
        params = HardyHenonParams(n, m, a, p)
        sigma, amplitude = singular_solution(params)
        grid = RadialGrid.uniform(0.45, 2.05, 401)
        u = RadialField.from_function(grid, lambda r: amplitude * r ** -sigma)
        op = polyharmonic_apply(u, n, m, width=7)
        rhs = amplitude ** p * grid.nodes ** (-sigma * p - a)
        window = (grid.nodes >= 0.5) & (grid.nodes <= 2.0)
        residual = np.max(np.abs(op.values - rhs)[window])
        assert residual < 1e-5 * amplitude ** p

    def test_amplitude_outside_float_range_raises(self):
        # p -> 1 sends C = P^(1/(p-1)) far past the largest float
        with pytest.raises(AmplitudeRangeError):
            singular_solution(HardyHenonParams(4, 2, 0.0, 1.0001))


class TestRescale:
    def test_identity(self):
        g = RadialGrid.uniform(0.5, 2.0, 64)
        u = RadialField.from_function(g, lambda r: np.exp(-r))
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        v = rescale(u, 1.0, params)
        np.testing.assert_allclose(v.values, u.values, rtol=0)
        np.testing.assert_allclose(v.grid.nodes, g.nodes, rtol=0)

    def test_fixes_singular_solution_exactly(self):
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        sigma, amplitude = singular_solution(params)
        g = RadialGrid.uniform(0.5, 2.0, 64)
        u = RadialField.from_function(g, lambda r: amplitude * r ** -sigma)
        for lam in (0.5, 1.7, 3.0):
            v = rescale(u, lam, params)
            expected = amplitude * v.grid.nodes ** -sigma
            np.testing.assert_allclose(v.values, expected, rtol=1e-13)

    def test_pde_invariance_critical_order(self):
        # residual(u_lam)(r) = lam^(sigma + 2m) residual(u)(lam r): exact at
        # the discrete level because the stencils scale covariantly
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        g = RadialGrid.uniform(0.5, 2.0, 301)
        u = RadialField.from_function(g, lambda r: 5.0 * r ** -3.0)
        lam = 1.3

        def residual(field, a_weight=0.0):
            op = polyharmonic_apply(field, params.n, params.m)
            src = np.maximum(field.values, 0.0) ** params.p \
                * field.grid.nodes ** (-a_weight)
            return op.values - src

        res_u = residual(u)
        res_ul = residual(rescale(u, lam, params))
        scale = lam ** (params.sigma + 2 * params.m)
        atol = 1e-8 * np.max(np.abs(res_u)) * scale
        np.testing.assert_allclose(res_ul, scale * res_u, atol=atol, rtol=0)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 3),
                                 (5, 4), (7, 4)])
def test_pde_invariance_super_critical_order(n, m):
    # residual(u_lam)(r) = lam^(sigma + 2m) residual(u)(lam r) needs the
    # source to scale like the operator, lam^(sigma p + a) = lam^(sigma + 2m),
    # which is what fixes sigma = (2m - a)/(p - 1). A coarse grid keeps the
    # round-off of m repeated difference Laplacians below the bound; with
    # (n - a)/(p - 1) the gap is at least 4.6e-8 on these cases
    params = HardyHenonParams(n, m, 0.5, 3.0)
    g = RadialGrid.uniform(0.5, 2.0, 61)
    u = RadialField.from_function(g, lambda r: 5.0 * r ** -3.0)
    lam = 1.3

    def residual(field):
        op = polyharmonic_apply(field, n, m)
        return op.values - np.maximum(field.values, 0.0) ** params.p \
            * field.grid.nodes ** -params.a

    res_u = residual(u)
    scale = lam ** (params.sigma + 2 * m)
    gap = np.max(np.abs(residual(rescale(u, lam, params)) - scale * res_u))
    assert gap <= 1e-9 * np.max(np.abs(res_u)) * scale
