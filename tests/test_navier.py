import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hhlab.navier as navier
from hhlab.errors import AmplitudeRangeError, ConvergenceError, GridError
from hhlab.liouville import bubble_amplitude
from hhlab.navier import (NavierProblem, apply_K,
                          blowup_normalize, energy_bound_check,
                          first_dirichlet_eigenvalue_oracle, first_eigenpair,
                          kelvin_transform, radial_monotonicity_check,
                          rho_radius,
                          shooting_oracle_sup_norm, solve_positive,
                          torsion_bound_check, torsion_function)
from hhlab.radial import (HardyHenonParams, RadialField, RadialGrid,
                          iterated_green, poisson_solve_ball, rescale,
                          weighted_cumulative)


# (n, m, p, t, nodes) of the 13 solve commands of perfbench's navier-sweep
PERFBENCH_SOLVES = (
    [(4, 2, p, t, 513) for p in (1.5, 2.0, 3.0) for t in (0.0, 0.5)]
    + [(n, m, 2.0, 0.0, 513) for n, m in ((3, 2), (5, 3), (6, 3), (8, 4))]
    + [(4, 2, 2.0, 0.0, k) for k in (257, 1025, 2049)])


def linearisation_ratios(u: RadialField, prob: NavierProblem):
    """p (1 - t G^m(1)/u) on r < R. At a fixed point it equals
    p G^m(u^(p-1) u) / u, so by Collatz-Wielandt its min and max bound the
    spectral radius of the linearisation p G^m(u^(p-1) .) below and above."""
    n, m, p, t = (prob.params.n, prob.params.m, prob.params.p,
                  prob.params.t)
    ones = RadialField.constant(u.grid, 1.0)
    gm1 = iterated_green(ones, prob.R, n, m)[0].values
    return p * (1.0 - t * gm1[:-1] / u.values[:-1])


class TestProblem:
    def test_rejects_hardy_weight(self):
        with pytest.raises(ValueError):
            NavierProblem(HardyHenonParams(4, 2, 1.0, 2.0), 1.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            NavierProblem(HardyHenonParams(4, 2, 0.0, 2.0), 0.0)

    @pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_radius(self, R):
        with pytest.raises(ValueError):
            NavierProblem(HardyHenonParams(4, 2, 0.0, 2.0), R)


class TestSolveInputs:
    @pytest.mark.parametrize("n_nodes", [10, 31])
    def test_rejects_coarse_grid(self, unit_problem, n_nodes):
        with pytest.raises(ValueError):
            solve_positive(unit_problem, unit_problem.default_grid(n_nodes))

    @pytest.mark.parametrize("r0,r1", [(0.1, 1.0), (0.0, 2.0), (0.0, 0.5)])
    def test_rejects_grid_off_the_ball(self, unit_problem, r0, r1):
        with pytest.raises(GridError, match="from 0 to R"):
            solve_positive(unit_problem, RadialGrid.uniform(r0, r1, 65))

    def test_smallest_grid_accepted(self, unit_problem):
        grid = unit_problem.default_grid(32)
        sol = solve_positive(unit_problem, grid)
        assert sol.u.grid is grid and len(grid) == 32


class TestApplyK:
    def test_zero_field(self, unit_problem):
        grid = unit_problem.default_grid(65)
        zero = RadialField.constant(grid, 0.0)
        out = apply_K(zero, unit_problem)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-30)

    def test_monotone_in_the_cone(self, unit_problem, rng):
        grid = unit_problem.default_grid(129)
        u = RadialField(grid, rng.uniform(0.0, 1.0, len(grid)))
        v = u.with_values(u.values + rng.uniform(0.0, 1.0, len(grid)))
        Ku = apply_K(u, unit_problem)
        Kv = apply_K(v, unit_problem)
        assert np.all(Kv.values >= Ku.values - 1e-14)

    def test_rejects_negative_field(self, unit_problem):
        grid = unit_problem.default_grid(65)
        with pytest.raises(ValueError):
            apply_K(RadialField.constant(grid, -1.0), unit_problem)

    def test_contraction_bound_at_rho(self, unit_problem):
        # ||K(u)|| < rho^(p-1) diam^n / (2n)^(n/2) ||u|| at ||u|| = rho
        p = unit_problem.params
        rho = rho_radius(unit_problem)
        grid = unit_problem.default_grid(257)
        u = RadialField(grid, rho * (1.0 - (grid.nodes / unit_problem.R) ** 2))
        Ku = apply_K(u, unit_problem)
        bound = rho ** (p.p - 1.0) * unit_problem.diameter ** p.n \
            / (2.0 * p.n) ** (p.n / 2.0) * rho
        assert float(np.max(Ku.values)) < bound


class TestEigenpair:
    @pytest.mark.parametrize("n,m", [(3, 1), (4, 1), (4, 2)])
    def test_matches_bessel_oracle(self, n, m):
        problem = NavierProblem(HardyHenonParams(n, m, 0.0, 2.0), 1.0)
        eig = first_eigenpair(problem, problem.default_grid(512))
        oracle = first_dirichlet_eigenvalue_oracle(n, 1.0) ** m
        assert abs(eig.lambda1 / oracle - 1.0) < 2e-3

    @pytest.mark.parametrize("n", range(2, 81, 2))
    def test_bessel_oracle_matches_tabulated_zero(self, n):
        # the scan starts at max(0.05, nu); from n = 42 on, the first zero
        # lies beyond any fixed scan window ending at 25
        from scipy.special import jn_zeros
        zero = math.sqrt(first_dirichlet_eigenvalue_oracle(n, 1.0))
        assert zero == pytest.approx(jn_zeros(n // 2 - 1, 1)[0], rel=1e-13)

    def test_bessel_oracle_half_integer_order(self):
        # J_{1/2}(x) = sqrt(2 / (pi x)) sin x has its first zero at pi
        zero = math.sqrt(first_dirichlet_eigenvalue_oracle(3, 1.0))
        assert zero == pytest.approx(math.pi, rel=1e-13)

    def test_reference_values(self):
        # pi^2 for n=3 and powers of the first J1 zero for n=4
        p3 = NavierProblem(HardyHenonParams(3, 1, 0.0, 2.0), 1.0)
        eig = first_eigenpair(p3, p3.default_grid())
        assert eig.lambda1 == pytest.approx(math.pi ** 2, rel=1e-5)
        p42 = NavierProblem(HardyHenonParams(4, 2, 0.0, 2.0), 1.0)
        eig = first_eigenpair(p42, p42.default_grid())
        assert eig.lambda1 == pytest.approx(215.5606, rel=1e-4)

    def test_eigenfunction_properties(self, unit_problem):
        eig = first_eigenpair(unit_problem, unit_problem.default_grid())
        phi = eig.phi
        assert float(np.max(phi.values)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(phi.values[:-1] > 0.0)
        assert abs(phi.values[-1]) < 1e-12

    def test_fixed_point_certificate(self, unit_problem):
        from hhlab.radial import iterated_green
        eig = first_eigenpair(unit_problem, unit_problem.default_grid())
        layers = iterated_green(
            eig.phi.with_values(eig.lambda1 * eig.phi.values),
            unit_problem.R, 4, 2)
        err = np.max(np.abs(layers[0].values - eig.phi.values))
        assert err < 1e-9

    def test_radius_scaling(self):
        # lambda1 scales like R^(-2m)
        p1 = NavierProblem(HardyHenonParams(4, 2, 0.0, 2.0), 1.0)
        p2 = NavierProblem(HardyHenonParams(4, 2, 0.0, 2.0), 2.0)
        e1 = first_eigenpair(p1, p1.default_grid())
        e2 = first_eigenpair(p2, p2.default_grid())
        assert e2.lambda1 == pytest.approx(e1.lambda1 / 16.0, rel=1e-6)


class TestRho:
    @pytest.mark.parametrize("p,R", [(1.0001, 1.0), (1.001, 1e6)])
    def test_out_of_float_range(self, p, R):
        # 1.0001: exp(1.4e4) overflows; R = 1e6: exp(-5.1e4) underflows
        prob = NavierProblem(HardyHenonParams(4, 2, 0.0, p), R)
        with pytest.raises(AmplitudeRangeError):
            rho_radius(prob)

    def test_reference_values(self):
        assert rho_radius(NavierProblem(
            HardyHenonParams(4, 2, 0.0, 3.0), 1.0)) == pytest.approx(2.0)
        assert rho_radius(NavierProblem(
            HardyHenonParams(4, 2, 0.0, 2.0), 1.0)) == pytest.approx(4.0)

    def test_unit_base(self):
        # diam = sqrt(2n) makes rho = 1 for every p
        n = 4
        R = math.sqrt(2.0 * n) / 2.0
        for p in (1.5, 2.0, 7.0):
            prob = NavierProblem(HardyHenonParams(n, 2, 0.0, p), R)
            assert rho_radius(prob) == pytest.approx(1.0, rel=1e-12)

    def test_large_p_limit(self):
        vals = [rho_radius(NavierProblem(
            HardyHenonParams(4, 2, 0.0, p), 1.0)) for p in (10, 100, 1000)]
        assert abs(vals[-1] - 1.0) < 1e-2
        assert abs(vals[-1] - 1.0) < abs(vals[0] - 1.0)


class TestSolve:
    def test_reference_solution_certificates(self, unit_problem,
                                             unit_solution):
        sol = unit_solution
        assert sol.residual < 1e-8
        certs = {c.name: c for c in sol.certificates}
        assert list(certs) == [
            "fixed-point-residual", "positive-layers", "boundary-values",
            "amplitude-lower-bound", "energy-bound", "radial-monotonicity"]
        assert sol.sup_norm >= 4.0
        assert certs["amplitude-lower-bound"].value == sol.sup_norm
        assert certs["amplitude-lower-bound"].bound == rho_radius(
            unit_problem)
        assert all(c.ok for c in sol.certificates)

    def test_carries_its_eigenpair(self, unit_problem, unit_solution):
        eig = first_eigenpair(unit_problem, unit_problem.default_grid(513))
        assert unit_solution.eigen.lambda1 == eig.lambda1
        np.testing.assert_array_equal(unit_solution.eigen.phi.values,
                                      eig.phi.values)

    def test_never_returns_trivial_solution(self, unit_solution, unit_problem):
        assert unit_solution.sup_norm >= rho_radius(unit_problem) - 1e-9

    def test_rejects_subcritical_order(self):
        prob = NavierProblem(HardyHenonParams(4, 1, 0.0, 3.0), 1.0)
        with pytest.raises(ValueError):
            solve_positive(prob, prob.default_grid())

    def test_scaling_consistency(self, unit_solution):
        # rescaling the unit-ball solution with lam = 1/2 solves the R=2 ball
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        probR = NavierProblem(params, 2.0)
        solR = solve_positive(probR, probR.default_grid(513))
        mapped = rescale(unit_solution.u, 0.5, params)
        assert mapped.grid.r_max == pytest.approx(2.0)
        assert float(np.max(mapped.values)) == pytest.approx(
            solR.sup_norm, rel=1e-9)

    def test_small_forcing_branch(self):
        params = HardyHenonParams(4, 2, 0.0, 2.0, t=1.0)
        prob = NavierProblem(params, 1.0)
        sol = solve_positive(prob, prob.default_grid(257))
        assert sol.residual < 1e-8
        assert sol.sup_norm >= rho_radius(prob)
        assert {c.name: c.ok for c in sol.certificates}["positive-layers"]

    def test_grid_convergence_order(self):
        # halving h changes the sup norm at observed order >= 1.8
        prob = NavierProblem(HardyHenonParams(4, 2, 0.0, 2.0), 1.0)
        sups = [solve_positive(prob, RadialGrid.uniform(0.0, 1.0, N)).sup_norm
                for N in (33, 65, 129, 257)]
        d = [abs(b - a) for a, b in zip(sups, sups[1:])]
        orders = [math.log2(d0 / d1) for d0, d1 in zip(d, d[1:])]
        assert min(orders) >= 1.8

    def test_shooting_oracle_agreement(self, unit_problem, unit_solution):
        u1_origin = float(unit_solution.layers[1].values[0])
        oracle = shooting_oracle_sup_norm(
            unit_problem, [unit_solution.sup_norm, u1_origin])
        assert abs(oracle / unit_solution.sup_norm - 1.0) < 5e-3


class TestNewtonSolver:
    """The damped Newton-GMRES fixed-point solve from the eigenfunction
    projection."""

    @pytest.mark.parametrize("n,m,p,t", [
        (3, 2, 5.0, 0.0), (4, 3, 5.0, 0.5), (4, 2, 2.0, 0.5),
        (4, 2, 5.0, 0.5)])
    def test_shooting_oracle_agreement(self, n, m, p, t):
        # p = 5 is where a full Newton step can overshoot; t > 0 is where
        # the branch choice matters
        prob = NavierProblem(HardyHenonParams(n, m, 0.0, p, t), 1.0)
        sol = solve_positive(prob, prob.default_grid(513))
        init = [float(layer.values[0]) for layer in sol.layers]
        oracle = shooting_oracle_sup_norm(prob, init)
        assert abs(oracle / sol.sup_norm - 1.0) < 5e-3
        assert all(c.ok for c in sol.certificates)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_forced_solution_lies_above_the_minimal_one(self, t):
        prob = NavierProblem(HardyHenonParams(4, 2, 0.0, 2.0, t), 1.0)
        sol = solve_positive(prob, prob.default_grid(257))
        # Picard from u = 0 increases monotonically to the minimal solution
        u = RadialField.constant(sol.u.grid, 0.0)
        for _ in range(200):
            new = apply_K(u, prob)
            done = np.max(np.abs(new.values - u.values)) \
                <= 1e-14 * np.max(new.values)
            u = new
            if done:
                break
        else:
            pytest.fail("Picard from zero did not converge")
        assert sol.sup_norm >= rho_radius(prob)
        assert sol.sup_norm > 100.0 * float(np.max(u.values))
        assert np.all(sol.u.values[:-1] > u.values[:-1])
        # the minimal solution's linearisation has spectral radius below 1
        assert float(np.max(linearisation_ratios(u, prob))) < 1.0

    @pytest.mark.parametrize("t,radius_bound", [
        (0.5, 1.99996), (3000.0, 1.77), (8500.0, 1.105)])
    def test_solution_is_on_the_upper_branch(self, t, radius_bound):
        # a lower bound above 1 on the linearisation's spectral radius
        # certifies the upper branch, up to t = 8500 below the fold
        prob = NavierProblem(HardyHenonParams(4, 2, 0.0, 2.0, t), 1.0)
        sol = solve_positive(prob, prob.default_grid(513))
        lower = float(np.min(linearisation_ratios(sol.u, prob)))
        assert lower > 1.0
        assert lower == pytest.approx(radius_bound, rel=1e-3)
        assert all(c.ok for c in sol.certificates)

    @pytest.mark.parametrize("n,m,t,sup_norm", [
        (3, 2, 0.0, 4.745228708676507), (3, 2, 2.0, 4.729416582894615)],
        ids=["3-2-0.0", "3-2-2.0"])
    def test_line_search_backtracks_to_the_same_solution(self, n, m, t,
                                                         sup_norm,
                                                         monkeypatch):
        # started at twice the projected amplitude, full Newton steps at
        # p = 5 overshoot; the line search shortens them and reaches the
        # solution the amplitude-bracket solver found (sup_norm)
        real = navier._FixedPointSolve.start

        def doubled_start(self, eig):
            u = real(self, eig)
            return u.with_values(2.0 * u.values)

        monkeypatch.setattr(navier._FixedPointSolve, "start", doubled_start)
        prob = NavierProblem(HardyHenonParams(n, m, 0.0, 5.0, t), 1.0)
        sol = solve_positive(prob, prob.default_grid(257))
        assert sol.stats.backtracks >= 1
        assert sol.sup_norm == pytest.approx(sup_norm, rel=1e-10)
        assert sol.residual < 1e-8 and all(c.ok for c in sol.certificates)

    def test_large_amplitude_solves(self):
        # the solution sits about 2^69 rho above the contraction radius
        prob = NavierProblem(HardyHenonParams(8, 4, 0.0, 1.2), 1.0)
        sol = solve_positive(prob, prob.default_grid(129))
        ratio = math.log2(sol.sup_norm / rho_radius(prob))
        assert 68.0 < ratio < 70.0
        assert sol.sup_norm == pytest.approx(6.4405e32, rel=1e-3)
        assert sol.residual < 1e-8 and all(c.ok for c in sol.certificates)

    def test_projected_amplitude_outside_float_range(self):
        # the projected amplitude lies near 215^200 (lambda1^(1/(p-1))),
        # past the largest float, though rho = 2^400 is inside it
        prob = NavierProblem(HardyHenonParams(4, 2, 0.0, 1.005), 1.0)
        with pytest.raises(AmplitudeRangeError, match="projected amplitude"):
            solve_positive(prob, prob.default_grid(65))

    @pytest.mark.parametrize("p", [1e15, 1e300], ids=["1e15", "1e300"])
    def test_projected_amplitude_of_a_huge_p(self, p):
        # phi1^(p+1) underflows to 0 everywhere, so its integral is 0 and
        # the projected amplitude exp(+inf): a range error, not a math
        # domain error from log(0)
        prob = NavierProblem(HardyHenonParams(4, 2, 0.0, p), 1.0)
        with pytest.raises(AmplitudeRangeError,
                           match="projected amplitude exp\\(inf\\)"):
            solve_positive(prob, prob.default_grid(65))

    def test_operator_overflow_at_rho(self):
        # rho ~ 1e200 is a float, but rho^p is not
        prob = NavierProblem(HardyHenonParams(4, 2, 0.0, 4.0), 1e-150)
        with pytest.raises(AmplitudeRangeError):
            solve_positive(prob, prob.default_grid(65))

    def test_stats(self, unit_solution):
        stats = unit_solution.stats
        # every full Newton step of the reference solve is taken
        assert stats.backtracks == 0
        assert stats.newton_steps == len(stats.newton_residuals) - 1
        assert stats.gmres_products >= stats.newton_steps
        hist = stats.newton_residuals
        assert all(b < a for a, b in zip(hist, hist[1:]))
        assert hist[-1] <= navier._NEWTON_TOL
        assert hist[-1] == pytest.approx(unit_solution.residual, rel=1e-6)

    def test_newton_stops_below_the_certified_residual(self):
        # solve_positive reports the residual Newton stopped at and makes no
        # check of its own against FIXED_POINT_TOL
        assert navier._NEWTON_TOL < navier.FIXED_POINT_TOL

    @pytest.mark.parametrize("n,m,p,t,nodes", PERFBENCH_SOLVES)
    def test_residual_is_the_last_newton_residual(self, n, m, p, t, nodes):
        prob = NavierProblem(HardyHenonParams(n, m, 0.0, p, t), 1.0)
        sol = solve_positive(prob, prob.default_grid(nodes))
        assert sol.residual == sol.stats.newton_residuals[-1]
        assert sol.residual <= navier._NEWTON_TOL

    @pytest.mark.parametrize("garbage", ["nan", "random", "failure"])
    def test_garbage_gmres_raises_convergence_error(self, garbage,
                                                    monkeypatch):
        rng = np.random.default_rng(5)

        def fake_gmres(op, b, **kwargs):
            if garbage == "nan":
                return np.full(b.shape, np.nan), 0
            if garbage == "random":
                return 1e3 * rng.standard_normal(b.shape), 0
            return np.zeros(b.shape), -1

        monkeypatch.setattr(navier, "gmres", fake_gmres)
        prob = NavierProblem(HardyHenonParams(4, 2, 0.0, 2.0, 0.5), 1.0)
        with pytest.raises(ConvergenceError):
            solve_positive(prob, prob.default_grid(65))


class TestGmres:
    """navier.gmres: one GMRES cycle from x0 = 0, checked against
    numpy.linalg.solve."""

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, 40), norm=st.floats(0.0, 0.6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_meets_its_tolerance_on_perturbed_identities(self, size, norm,
                                                         seed):
        # J = I - A with ||A||_2 = norm <= 0.6: the polynomial (1 - z)^k
        # bounds the residual of step k by 0.6^k ||b||, so the cycle of at
        # most 20 steps (0.6^20 < 1e-4) converges, or ends exactly on a
        # Krylov space that fills R^size
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((size, size))
        A *= norm / max(np.linalg.norm(A, 2), 1e-300)
        J = np.eye(size) - A
        b = rng.standard_normal(size)
        x, info = navier.gmres(lambda v: J @ v, b)
        assert info == 0
        scale = np.linalg.norm(b)
        rounding = 100.0 * size * np.finfo(float).eps * scale
        assert np.linalg.norm(b - J @ x) <= navier._GMRES_RTOL * scale \
            + rounding
        exact = np.linalg.solve(J, b)
        assert np.linalg.norm(x - exact) <= (
            navier._GMRES_RTOL * scale + rounding) / (1.0 - norm)

    @pytest.mark.parametrize("rank", [1, 3, 7, 12])
    def test_rank_r_update_is_exact_after_r_plus_one_products(self, rank):
        # the Krylov space of I + U V^T holds b and the range of U, so it
        # stops growing at dimension r + 1, where the solution is exact
        rng = np.random.default_rng(rank)
        size = 60
        U = rng.standard_normal((size, rank)) / math.sqrt(size)
        V = rng.standard_normal((size, rank))
        J = np.eye(size) + U @ V.T
        b = rng.standard_normal(size)
        products = [0]

        def matvec(v):
            products[0] += 1
            return J @ v

        x, info = navier.gmres(matvec, b)
        assert info == 0
        assert products[0] == rank + 1
        np.testing.assert_allclose(x, np.linalg.solve(J, b), rtol=0,
                                   atol=1e-10 * np.linalg.norm(x))

    def test_zero_right_hand_side_makes_no_product(self):
        def matvec(v):
            raise AssertionError("a product was made")

        x, info = navier.gmres(matvec, np.zeros(7))
        assert info == 0
        np.testing.assert_array_equal(x, np.zeros(7))

    def test_non_finite_krylov_vector(self):
        x, info = navier.gmres(lambda v: np.full(v.shape, np.nan),
                               np.ones(5))
        assert info < 0
        assert np.all(np.isfinite(x))

    def test_singular_operator_reports_its_steps(self):
        # J = 0: the first Hessenberg column vanishes and x stays 0
        x, info = navier.gmres(lambda v: 0.0 * v, np.ones(5))
        assert info == 1
        np.testing.assert_array_equal(x, np.zeros(5))

    def test_unconverged_cycle_reports_its_steps(self):
        # a cyclic shift: b = e_0 has residual 1 until step size, past
        # the restart length
        size = 30
        x, info = navier.gmres(lambda v: np.roll(v, 1), np.eye(size)[0])
        assert info == navier._GMRES_RESTART
        assert np.all(np.isfinite(x))


class TestPinnedSolutions:
    """sup u against the amplitude-bracket solver the Newton start
    replaced, to 1e-10 relative."""

    @pytest.mark.parametrize("n,m,p,t,nodes,sup_norm", [
        (4, 2, 1.05, 0.0, 513, 9.850524584498393e46),
        (4, 2, 1.2, 0.0, 513, 970081538118.8959),
        (4, 2, 2.0, 0.0, 513, 435.0788483916181),
        (4, 2, 3.0, 0.0, 513, 28.753683796872767),
        (4, 2, 5.0, 0.0, 513, 7.197983022411247),
        (4, 2, 9.0, 0.0, 513, 3.50380961485588),
        (3, 2, 2.0, 0.0, 513, 162.42645870868037),
        (3, 2, 5.0, 0.0, 513, 4.745228710643813),
        (6, 3, 2.0, 0.0, 513, 50363.88623966708),
        (6, 3, 7.0, 0.0, 513, 11.408236431646305),
        (8, 4, 1.5, 0.0, 513, 29818548414962.11),
        (8, 4, 1.2, 0.0, 129, 6.440507199197821e32),
        (4, 3, 5.0, 0.5, 513, 12.360790443293862),
        (3, 2, 5.0, 2.0, 257, 4.729416582894615)])
    def test_sup_norm(self, n, m, p, t, nodes, sup_norm):
        prob = NavierProblem(HardyHenonParams(n, m, 0.0, p, t), 1.0)
        sol = solve_positive(prob, prob.default_grid(nodes))
        assert sol.sup_norm == pytest.approx(sup_norm, rel=1e-10)
        assert all(c.ok for c in sol.certificates)


class TestTorsion:
    @pytest.mark.parametrize("n,R", [(4, 1.0), (6, 1.0), (4, 2.5)])
    def test_exact_formula(self, n, R):
        prob = NavierProblem(HardyHenonParams(n, max(1, n // 2), 0.0, 2.0), R)
        g = RadialGrid.uniform(0.0, R, 1025)
        # torsion_function's solve, on a uniform grid
        h = poisson_solve_ball(RadialField.constant(g, 1.0), R, n)
        exact = (R ** 2 - h.grid.nodes ** 2) / (2.0 * n)
        np.testing.assert_allclose(h.values, exact, atol=1e-10)
        assert h.values[-1] == 0.0
        assert torsion_bound_check(h, prob)

    def test_bound_values(self, unit_problem):
        h = torsion_function(unit_problem)
        cap = unit_problem.diameter ** 2 / (2.0 * unit_problem.params.n)
        assert h.values[0] == pytest.approx(1.0 / 8.0, abs=1e-12)
        assert float(np.max(h.values)) < cap
        # strictly below the comparison paraboloid in the open ball
        zeta = (unit_problem.diameter ** 2 - h.grid.nodes ** 2) / 8.0
        assert np.all(h.values[:-1] < zeta[:-1])

    def test_bound_check_rejects_violations(self, unit_problem):
        h = torsion_function(unit_problem)
        bad = h.with_values(h.values + 1.0)
        assert not torsion_bound_check(bad, unit_problem)


class TestEnergyBound:
    def test_zero_field(self, unit_problem, unit_solution):
        eig = first_eigenpair(unit_problem, unit_problem.default_grid())
        zero = RadialField.constant(eig.phi.grid, 0.0)
        lhs, rhs, ok = energy_bound_check(zero, eig, unit_problem)
        assert lhs == 0.0 and ok

    def test_computed_solution(self, unit_problem, unit_solution):
        eig = first_eigenpair(unit_problem, unit_problem.default_grid())
        lhs, rhs, ok = energy_bound_check(unit_solution.u, eig, unit_problem)
        assert ok
        # tightness probe, reported but not asserted
        print(f"energy bound ratio lhs/rhs = {lhs / rhs:.4f}")


class TestKelvin:
    def test_fundamental_profile_maps_to_constant(self):
        g = RadialGrid.uniform(0.2, 5.0, 1001)
        for n in (4, 5):
            u = RadialField.from_function(g, lambda r: r ** (2.0 - n))
            ub = kelvin_transform(u, n)
            np.testing.assert_allclose(ub.values, 1.0, atol=1e-12)

    def test_bubble_self_similarity(self):
        g = RadialGrid.uniform(0.2, 5.0, 1001)
        n = 4
        amp = bubble_amplitude(n)
        bub = RadialField.from_function(
            g, lambda r: amp * (1.0 + r ** 2) ** (-(n - 2) / 2.0))
        bk = kelvin_transform(bub, n)
        expected = amp * (1.0 + bk.grid.nodes ** 2) ** (-(n - 2) / 2.0)
        np.testing.assert_allclose(bk.values, expected, atol=1e-8)

    def test_involution(self):
        g = RadialGrid.uniform(0.3, 3.0, 257)
        u = RadialField.from_function(g, lambda r: np.exp(-r))
        back = kelvin_transform(kelvin_transform(u, 4), 4)
        np.testing.assert_allclose(back.grid.nodes, g.nodes, rtol=1e-14)
        np.testing.assert_allclose(back.values, u.values, atol=1e-8)

    def test_requires_positive_radius(self):
        g = RadialGrid.uniform(0.0, 1.0, 64)
        with pytest.raises(ValueError):
            kelvin_transform(RadialField.constant(g, 1.0), 4)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 8), kind=st.sampled_from(["uniform", "graded"]),
       r0=st.floats(1e-3, 10.0), ratio=st.floats(1.01, 1e3),
       N=st.integers(32, 2049), seed=st.integers(0, 2 ** 32))
def test_kelvin_is_an_involution_fixing_the_bubble(n, kind, r0, ratio, N,
                                                   seed):
    # v(s) = s^(2-n) u(1/s) maps nodes and values exactly, so only rounding
    # is left; the bubble (1 + r^2)^(-(n-2)/2) is its own Kelvin transform
    grid = getattr(RadialGrid, kind)(r0, r0 * ratio, N)
    u = RadialField(grid, np.random.default_rng(seed).uniform(-1.0, 1.0, N))
    back = kelvin_transform(kelvin_transform(u, n), n)
    np.testing.assert_allclose(back.grid.nodes, grid.nodes, rtol=1e-14,
                               atol=0.0)
    np.testing.assert_allclose(back.values, u.values, rtol=1e-12, atol=0.0)

    def bubble(r):
        return bubble_amplitude(n) * (1.0 + r ** 2) ** (-(n - 2) / 2.0)

    bk = kelvin_transform(RadialField.from_function(grid, bubble), n)
    np.testing.assert_allclose(bk.values, bubble(bk.grid.nodes), rtol=1e-12,
                               atol=0.0)


class TestBlowupNormalize:
    def test_unit_peak_is_identity(self):
        g = RadialGrid.uniform(0.0, 1.0, 65)
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        u = RadialField.from_function(g, lambda r: 1.0 - 0.5 * r ** 2)
        v, lam = blowup_normalize(u, params)
        assert lam == pytest.approx(1.0)
        np.testing.assert_allclose(v.values, u.values, rtol=0)

    def test_normalization_and_rate(self, unit_solution):
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        v, lam = blowup_normalize(unit_solution.u, params)
        assert v.values[0] == pytest.approx(1.0)
        assert lam == pytest.approx(
            unit_solution.sup_norm ** ((1.0 - params.p) / (2.0 * params.m)))

    def test_transformed_equation_residual(self, unit_solution):
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        v, lam = blowup_normalize(unit_solution.u, params)
        induced = NavierProblem(
            HardyHenonParams(4, 2, 0.0, 2.0,
                             t=params.t / unit_solution.sup_norm ** 2),
            v.grid.r_max)
        Kv = apply_K(v, induced)
        assert float(np.max(np.abs(Kv.values - v.values))) < 1e-8

    def test_zero_field_error(self):
        g = RadialGrid.uniform(0.0, 1.0, 65)
        params = HardyHenonParams(4, 2, 0.0, 2.0)
        with pytest.raises(ValueError):
            blowup_normalize(RadialField.constant(g, 0.0), params)


def _bump(r, n, c=0.5, w=0.05):
    """b(r) = exp(-((r - c)/w)^2) and -Lap b, both exact."""
    x = (r - c) / w
    b = np.exp(-x ** 2)
    db = -2.0 * x / w * b
    d2b = (4.0 * x ** 2 - 2.0) / w ** 2 * b
    lap = np.empty_like(r)
    lap[0] = n * d2b[0]
    lap[1:] = d2b[1:] + (n - 1) / r[1:] * db[1:]
    return b, -lap


class TestMonotonicity:
    def test_solution_and_torsion(self, unit_solution, unit_problem):
        u, u1 = unit_solution.layers
        assert radial_monotonicity_check(u, u1, 4)
        h = torsion_function(unit_problem)
        assert radial_monotonicity_check(
            h, RadialField.constant(h.grid, 1.0), 4)

    def test_negative_control(self, unit_problem):
        # u = 1 - r^2 plus a bump: -Lap u = 2n - Lap b
        g = unit_problem.default_grid(257)
        b, lap_b = _bump(g.nodes, 4)
        u = RadialField(g, 1.0 - g.nodes ** 2 + 0.1 * b)
        u1 = RadialField(g, 8.0 + 0.1 * lap_b)
        assert not radial_monotonicity_check(u, u1, 4)

    def test_bumped_solver_stack_fails(self, unit_solution):
        # mutation: a bump in u makes u_1 negative on an annulus
        u, u1 = unit_solution.layers
        b, lap_b = _bump(u.grid.nodes, 4)
        amp = unit_solution.sup_norm
        bumped = u1.with_values(u1.values + amp * lap_b)
        assert np.min(bumped.values) < 0.0
        assert not radial_monotonicity_check(
            u.with_values(u.values + amp * b), bumped, 4)

    def test_requires_a_grid_from_the_origin(self):
        g = RadialGrid.uniform(0.1, 1.0, 65)
        u = RadialField.from_function(g, lambda r: 1.0 - r ** 2)
        with pytest.raises(GridError):
            radial_monotonicity_check(u, RadialField.constant(g, 8.0), 4)

    @pytest.mark.parametrize("n,m,p,t,nodes", PERFBENCH_SOLVES)
    def test_chain_derivative_matches_the_spline_route(self, n, m, p, t,
                                                       nodes):
        # the check's running integral of r^(n-1) u_1, from the grid's
        # cached Green solve, against a fresh scipy spline of u_1
        prob = NavierProblem(HardyHenonParams(n, m, 0.0, p, t), 1.0)
        sol = solve_positive(prob, prob.default_grid(nodes))
        u, u1 = sol.layers[:2]
        cached = u.grid.green(n).cumulative(u1.values)
        spline = weighted_cumulative(u.grid.nodes, u1.values, n)
        assert np.max(np.abs(cached - spline)) \
            <= 1e-15 * np.max(np.abs(spline))
        assert radial_monotonicity_check(u, u1, n)

    @pytest.mark.parametrize("n_nodes", [1025, 2049])
    def test_fine_graded_grids_pass(self, unit_problem, n_nodes):
        # difference stencils read round-off at r ~ 0 on these grids
        sol = solve_positive(unit_problem, unit_problem.default_grid(n_nodes))
        assert all(c.ok for c in sol.certificates)
