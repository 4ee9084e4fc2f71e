"""Positive-solution solver for (-Lap)^m u = u^p + t on balls with Navier
boundary conditions, plus its quantitative certificates.

The nonlinear operator K(u) = G^m(u^p + t) composes the radial Dirichlet
Green solve m times, so fixed points of K solve the Navier problem. The
topological existence argument behind the solver is non-constructive; the
solver starts from the first eigenfunction at the amplitude that solves the
equation tested against it, and converges by damped Newton-GMRES on
F(u) = u - K(u), backtracking along each Newton direction until max|F|
falls. Each Newton direction is one cycle of the module's own GMRES
(`gmres`). Every returned solution carries its certificates as `Check`s
(`build_certificates`): fixed-point residual, positivity, boundary values,
the amplitude lower bound, the eigenvalue energy bound, radial
monotonicity.

A shooting cross-oracle on the radial boundary-value problem, built on
scipy's integrator and root finder, provides an independent route to the
solution amplitude. The Kelvin transform and the blow-up normalization map a
profile onto the inverted or rescaled nodes of its grid, so neither
interpolates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, root
from scipy.special import jv

from .errors import AmplitudeRangeError, ConvergenceError, GridError
from .numerics import Check, ball_volume, surface_area
from .radial import (LOG_HUGE, LOG_TINY, HardyHenonParams, RadialField,
                     RadialGrid, iterated_green, poisson_solve_ball)

# nodes of the default graded grid
DEFAULT_NODES = 513
# certified bound on the fixed-point residual max|u - K(u)| / sup u
FIXED_POINT_TOL = 1e-8
# sup-norm change at which the eigenfunction's inverse power iteration stops
EIGEN_TOL = 1e-10
# inverse power iterations before the eigenpair is declared stalled
_MAX_EIGEN_ITER = 200
# scipy RK45 error control of the shooting oracle
SHOOTING_RTOL = 1e-11
SHOOTING_ATOL = 1e-12


@dataclass(frozen=True)
class NavierProblem:
    """Ball domain problem (-Lap)^m u = u^p + t, Navier data on |x| = R.

    The solver is restricted to the unweighted nonlinearity (a = 0); Hardy
    weights belong to the whole-space machinery.
    """

    params: HardyHenonParams
    R: float = 1.0

    def __post_init__(self):
        if self.params.a != 0.0:
            raise ValueError("Navier solver requires a = 0")
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ValueError(
                f"ball radius must be positive and finite, got {self.R!r}")

    @property
    def diameter(self) -> float:
        return 2.0 * self.R

    @property
    def torsion_cap(self) -> float:
        """diam^2/(2n), the center value of the comparison paraboloid
        (diam^2 - r^2)/(2n) that bounds the torsion function."""
        return self.diameter ** 2 / (2.0 * self.params.n)

    def default_grid(self, n_nodes: int = DEFAULT_NODES) -> RadialGrid:
        """The graded grid on [0, R] of n_nodes nodes."""
        return RadialGrid.graded(0.0, self.R, n_nodes)


@dataclass(frozen=True)
class SolverStats:
    """What one `solve_positive` call did.

    backtracks: step fractions the Newton line search rejected;
    newton_steps: Newton steps taken;
    gmres_products: Jacobian-vector products of the `gmres` cycles, each
    an m-fold Green solve;
    newton_residuals: max|u - K(u)| / sup u at each Newton iterate, the
    start first."""

    backtracks: int
    newton_steps: int
    gmres_products: int
    newton_residuals: tuple


@dataclass(frozen=True)
class NavierSolution:
    """u = layers[0] with its Navier chain layers[i] = (-Lap)^i u, and what
    certifies it."""

    layers: tuple
    certificates: tuple  # of Check, from build_certificates
    eigen: EigenPair
    stats: SolverStats

    @property
    def u(self) -> RadialField:
        return self.layers[0]

    @property
    def residual(self) -> float:
        """max|u - K(u)| / sup u at the last Newton iterate."""
        return self.stats.newton_residuals[-1]

    @property
    def sup_norm(self) -> float:
        return self.layers[0].sup_norm


@dataclass(frozen=True)
class EigenPair:
    lambda1: float
    phi: RadialField


# ---------------------------------------------------------------------------
# Operator and spectral data
# ---------------------------------------------------------------------------

def apply_K(u: RadialField, problem: NavierProblem,
            with_layers: bool = False):
    """K(u) = m-fold ball Green solve of u^p + t.

    Fixed points solve the Navier problem; returns layer 0 (or the layer
    tuple of `iterated_green` with with_layers=True).
    """
    p, t, m, n = (problem.params.p, problem.params.t, problem.params.m,
                  problem.params.n)
    vals = u.values
    # rejects a value below -1e-12 max(1, max|u|); max|u| matters only when
    # the smallest value is negative
    low = float(vals.min())
    if low < 0.0 and low < -1e-12 * max(1.0, -low, float(vals.max())):
        raise ValueError("apply_K requires a nonnegative field")
    source = np.maximum(vals, 0.0)
    source **= p
    source += t
    layers = iterated_green(RadialField.adopt(u.grid, source), problem.R, n,
                            m)
    return layers if with_layers else layers[0]


def first_dirichlet_eigenvalue_oracle(n: int, R: float = 1.0) -> float:
    """Independent Bessel-zero route to the first radial Dirichlet eigenvalue
    of the ball: (j_{n/2-1,1} / R)^2, by bracketed root finding on J_{n/2-1}.

    J_nu is positive on (0, j_{nu,1}), j_{nu,1} > nu (DLMF 10.21.3) and
    consecutive zeros are more than pi apart, so steps of 0.5 from
    max(0.05, nu) first change sign across j_{nu,1}. The scan reaches at
    least 2 nu^(1/3) + 3.5 past its start, beyond j_{nu,1}: j_{nu,1} - nu
    is below 1.86 nu^(1/3) + 1.04 nu^(-1/3) for nu > 0 (Qu and Wong, Trans.
    AMS 351 (1999); the leading terms of DLMF 10.21.40), and below 2.9 for
    nu <= 1."""
    order = n / 2.0 - 1.0
    xs = max(0.05, order) + 0.5 * np.arange(
        int(4.0 * order ** (1.0 / 3.0)) + 9)
    vals = jv(order, xs)
    sign = np.sign(vals)
    idx = np.where(np.diff(sign) != 0)[0]
    if idx.size == 0:
        raise ConvergenceError("no Bessel sign change located")
    zero = brentq(lambda x: jv(order, x), xs[idx[0]], xs[idx[0] + 1],
                  xtol=1e-14)
    return (zero / R) ** 2


def first_eigenpair(problem: NavierProblem, grid: RadialGrid) -> EigenPair:
    """First Navier eigenpair of (-Lap)^m on the ball, on `grid`, by inverse
    power iteration on the m-fold Green operator (`iterated_green`),
    stopped once the sup-norm change falls below EIGEN_TOL; phi is
    normalized to sup 1. A maximum of G^m phi that underflows to 0 (a ball
    far below unit radius) raises ConvergenceError."""
    n, m = problem.params.n, problem.params.m
    r = grid.nodes
    phi = RadialField(grid, 1.0 - (r / problem.R) ** 2)
    lam = math.nan
    for _ in range(_MAX_EIGEN_ITER):
        w = iterated_green(phi, problem.R, n, m)[0]
        s = float(np.max(w.values))
        if not 0.0 < s < math.inf:
            raise ConvergenceError(
                f"inverse power iteration lost G^m phi at R={problem.R:g}: "
                f"its maximum {s!r} is not a positive finite float")
        lam = 1.0 / s
        new = RadialField.adopt(grid, w.values / s)
        delta = float(np.max(np.abs(new.values - phi.values)))
        phi = new
        if delta < EIGEN_TOL:
            return EigenPair(lam, phi)
    raise ConvergenceError(
        f"inverse power iteration stalled (last delta {delta:.3e})")


# ---------------------------------------------------------------------------
# Fixed-point solver
# ---------------------------------------------------------------------------

# relative residual max|u - K(u)| / sup u at which Newton stops
_NEWTON_TOL = 1e-12
# Newton steps, and the smallest step fraction of the line search, before
# the solve gives up
_MAX_NEWTON_STEPS = 50
_MIN_STEP = 2.0 ** -10
# GMRES restart length; the Krylov basis holds this many grid vectors
_GMRES_RESTART = 20
# relative tolerance of each GMRES solve (the inexact-Newton forcing term)
_GMRES_RTOL = 1e-4


def gmres(matvec, b):
    """One GMRES cycle (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7,
    1986) for J x = b from x0 = 0, with J x = matvec(x); returns (x, info).

    It takes at most _GMRES_RESTART Arnoldi steps (at most len(b)), each
    orthogonalised by classical Gram-Schmidt applied twice, so the basis
    enters as two matrix products per pass. The Hessenberg columns are
    reduced by Givens rotations and the triangular system back-substituted
    in Python floats. It stops once the rotated residual, ||b - J x|| in
    exact arithmetic, falls to _GMRES_RTOL ||b||, scipy's rule. No product
    follows the last Krylov step, so the true residual of x is not formed.

    info is 0 when converged, the number of steps taken when not (also
    when J is singular on the Krylov space), and -1, with x = 0, when a
    Krylov vector is not finite. b = 0 returns x = 0 with no product."""
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros(b.shape), 0
    if not math.isfinite(beta):
        return np.zeros(b.shape), -1
    tol = _GMRES_RTOL * beta
    basis = np.empty((min(_GMRES_RESTART, b.size) + 1, b.size))
    np.multiply(b, 1.0 / beta, out=basis[0])
    # columns[k][i] = R[i, k] of the rotated Hessenberg matrix; g is the
    # rotated right-hand side beta e_1
    columns, rotations, g = [], [], [beta]
    for k in range(len(basis) - 1):
        w = matvec(basis[k])
        v = basis[:k + 1]
        h = v @ w
        w = w - h @ v
        again = v @ w
        w -= again @ v
        h += again
        norm = float(np.linalg.norm(w))
        if not math.isfinite(norm):
            return np.zeros(b.shape), -1
        col = h.tolist()
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], \
                c * col[i + 1] - s * col[i]
        rho = math.hypot(col[k], norm)
        if rho == 0.0:
            break
        c, s = col[k] / rho, norm / rho
        col[k] = rho
        columns.append(col)
        rotations.append((c, s))
        g.append(-s * g[k])
        g[k] *= c
        if abs(g[k + 1]) <= tol:
            break
        np.multiply(w, 1.0 / norm, out=basis[k + 1])
    y = g[:len(columns)]
    for i in range(len(y) - 1, -1, -1):
        acc = y[i]
        for j in range(i + 1, len(y)):
            acc -= columns[j][i] * y[j]
        y[i] = acc / columns[i][i]
    return np.array(y) @ basis[:len(y)], 0 if abs(g[-1]) <= tol else k + 1


def rho_radius(problem: NavierProblem) -> float:
    """Amplitude lower bound (sqrt(2n)/diam)^(2m/(p-1)) below which the
    operator is a strict contraction toward zero.

    The range is checked in log space first: p close to 1 drives the
    exponent to infinity, and a bound outside the normal floats raises
    AmplitudeRangeError instead of overflowing."""
    n, m, p = problem.params.n, problem.params.m, problem.params.p
    base, expo = math.sqrt(2.0 * n) / problem.diameter, 2.0 * m / (p - 1.0)
    log_rho = expo * math.log(base)
    if not LOG_TINY <= log_rho <= LOG_HUGE:
        raise AmplitudeRangeError(
            f"amplitude lower bound exp({log_rho:.6g}) is outside the "
            f"float range")
    return base ** expo


def check_solver_order(problem: NavierProblem) -> None:
    """Raise ValueError unless 2m >= n, the critical and super-critical
    orders the existence theorems and `solve_positive` cover."""
    if 2 * problem.params.m < problem.params.n:
        raise ValueError("solver requires critical or super-critical order "
                         "(2m >= n)")


class _FixedPointSolve:
    """One solve of u = K(u): damped Newton-GMRES from the eigenfunction
    projection, and the counts it accumulates."""

    def __init__(self, problem: NavierProblem, grid: RadialGrid):
        self.problem = problem
        self.grid = grid
        # Bound on log(size of every intermediate of K(s v) / size of its
        # source), sup v <= 1: the Green solves' values and integrals stay
        # within max(1, R)^(n+2m) of the source, and a spline's
        # coefficients reach 1e3 times the size of its data over the cube
        # of the smallest grid step; log 2 covers s^p + t <= 2 max(s^p, t).
        n, m = problem.params.n, problem.params.m
        self.log_growth = (math.log(2e3)
                           + (n + 2 * m) * max(0.0, math.log(problem.R))
                           - 3.0 * math.log(float(np.min(np.diff(
                               grid.nodes)))))
        self.backtracks = 0
        self.newton_steps = 0
        self.gmres_products = 0

    def in_range(self, log_s: float) -> bool:
        """Whether K(s v), sup v <= 1, stays inside the normal floats."""
        p, t = self.problem.params.p, self.problem.params.t
        log_source = max(p * log_s, math.log(t) if t > 0.0 else -math.inf)
        return log_source + self.log_growth <= LOG_HUGE

    def check_range(self, log_s: float, what: str) -> None:
        """AmplitudeRangeError, naming `what`, unless `in_range(log_s)`."""
        if not self.in_range(log_s):
            raise AmplitudeRangeError(
                f"K overflows the float range at the {what} "
                f"exp({log_s:.6g})")

    def start(self, eig: EigenPair) -> RadialField:
        """s phi1 with log s = (log lambda1 + log int phi1^2 r^(n-1)
        - log int phi1^(p+1) r^(n-1)) / (p - 1): the equation tested against
        phi1 (sup 1) with u = s phi1. As phi1 <= 1, s^(p-1) >= lambda1."""
        n, p = self.problem.params.n, self.problem.params.p
        phi = eig.phi.values
        green = self.grid.green(n)
        power = green.integral(phi ** (p + 1.0))
        if not 0.0 < power < math.inf:
            # phi1 <= 1, so a large p underflows the integral to 0: the
            # projected amplitude, exp(+inf), is past every float
            self.check_range(math.inf, "projected amplitude")
        log_s = (math.log(eig.lambda1) + math.log(green.integral(phi * phi))
                 - math.log(power)) / (p - 1.0)
        self.check_range(log_s, "projected amplitude")
        return RadialField.adopt(self.grid, math.exp(log_s) * phi)

    def evaluate(self, u: RadialField):
        """(u, K(u) layers, F = u - K(u), max|F|, sup u)."""
        layers = apply_K(u, self.problem, with_layers=True)
        F = u.values - layers[0].values
        return (u, layers, F, float(np.max(np.abs(F))),
                float(np.max(u.values)))

    def trial(self, u: RadialField, dx):
        """`evaluate` at u + dx projected onto u >= 0, or None when that is
        zero, not finite, or outside the range where K stays finite."""
        vals = np.maximum(u.values + dx, 0.0)
        sup = float(np.max(vals))
        if not (0.0 < sup < math.inf and self.in_range(math.log(sup))):
            return None
        return self.evaluate(RadialField.adopt(self.grid, vals))

    def run(self, eig: EigenPair):
        """Newton-GMRES on F(u) = u - K(u) from `start`, iterates projected
        onto u >= 0, until max|F| <= _NEWTON_TOL sup u; returns the K(u)
        layers and the `SolverStats` of the solve.

        Each step backtracks over the fractions 1, 1/2, 1/4, ... of the
        Newton direction and takes the first whose max|F| is at most
        (1 - fraction/2) times the last; past _MIN_STEP, or past
        _MAX_NEWTON_STEPS steps, it raises ConvergenceError."""
        u, layers, F, res, sup = self.evaluate(self.start(eig))
        history = [res / sup]
        while res > _NEWTON_TOL * sup:
            if self.newton_steps == _MAX_NEWTON_STEPS:
                raise ConvergenceError(
                    f"Newton-GMRES did not converge in {_MAX_NEWTON_STEPS} "
                    f"steps (relative residual {res / sup:.3e})")
            self.newton_steps += 1
            dx = self.newton_direction(u, F)
            step = 1.0
            while True:
                found = self.trial(u, step * dx)
                # found[3] is the trial's max|F|
                if found is not None and found[3] <= (1.0 - 0.5 * step) * res:
                    break
                self.backtracks += 1
                step *= 0.5
                if step < _MIN_STEP:
                    raise ConvergenceError(
                        f"Newton line search stalled at relative residual "
                        f"{res / sup:.3e}")
            u, layers, F, res, sup = found
            history.append(res / sup)
        return layers, SolverStats(self.backtracks, self.newton_steps,
                                   self.gmres_products, tuple(history))

    def newton_direction(self, u: RadialField, F):
        """One `gmres` cycle for J dx = -F with J x = x - G^m(p u^(p-1) x),
        or ConvergenceError when it returns no finite vector. Each product
        is one pass through the module's `iterated_green`."""
        params, R = self.problem.params, self.problem.R
        slope = params.p * u.values ** (params.p - 1.0)

        def jacobian(x):
            self.gmres_products += 1
            w = iterated_green(RadialField.adopt(u.grid, slope * x), R,
                               params.n, params.m)
            return x - w[0].values

        # solve for dx / sup u, so that GMRES's 2-norms cannot overflow
        scale = float(np.max(u.values))
        y, info = gmres(jacobian, -F / scale)
        dx = scale * y
        if info < 0 or not np.all(np.isfinite(dx)):
            raise ConvergenceError("GMRES returned no finite Newton direction")
        return dx


def solve_positive(problem: NavierProblem, grid: RadialGrid) -> NavierSolution:
    """Find a positive fixed point of K on `grid`, which runs from 0 to R,
    with certified residual max|u - K(u)| / sup u below FIXED_POINT_TOL.

    The first eigenpair (lambda1, phi1) is computed first and carried to
    the certificates. Damped Newton-GMRES on F(u) = u - K(u) starts from
    the projection s phi1, the amplitude at which u = s phi1 satisfies the
    equation tested against phi1, and backtracks along each Newton
    direction until max|F| falls (`_FixedPointSolve.run`). The trivial
    fixed point u = 0 is never returned.

    For t > 0 there are two positive solutions below the fold in t; the
    solver returns the upper (mountain-pass) one, not the minimal
    solution. That is checked, not assumed: at a fixed point
    p G^m(u^(p-1) u) = p (u - t G^m 1), so by Collatz-Wielandt
    min_{r<R} p (1 - t G^m(1)/u) bounds the spectral radius of the
    linearisation p G^m(u^(p-1) .) from below, and tests/test_navier.py
    asserts that bound exceeds 1 at t = 0.5, 3000 and 8500, (n, m, p) =
    (4, 2, 2), while the minimal solution's largest ratio is below 1.
    """
    check_solver_order(problem)
    if grid.r0 != 0.0 or grid.r_max != problem.R:
        raise GridError(f"solver grid must run from 0 to R={problem.R:g}, "
                        f"got [{grid.r0:g}, {grid.r_max:g}]")
    solver = _FixedPointSolve(problem, grid)
    # the start s has s^(p-1) >= lambda1 >= (2n/R^2)^m > rho^(p-1), so K
    # overflowing at rho overflows at s; checked before the eigenpair,
    # whose Green solves break down at such scales of R
    solver.check_range(math.log(rho_radius(problem)),
                       "amplitude lower bound")
    eig = first_eigenpair(problem, grid)
    layers, stats = solver.run(eig)
    # run stops at a residual of at most _NEWTON_TOL < FIXED_POINT_TOL
    certificates = build_certificates(layers, stats.newton_residuals[-1],
                                      eig, problem)
    return NavierSolution(layers, certificates, eig, stats)


def build_certificates(layers: tuple, residual: float, eig: EigenPair,
                       problem: NavierProblem) -> tuple:
    """The certificates of the layer stack `layers` (u first) with
    fixed-point residual `residual`, as `Check`s: the residual below
    FIXED_POINT_TOL, positive layers, Navier boundary values, the amplitude
    lower bound rho, the eigenvalue energy bound against `eig` and radial
    monotonicity.

    sup u >= rho is a theorem for t = 0: u = G^m(u^p) and sup G^m 1 is at
    most (diam^2/(2n))^m give sup u <= (diam^2/(2n))^m (sup u)^p. For t > 0
    it is not derived; there the check tests that the solve stayed on the
    large-amplitude branch it starts toward."""
    u = layers[0]
    sup = u.sup_norm
    positive = all(bool(np.all(layer.values[:-1] > 0.0)) for layer in layers)
    edge = 1e-10 * max(1.0, sup)
    boundary = all(abs(float(layer.values[-1])) <= edge for layer in layers)
    rho = rho_radius(problem)
    lhs, rhs, energy_ok = energy_bound_check(u, eig, problem)
    p, t = problem.params.p, problem.params.t
    # u_1 = -Lap u; for m = 1 it is the source, up to the residual
    u1 = layers[1] if len(layers) > 1 \
        else u.with_values(np.maximum(u.values, 0.0) ** p + t)
    monotone = radial_monotonicity_check(u, u1, problem.params.n)
    return (
        Check("fixed-point-residual", "eq:4-30", residual, FIXED_POINT_TOL,
              residual < FIXED_POINT_TOL),
        Check("positive-layers", "eq:3-3", positive, True, positive),
        Check("boundary-values", "eq:Navier", boundary, True, boundary),
        Check("amplitude-lower-bound", "eq:1.8", sup, rho,
              sup >= rho - 1e-9),
        Check("energy-bound", "eq:3-41", lhs, rhs, energy_ok),
        Check("radial-monotonicity", "thm:Boundary", monotone, True,
              monotone))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def torsion_function(problem: NavierProblem) -> RadialField:
    """Solution of -Lap h = 1 on the ball with zero boundary data, on the
    problem's default grid."""
    ones = RadialField.constant(problem.default_grid(), 1.0)
    return poisson_solve_ball(ones, problem.R, problem.params.n)


def torsion_bound_check(h: RadialField, problem: NavierProblem) -> bool:
    """0 <= h < diam^2/(2n), strictly below the comparison paraboloid
    zeta(r) = (diam^2 - r^2)/(2n) in the open ball."""
    cap = problem.torsion_cap
    zeta = cap - h.grid.nodes ** 2 / (2.0 * problem.params.n)
    vals = h.values
    if np.any(vals < -1e-12):
        return False
    if np.any(vals >= cap):
        return False
    return bool(np.all(vals[:-1] < zeta[:-1]))


def energy_bound_check(u: RadialField, eig: EigenPair,
                       problem: NavierProblem):
    """Tests integral of u^p phi over the ball against lambda1^(p') |ball|.

    The radial integral splines u^p phi with the grid's cached Green solve
    and integrates the weight r^(n-1) exactly per panel; u and phi share
    the grid."""
    n, p = problem.params.n, problem.params.p
    f = np.maximum(u.values, 0.0) ** p * eig.phi.values
    lhs = surface_area(n) * u.grid.green(n).integral(f)
    p_conj = p / (p - 1.0)
    rhs = eig.lambda1 ** p_conj * ball_volume(n, problem.R)
    return lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-8))


def radial_monotonicity_check(u: RadialField, u1: RadialField,
                              n: int) -> bool:
    """True when the profile u is radially nonincreasing (u' <= tol), the
    radial surrogate for monotonicity along the inward boundary normal.

    u' is taken from the Navier chain, not from a difference stencil:
    u'(r) = -r^(1-n) int_0^r s^(n-1) u_1(s) ds with u_1 = -Lap u on the
    same grid, which must start at the origin (u'(0) = 0), integrated by
    the grid's cached Green solve (`RadialGrid.green`). On graded grids
    adjacent values of u near r = 0 agree to the last bit, and a stencil
    there reads round-off."""
    r = u.grid.nodes
    if r[0] != 0.0:
        raise GridError("monotonicity check needs a grid from the origin")
    d1 = np.zeros_like(r)
    d1[1:] = -r[1:] ** (1 - n) * u.grid.green(n).cumulative(u1.values)[1:]
    scale = float(np.max(np.abs(u.values)))
    span = u.grid.r_max - u.grid.r0
    tol = 1e-8 * scale / max(span, 1e-30) + 1e-12
    return bool(np.max(d1) <= tol)


# ---------------------------------------------------------------------------
# Kelvin transform and blow-up normalization
# ---------------------------------------------------------------------------

def kelvin_transform(u: RadialField, n: int) -> RadialField:
    """Origin-centered inversion v(s) = s^(2-n) u(1/s) on the grid 1/r."""
    r = u.grid.nodes
    if r[0] <= 0.0:
        raise ValueError("Kelvin transform needs a grid bounded away from 0")
    s = (1.0 / r)[::-1]
    vals = (r ** (n - 2.0) * u.values)[::-1]
    return RadialField(RadialGrid(s), vals)


def blowup_normalize(u: RadialField, params: HardyHenonParams):
    """Peak normalization v(r) = u(lambda r)/M with M = u(0) = sup u and
    lambda = M^((1-p)/(2m)); returns (v, lambda).

    The transformed profile satisfies the equation with forcing t/M^p and
    v(0) = 1; the grid maps exactly (nodes/lambda), so no interpolation."""
    M = float(u.values[0])
    sup = float(np.max(u.values))
    if M <= 0.0:
        raise ValueError("blow-up normalization needs a positive peak")
    if abs(M - sup) > 1e-10 * sup:
        raise ValueError("profile must peak at the origin")
    lam = M ** ((1.0 - params.p) / (2.0 * params.m))
    nodes = u.grid.nodes / lam
    v = RadialField(RadialGrid(nodes), u.values / M)
    return v, lam


# ---------------------------------------------------------------------------
# Shooting cross-oracle
# ---------------------------------------------------------------------------

def shooting_oracle_sup_norm(problem: NavierProblem, init_guess) -> float:
    """Independent amplitude estimate by shooting on the radial BVP.

    Unknowns are the m origin values (u(0), u_1(0), ...); conditions are the
    m Navier boundary values at R. Integration uses scipy's Dormand-Prince
    integrator and root finding scipy's hybrid method, so this route shares
    no machinery with the Green-operator fixed point. Returns u(0), which is
    the sup norm for these radially decreasing solutions.
    """
    n, m, p, t = (problem.params.n, problem.params.m, problem.params.p,
                  problem.params.t)
    R = problem.R
    r0 = 1e-8

    def rhs(r, y):
        dy = np.empty_like(y)
        dy[0::2] = y[1::2]
        src = np.empty(m)
        if m > 1:
            src[:m - 1] = y[0::2][1:]
        src[m - 1] = max(y[0], 0.0) ** p + t
        dy[1::2] = -src - (n - 1) / r * y[1::2]
        return dy

    def boundary_mismatch(init):
        y0 = np.empty(2 * m)
        f_top = max(init[0], 0.0) ** p + t
        for i in range(m):
            nxt = init[i + 1] if i < m - 1 else f_top
            y0[2 * i] = init[i] - nxt * r0 ** 2 / (2.0 * n)
            y0[2 * i + 1] = -nxt * r0 / n
        sol = solve_ivp(rhs, (r0, R), y0, method="RK45", rtol=SHOOTING_RTOL,
                        atol=SHOOTING_ATOL, dense_output=False)
        if not sol.success:
            return np.full(m, 1e6)
        return sol.y[0::2, -1]

    res = root(boundary_mismatch, np.asarray(init_guess, dtype=float),
               method="hybr", tol=1e-12)
    if not res.success:
        raise ConvergenceError(f"shooting oracle failed: {res.message}")
    return float(res.x[0])
