"""Positive-solution solver for (-Lap)^m u = u^p + t on balls with Navier
boundary conditions, plus its quantitative certificates.

The nonlinear operator K(u) = G^m(u^p + t) composes the radial Dirichlet
Green solve m times, so fixed points of K solve the Navier problem. The
topological existence argument behind the solver is non-constructive; the
solver brackets the fixed point's amplitude with normalized Picard shapes
(small amplitudes contract toward zero, large ones escape, and the crossing
is the nontrivial solution), then converges to it by Newton-GMRES on
F(u) = u - K(u), safeguarded by the bracket. Every returned solution carries
its certificates as `Check`s (`build_certificates`): fixed-point residual,
positivity, boundary values, the amplitude lower bound, the eigenvalue
energy bound, radial monotonicity.

A shooting cross-oracle on the radial boundary-value problem, built on
scipy's integrator and root finder, provides an independent route to the
solution amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, root
from scipy.sparse.linalg import LinearOperator, gmres
from scipy.special import jv

from . import radial
from .errors import (AmplitudeRangeError, BracketError, ConvergenceError,
                     GridError)
from .numerics import Check, ball_volume, surface_area
from .radial import (LOG_HUGE, LOG_TINY, HardyHenonParams, RadialField,
                     RadialGrid, iterated_green, poisson_solve_ball)

# nodes of the default graded grid
DEFAULT_NODES = 513
# certified bound on the fixed-point residual max|u - K(u)| / sup u
FIXED_POINT_TOL = 1e-8
# sup-norm change at which the eigenfunction's inverse power iteration stops
EIGEN_TOL = 1e-10


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
        """The graded grid on [0, R] every solver uses unless given one."""
        return RadialGrid.graded(0.0, self.R, n_nodes)


def check_tolerance(name: str, tol: float) -> None:
    """Raise ValueError unless tol is positive and finite."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"{name} must be positive and finite, got {tol!r}")


@dataclass(frozen=True)
class SolverStats:
    """What one `solve_positive` call did.

    picard_iterations: normalized Picard steps of the amplitude bracket,
    one per doubling trial plus those of each converged shape;
    newton_steps: Newton steps taken, rejected ones included;
    gmres_products: Jacobian-vector products, each an m-fold Green solve;
    newton_residuals: max|u - K(u)| / sup u at each iterate of the Newton
    run that converged, starting point first."""

    picard_iterations: int
    newton_steps: int
    gmres_products: int
    newton_residuals: tuple


@dataclass(frozen=True)
class NavierSolution:
    """u = layers[0] with its Navier chain layers[i] = (-Lap)^i u, and what
    certifies it."""

    layers: tuple
    residual: float
    sup_norm: float
    certificates: tuple  # of Check, from build_certificates
    eigen: EigenPair
    stats: SolverStats

    @property
    def u(self) -> RadialField:
        return self.layers[0]


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


def first_eigenpair(problem: NavierProblem, tol: float = EIGEN_TOL,
                    grid: Optional[RadialGrid] = None,
                    max_iter: int = 200) -> EigenPair:
    """First Navier eigenpair of (-Lap)^m on the ball by inverse power
    iteration on the m-fold Green operator; phi is normalized to sup 1."""
    check_tolerance("tol", tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    n, m = problem.params.n, problem.params.m
    if grid is None:
        grid = problem.default_grid()
    r = grid.nodes
    phi = RadialField(grid, 1.0 - (r / problem.R) ** 2)
    lam = math.nan
    for _ in range(max_iter):
        w = phi
        for _ in range(m):
            w = poisson_solve_ball(w, problem.R, n)
        s = float(np.max(w.values))
        lam = 1.0 / s
        new = RadialField.adopt(grid, w.values / s)
        delta = float(np.max(np.abs(new.values - phi.values)))
        phi = new
        if delta < tol:
            return EigenPair(lam, phi)
    raise ConvergenceError(
        f"inverse power iteration stalled (last delta {delta:.3e})")


# ---------------------------------------------------------------------------
# Fixed-point solver
# ---------------------------------------------------------------------------

# relative bracket width at which Newton takes over from bisection
_NEWTON_WIDTH = 1e-2
# relative bracket width at which the solve gives up. Newton converges
# from brackets a million times wider; failing in one this narrow means the
# linear solves are broken. Bisection alone would not meet _PICARD_TOL here.
_MIN_WIDTH = 1e-8
# inner tolerance: on the shape change of the bracket's Picard iterations
# (at most _MAX_PICARD per amplitude) and on the relative residual at which
# Newton stops
_PICARD_TOL = 1e-12
_MAX_PICARD = 400
# GMRES restart length; the Krylov basis holds this many grid vectors
_GMRES_RESTART = 20
# relative tolerance of each GMRES solve (the inexact-Newton forcing term)
_GMRES_RTOL = 1e-4


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
    """One solve of u = K(u): the amplitude bracket, the safeguarded
    Newton-GMRES iteration, and the counts they accumulate."""

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
        self.picard_iterations = 0
        self.newton_steps = 0
        self.gmres_products = 0
        self.newton_residuals = ()

    def stats(self) -> SolverStats:
        return SolverStats(self.picard_iterations, self.newton_steps,
                           self.gmres_products, self.newton_residuals)

    def in_range(self, s: float) -> bool:
        """Whether K(s v), sup v <= 1, stays inside the normal floats."""
        p, t = self.problem.params.p, self.problem.params.t
        log_source = max(p * math.log(s),
                         math.log(t) if t > 0.0 else -math.inf)
        return log_source + self.log_growth <= LOG_HUGE

    def doubled(self, s: float) -> float:
        """2s, or BracketError once K(2s v) would leave the float range."""
        s *= 2.0
        if not self.in_range(s):
            raise BracketError("no sign change before the amplitude leaves "
                               "the float range")
        return s

    def picard_step(self, s: float, v: RadialField):
        """One normalized Picard step at amplitude s: returns
        (K(s v)/||K(s v)||, ||K(s v)||)."""
        self.picard_iterations += 1
        w = apply_K(RadialField.adopt(self.grid, s * v.values), self.problem)
        nw = float(np.max(w.values))
        if nw <= 0.0:
            raise BracketError("operator collapsed to zero at this amplitude")
        return RadialField.adopt(self.grid, w.values / nw), nw

    def g(self, s: float, v: RadialField):
        """g(s) = ||K(s shape)|| - s at the shape (sup 1) the normalized
        Picard map converges to from v; returns (g(s), shape)."""
        for _ in range(_MAX_PICARD):
            new, nw = self.picard_step(s, v)
            delta = float(np.max(np.abs(new.values - v.values)))
            v = new
            if delta < _PICARD_TOL:
                return nw - s, v
        raise ConvergenceError("normalized Picard iteration did not converge")

    def run(self):
        """Bracket the nontrivial fixed point's amplitude, then converge to
        it by Newton; returns (u, K(u) layers)."""
        rho = rho_radius(self.problem)
        if not self.in_range(rho):
            raise AmplitudeRangeError(
                f"K overflows the float range at the amplitude lower bound "
                f"{rho:.6g}")
        v = RadialField(self.grid,
                        1.0 - (self.grid.nodes / self.problem.R) ** 2)
        g_rho, v = self.g(rho, v)
        if g_rho >= 0.0:
            raise BracketError(
                "operator does not contract at the certified lower radius")
        # cheap doubling: one Picard step per trial amplitude
        lo = s = rho
        while True:
            s = self.doubled(s)
            v, nw = self.picard_step(s, v)
            if nw >= s:
                break
        # certify the upper end with a converged shape, doubling on while
        # its sign is wrong, then the lower end s/2
        while True:
            g_s, v = self.g(s, v)
            if g_s >= 0.0:
                break
            lo, s = s, self.doubled(s)
        hi = s
        if hi / 2.0 > lo:
            g_half, v = self.g(hi / 2.0, v)
            if g_half < 0.0:
                lo = hi / 2.0
            else:
                hi = hi / 2.0
        # narrow the bracket geometrically; once it is narrow, try Newton
        # from the midpoint, and narrow further whenever Newton fails
        while True:
            mid = lo * math.sqrt(hi / lo)
            g_mid, v = self.g(mid, v)
            if g_mid >= 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= _NEWTON_WIDTH * hi:
                found = self.newton(
                    RadialField.adopt(self.grid, mid * v.values), lo, hi)
                if found is not None:
                    return found
            if hi - lo <= _MIN_WIDTH * hi:
                raise ConvergenceError(
                    "Newton-GMRES did not converge inside the narrowest "
                    "amplitude bracket")

    def newton(self, u: RadialField, lo: float, hi: float):
        """Newton-GMRES on F(u) = u - K(u), iterates projected onto u >= 0.

        Returns (u, K(u) layers) once max|F| <= _PICARD_TOL sup u, or None
        as soon as a step fails to halve max|F| or moves sup u out of
        [lo, hi]."""
        layers = apply_K(u, self.problem, with_layers=True)
        F = u.values - layers[0].values
        res, sup = float(np.max(np.abs(F))), float(np.max(u.values))
        history = [res / sup]
        while res > _PICARD_TOL * sup:
            self.newton_steps += 1
            dx = self.newton_direction(u, F)
            if dx is None:
                return None
            new = RadialField.adopt(self.grid,
                                    np.maximum(u.values + dx, 0.0))
            sup_new = float(np.max(new.values))
            if not lo <= sup_new <= hi:
                return None
            new_layers = apply_K(new, self.problem, with_layers=True)
            F_new = new.values - new_layers[0].values
            res_new = float(np.max(np.abs(F_new)))
            if not res_new <= 0.5 * res:
                return None
            u, layers, F, res, sup = new, new_layers, F_new, res_new, sup_new
            history.append(res / sup)
        self.newton_residuals = tuple(history)
        return u, layers

    def newton_direction(self, u: RadialField, F):
        """GMRES solution of J dx = -F with J x = x - G^m(p u^(p-1) x), or
        None when GMRES returns no finite vector. Each product is one pass
        through the module's `iterated_green`."""
        params, R = self.problem.params, self.problem.R
        slope = params.p * u.values ** (params.p - 1.0)

        def jacobian(x):
            self.gmres_products += 1
            w = iterated_green(RadialField.adopt(u.grid, slope * x), R,
                               params.n, params.m)
            return x - w[0].values

        # solve for dx / sup u, so that GMRES's 2-norms cannot overflow
        scale = float(np.max(u.values))
        size = len(u.values)
        op = LinearOperator((size, size), matvec=jacobian, dtype=float)
        y, info = gmres(op, -F / scale, rtol=_GMRES_RTOL,
                        restart=_GMRES_RESTART, maxiter=1)
        dx = scale * y
        if info < 0 or not np.all(np.isfinite(dx)):
            return None
        return dx


def solve_positive(problem: NavierProblem, grid: Optional[RadialGrid] = None,
                   tol: float = FIXED_POINT_TOL) -> NavierSolution:
    """Find a positive fixed point of K with amplitude at least rho, on
    `grid` (default `problem.default_grid()`, and it must run from 0 to R)
    with certified residual max|u - K(u)| / sup u below `tol`.

    For a trial amplitude s the normalized Picard map converges to a
    shape; g(s) = ||K(s shape)|| - s changes sign across the nontrivial
    fixed point. The solver certifies g(rho) < 0 (the contraction at rho,
    so the result has sup >= rho), brackets the sign change by doubling
    the amplitude, and bisects the bracket to 1e-2 relative width. From
    the midpoint it runs Newton-GMRES on F(u) = u - K(u); a step must
    halve max|F| and keep sup u inside the bracket, and when one does not
    the bracket is bisected further and Newton restarted. The trivial
    fixed point u = 0 is never returned, and for t > 0 the bracket above
    rho selects the upper (mountain-pass) branch, not the minimal
    solution. When several positive solutions exist the solver returns
    the one this homotopy finds and makes no minimality claim.
    """
    check_solver_order(problem)
    check_tolerance("tol", tol)
    if grid is None:
        grid = problem.default_grid()
    elif grid.r0 != 0.0 or grid.r_max != problem.R:
        raise GridError(f"solver grid must run from 0 to R={problem.R:g}, "
                        f"got [{grid.r0:g}, {grid.r_max:g}]")
    solver = _FixedPointSolve(problem, grid)
    u, layers = solver.run()
    residual = float(np.max(np.abs(u.values - layers[0].values))) \
        / float(np.max(u.values))
    if residual > tol:
        raise ConvergenceError(
            f"fixed-point residual {residual:.3e} above tolerance")

    eig = first_eigenpair(problem, EIGEN_TOL, grid)
    return NavierSolution(layers, residual, layers[0].sup_norm,
                          build_certificates(layers, residual, eig, problem,
                                             tol),
                          eig, solver.stats())


def build_certificates(layers: tuple, residual: float, eig: EigenPair,
                       problem: NavierProblem, tol: float) -> tuple:
    """The certificates of the layer stack `layers` (u first) with
    fixed-point residual `residual`, as `Check`s: the residual below `tol`,
    positive layers, Navier boundary values, the amplitude lower bound rho,
    the eigenvalue energy bound against `eig` and radial monotonicity."""
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
        Check("fixed-point-residual", "eq:4-30", residual, tol,
              residual < tol),
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

def torsion_function(problem: NavierProblem,
                     grid: Optional[RadialGrid] = None) -> RadialField:
    """Solution of -Lap h = 1 on the ball with zero boundary data."""
    if grid is None:
        grid = problem.default_grid()
    ones = RadialField.constant(grid, 1.0)
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
    same grid, which must start at the origin (u'(0) = 0). On graded grids
    adjacent values of u near r = 0 agree to the last bit, and a stencil
    there reads round-off."""
    r = u.grid.nodes
    if r[0] != 0.0:
        raise GridError("monotonicity check needs a grid from the origin")
    d1 = np.zeros_like(r)
    # reached through its module, where a tracer that rebinds it sees it
    d1[1:] = -r[1:] ** (1 - n) * radial.weighted_cumulative(
        r, u1.values, n)[1:]
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
    return RadialField(RadialGrid(s, "kelvin"), vals)


def kelvin_pde_check(u: RadialField, f: RadialField, n: int) -> float:
    """Finite-difference check of the Kelvin identity: if -Lap u = f then
    -Lap (Kelvin u)(s) = s^(-n-2) f(1/s). Returns the sup relative residual
    over the interior of the transformed grid."""
    from .radial import radial_laplacian
    ub = kelvin_transform(u, n)
    lap = radial_laplacian(ub, n)
    r = u.grid.nodes
    target = (r ** (n + 2.0) * f.values)[::-1]
    cut = slice(4, -4)
    scale = float(np.max(np.abs(target[cut])))
    if scale == 0.0:
        scale = 1.0
    return float(np.max(np.abs(lap.values[cut] - target[cut]))) / scale


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
    v = RadialField(RadialGrid(nodes, u.grid.grading), u.values / M)
    return v, lam


# ---------------------------------------------------------------------------
# Shooting cross-oracle
# ---------------------------------------------------------------------------

def shooting_oracle_sup_norm(problem: NavierProblem, init_guess,
                             rtol: float = 1e-11, atol: float = 1e-12
                             ) -> float:
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
        sol = solve_ivp(rhs, (r0, R), y0, method="RK45", rtol=rtol, atol=atol,
                        dense_output=False)
        if not sol.success:
            return np.full(m, 1e6)
        return sol.y[0::2, -1]

    res = root(boundary_mismatch, np.asarray(init_guess, dtype=float),
               method="hybr", tol=1e-12)
    if not res.success:
        raise ConvergenceError(f"shooting oracle failed: {res.message}")
    return float(res.x[0])
