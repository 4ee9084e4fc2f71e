"""Positive-solution solver for (-Lap)^m u = u^p + t on balls with Navier
boundary conditions, plus its quantitative certificates.

The nonlinear operator K(u) = G^m(u^p + t) composes the radial Dirichlet
Green solve m times, so fixed points of K solve the Navier problem. The
topological existence argument behind the solver is non-constructive; the
solver finds the fixed point by normalized Picard iteration on the shape and
bisection on the amplitude: small amplitudes contract toward zero, large ones
escape, and the crossing is the nontrivial solution. Every returned solution
carries certificates (fixed-point residual, positivity, the amplitude lower
bound, the eigenvalue energy bound, radial monotonicity).

A shooting cross-oracle on the radial boundary-value problem, built on
scipy's integrator and root finder, provides an independent route to the
solution amplitude.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq, root
from scipy.special import jv

from .errors import AmplitudeRangeError, BracketError, ConvergenceError
from .numerics import ball_volume, surface_area
from .radial import (MIN_NODES, HardyHenonParams, PolyharmonicState,
                     RadialField, RadialGrid, iterated_green,
                     poisson_solve_ball)


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

    def default_grid(self, n_nodes: int = 513) -> RadialGrid:
        return RadialGrid.graded(0.0, self.R, n_nodes)


@dataclass(frozen=True)
class SolverConfig:
    n_nodes: int = 513
    grid_kind: str = "graded"
    fixed_point_tol: float = 1e-8
    eigen_tol: float = 1e-10
    picard_tol: float = 1e-12
    max_picard: int = 400
    bracket_doublings: int = 60
    max_bisect: int = 200

    def __post_init__(self):
        if self.n_nodes < MIN_NODES:
            raise ValueError(f"grid needs at least {MIN_NODES} nodes, "
                             f"got {self.n_nodes}")
        if self.grid_kind not in ("graded", "uniform"):
            raise ValueError(f"grid_kind must be 'graded' or 'uniform', "
                             f"got {self.grid_kind!r}")

    def make_grid(self, R: float) -> RadialGrid:
        if self.grid_kind == "uniform":
            return RadialGrid.uniform(0.0, R, self.n_nodes)
        return RadialGrid.graded(0.0, R, self.n_nodes)


@dataclass(frozen=True)
class Certificates:
    """Check results attached to a solved problem."""

    fixed_point_residual: float
    positive_layers: bool
    boundary_values: bool
    sup_norm: float
    rho: float
    lower_bound_ok: bool
    energy_lhs: float
    energy_rhs: float
    energy_ok: bool
    monotone: bool

    @property
    def all_pass(self) -> bool:
        return (self.positive_layers and self.boundary_values
                and self.lower_bound_ok and self.energy_ok and self.monotone)

    def to_dict(self) -> dict:
        return {
            "fixed_point_residual": self.fixed_point_residual,
            "positive_layers": self.positive_layers,
            "boundary_values": self.boundary_values,
            "sup_norm": self.sup_norm,
            "rho": self.rho,
            "lower_bound_ok": self.lower_bound_ok,
            "energy_lhs": self.energy_lhs,
            "energy_rhs": self.energy_rhs,
            "energy_ok": self.energy_ok,
            "monotone": self.monotone,
        }


@dataclass(frozen=True)
class NavierSolution:
    state: PolyharmonicState
    residual: float
    sup_norm: float
    certificates: Certificates
    eigen: Optional[EigenPair] = None

    @property
    def u(self) -> RadialField:
        return self.state.layers[0]


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

    Fixed points solve the Navier problem; returns layer 0 (or the full
    stack with with_layers=True).
    """
    p, t, m, n = (problem.params.p, problem.params.t, problem.params.m,
                  problem.params.n)
    vals = u.values
    if np.any(vals < -1e-12 * max(1.0, float(np.max(np.abs(vals))))):
        raise ValueError("apply_K requires a nonnegative field")
    source = u.with_values(np.maximum(vals, 0.0) ** p + t)
    state = iterated_green(source, problem.R, n, m)
    return state if with_layers else state.layers[0]


def first_dirichlet_eigenvalue_oracle(n: int, R: float = 1.0) -> float:
    """Independent Bessel-zero route to the first radial Dirichlet eigenvalue
    of the ball: (j_{n/2-1,1} / R)^2, by bracketed root finding on J_{n/2-1}."""
    order = n / 2.0 - 1.0
    xs = np.linspace(0.05, 25.0, 2500)
    vals = jv(order, xs)
    sign = np.sign(vals)
    idx = np.where(np.diff(sign) != 0)[0]
    if idx.size == 0:
        raise ConvergenceError("no Bessel sign change located")
    zero = brentq(lambda x: jv(order, x), xs[idx[0]], xs[idx[0] + 1],
                  xtol=1e-14)
    return (zero / R) ** 2


def first_eigenpair(problem: NavierProblem, tol: float = 1e-10,
                    grid: Optional[RadialGrid] = None,
                    max_iter: int = 200) -> EigenPair:
    """First Navier eigenpair of (-Lap)^m on the ball by inverse power
    iteration on the m-fold Green operator; phi is normalized to sup 1."""
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
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
        new = w.with_values(w.values / s)
        delta = float(np.max(np.abs(new.values - phi.values)))
        phi = new
        if delta < tol:
            return EigenPair(lam, phi)
    raise ConvergenceError(
        f"inverse power iteration stalled (last delta {delta:.3e})")


# ---------------------------------------------------------------------------
# Fixed-point solver
# ---------------------------------------------------------------------------

def _picard_shape(problem: NavierProblem, s: float, v: RadialField,
                  config: SolverConfig):
    """Converge the normalized map u <- s K(u)/||K(u)|| at amplitude s.

    Returns (shape, ||K(s * shape)||). The shape is kept at sup-norm 1."""
    for _ in range(config.max_picard):
        w = apply_K(v.with_values(s * v.values), problem)
        nw = float(np.max(w.values))
        if nw <= 0.0:
            raise BracketError("operator collapsed to zero at this amplitude")
        new = w.with_values(w.values / nw)
        delta = float(np.max(np.abs(new.values - v.values)))
        v = new
        if delta < config.picard_tol:
            return v, nw
    raise ConvergenceError("normalized Picard iteration did not converge")


# log range of normal floats; the top keeps a margin above the rounding
# of log_rho, so that a bound accepted here cannot overflow in the power
_LOG_HUGE = math.log(sys.float_info.max) * (1.0 - 1e-12)
_LOG_TINY = math.log(sys.float_info.min)


def rho_radius(problem: NavierProblem) -> float:
    """Amplitude lower bound (sqrt(2n)/diam)^(2m/(p-1)) below which the
    operator is a strict contraction toward zero.

    The range is checked in log space first: p close to 1 drives the
    exponent to infinity, and a bound outside the normal floats raises
    AmplitudeRangeError instead of overflowing."""
    n, m, p = problem.params.n, problem.params.m, problem.params.p
    base, expo = math.sqrt(2.0 * n) / problem.diameter, 2.0 * m / (p - 1.0)
    log_rho = expo * math.log(base)
    if not _LOG_TINY <= log_rho <= _LOG_HUGE:
        raise AmplitudeRangeError(
            f"amplitude lower bound exp({log_rho:.6g}) is outside the "
            f"float range")
    return base ** expo


def solve_positive(problem: NavierProblem,
                   config: SolverConfig = SolverConfig()) -> NavierSolution:
    """Find a positive fixed point of K with amplitude at least rho.

    For a trial amplitude s the normalized Picard map converges to a shape;
    g(s) = ||K(s shape)|| - s changes sign across the nontrivial fixed
    point, located by bisection after geometric bracket expansion. The
    trivial fixed point u = 0 is never returned. When several positive
    solutions exist the solver returns the one this homotopy finds and
    makes no minimality claim.
    """
    if 2 * problem.params.m < problem.params.n:
        raise ValueError("solver requires critical or super-critical order "
                         "(2m >= n)")
    grid = config.make_grid(problem.R)
    r = grid.nodes
    rho = rho_radius(problem)
    v = RadialField(grid, 1.0 - (r / problem.R) ** 2)

    def g(s, v0):
        shape, nw = _picard_shape(problem, s, v0, config)
        return nw - s, shape

    s_lo = rho
    g_lo, v = g(s_lo, v)
    if g_lo >= 0.0:
        # amplitudes at rho should contract; search downward defensively
        raise BracketError(
            "operator does not contract at the certified lower radius")
    s_hi = s_lo
    g_hi = g_lo
    for _ in range(config.bracket_doublings):
        s_hi *= 2.0
        g_hi, v = g(s_hi, v)
        if g_hi >= 0.0:
            break
    else:
        raise BracketError(
            "no sign change within the bracket expansion budget")

    s_lo = s_hi / 2.0
    for _ in range(config.max_bisect):
        s_mid = 0.5 * (s_lo + s_hi)
        g_mid, v = g(s_mid, v)
        if g_mid >= 0.0:
            s_hi = s_mid
        else:
            s_lo = s_mid
        if (s_hi - s_lo) <= 1e-14 * s_hi:
            break
    s_star = 0.5 * (s_lo + s_hi)
    shape, _ = _picard_shape(problem, s_star, v, config)
    u = shape.with_values(s_star * shape.values)
    state = apply_K(u, problem, with_layers=True)
    w = state.layers[0]
    residual = float(np.max(np.abs(u.values - w.values))) / s_star
    if residual > config.fixed_point_tol:
        raise ConvergenceError(
            f"fixed-point residual {residual:.3e} above tolerance")

    eig = first_eigenpair(problem, config.eigen_tol, grid)
    certs = build_certificates(state, residual, problem, eig)
    return NavierSolution(state, residual, certs.sup_norm, certs, eig)


def build_certificates(state: PolyharmonicState, residual: float,
                       problem: NavierProblem, eig: EigenPair
                       ) -> Certificates:
    u = state.layers[0]
    sup = float(np.max(np.abs(u.values)))
    interior = slice(0, -1)
    positive = all(bool(np.all(layer.values[interior] > 0.0))
                   for layer in state.layers)
    boundary = all(abs(float(layer.values[-1])) <= 1e-10 * max(1.0, sup)
                   for layer in state.layers)
    rho = rho_radius(problem)
    lower_ok = sup >= rho - 1e-9
    lhs, rhs, energy_ok = energy_bound_check(
        NavierSolution(state, residual, sup, None), eig, problem)
    monotone = radial_monotonicity_check(u)
    return Certificates(residual, positive, boundary, sup, rho, lower_ok,
                        lhs, rhs, energy_ok, monotone)


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
    n = problem.params.n
    diam = problem.diameter
    r = h.grid.nodes
    zeta = (diam ** 2 - r ** 2) / (2.0 * n)
    cap = diam ** 2 / (2.0 * n)
    vals = h.values
    if np.any(vals < -1e-12):
        return False
    if np.any(vals >= cap):
        return False
    return bool(np.all(vals[:-1] < zeta[:-1]))


def energy_bound_check(sol: NavierSolution, eig: EigenPair,
                       problem: NavierProblem):
    """Tests integral of u^p phi over the ball against lambda1^(p') |ball|."""
    n, p = problem.params.n, problem.params.p
    u, phi = sol.u, eig.phi
    r = u.grid.nodes
    integrand = r ** (n - 1) * np.maximum(u.values, 0.0) ** p * phi.values
    anti = CubicSpline(r, integrand).antiderivative()
    lhs = surface_area(n) * float(anti(r[-1]) - anti(r[0]))
    p_conj = p / (p - 1.0)
    rhs = eig.lambda1 ** p_conj * ball_volume(n, problem.R)
    return lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-8))


def radial_monotonicity_check(u, tol: Optional[float] = None) -> bool:
    """True when the profile is radially nonincreasing (u' <= tol), the
    radial surrogate for monotonicity along the inward boundary normal.
    Accepts a RadialField or a NavierSolution (checked on its layer 0)."""
    if isinstance(u, NavierSolution):
        u = u.u
    d1 = u.grid.stencils().first(u.values)
    if tol is None:
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
