"""Riesz kernels and the ball Green function.

Exact constants, pointwise evaluation, and a quadrature-based verification of
the Riesz composition identity

    integral R_{a1,n}|x-y|^(a1-n) * R_{a2,n}|y-z|^(a2-n) dy
        = R_{a1+a2,n} |x-z|^(a1+a2-n),

valid for a1, a2, a1+a2 all in (0, n). The composition integral is reduced to
polar coordinates about x (it depends on |x-z| only) and evaluated with
Gauss-Legendre panels on meshes graded into the two algebraic singularities,
plus analytic far-field tail. With r = |x-z| rho the integral is
|x-z|^(a1+a2-n) times its value at unit distance, so each refinement level's
mesh is built once per process at |x-z| = 1 and shared by every check.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .errors import KernelDomainError, QuadratureError
from .numerics import (geometric_breaks, graded_breaks, panel_quadrature,
                       sin_power_integral, surface_area)


def riesz_constant(alpha: float, n: int) -> float:
    """Normalization constant of the Riesz kernel of order alpha in R^n.

    R_{alpha,n} = Gamma((n-alpha)/2) / (pi^(n/2) 2^alpha Gamma(alpha/2)).
    """
    if n < 2:
        raise KernelDomainError(f"dimension must be >= 2, got {n}")
    if not 0.0 < alpha < n:
        raise KernelDomainError(
            f"Riesz order must lie in (0, {n}), got {alpha}")
    return math.gamma((n - alpha) / 2.0) / (
        math.pi ** (n / 2.0) * 2.0 ** alpha * math.gamma(alpha / 2.0))


def _reflected_distance(x, y, R):
    # |x| * |R x/|x|^2 - y/R|, written in the form regular at x = 0:
    # sqrt(R^2 - 2 x.y + |x|^2 |y|^2 / R^2)
    return math.sqrt(R * R - 2.0 * float(np.dot(x, y))
                     + float(np.dot(x, x)) * float(np.dot(y, y)) / (R * R))


def green_ball(x, y, R: float, n: int) -> float:
    """Dirichlet Green function of the negative Laplacian on the ball B_R(0).

    Zero when either point lies outside the open ball; the reflection factor
    degenerates to R at x = 0. Raises for coincident points.
    """
    if n < 3:
        raise KernelDomainError("ball Green function requires n >= 3")
    if R <= 0.0:
        raise KernelDomainError("ball radius must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (n,) or y.shape != (n,):
        raise KernelDomainError("points must be n-vectors")
    if np.linalg.norm(x) >= R or np.linalg.norm(y) >= R:
        return 0.0
    d = float(np.linalg.norm(x - y))
    if d == 0.0:
        raise KernelDomainError("Green function undefined on the diagonal")
    dstar = _reflected_distance(x, y, R)
    c = riesz_constant(2.0, n)
    return c * (d ** (2 - n) - dstar ** (2 - n))


# ---------------------------------------------------------------------------
# Composition identity check
# ---------------------------------------------------------------------------

# (n_sing, n_theta, order) of the fine and the coarse refinement level
_LEVELS = ((24, 26, 8), (14, 15, 6))
_OUTER_RADIUS = 400.0        # quadrature radius at unit distance
_ROW_BLOCK = 64              # mesh rows raised to the kernel power at once


def _composition_mesh(n_sing: int, n_far: int):
    """Radial panel breakpoints at unit distance: graded into rho = 0 and
    rho = 1, then growing geometrically to 400."""
    ratio = 0.4
    inner = graded_breaks(0.0, 0.5, n_sing, ratio, toward="start")
    into_d = graded_breaks(0.5, 1.0, n_sing, ratio, toward="end")
    out_of_d = graded_breaks(1.0, 2.0, n_sing, ratio, toward="start")
    far = geometric_breaks(2.0, _OUTER_RADIUS, 1.7)[:n_far + 1]
    if far[-1] < _OUTER_RADIUS:
        far = np.append(far, _OUTER_RADIUS)
    return np.concatenate([inner, into_d[1:], out_of_d[1:], far[1:]])


@functools.lru_cache(maxsize=4)
def _unit_mesh(n_sing: int, n_theta: int, order: int):
    """The tensor Gauss mesh of one refinement level at |x-z| = 1, built
    once per process: radial nodes and weights, angular nodes and weights,
    and ln Q, where Q = (rho - 1)^2 + 4 rho sin^2(theta/2) is the squared
    distance to the second singular point in the form that is
    cancellation-free near (rho, theta) = (1, 0). Every check raises Q to
    its own kernel power as exp(e ln Q), so the log is taken once, here,
    and in place: an out-of-place log would hold a second array of the
    mesh's size. The arrays are shared, so they are read-only."""
    r_nodes, r_weights = panel_quadrature(_composition_mesh(n_sing, 12),
                                          order)
    theta_breaks = graded_breaks(0.0, math.pi, n_theta, 0.38, toward="start")
    t_nodes, t_weights = panel_quadrature(theta_breaks, order)
    log_q = np.multiply.outer(4.0 * r_nodes, np.sin(0.5 * t_nodes) ** 2)
    log_q += ((r_nodes - 1.0) ** 2)[:, None]
    np.log(log_q, out=log_q)
    mesh = (r_nodes, r_weights, t_nodes, t_weights, log_q)
    for a in mesh:
        a.flags.writeable = False
    return mesh


def _composition_integral(alpha1: float, alpha2: float, d: float, n: int,
                          n_sing: int, n_theta: int, order: int) -> float:
    """One graded-mesh evaluation of the composition integral at |x-z| = d.

    With r = d rho the integral is d^(alpha1+alpha2-n) times its value at
    unit distance, so every d shares the level's cached unit mesh. The
    |y-z| kernel factor Q^e, e = (alpha2-n)/2, is evaluated as exp(e ln Q)
    from the cached ln Q: one multiply and one vectorised exp per point,
    about a third of the cost of numpy's non-integer power. Against Q**e
    it differs pointwise by at most (|e ln Q| + 4) eps relative: exp
    amplifies the rounding of the product e ln Q by its size, and ln Q
    lies in [-51.3, 12.0] on the fine level."""
    r_nodes, r_weights, t_nodes, t_weights, log_q = _unit_mesh(
        n_sing, n_theta, order)
    # the separable Jacobian factors rho^(alpha1-1) and sin^(n-2) ride on
    # the weights; the kernel factor is formed a block of rows at a time,
    # so no temporary of the mesh's size is allocated
    angular = t_weights * np.sin(t_nodes) ** (n - 2)
    exponent = 0.5 * (alpha2 - n)
    inner = np.empty(r_nodes.size)
    block = np.empty((min(_ROW_BLOCK, r_nodes.size), t_nodes.size))
    for i in range(0, r_nodes.size, _ROW_BLOCK):
        rows = log_q[i:i + _ROW_BLOCK]
        powered = np.multiply(rows, exponent, out=block[:len(rows)])
        np.exp(powered, out=powered)
        inner[i:i + len(rows)] = powered @ angular
    core = float((r_weights * r_nodes ** (alpha1 - 1)) @ inner)

    # analytic tail beyond the outer radius: the angular average of the
    # |y-z| factor equals rho^(alpha2-n) up to O(rho^-2)
    tail = sin_power_integral(n) * _OUTER_RADIUS ** (alpha1 + alpha2 - n) / \
        (n - alpha1 - alpha2)

    c = riesz_constant(alpha1, n) * riesz_constant(alpha2, n)
    return c * surface_area(n - 1) * (core + tail) * \
        d ** (alpha1 + alpha2 - n)


def riesz_compose_check(alpha1: float, alpha2: float, x, z, n: int):
    """Numerically verify the Riesz composition identity at one point pair.

    Returns (lhs, rhs): the quadrature value of the convolution of the two
    kernels evaluated at (x, z), and the closed-form right-hand side, the
    former on the fine of the two fixed refinement levels `_LEVELS`.
    Raises QuadratureError when the two levels disagree by more than 0.5%.
    """
    if not isinstance(n, numbers.Integral) or n < 2:
        raise KernelDomainError(
            f"dimension must be an integer >= 2, got {n!r}")
    for name, a in (("alpha1", alpha1), ("alpha2", alpha2),
                    ("alpha1+alpha2", alpha1 + alpha2)):
        if not 0.0 < a < n:
            raise KernelDomainError(f"{name} = {a} outside (0, {n})")
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != (n,) or z.shape != (n,):
        raise KernelDomainError(
            f"points must be {n}-vectors, got shapes {x.shape} and {z.shape}")
    # a non-finite coordinate, or a difference that overflows, leaves d
    # non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        d = float(np.linalg.norm(x - z))
    if not math.isfinite(d):
        raise KernelDomainError(
            f"points must be finite with a finite distance, got |x-z| = {d}")
    if d == 0.0:
        raise KernelDomainError("composition check requires x != z")
    # both sides are |x-z|^(alpha1+alpha2-n) times a constant
    try:
        power = d ** (alpha1 + alpha2 - n)
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:
        raise KernelDomainError(
            f"|x-z|^(alpha1+alpha2-n) leaves the float range at "
            f"|x-z| = {d}")
    fine, coarse = (_composition_integral(alpha1, alpha2, d, n, *level)
                    for level in _LEVELS)
    if not (np.isfinite(fine) and np.isfinite(coarse)):
        raise QuadratureError("composition integral produced non-finite data")
    if abs(fine - coarse) > 5e-3 * abs(fine):
        raise QuadratureError(
            "composition integral did not converge "
            f"(levels {coarse:.6e} vs {fine:.6e})")

    return fine, riesz_constant(alpha1 + alpha2, n) * power

