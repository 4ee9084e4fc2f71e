"""Riesz kernels and the ball Green function.

Exact constants, pointwise evaluation, and a quadrature-based verification of
the Riesz composition identity

    integral R_{a1,n}|x-y|^(a1-n) * R_{a2,n}|y-z|^(a2-n) dy
        = R_{a1+a2,n} |x-z|^(a1+a2-n),

valid for a1, a2, a1+a2 all in (0, n). The composition integral is reduced to
polar coordinates about x (it depends on |x-z| only) and evaluated with
Gauss-Legendre panels on meshes graded into the two algebraic singularities,
plus analytic far-field tail.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class RieszKernel:
    """Riesz kernel R_{alpha,n} |x|^(alpha-n) of order alpha in R^n."""

    alpha: float
    n: int
    constant: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "constant",
                           riesz_constant(self.alpha, self.n))

    def __call__(self, distance):
        d = np.asarray(distance, dtype=float)
        if np.any(d <= 0.0):
            raise KernelDomainError("Riesz kernel undefined at distance 0")
        return self.constant * d ** (self.alpha - self.n)


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


@dataclass(frozen=True)
class BallGreen:
    """Green function object for -Laplace on B_R(0) with Dirichlet data."""

    radius: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise KernelDomainError("ball Green function requires n >= 3")
        if self.radius <= 0.0:
            raise KernelDomainError("ball radius must be positive")

    def __call__(self, x, y) -> float:
        return green_ball(x, y, self.radius, self.n)


# ---------------------------------------------------------------------------
# Composition identity check
# ---------------------------------------------------------------------------

def _composition_mesh(d: float, n_sing: int, n_far: int):
    """Radial panel breakpoints graded into r=0 and r=d, growing to 400 d."""
    ratio = 0.4
    inner = graded_breaks(0.0, 0.5 * d, n_sing, ratio, toward="start")
    into_d = graded_breaks(0.5 * d, d, n_sing, ratio, toward="end")
    out_of_d = graded_breaks(d, 2.0 * d, n_sing, ratio, toward="start")
    far = geometric_breaks(2.0 * d, 400.0 * d, 1.7)[:n_far + 1]
    if far[-1] < 400.0 * d:
        far = np.append(far, 400.0 * d)
    return np.concatenate([inner, into_d[1:], out_of_d[1:], far[1:]])


def _composition_integral(alpha1: float, alpha2: float, d: float, n: int,
                          n_sing: int, n_theta: int, order: int) -> float:
    """One graded-mesh evaluation of the composition integral at |x-z| = d."""
    r_breaks = _composition_mesh(d, n_sing, 12)
    r_nodes, r_weights = panel_quadrature(r_breaks, order)

    theta_breaks = graded_breaks(0.0, math.pi, n_theta, 0.38, toward="start")
    t_nodes, t_weights = panel_quadrature(theta_breaks, order)

    # squared distance from the second singular point z, in the form that is
    # cancellation-free near (r, theta) = (d, 0), raised to the kernel power
    # in place; the separable Jacobian factors r^(alpha1-1) and
    # sin^(n-2) ride on the weights, so the mesh holds one array
    q = np.multiply.outer(4.0 * d * r_nodes, np.sin(0.5 * t_nodes) ** 2)
    q += ((r_nodes - d) ** 2)[:, None]
    np.power(q, 0.5 * (alpha2 - n), out=q)
    core = float((r_weights * r_nodes ** (alpha1 - 1))
                 @ (q @ (t_weights * np.sin(t_nodes) ** (n - 2))))

    # analytic tail beyond the outer radius: the angular average of the
    # |y-z| factor equals r^(alpha2-n) up to O((d/r)^2)
    r_out = r_breaks[-1]
    tail = sin_power_integral(n) * r_out ** (alpha1 + alpha2 - n) / \
        (n - alpha1 - alpha2)

    c = riesz_constant(alpha1, n) * riesz_constant(alpha2, n)
    return c * surface_area(n - 1) * (core + tail)


def riesz_compose_check(alpha1: float, alpha2: float, x, z, n: int,
                        quadrature_budget: int = 250_000):
    """Numerically verify the Riesz composition identity at one point pair.

    Returns (lhs, rhs): the quadrature value of the convolution of the two
    kernels evaluated at (x, z), and the closed-form right-hand side. Raises
    QuadratureError when two refinement levels within the evaluation budget
    disagree by more than 0.5%.
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

    order = 8
    n_sing, n_theta = 24, 26
    base_cost = _mesh_cost(n_sing, n_theta, order)
    coarse_cost = _mesh_cost(int(n_sing * 0.6), int(n_theta * 0.6), order - 2)
    if base_cost + coarse_cost > quadrature_budget:
        scale = (quadrature_budget / (base_cost + coarse_cost)) ** 0.5
        order = max(4, int(order * scale))
        n_sing = max(8, int(n_sing * scale))
        n_theta = max(8, int(n_theta * scale))
        if _mesh_cost(n_sing, n_theta, order) > quadrature_budget:
            raise QuadratureError(
                "quadrature budget too small for the composition check")

    fine = _composition_integral(alpha1, alpha2, d, n, n_sing, n_theta, order)
    coarse = _composition_integral(alpha1, alpha2, d, n,
                                   max(8, int(n_sing * 0.6)),
                                   max(8, int(n_theta * 0.6)),
                                   max(4, order - 2))
    if not (np.isfinite(fine) and np.isfinite(coarse)):
        raise QuadratureError("composition integral produced non-finite data")
    if abs(fine - coarse) > 5e-3 * abs(fine):
        raise QuadratureError(
            f"composition integral did not converge within budget "
            f"(levels {coarse:.6e} vs {fine:.6e})")

    rhs = riesz_constant(alpha1 + alpha2, n) * d ** (alpha1 + alpha2 - n)
    return fine, rhs


def _mesh_cost(n_sing: int, n_theta: int, order: int) -> int:
    return (3 * n_sing + 14) * order * n_theta * order
