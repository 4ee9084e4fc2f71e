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
mesh is built once per process at |x-z| = 1 and shared by every check. The
angular mesh is graded toward theta = 0 for the rows with rho near 1; on a
row the |y-z| factor is singular at theta = +-i delta(rho),
delta = 2 asinh(|rho - 1| / (2 sqrt(rho))), so each block of 64 rows merges
the graded panels below c min(1, delta) over its rows into one Gauss panel,
with c = 0.1 from the Bernstein-ellipse bound (see `_unit_mesh`).
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .errors import KernelDomainError, QuadratureError
from .numerics import (gauss_legendre, geometric_breaks, graded_breaks,
                       panel_quadrature, sin_power_integral, surface_area)


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
# a row block merges the angular panels below c min(1, delta) into one
# Gauss panel; c is derived from the Bernstein-ellipse bound in _unit_mesh
_MERGE_FRACTION = 0.1


def _composition_mesh(n_sing: int):
    """Radial panel breakpoints at unit distance: graded into rho = 0 and
    rho = 1, then 10 panels growing geometrically to exactly 400."""
    ratio = 0.4
    inner = graded_breaks(0.0, 0.5, n_sing, ratio, toward="start")
    into_d = graded_breaks(0.5, 1.0, n_sing, ratio, toward="end")
    out_of_d = graded_breaks(1.0, 2.0, n_sing, ratio, toward="start")
    far = geometric_breaks(2.0, _OUTER_RADIUS, 1.7)
    return np.concatenate([inner, into_d[1:], out_of_d[1:], far[1:]])


@functools.lru_cache(maxsize=4)
def _unit_mesh(n_sing: int, n_theta: int, order: int):
    """The Gauss mesh of one refinement level at |x-z| = 1, built once per
    process: radial nodes and weights, and one angular rule per block of
    `_ROW_BLOCK` rows, as a tuple of (angular nodes, angular weights, ln Q)
    per block, where Q = (rho - 1)^2 + 4 rho sin^2(theta/2) is the squared
    distance to the second singular point in the form that is
    cancellation-free near (rho, theta) = (1, 0). Every check raises Q to
    its own kernel power as exp(e ln Q), so the log is taken once, here,
    and in place: an out-of-place log would hold a second array of the
    block's size. The arrays are shared, so they are read-only.

    The full angular mesh is graded toward theta = 0 down to panels about
    1e-10 wide, which only rows with rho near 1 need. On a row Q vanishes
    at theta = +-i delta, delta(rho) = 2 asinh(|rho - 1| / (2 sqrt(rho))),
    so sin^(n-2)(theta) Q^e is analytic in the disc |theta| < delta. A
    block takes b, the largest graded break at or below c min(1, delta)
    over its rows (c = `_MERGE_FRACTION`), integrates [0, b] with one Gauss
    panel of the level's order and keeps the full mesh above b, a suffix of
    its nodes and weights. A block whose reach lies below the first graded
    break keeps the full mesh.

    Why one panel is enough. Map [0, b] to [-1, 1] and take the Bernstein
    ellipse E_R with (sqrt(R) + 1/sqrt(R))^2 = 2/c; its points satisfy
    |theta| <= (b/4)(sqrt(R) + 1/sqrt(R))^2 <= kappa min(1, delta) with
    kappa = 1/2. There |sin(theta/2)| <= sinh(|theta|/2) <=
    kappa sinh(delta/2), so Q = Q0 (1 + s) with Q0 = (rho - 1)^2 and
    |s| <= kappa^2, hence |Q^e| <= (Q0 (1 - kappa^2))^e; and |sin theta| <=
    sinh(kappa min(1, delta)) <= sinh(kappa) min(1, delta). The cap at 1
    is what bounds the growth of sin^(n-2) off the real axis. The row's
    angular integral is at least (2 Q0)^e sin(1)^(n-2) min(1, delta)^(n-1)
    / (n-1), from [0, min(1, delta)] where Q <= 2 Q0. Against it, the
    N-point panel's error (Trefethen, ATAP, Thm 19.3:
    (b/2)(64/15) M R^(-2N) / (R^2 - 1), M = max |f| on E_R) is at most

        (c/2)(64/15)(n-1) (2/(1 - kappa^2))^(-e)
            (sinh(kappa)/sin(1))^(n-2) R^(-2N) / (R^2 - 1),

    with -e < n/2. At c = 0.1, R = 9 + 4 sqrt(5) = 17.9, and at the coarse
    level's order N = 6 the bound is 1.2e-17 for n = 8, smaller for n < 8
    (it grows like n 1.012^n): below eps = 2.2e-16, so the finer panels
    below b add nothing. c = 0.125 would put it at 5.2e-16. The radial and
    the full angular mesh come from `panel_quadrature`, radial first; the
    merged panel maps `gauss_legendre` onto [0, b]."""
    r_nodes, r_weights = panel_quadrature(_composition_mesh(n_sing),
                                          order)
    theta_breaks = graded_breaks(0.0, math.pi, n_theta, 0.38, toward="start")
    t_nodes, t_weights = panel_quadrature(theta_breaks, order)
    x, w = gauss_legendre(order)
    delta = 2.0 * np.arcsinh(np.abs(r_nodes - 1.0) / (2.0 * np.sqrt(r_nodes)))
    blocks = []
    for i in range(0, r_nodes.size, _ROW_BLOCK):
        rows = r_nodes[i:i + _ROW_BLOCK]
        reach = _MERGE_FRACTION * min(1.0, delta[i:i + _ROW_BLOCK].min())
        # the panels below breaks[j] merge into one; at j = 1 that is the
        # full mesh's first panel, bit for bit, so the full mesh is kept
        j = max(int(np.searchsorted(theta_breaks, reach, side="right")) - 1,
                1)
        half = 0.5 * theta_breaks[j]
        nodes = np.concatenate([half + half * x, t_nodes[j * order:]])
        weights = np.concatenate([half * w, t_weights[j * order:]])
        log_q = np.multiply.outer(4.0 * rows, np.sin(0.5 * nodes) ** 2)
        log_q += ((rows - 1.0) ** 2)[:, None]
        np.log(log_q, out=log_q)
        blocks.append((nodes, weights, log_q))
    for a in (r_nodes, r_weights, *(a for block in blocks for a in block)):
        a.flags.writeable = False
    return r_nodes, r_weights, tuple(blocks)


@functools.lru_cache(maxsize=32)
def _angular_weights(n_sing: int, n_theta: int, order: int, n: int):
    """Each row block's angular weights times the Jacobian factor
    sin^(n-2)(theta) in dimension n, cached beside the level's unit mesh:
    formed per check, these small products would cost about a third as
    much as the kernel power itself."""
    _, _, blocks = _unit_mesh(n_sing, n_theta, order)
    weights = tuple(t_weights * np.sin(t_nodes) ** (n - 2)
                    for t_nodes, t_weights, _ in blocks)
    for a in weights:
        a.flags.writeable = False
    return weights


def prepare_composition(n: int) -> None:
    """Build and cache what every composition check in dimension n reads:
    both refinement levels' unit meshes (fine first, as a check builds
    them) and their angular weights in dimension n. A process that forks
    workers for its checks calls this first, so that each worker inherits
    the meshes instead of building its own."""
    for level in _LEVELS:
        _angular_weights(*level, n)


def _composition_integral(alpha1: float, alpha2: float, d: float, n: int,
                          n_sing: int, n_theta: int, order: int) -> float:
    """One graded-mesh evaluation of the composition integral at |x-z| = d.

    With r = d rho the integral is d^(alpha1+alpha2-n) times its value at
    unit distance, so every d shares the level's cached unit mesh. Each
    block of rows is contracted against its own angular rule (see
    `_unit_mesh`), which agrees with the full graded angular mesh to
    rounding. The |y-z| kernel factor Q^e, e = (alpha2-n)/2, is evaluated
    as exp(e ln Q) from the cached ln Q: one multiply and one vectorised
    exp per point, about a third of the cost of numpy's non-integer power.
    Against Q**e it differs pointwise by at most (|e ln Q| + 4) eps
    relative: exp amplifies the rounding of the product e ln Q by its
    size, and ln Q lies in [-51.3, 12.0] on the fine level."""
    r_nodes, r_weights, blocks = _unit_mesh(n_sing, n_theta, order)
    # the separable Jacobian factors rho^(alpha1-1) and sin^(n-2) ride on
    # the weights; the kernel factor is formed a block of rows at a time,
    # so no temporary of the mesh's size is allocated
    exponent = 0.5 * (alpha2 - n)
    inner = np.empty(r_nodes.size)
    i = 0
    for (_, _, log_q), angular in zip(
            blocks, _angular_weights(n_sing, n_theta, order, n)):
        powered = np.multiply(log_q, exponent)
        np.exp(powered, out=powered)
        inner[i:i + len(log_q)] = powered @ angular
        i += len(log_q)
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

