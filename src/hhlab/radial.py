"""Radial representation of poly-harmonic operators.

Graded radial grids, the radial Laplacian on nonuniform grids, the exact
double-integral Poisson solve on balls, re-centered spherical averaging with
its Jensen gap, the exact singular power-law solution, and the equation's
re-scaling map.

All solves assume even regular profiles at the origin (u'(0) = 0); fields
with a genuinely singular origin live on grids with r_0 > 0.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import (AmplitudeRangeError, ExtrapolationError, GridError,
                     NonIntegrableSourceError)
from .numerics import DerivativeStencils, fd_weights_batch, gauss_legendre

MIN_NODES = 32
# log range of normal floats; the top keeps a margin above the rounding of
# a log amplitude, so that an amplitude accepted by a check against these
# bounds cannot overflow when its power is taken
LOG_HUGE = math.log(sys.float_info.max) * (1.0 - 1e-12)
LOG_TINY = math.log(sys.float_info.min)


@dataclass(frozen=True)
class HardyHenonParams:
    """Problem coefficients for (-Laplace)^m u = u^p / |x|^a + t.

    n : space dimension (>= 2)
    m : operator half-order (>= 1), so the operator order is 2m
    a : Hardy/Henon weight exponent (a < n; a > 0 Hardy, a < 0 Henon)
    p : nonlinearity exponent (> 1)
    t : nonnegative constant forcing used by the Navier solver
    """

    n: int
    m: int
    a: float = 0.0
    p: float = 2.0
    t: float = 0.0

    def __post_init__(self):
        for name in ("n", "m"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("a", "p", "t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        if self.m < 1:
            raise ValueError(f"half-order m must be >= 1, got {self.m}")
        if not self.p > 1.0:
            raise ValueError(f"exponent p must exceed 1, got {self.p}")
        if not self.a < self.n:
            raise ValueError(f"weight exponent a must satisfy a < n")
        if self.t < 0.0:
            raise ValueError("forcing t must be nonnegative")

    @property
    def order_class(self) -> str:
        """'critical' when 2m = n, 'super-critical' when 2m > n."""
        if 2 * self.m == self.n:
            return "critical"
        return "super-critical" if 2 * self.m > self.n else "sub-critical"

    @property
    def sigma(self) -> float:
        """Homogeneity exponent (2m - a)/(p - 1) of the re-scaling map.

        u_lam(x) = lam^sigma u(lam x) solves the equation whenever u does:
        the left side scales as (-Lap)^m [lam^sigma u(lam x)] =
        lam^(sigma + 2m) ((-Lap)^m u)(lam x) and the right side as
        lam^(sigma p + a), and the two powers agree at this sigma. It equals
        (n - a)/(p - 1) only at critical order 2m = n."""
        return (2 * self.m - self.a) / (self.p - 1.0)


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radial nodes with a grading descriptor."""

    nodes: np.ndarray
    grading: str = "uniform"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < MIN_NODES:
            raise GridError(f"grid needs at least {MIN_NODES} nodes")
        if not np.all(np.isfinite(nodes)):
            raise GridError("nodes must be finite")
        if nodes[0] < 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise GridError("nodes must be nonnegative, strictly increasing")
        nodes = nodes.copy()
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_stencils", None)
        object.__setattr__(self, "_green", {})

    @classmethod
    def uniform(cls, r0: float, r1: float, n_nodes: int) -> "RadialGrid":
        return cls(np.linspace(r0, r1, n_nodes), "uniform")

    @classmethod
    def graded(cls, r0: float, r1: float, n_nodes: int,
               ratio: float = 1.05) -> "RadialGrid":
        """Geometric refinement toward both ends (spacing ratio `ratio`).

        The end-to-middle spacing skew is capped at 1e6 so large grids keep
        all spacings far above the float spacing of the coordinates.
        """
        k = np.arange(n_nodes - 1)
        log_w = np.minimum(k, n_nodes - 2 - k) * math.log(ratio)
        w = np.exp(np.minimum(log_w, math.log(1e6)))
        nodes = np.concatenate([[0.0], np.cumsum(w)])
        # fewer than two nodes (0/0) or a span that overflows leaves
        # non-finite or too few nodes, which the constructor rejects
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = r0 + (r1 - r0) * nodes / nodes[-1]
        nodes[-1] = r1
        return cls(nodes, "geometric")

    @property
    def r0(self) -> float:
        return float(self.nodes[0])

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    def __len__(self) -> int:
        return self.nodes.size

    def stencils(self, width: int = 5) -> DerivativeStencils:
        cache = self._stencils
        if cache is None:
            cache = {}
            object.__setattr__(self, "_stencils", cache)
        if width not in cache:
            cache[width] = DerivativeStencils(self.nodes, width)
        return cache[width]

    def green(self, n: int) -> "_GreenSolve":
        """The ball Green solve in dimension n, factorised once per grid."""
        if n not in self._green:
            self._green[n] = _GreenSolve(self.nodes, n)
        return self._green[n]


@dataclass(frozen=True)
class RadialField:
    """A radial profile sampled on a grid, with monotone-cubic evaluation."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.nodes.shape:
            raise GridError("values must match the grid length")
        if not np.all(np.isfinite(vals)):
            raise GridError("field values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_interp", None)

    @classmethod
    def from_function(cls, grid: RadialGrid, fn: Callable) -> "RadialField":
        return cls(grid, fn(grid.nodes))

    @classmethod
    def constant(cls, grid: RadialGrid, value: float) -> "RadialField":
        return cls(grid, np.full(len(grid), float(value)))

    def with_values(self, values) -> "RadialField":
        return RadialField(self.grid, values)

    def interpolator(self) -> PchipInterpolator:
        if self._interp is None:
            object.__setattr__(
                self, "_interp",
                PchipInterpolator(self.grid.nodes, self.values,
                                  extrapolate=False))
        return self._interp

    def __call__(self, r):
        out = self.interpolator()(r)
        if np.any(np.isnan(out)):
            raise ExtrapolationError(
                f"evaluation outside grid range "
                f"[{self.grid.r0:g}, {self.grid.r_max:g}]")
        return out

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def to_csv(self, path_or_buf, label: str = "value") -> None:
        """Two-column CSV (r, value); the single header row names the field."""
        own = isinstance(path_or_buf, (str, bytes))
        fh = open(path_or_buf, "w") if own else path_or_buf
        try:
            fh.write(f"r,{label}\n")
            for r, v in zip(self.grid.nodes, self.values):
                fh.write(f"{r:.17g},{v:.17g}\n")
        finally:
            if own:
                fh.close()

    @classmethod
    def from_csv(cls, path) -> "RadialField":
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        return cls(RadialGrid(data[:, 0], "loaded"), data[:, 1])


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def radial_laplacian(f: RadialField, n: int, width: int = 5) -> RadialField:
    """Negative radial Laplacian -(f'' + (n-1)/r f') by finite differences.

    At r = 0 the regularized value -n f''(0) is used (even extension).
    `width` selects the stencil size (odd, >= 5).
    """
    r = f.grid.nodes
    if r.size < max(5, width):
        raise GridError("radial Laplacian needs at least 5 nodes")
    st = f.grid.stencils(width)
    d1 = st.first(f.values)
    d2 = st.second(f.values)
    out = np.empty_like(d1)
    if r[0] == 0.0:
        # even extension through the origin: a mirrored centered stencil is
        # both fourth-order and far less round-off prone than a one-sided one
        half = width // 2
        nodes = np.concatenate([-r[half:0:-1], r[:half + 1]])
        vals = np.concatenate([f.values[half:0:-1], f.values[:half + 1]])
        w2 = fd_weights_batch(nodes[None, :], np.zeros(1), 2)[0, :, 2]
        out[0] = n * float(w2 @ (vals - f.values[0]))
        out[1:] = d2[1:] + (n - 1) / r[1:] * d1[1:]
    else:
        out = d2 + (n - 1) / r * d1
    return RadialField(f.grid, -out)


def polyharmonic_apply(f: RadialField, n: int, m: int,
                       width: int = 5) -> RadialField:
    """(-Laplace)^m applied by m repeated finite-difference Laplacians."""
    g = f
    for _ in range(m):
        g = radial_laplacian(g, n, width)
    return g


def _panel_weights(r, n: int):
    """W[k, j] = integral over panel j of t^(n-1) (t - r_j)^(3-k) dt.

    Row k weights the k-th cubic-spline coefficient (scipy's order, highest
    power first), so the monomial t^(n-1) is integrated exactly per panel.
    Expanding it binomially about the panel's left node r_j keeps every term
    nonnegative, so there is no cancellation."""
    ri = r[:-1]
    delta = np.diff(r)
    weights = np.zeros((4, ri.size))
    for k in range(4):
        j = 3 - k
        for ell in range(n):
            coef = math.comb(n - 1, ell)
            weights[k] += coef * ri ** (n - 1 - ell) \
                * delta ** (ell + j + 1) / (ell + j + 1)
    return weights


def _integrate_panels(c, weights):
    """Running integral from r_0 to every node, from the spline coefficients
    of each panel and their exact panel weights."""
    panel = c[0] * weights[0] + c[1] * weights[1] + c[2] * weights[2] \
        + c[3] * weights[3]
    return np.concatenate([[0.0], np.cumsum(panel)])


def weighted_cumulative(r, vals, n: int):
    """F(r_j) = integral from r_0 to r_j of t^(n-1) f(t) dt, with f the
    cubic spline of `vals` and the monomial weight integrated exactly per
    panel (binomial expansion about each panel's left node, so no
    cancellation). Uniformly fourth-order accurate; exact when the spline
    reproduces f."""
    return _integrate_panels(CubicSpline(r, vals).c, _panel_weights(r, n))


def _origin_head(r, w, n):
    """Estimate of the missing integral of t^(n-1) f over [0, r0] for grids
    that start above the origin, by local power-law extension of f."""
    r0, r1 = r[0], r[1]
    f0, f1 = w[0] / r0 ** (n - 1), w[1] / r1 ** (n - 1)
    if f0 == 0.0 or f0 * f1 <= 0.0:
        return 0.0
    q = math.log(abs(f1 / f0)) / math.log(r1 / r0)
    if q + n <= 0.05:
        raise NonIntegrableSourceError(
            f"source behaves like r^{q:.3g} near the origin; "
            f"r^{{n-1}} f is not integrable")
    return f0 * r0 ** n / (n + q)


class _GreenSolve:
    """The part of `poisson_solve_ball` that depends only on the grid and n.

    Both integrals of the double-integral solve integrate not-a-knot cubic
    splines. The spline slopes solve a tridiagonal system whose matrix
    depends only on the nodes (the system scipy's CubicSpline solves; de
    Boor, A Practical Guide to Splines, ch. IV), so its LU factorisation is
    computed once here, together with the panel weights of the inner
    integral of t^(n-1) f and of the outer plain antiderivative. A solve
    then costs two tridiagonal back-substitutions and O(N) vector work, and
    holds O(N) memory.
    """

    def __init__(self, r, n: int):
        dx = np.diff(r)
        d0, d1 = r[2] - r[0], r[-1] - r[-3]
        lower = np.concatenate([dx[1:], [d1]])
        diag = np.concatenate([[dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]])
        upper = np.concatenate([[d0], dx[:-1]])
        *lu, info = dgttrf(lower, diag, upper)
        if info != 0:
            raise GridError("spline slope system is singular on this grid")
        self._lu = lu
        self._dx = dx
        # not-a-knot end rows of the slope system's right-hand side
        self._start = ((dx[0] + 2.0 * d0) * dx[1] / d0, dx[0] ** 2 / d0)
        self._end = (dx[-1] ** 2 / d1, (2.0 * d1 + dx[-1]) * dx[-2] / d1)
        self._inner = _panel_weights(r, n)
        self._outer = _panel_weights(r, 1)
        self.r_pow = r ** (n - 1)
        # r^(1-n); the inner integral vanishes at an origin node
        pos = r > 0.0
        self._r_inv = np.zeros_like(r)
        self._r_inv[pos] = r[pos] ** (1 - n)

    def spline(self, y):
        """Coefficients of the not-a-knot cubic spline of y, highest power
        first: the rows of `CubicSpline(r, y).c`."""
        dx = self._dx
        slope = np.diff(y) / dx
        b = np.empty_like(y)
        b[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b[0] = self._start[0] * slope[0] + self._start[1] * slope[1]
        b[-1] = self._end[0] * slope[-2] + self._end[1] * slope[-1]
        s, _ = dgttrs(*self._lu, b)
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        return t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]

    def integral(self, f) -> float:
        """int_{r_0}^{r_N} t^(n-1) f dt, with f the spline of its values."""
        return float(_integrate_panels(self.spline(f), self._inner)[-1])

    def solve(self, f, head: float = 0.0):
        """u(r_j) = int_{r_j}^R s^(1-n) (head + int_{r_0}^s t^(n-1) f) ds,
        with `head` the inner integral over [0, r_0]."""
        F = _integrate_panels(self.spline(f), self._inner) + head
        outer = _integrate_panels(self.spline(F * self._r_inv), self._outer)
        u = outer[-1] - outer
        u[-1] = 0.0
        return u


def poisson_solve_ball(f: RadialField, R: float, n: int) -> RadialField:
    """Solve -Laplace u = f radially on the ball of radius R with u(R) = 0.

    Uses the exact double integral
        u(r) = int_r^R s^(1-n) int_0^s t^(n-1) f(t) dt ds
    with cubic-spline antiderivatives on the grid, so u is regular at the
    origin and vanishes at R by construction. The grid must end at R. The
    grid-only work is cached per grid and n (`RadialGrid.green`).
    """
    r = f.grid.nodes
    if abs(r[-1] - R) > 1e-9 * max(1.0, R):
        raise GridError(f"grid must end at the ball radius R={R:g}")
    green = f.grid.green(n)
    w = green.r_pow * f.values
    if not np.all(np.isfinite(w)):
        raise NonIntegrableSourceError(
            "r^(n-1) f is unbounded on the grid")
    head = _origin_head(r, w, n) if r[0] > 0.0 else 0.0
    return RadialField(f.grid, green.solve(f.values, head))


def iterated_green(f: RadialField, R: float, n: int, m: int) -> tuple:
    """Apply the ball Green operator m times; return the layer stack
    (u, u_1, ..., u_{m-1}).

    Layer 0 is the final potential u and layer i its i-th iterated negative
    Laplacian, so every layer vanishes at R (Navier boundary data).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    chain = []
    g = f
    for _ in range(m):
        g = poisson_solve_ball(g, R, n)
        chain.append(g)
    return tuple(reversed(chain))


def _sphere_average(fn: Callable, d: float, r: float, n: int) -> float:
    """Average of fn(|x|) over the sphere of radius r centered at distance d
    from the origin, via Gauss-Legendre in the polar angle."""
    n_nodes = int(math.ceil(20 + 5 * n))
    x, w = gauss_legendre(n_nodes)
    theta = 0.5 * math.pi * (x + 1.0)
    wt = 0.5 * math.pi * w
    sin_pow = np.sin(theta) ** (n - 2)
    # |x|^2 = d^2 + r^2 + 2 d r cos(theta), stable form near theta = pi
    arg = np.sqrt((d - r) ** 2 + 4.0 * d * r * np.cos(0.5 * theta) ** 2)
    weights = wt * sin_pow
    return float(weights @ fn(arg) / np.sum(weights))


def _check_coverage(f: RadialField, d: float, r: float) -> None:
    lo, hi = abs(d - r), d + r
    tol = 1e-12 * max(1.0, f.grid.r_max)
    if lo < f.grid.r0 - tol or hi > f.grid.r_max + tol:
        raise ExtrapolationError(
            f"re-centered average needs [{lo:g}, {hi:g}] but the field "
            f"covers [{f.grid.r0:g}, {f.grid.r_max:g}]")


def _clipped(f: RadialField) -> Callable:
    """f's interpolant with arguments clipped to the grid, so that sphere
    radii rounded just past a covered end stay evaluable."""
    interp = f.interpolator()
    return lambda arg: interp(np.clip(arg, f.grid.r0, f.grid.r_max))


def recenter_average(f: RadialField, d: float, r: float, n: int) -> float:
    """Spherical average of the radial profile f over the sphere of radius r
    centered at distance d from the origin."""
    if d < 0.0 or r < 0.0:
        raise ValueError("d and r must be nonnegative")
    if r == 0.0:
        return float(f(d))
    _check_coverage(f, d, r)
    return _sphere_average(_clipped(f), d, r, n)


def jensen_gap(f: RadialField, p: float, d: float, r: float, n: int) -> float:
    """average(f^p) - average(f)^p over the re-centered sphere; nonnegative
    up to quadrature round-off for f >= 0 and p > 1."""
    if p <= 1.0:
        raise ValueError("Jensen gap requires p > 1")
    if r == 0.0:
        return 0.0
    _check_coverage(f, d, r)
    safe = _clipped(f)
    avg_pow = _sphere_average(lambda s: np.maximum(safe(s), 0.0) ** p, d, r, n)
    avg = _sphere_average(safe, d, r, n)
    return avg_pow - max(avg, 0.0) ** p


def weighted_source_average(f: RadialField, p: float, a: float, d: float,
                            r: float, n: int) -> float:
    """Re-centered average of f^p |x|^(-a) over the sphere (the source term
    seen by the top equation of the radial system)."""
    _check_coverage(f, d, r)
    safe = _clipped(f)

    def source(arg):
        base = np.maximum(safe(arg), 0.0) ** p
        if a == 0.0:
            return base
        return base * np.asarray(arg) ** (-a)

    return _sphere_average(source, d, r, n)


def hardy_bound_factor(d: float, r: float, a: float) -> float:
    """min over the sphere of |x|^(-a): (d+r)^(-a) for a >= 0 (largest radius)
    and |d-r|^(-a) for a < 0 (smallest radius)."""
    if a >= 0.0:
        return (d + r) ** (-a)
    return abs(d - r) ** (-a)


def singular_solution(params: HardyHenonParams
                      ) -> Optional[tuple[float, float]]:
    """Exact power-law distributional solution C r^(-sigma), when it exists.

    sigma = (2m-a)/(p-1) (`HardyHenonParams.sigma`). Since
    -Lap r^(-s) = s(n-2-s) r^(-s-2), (-Lap)^m C r^(-sigma) = C P r^(-sigma-2m)
    with P = prod_{j<m} (sigma+2j)(n-2-sigma-2j); the right side is
    C^p r^(-sigma p - a), the same power, so the amplitude solves
    C^(p-1) = P. Returns None when P <= 0, in which case no positive
    solution of this form exists.

    The range of C is checked in log space first: p close to 1 drives the
    exponent 1/(p-1) to infinity, and an amplitude outside the normal
    floats raises AmplitudeRangeError instead of overflowing.
    """
    sigma = params.sigma
    if sigma <= 0.0:
        return None
    prod = 1.0
    for j in range(params.m):
        s = sigma + 2 * j
        prod *= s * (params.n - 2 - s)
    if prod <= 0.0:
        return None
    log_c = math.log(prod) / (params.p - 1.0)
    if not LOG_TINY <= log_c <= LOG_HUGE:
        raise AmplitudeRangeError(
            f"singular amplitude exp({log_c:.6g}) is outside the float range")
    return sigma, prod ** (1.0 / (params.p - 1.0))


def rescale(u: RadialField, lam: float, params: HardyHenonParams
            ) -> RadialField:
    """Re-scaling u_lam(r) = lam^sigma u(lam r), sigma = (2m-a)/(p-1), on
    the induced grid.

    The grid nodes map to r/lam, so no interpolation takes place and the
    scale-invariant profiles are fixed exactly.
    """
    if lam <= 0.0:
        raise ValueError("scaling factor must be positive")
    nodes = u.grid.nodes / lam
    values = lam ** params.sigma * u.values
    return RadialField(RadialGrid(nodes, u.grid.grading), values)
