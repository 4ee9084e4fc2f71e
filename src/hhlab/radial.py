"""Radial representation of poly-harmonic operators.

Graded radial grids, the radial Laplacian on nonuniform grids, the exact
double-integral Poisson solve on balls, the exact singular power-law
solution, and the equation's re-scaling map.

The Poisson solve runs on grids from the origin and assumes even regular
profiles there (u'(0) = 0). Fields with a genuinely singular origin, such as
the power-law solution, live on grids with r_0 > 0, where the
finite-difference operators apply and the Poisson solve does not.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import AmplitudeRangeError, GridError, NonIntegrableSourceError
from .numerics import DerivativeStencils, fd_weights_batch

MIN_NODES = 32
# spacing ratio of `RadialGrid.graded` between neighbouring panels
GRADING_RATIO = 1.05
# CSV rows formatted and written at a time
_CSV_BLOCK = 256
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
    """Strictly increasing, nonnegative radial nodes."""

    nodes: np.ndarray

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
        return cls(np.linspace(r0, r1, n_nodes))

    @classmethod
    def graded(cls, r0: float, r1: float, n_nodes: int) -> "RadialGrid":
        """Geometric refinement toward both ends (spacing ratio
        GRADING_RATIO).

        The end-to-middle spacing skew is capped at 1e6 so large grids keep
        all spacings far above the float spacing of the coordinates.
        """
        k = np.arange(n_nodes - 1)
        log_w = np.minimum(k, n_nodes - 2 - k) * math.log(GRADING_RATIO)
        w = np.exp(np.minimum(log_w, math.log(1e6)))
        nodes = np.concatenate([[0.0], np.cumsum(w)])
        # fewer than two nodes (0/0) or a span that overflows leaves
        # non-finite or too few nodes, which the constructor rejects
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = r0 + (r1 - r0) * nodes / nodes[-1]
        nodes[-1] = r1
        return cls(nodes)

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
    """A radial profile sampled on a grid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.values, dtype=float))

    @classmethod
    def adopt(cls, grid: RadialGrid, values: np.ndarray) -> "RadialField":
        """A field that takes over `values`, a float array freshly made for
        it: checked like any field and frozen in place, not copied. Nothing
        may write to `values` afterwards."""
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        field._own(np.asarray(values, dtype=float))
        return field

    def _own(self, vals: np.ndarray) -> None:
        if vals.shape != self.grid.nodes.shape:
            raise GridError("values must match the grid length")
        if not np.isfinite(vals).all():
            raise GridError("field values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, grid: RadialGrid, fn: Callable) -> "RadialField":
        return cls(grid, fn(grid.nodes))

    @classmethod
    def constant(cls, grid: RadialGrid, value: float) -> "RadialField":
        return cls(grid, np.full(len(grid), float(value)))

    def with_values(self, values) -> "RadialField":
        return RadialField(self.grid, values)

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def to_csv(self, path_or_buf, label: str = "value") -> None:
        """Two-column CSV (r, value); the single header row names the field.

        Rows are formatted from Python floats, one `%` operation per block
        of _CSV_BLOCK rows, and written a block at a time, so a large
        field's text is never held whole."""
        nodes, values = self.grid.nodes, self.values
        own = isinstance(path_or_buf, (str, bytes))
        fh = open(path_or_buf, "w") if own else path_or_buf
        try:
            fh.write(f"r,{label}\n")
            for k in range(0, nodes.size, _CSV_BLOCK):
                pairs = np.column_stack((nodes[k:k + _CSV_BLOCK],
                                         values[k:k + _CSV_BLOCK]))
                fh.write(("%.17g,%.17g\n" * len(pairs))
                         % tuple(pairs.ravel().tolist()))
        finally:
            if own:
                fh.close()


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


def _slope_weights(r, n: int):
    """(A, B, C / h, D) of `_GreenSolve`: the integral of t^(n-1) times the
    spline over panel j is A_j s_j + B_j s_{j+1} + C_j m_j + D_j y_j."""
    w0, w1, w2, w3 = _panel_weights(r, n)
    h = np.diff(r)
    return (w0 / h ** 2 - 2.0 * w1 / h + w2, w0 / h ** 2 - w1 / h,
            (3.0 * w1 / h - 2.0 * w0 / h ** 2) / h, w3)


def weighted_cumulative(r, vals, n: int):
    """F(r_j) = integral from r_0 to r_j of t^(n-1) f(t) dt, with f the
    cubic spline of `vals` and the monomial weight integrated exactly per
    panel (binomial expansion about each panel's left node, so no
    cancellation). Uniformly fourth-order accurate; exact when the spline
    reproduces f."""
    return _integrate_panels(CubicSpline(r, vals).c, _panel_weights(r, n))


class _GreenSolve:
    """The part of `poisson_solve_ball` that depends only on the grid and n.

    Both integrals of the double-integral solve integrate not-a-knot cubic
    splines, and each running integral is taken straight from the spline's
    node slopes s, with no coefficient arrays.

    Slopes. With panel widths h_j and differences d_j = y_{j+1} - y_j, the
    slopes solve the tridiagonal system scipy's CubicSpline solves (de Boor,
    A Practical Guide to Splines, ch. IV): interior rows
    h_j s_{j-1} + 2 (h_{j-1} + h_j) s_j + h_{j-1} s_{j+1} = 3 (h_j d_{j-1} /
    h_{j-1} + h_{j-1} d_j / h_j), and two not-a-knot end rows, the first
    h_1 s_0 + (h_0 + h_1) s_1 = b_0 with b_0 a combination of d_0 and d_1.
    Dividing interior row j by h_{j-1} h_j makes it symmetric; eliminating
    s_0 = (b_0 - (h_0 + h_1) s_1) / h_1 turns row 1 into
    (1/h_0 + 1/h_1) s_1 + s_2 / h_1, and likewise at the far end. The
    remaining system in s_1..s_{N-2} is symmetric and diagonally dominant
    with a positive diagonal, so positive definite, and its LDL^T
    factorisation (LAPACK dpttrf) depends only on the nodes: it is computed
    once here. Every right-hand side row is a combination P_j d_{j-1} +
    Q_j d_j, the end rows included.

    Panels. On panel j, with x = t - r_j, the spline is the cubic Hermite
    interpolant of the node values and slopes; with m_j = d_j / h_j its
    coefficients, highest power first, are
    c0 = (s_j + s_{j+1} - 2 m_j)/h^2, c1 = (3 m_j - 2 s_j - s_{j+1})/h,
    c2 = s_j and c3 = y_j. Against the exact panel weights w0..w3 of x^(3-k)
    (`_panel_weights`) the panel integral sum_k c_k w_k regroups as
    A s_j + B s_{j+1} + C m_j + D y_j with

        A = w0/h^2 - 2 w1/h + w2,   B = w0/h^2 - w1/h,
        C = 3 w1/h - 2 w0/h^2,      D = w3,

    built once per grid and n for the inner integral of t^(n-1) f and for
    the outer plain antiderivative (n = 1). A is the integral of
    t^(n-1) x (h - x)^2 / h^2, about r_j^(n-1) h^2 / 12, while its largest
    term 2 w1/h is about 8 times that, so forming A loses about 3 bits.
    That error enters the panel integral as about eps r_j^(n-1) h^2 |s_j|,
    no larger than the rounding of the D y_j term, eps r_j^(n-1) h |y_j|,
    wherever h |s_j| <= |y_j|.

    A solve costs two tridiagonal back-substitutions and O(N) vector work,
    and holds O(N) memory.
    """

    def __init__(self, r, n: int):
        h = np.diff(r)
        d0, d1 = r[2] - r[0], r[-1] - r[-3]
        inv = 1.0 / h
        diag = 2.0 * (inv[:-1] + inv[1:])
        diag[0] = inv[0] + inv[1]
        diag[-1] = inv[-2] + inv[-1]
        *ldl, info = dpttrf(diag, inv[1:-1])
        if info != 0:
            raise GridError("spline slope system is singular on this grid")
        self._ldl = ldl
        # right-hand side rows P_j d_{j-1} + Q_j d_j: 3 / h_{j-1}^2 and
        # 3 / h_j^2 inside; row 1 is the first interior row minus the first
        # end row, divided by h_0 h_1, and row N-2 its mirror image
        self._p = 3.0 * inv[:-1] ** 2
        self._q = 3.0 * inv[1:] ** 2
        self._p[0] = h[1] / (d0 * h[0] ** 2)
        self._q[0] = (2.0 * h[0] + 3.0 * h[1]) / (d0 * h[1] ** 2)
        self._p[-1] = (2.0 * h[-1] + 3.0 * h[-2]) / (d1 * h[-2] ** 2)
        self._q[-1] = h[-2] / (d1 * h[-1] ** 2)
        # the end slopes from the not-a-knot rows: s_0 = a d_0 + b d_1 - c s_1
        # and s_{N-1} = a d_{N-3} + b d_{N-2} - c s_{N-2}
        self._first = ((h[0] + 2.0 * d0) / (d0 * h[0]),
                       h[0] ** 2 / (d0 * h[1] ** 2), d0 / h[1])
        self._last = (h[-1] ** 2 / (d1 * h[-2] ** 2),
                      (2.0 * d1 + h[-1]) / (d1 * h[-1]), d1 / h[-2])
        self._inner = _slope_weights(r, n)
        self._outer = _slope_weights(r, 1)
        self.r_pow = r ** (n - 1)
        # whether r^(n-1) f stays finite for every finite f
        self.pow_bounded = bool(self.r_pow.max() <= 1.0)
        # r^(1-n) for `solve`, whose grids start at the origin, where the
        # inner integral vanishes
        self._r_inv = np.zeros_like(r)
        self._r_inv[1:] = r[1:] ** (1 - n)

    def slopes(self, y):
        """(s, d): the node slopes s of the not-a-knot cubic spline of y
        (`CubicSpline(r, y)` has s[:-1] as its linear coefficients) and the
        differences d = diff(y)."""
        d = np.subtract(y[1:], y[:-1])
        s = np.empty_like(y)
        inner = s[1:-1]
        np.multiply(self._p, d[:-1], out=inner)
        inner += self._q * d[1:]
        # solved in place: the slopes overwrite their right-hand side
        dpttrs(*self._ldl, inner, overwrite_b=True)
        a, b, c = self._first
        s[0] = a * d[0] + b * d[1] - c * s[1]
        a, b, c = self._last
        s[-1] = a * d[-2] + b * d[-1] - c * s[-2]
        return s, d

    def _running(self, weights, y):
        """The integral from r_0 to every node of the weight times the
        spline of y, `weights` being that weight's (A, B, C / h, D)."""
        s, d = self.slopes(y)
        A, B, C, D = weights
        panel = d
        panel *= C
        panel += A * s[:-1]
        panel += B * s[1:]
        panel += D * y[:-1]
        out = np.empty_like(y)
        out[0] = 0.0
        np.add.accumulate(panel, out=out[1:])
        return out

    def cumulative(self, f):
        """int_{r_0}^{r_j} t^(n-1) f dt at every node r_j, with f the
        spline of its values: `weighted_cumulative` without a fresh
        spline."""
        return self._running(self._inner, f)

    def integral(self, f) -> float:
        """int_{r_0}^{r_N} t^(n-1) f dt, the last entry of `cumulative`."""
        return float(self.cumulative(f)[-1])

    def solve(self, f):
        """u(r_j) = int_{r_j}^R s^(1-n) int_0^s t^(n-1) f dt ds on a grid
        from the origin."""
        F = self._running(self._inner, f)
        F *= self._r_inv
        u = self._running(self._outer, F)
        np.subtract(u[-1], u, out=u)
        u[-1] = 0.0
        return u


def poisson_solve_ball(f: RadialField, R: float, n: int) -> RadialField:
    """Solve -Laplace u = f radially on the ball of radius R with u(R) = 0.

    Uses the exact double integral
        u(r) = int_r^R s^(1-n) int_0^s t^(n-1) f(t) dt ds
    with cubic-spline antiderivatives on the grid, so u is regular at the
    origin and vanishes at R by construction. The grid must run from 0 to
    R. The grid-only work is cached per grid and n (`RadialGrid.green`).
    """
    grid = f.grid
    if grid.r0 != 0.0:
        raise GridError(f"ball Green solve needs a grid from the origin, "
                        f"got r0={grid.r0:g}")
    if abs(grid.r_max - R) > 1e-9 * max(1.0, R):
        raise GridError(f"grid must end at the ball radius R={R:g}")
    green = grid.green(n)
    # a field's values are finite, so r^(n-1) f needs a check only where
    # r^(n-1) exceeds 1
    if not green.pow_bounded and not np.isfinite(green.r_pow * f.values).all():
        raise NonIntegrableSourceError("r^(n-1) f is unbounded on the grid")
    return RadialField.adopt(grid, green.solve(f.values))


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
    return RadialField(RadialGrid(nodes), values)
