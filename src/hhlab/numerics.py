"""Shared numerical primitives.

Gauss-Legendre panel quadrature on graded meshes (for kernels with algebraic
endpoint singularities), Fornberg finite-difference stencils on nonuniform
grids (for the radial operators), the `Check` record every certificate is
reported in, and the problem coefficients `HardyHenonParams` every module
reads. It imports no scipy, so a command that needs only the coefficients
(`ladder`) loads none.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Any, NamedTuple

import numpy as np


class Check(NamedTuple):
    """One certificate: the claim's name and equation tag, the measured
    value, the bound it is held to, and the verdict."""

    name: str
    tag: str
    value: Any
    bound: Any
    ok: bool


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


@lru_cache(maxsize=64)
def gauss_legendre(order: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_quadrature(breaks, order):
    """Gauss-Legendre nodes and weights for the panels defined by `breaks`.

    Returns flat arrays covering every panel [breaks[i], breaks[i+1]].
    `order` is one Gauss order for every panel, or a sequence of one order
    per panel, whose rule is the concatenation of the one-panel rules; each
    run of panels of one order is formed at once.
    """
    a = np.asarray(breaks, dtype=float)
    if np.ndim(order) != 0:
        if len(order) != a.size - 1:
            raise ValueError(f"{len(order)} orders for {a.size - 1} panels")
        rules, start = [], 0
        for k, run in groupby(order):
            end = start + len(list(run))
            rules.append(panel_quadrature(a[start:end + 1], k))
            start = end
        return (np.concatenate([nodes for nodes, _ in rules]),
                np.concatenate([weights for _, weights in rules]))
    x, w = gauss_legendre(order)
    lo, hi = a[:-1], a[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def graded_breaks(a: float, b: float, n_panels: int, ratio: float,
                  toward: str = "start"):
    """Panel breakpoints on [a, b] geometrically refined toward one end.

    `ratio` in (0, 1) is the per-panel shrink factor approaching the refined
    end; the innermost panel touches the endpoint so that integrable
    singularities there are captured (Gauss nodes stay interior).
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    t = ratio ** np.arange(n_panels, -1, -1, dtype=float)
    t[0] = 0.0  # close the panel chain onto the refined endpoint
    if toward == "start":
        return a + (b - a) * t
    if toward == "end":
        return b - (b - a) * t[::-1]
    raise ValueError("toward must be 'start' or 'end'")


def geometric_breaks(a: float, b: float, growth: float):
    """Breakpoints from a to b with panel widths growing by `growth`."""
    if not 0.0 < a < b < np.inf:
        raise ValueError(f"need 0 < a < b < inf, got a={a!r}, b={b!r}")
    if not growth > 1.0:
        raise ValueError("growth must exceed 1")
    pts = [a]
    h = a * (growth - 1.0)
    while pts[-1] + h < b:
        pts.append(pts[-1] + h)
        h *= growth
    pts.append(b)
    return np.asarray(pts)


def fd_weights_batch(windows, x0):
    """Fornberg weights for derivatives 0, 1 and 2 at many points at once.

    `windows` has shape (N, s): the stencil nodes for each evaluation point
    `x0[i]`. Returns an array (N, s, 3) of weights. The recurrence is the
    classical one, vectorized over the N points.
    """
    X = np.asarray(windows, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    npts, s = X.shape
    c = np.zeros((npts, s, 3))
    c1 = np.ones(npts)
    c4 = X[:, 0] - x0
    c[:, 0, 0] = 1.0
    for i in range(1, s):
        mn = min(i, 2)
        c2 = np.ones(npts)
        c5 = c4
        c4 = X[:, i] - x0
        for j in range(i):
            c3 = X[:, i] - X[:, j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[:, i, k] = c1 * (k * c[:, i - 1, k - 1]
                                       - c5 * c[:, i - 1, k]) / c2
                c[:, i, 0] = -c1 * c5 * c[:, i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[:, j, k] = (c4 * c[:, j, k] - k * c[:, j, k - 1]) / c3
            c[:, j, 0] = c4 * c[:, j, 0] / c3
        c1 = c2
    return c


class DerivativeStencils:
    """First/second derivative operators on a fixed nonuniform grid.

    Width-point stencils (centered in the interior, shifted at the ends),
    built once per grid and applied by vectorized gathers. Width 5 gives
    fourth-order interior accuracy; wider stencils trade truncation error
    against round-off amplification.
    """

    def __init__(self, nodes, width: int = 5):
        if width < 3 or width % 2 == 0:
            raise ValueError("stencil width must be odd and >= 3")
        self.width = width
        r = np.asarray(nodes, dtype=float)
        n = r.size
        if n < width:
            raise ValueError(f"need at least {width} nodes, got {n}")
        half = width // 2
        start = np.clip(np.arange(n) - half, 0, n - width)
        self.idx = start[:, None] + np.arange(width)[None, :]
        # build the weights in locally scaled coordinates so the recurrence
        # works with O(1) quantities; this keeps the weight round-off at the
        # eps/h^k floor instead of amplifying it
        windows = r[self.idx]
        scale = (windows[:, -1] - windows[:, 0]) / (width - 1)
        xi = (windows - r[:, None]) / scale[:, None]
        w = fd_weights_batch(xi, np.zeros(n))
        self.w1 = w[:, :, 1] / scale[:, None]
        self.w2 = w[:, :, 2] / scale[:, None] ** 2

    def first(self, values):
        # weights sum to zero, so differencing against the evaluation node's
        # value removes the dominant round-off term w_sum * f(x0)
        rel = values[self.idx] - values[:, None]
        return np.einsum("ij,ij->i", self.w1, rel)

    def second(self, values):
        rel = values[self.idx] - values[:, None]
        return np.einsum("ij,ij->i", self.w2, rel)


def surface_area(n: int) -> float:
    """|S^(n-1)|, the surface measure of the unit sphere in R^n."""
    from math import gamma, pi
    return 2.0 * pi ** (n / 2.0) / gamma(n / 2.0)


def ball_volume(n: int, radius: float = 1.0) -> float:
    from math import gamma, pi
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0) * radius ** n


def sin_power_integral(n: int) -> float:
    """Integral of sin(theta)^(n-2) over [0, pi]."""
    from math import gamma, pi, sqrt
    return sqrt(pi) * gamma((n - 1) / 2.0) / gamma(n / 2.0)
