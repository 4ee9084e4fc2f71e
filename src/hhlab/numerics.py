"""Shared numerical primitives.

Gauss-Legendre panel quadrature on graded meshes (for kernels with algebraic
endpoint singularities), Fornberg finite-difference stencils on nonuniform
grids (for the radial operators), and the `Check` record every certificate
is reported in.
"""

from __future__ import annotations

from functools import lru_cache
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


@lru_cache(maxsize=64)
def gauss_legendre(order: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_quadrature(breaks, order: int):
    """Gauss-Legendre nodes and weights for the panels defined by `breaks`.

    Returns flat arrays covering every panel [breaks[i], breaks[i+1]].
    """
    x, w = gauss_legendre(order)
    a = np.asarray(breaks, dtype=float)
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
    if growth <= 1.0:
        raise ValueError("growth must exceed 1")
    pts = [a]
    h = a * (growth - 1.0)
    while pts[-1] + h < b:
        pts.append(pts[-1] + h)
        h *= growth
    pts.append(b)
    return np.asarray(pts)


def fd_weights_batch(windows, x0, max_order: int = 2):
    """Fornberg weights for derivatives 0..max_order at many points at once.

    `windows` has shape (N, s): the stencil nodes for each evaluation point
    `x0[i]`. Returns an array (N, s, max_order+1) of weights. The recurrence
    is the classical one, vectorized over the N points.
    """
    X = np.asarray(windows, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    npts, s = X.shape
    c = np.zeros((npts, s, max_order + 1))
    c1 = np.ones(npts)
    c4 = X[:, 0] - x0
    c[:, 0, 0] = 1.0
    for i in range(1, s):
        mn = min(i, max_order)
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
        w = fd_weights_batch(xi, np.zeros(n), max_order=2)
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
