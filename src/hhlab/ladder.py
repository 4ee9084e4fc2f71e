"""Blow-up iteration ladder arithmetic.

The iteration
    l_{k+1} = C0 * l_k^p / (2 alpha_k p)^n,   alpha_{k+1} = 2 alpha_k p
drives spherical averages to infinity once the starting amplitude clears the
divergence threshold. Amplitudes grow doubly exponentially, so every
computation here runs in log space; linear values are exposed as properties
and overflow gracefully to inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .radial import HardyHenonParams


def default_alpha0(params: HardyHenonParams) -> float:
    """Starting exponent max{1, 2n/p}."""
    return max(1.0, 2.0 * params.n / params.p)


def geometry_constant(params: HardyHenonParams, M: float) -> float:
    """C0 = min{(1+M)^(-a), 1}, the re-center path geometry factor.

    For a <= 0 (no weight, or a Henon weight) (1+M)^(-a) >= 1, so C0 is
    exactly 1; the power is not formed, since it overflows for large M."""
    if not (math.isfinite(M) and M >= 0.0):
        raise ValueError(f"re-center path length M must be finite and "
                         f"nonnegative, got {M!r}")
    if params.a <= 0.0:
        return 1.0
    return min((1.0 + M) ** (-params.a), 1.0)


def _log_2p(p: float) -> float:
    """log(2p) as a sum of logs, finite where the product 2p overflows."""
    return math.log(2.0) + math.log(p)


@dataclass(frozen=True)
class LadderState:
    """State (k, l_k, alpha_k) of the iteration plus its fixed data.

    The amplitude is stored as log l_k; `l` materializes it (possibly inf).
    The exponent is kept twice: `alpha` is the float product
    alpha_0 (2p)^k, which turns inf once it leaves the float range (after
    about 510 steps at p = 2), and `log_alpha` is log alpha_k, which stays
    finite. log_alpha defaults to log(alpha).
    """

    k: int
    log_l: float
    alpha: float
    C0: float
    M: float
    params: HardyHenonParams
    log_alpha: float | None = None

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("step index must be nonnegative")
        if not math.isfinite(self.log_l):
            raise ValueError("log amplitude must be finite")
        if self.log_alpha is None:
            object.__setattr__(self, "log_alpha", math.log(self.alpha)
                               if self.alpha > 0.0 else math.nan)
        if not (self.alpha >= 1.0 and 0.0 <= self.log_alpha < math.inf):
            raise ValueError(f"exponent alpha must be >= 1 with a finite "
                             f"log, got {self.alpha!r} (log "
                             f"{self.log_alpha!r})")
        if not 0.0 < self.C0 <= 1.0:
            raise ValueError("C0 must lie in (0, 1]")
        if self.M < 0.0:
            raise ValueError("M must be nonnegative")

    @classmethod
    def initial(cls, l0: float, params: HardyHenonParams, M: float = 0.0,
                alpha0: float | None = None) -> "LadderState":
        if not (math.isfinite(l0) and l0 > 0.0):
            raise ValueError(f"starting amplitude l0 must be positive and "
                             f"finite, got {l0!r}")
        a0 = default_alpha0(params) if alpha0 is None else float(alpha0)
        return cls(0, math.log(l0), a0, geometry_constant(params, M), M,
                   params)

    @property
    def l(self) -> float:
        try:
            return math.exp(self.log_l)
        except OverflowError:
            return math.inf


def ladder_advance(s: LadderState) -> LadderState:
    """One ladder step, in log space. log alpha_{k+1} is the log of the
    product 2 alpha_k p while that is finite, and log alpha_k + log(2p)
    once it overflows."""
    n, p = s.params.n, s.params.p
    alpha = 2.0 * s.alpha * p
    log_alpha = math.log(alpha) if alpha < math.inf \
        else s.log_alpha + _log_2p(p)
    log_next = math.log(s.C0) + p * s.log_l - n * log_alpha
    return replace(s, k=s.k + 1, log_l=log_next, alpha=alpha,
                   log_alpha=log_alpha)


def ladder_advance_direct(s: LadderState) -> float:
    """The same step in plain arithmetic (for consistency checks only);
    returns inf once the amplitude leaves the floating range."""
    n, p = s.params.n, s.params.p
    try:
        return s.C0 * s.l ** p / (2.0 * s.alpha * p) ** n
    except OverflowError:
        return math.inf


def log_amplitude_bound(s0: LadderState, k: int) -> float:
    """A bound on |log l_j| for j = 0..k from s0, and on every partial sum
    `ladder_advance` forms on the way, in O(1) work:

        p^k (|log l_0| + (|log C0| + n log alpha_0) / (p - 1)
             + n p log(2p) / (p - 1)^2),

    the triangle inequality on each term of `ladder_closed_form`'s exact
    sum, whose geometric sums are at most p^k/(p - 1) and p^(k+1)/(p - 1)^2.
    inf where it leaves the float range. It holds to the rounding the
    recurrence amplifies, about k eps relative, and overestimates
    |log l_k| by the terms the sum cancels: from the default start at
    n = 4, p = 2, by a factor of about 34, or 5 steps of k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    n, p = s0.params.n, s0.params.p
    size = abs(s0.log_l) + (abs(math.log(s0.C0)) + n * s0.log_alpha
                            + n * (p / (p - 1.0)) * _log_2p(p)) / (p - 1.0)
    try:
        return p ** k * size
    except OverflowError:
        return math.inf


class ClosedFormBound(NamedTuple):
    """Closed-form amplitude after k steps: exact product and lower bound."""

    log_exact: float
    log_lower_bound: float


def ladder_closed_form(k: int, l0: float, s0: LadderState) -> ClosedFormBound:
    """Closed form of the k-th amplitude started from l0 at state s0's data.

    log_exact reproduces the recurrence exactly; log_lower_bound is the
    geometric-in-k lower bound
        l_k >= (2p)^(nk/(p-1)) * (C0^(1/(p-1)) l0 /
                ((2p)^(np/(p-1)^2) alpha0^(n/(p-1))))^(p^k)
    whose bracketed base is >= 1 exactly at the divergence threshold.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    n, p = s0.params.n, s0.params.p
    log_l0 = math.log(l0)
    log_c0 = math.log(s0.C0)
    log_2p = math.log(2.0 * p)
    log_a0 = math.log(s0.alpha)
    pk = p ** k
    geom = (pk - 1.0) / (p - 1.0)
    # sum_{j=1..k} j p^(k-j) = (p^(k+1) - p - k(p-1)) / (p-1)^2
    weight = (p ** (k + 1) - p - k * (p - 1.0)) / (p - 1.0) ** 2
    log_exact = geom * log_c0 + pk * log_l0 - n * weight * log_2p \
        - n * geom * log_a0
    base = log_c0 / (p - 1.0) + log_l0 \
        - n * p / (p - 1.0) ** 2 * log_2p - n / (p - 1.0) * log_a0
    log_lower = n * k / (p - 1.0) * log_2p + pk * base
    return ClosedFormBound(log_exact, log_lower)


def divergence_threshold(params: HardyHenonParams, M: float = 0.0) -> float:
    """Smallest starting amplitude that forces the ladder to diverge:

        max{(1+M)^(a/(p-1)), 1} * (2p)^(np/(p-1)^2) * alpha0^(n/(p-1)),

    with alpha0 = max{1, 2n/p}.
    """
    geometry_constant(params, M)   # rejects a bad M before log1p reads it
    n, p, a = params.n, params.p, params.a
    alpha0 = default_alpha0(params)
    try:
        growth = n * p / (p - 1.0) ** 2 * math.log(2.0 * p)
    except OverflowError:   # (p-1)^2 leaves the float range, p > ~1.3e154
        growth = n / (p - 1.0) * (p / (p - 1.0)) * _log_2p(p)
    log_t = max(a / (p - 1.0) * math.log1p(M), 0.0) + growth \
        + n / (p - 1.0) * math.log(alpha0)
    try:
        return math.exp(log_t)
    except OverflowError:
        return math.inf


def monomial_poisson_coefficient(beta: float, n: int) -> float:
    """Amplitude 1/((beta+2)(beta+n)) produced by one radial double
    integration of r^beta from the origin."""
    if beta <= -n:
        raise ValueError(f"beta must exceed -n = {-n}")
    if beta == -2.0 or beta == float(-n):
        raise ValueError("coefficient is singular at beta in {-2, -n}")
    return 1.0 / ((beta + 2.0) * (beta + n))


def ladder_table(s0: LadderState, k_max: int) -> list[tuple[int, float, float]]:
    """Rows (k, log l_k, alpha_k) for k = 0..k_max."""
    rows = [(s0.k, s0.log_l, s0.alpha)]
    s = s0
    for _ in range(k_max):
        s = ladder_advance(s)
        rows.append((s.k, s.log_l, s.alpha))
    return rows
