"""Numerical-evidence harness for the whole-space problem.

A radial shooting classifier integrates the first-order system equivalent to
the layer stack

    -Lap u_i = u_{i+1} (i < m-1),   -Lap u_{m-1} = u^p / r^a,

outward from origin data and classifies each trajectory: BlowUp, SignLoss of
some required-positive layer, or Survived to r_max. Scans over origin data
provide the empirical dichotomy (no all-positive survivors at critical or
super-critical order; the sub-critical bubble survives). The explicit bubble
profile and the kernel representation identity give independent validation
oracles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import IntegratorError
from .kernels import riesz_constant
from .numerics import surface_area
from .radial import (HardyHenonParams, RadialField, RadialGrid,
                     weighted_cumulative)
from .rk import (AdaptiveRK, Fragment, LaneRK, Resume, StepRecord,
                 float_powers, hermite_crossing)

DEFAULT_BLOW_THRESHOLD = 1e8
DEFAULT_SIGN_TOL = 1e-10
# shooting from origin data starts at this radius, off the r = 0 singularity
DEFAULT_R0 = 1e-6
# DP5(4) error control of every shooting run, read when the run builds its
# stepper
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
# below this amplitude a step-size underflow is an integrator fault, not a
# finite-radius blow-up
BLOWUP_AMPLITUDE_FLOOR = 1e6


class OutcomeKind(enum.Enum):
    BLOW_UP = "BlowUp"
    SIGN_LOSS = "SignLoss"
    SURVIVED = "Survived"


@dataclass(frozen=True)
class ShootingOutcome:
    """Classification of one outward radial trajectory.

    layer_index is 0 for u itself and i for the i-th iterated Laplacian.
    The optional trace holds the downsampled trajectory (radii and the full
    2m-dimensional state at accepted steps). `end` is (r, u) at the last
    accepted step, or at the start when the run ended there.
    """

    kind: OutcomeKind
    r_star: float
    layer_index: Optional[int] = None
    trace_r: Optional[np.ndarray] = None
    trace_y: Optional[np.ndarray] = None
    end: Optional[tuple] = None

    def growth_fit(self) -> Optional[float]:
        """Quadratic-growth coefficient u(r)/r^2 at the trajectory end,
        reported for survivors in place of an o(r^2) test; None for any
        other outcome."""
        if self.kind is not OutcomeKind.SURVIVED or self.end is None:
            return None
        r, u = self.end
        return u / r ** 2 if r > 0 else None


# the names the slopes template reads: n - 1, p, the weight's exponent -a,
# inf and `_weighted_power`
_SLOPE_NAMES = ("nm1", "p", "e", "inf", "weighted_power")


def _weighted_power(u: float, r: float, p: float, e: float) -> float:
    """The weighted source u^p r^e (u < 0 read as 0, u = -0.0 kept) where
    float `**` raises on a factor: inf in the place of the factor that
    overflows, as the lanes' numpy powers give it, except where that makes
    inf * 0 = NaN. There the product is taken in log space, exp(p ln u +
    e ln r) (inf past the float range), as `taylor_starts` takes it, and
    u = 0 gives its own 0^p."""
    v = 0.0 if u < 0.0 else u
    try:
        f = v ** p
    except OverflowError:
        f = math.inf
    try:
        w = r ** e
    except OverflowError:
        w = math.inf
    top = f * w
    if top == top:
        return top
    if v == 0.0:    # 0 * inf
        return f
    try:            # inf * 0, or 0 * inf at a u^p that underflows
        return math.exp(p * math.log(v) + e * math.log(r))
    except OverflowError:
        return math.inf


@cache
def _radial_slopes(m: int, weighted: bool) -> str:
    """Template of the slopes of the radial system for m layers, from
    which `_radial_rhs` builds its fragment.

    y = (u_0, u_0', ..., u_{m-1}, u_{m-1}'): u_i' = y[2i+1] and
    u_i'' = -u_{i+1} - (n-1)/r u_i', with u_m read as u^p, times the
    weight r^(-a) when `weighted` (`_weighted_power` where a factor leaves
    the float range). `{r}` is the radius, `{y[i]}` and `{f[i]}` are the
    names of the state's and the slopes' components."""
    dim = 2 * m
    power = "(0.0 if {y[0]} < 0.0 else {y[0]}) ** p"
    lines = ["c = nm1 / {r}",
             "try:",
             "    top = " + power + (" * {r} ** e" if weighted else ""),
             "except OverflowError:   # float ** raises where numpy gives inf",
             "    top = " + ("weighted_power({y[0]}, {r}, p, e)" if weighted
                           else "inf")]
    for i in range(0, dim - 2, 2):
        lines += ["{f[%d]} = {y[%d]}" % (i, i + 1),
                  "{f[%d]} = -{y[%d]} - c * {y[%d]}" % (i + 1, i + 2, i + 1)]
    lines += ["{f[%d]} = {y[%d]}" % (dim - 2, dim - 1),
              "{f[%d]} = -top - c * {y[%d]}" % (dim - 1, dim - 1)]
    return "\n".join(lines)


def _radial_rhs(params: HardyHenonParams):
    """The right-hand side `rhs(r, y)` of the first-order radial system on
    lists of 2m floats, built by `rk` from the unweighted or, where a != 0,
    the weighted slopes template; it carries the template as its fragment
    `splice`, so `AdaptiveRK` writes the slopes into its loop instead of
    calling it."""
    env = (params.n - 1.0, params.p, -params.a, math.inf, _weighted_power)
    return Fragment(_radial_slopes(params.m, params.a != 0.0), _SLOPE_NAMES,
                    env).rhs(2 * params.m)


def _lane_rhs(params: HardyHenonParams):
    """`_radial_rhs` for LaneRK: `rhs(r, y, out)` writes the slopes into
    `out`, where r holds one radius per lane and each row of y one lane's
    state, in the column layout of `_radial_rhs`. Each entry is computed by
    the same operations in the same order, u < 0 reads as 0 with u = -0.0
    kept, and a weighted source that is inf * 0 where a power of a finite
    factor overflowed (where float `**` raises) is `_weighted_power`'s.

    u_i'' = -u_{i+1} - c u_i' is formed in out as c u_i', negated, minus
    u_{i+1}: (-x) - y and (-y) - x are the same IEEE sum, -(x + y) rounded
    to nearest, signed zeros and NaN included, so the slope keeps the
    float right-hand side's bits with no temporary for -u_{i+1}."""
    nm1 = params.n - 1.0
    p, a = params.p, params.a

    def rhs(r, y, out):
        c = nm1 / r
        u = y[:, 0]
        base = np.where(u < 0.0, 0.0, u)
        top = float_powers(base, p)
        if a != 0.0:
            weight = float_powers(r, -a)
            top *= weight
            # inf * 0 = NaN where the power of a finite base or radius
            # overflowed (where float `**` raises): the float right-hand
            # side takes these lanes in log space. An infinite base or
            # radius gives its inf without raising, and stays NaN
            nan = np.isnan(top)
            if nan.any():
                nan &= (np.isinf(float_powers(base, p)) & np.isfinite(base)
                        | np.isinf(weight) & np.isfinite(r))
                for i in np.flatnonzero(nan).tolist():
                    top[i] = _weighted_power(float(u[i]), float(r[i]), p,
                                             -a)
        out[:, 0::2] = y[:, 1::2]
        # -(c u_i'), then minus u_{i+1}, with r^(-a) u^p in the place of u_m
        second = np.multiply(c[:, None], y[:, 1::2], out=out[:, 1::2])
        np.negative(second, out=second)
        np.subtract(second[:, :-1], y[:, 2::2], out=second[:, :-1])
        np.subtract(second[:, -1], top, out=second[:, -1])

    return rhs


def _check_origin_weight(params: HardyHenonParams) -> None:
    """Origin data needs an integrable source r^(-a) u(0)^p: a < 2."""
    if params.a >= 2.0:
        raise ValueError("origin data requires a < 2; start from r0 > 0 "
                         "with an explicit state, liouville.shoot_from")


def taylor_starts(cells, params: HardyHenonParams, r0: float) -> np.ndarray:
    """Second-order Taylor states at r0 of every row of `cells` (cells,
    m) of checked origin values, as one (cells, 2m) array.

    Uses u_i''(0) = -u_{i+1}(0)/n from the regularized Laplacian; the top
    layer integrates its source r^(-a) u(0)^p explicitly, which requires
    a < 2 (for a >= 2 the source is not integrable at the origin). u(0)^p
    is taken by `float_powers` (libm `pow` per cell, as float `**` takes
    it in the float right-hand side). Where u(0)^p overflows while r0^(2-a)
    underflows (a huge p with a strongly negative a), the product
    u(0)^p r0^(2-a) is inf * 0 = NaN; there, and only there, it is taken in
    log space, so every other start keeps the bits of the direct product.
    """
    n, m, p, a = params.n, params.m, params.p, params.a
    cells = np.asarray(cells, dtype=float)
    y = np.empty((len(cells), 2 * m))
    below, above, top = cells[:, :-1], cells[:, 1:], cells[:, -1]
    y[:, 0:-2:2] = below - above * r0 ** 2 / (2.0 * n)
    y[:, 1:-2:2] = -above * r0 / n
    # u(0) < 0 reads as 0, keeping u(0) = -0.0 as `_radial_rhs` does
    u0 = cells[:, 0]
    # at a huge p, u(0)^p overflows to inf and the top layer's start to
    # -inf: a sign loss at r0, not a fault
    with np.errstate(over="ignore", invalid="ignore"):
        f0 = float_powers(np.where(u0 < 0.0, 0.0, u0), p)
        sources = []
        for e in (2.0 - a, 1.0 - a):
            source = f0 * r0 ** e
            nan = np.isnan(source)
            if nan.any():
                source[nan] = np.exp(p * np.log(u0[nan]) + e * math.log(r0))
            sources.append(source)
    y[:, -2] = top - sources[0] / ((2.0 - a) * (n - a))
    y[:, -1] = -sources[1] / (n - a)
    return y


def _check_run(r0: float, r_max: float) -> None:
    """Reject a radius span that is not 0 < r0 < r_max < inf."""
    for name, value in (("r0", r0), ("r_max", r_max)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if r0 <= 0.0:
        raise ValueError("the starting radius r0 must be positive")
    if r_max <= r0:
        raise ValueError("r_max must exceed the starting radius")


# An event is (r*, kind, layer): where and how a trajectory ends. Single
# shoots (`_classify`) and scan lanes (`_scan_lanes`) share these rules.

def _start_event(r0: float, y0, m: int):
    """The event of a start state that ends at r0, or None."""
    for j in range(0, 2 * m, 2):
        if y0[j] < -DEFAULT_SIGN_TOL:
            return r0, OutcomeKind.SIGN_LOSS, j // 2
    if abs(y0[0]) >= DEFAULT_BLOW_THRESHOLD:
        return r0, OutcomeKind.BLOW_UP, None
    return None


def _step_event(rec: StepRecord):
    """The event inside the accepted step `rec`, or None: a sign loss of a
    layer or a blow-up of u, on the step's Hermite interpolant."""
    y1 = rec.y1
    events = []
    for j in range(0, len(y1), 2):
        if y1[j] < -DEFAULT_SIGN_TOL:
            t_star = hermite_crossing(rec, j, -DEFAULT_SIGN_TOL)
            events.append((t_star, OutcomeKind.SIGN_LOSS, j // 2))
    if y1[0] > DEFAULT_BLOW_THRESHOLD:
        t_star = hermite_crossing(rec, 0, DEFAULT_BLOW_THRESHOLD)
        events.append((t_star, OutcomeKind.BLOW_UP, None))
    # the earliest event wins; ties go to the lowest layer
    return min(events, key=lambda e: e[0]) if events else None


def _failure_event(exc: IntegratorError):
    """A step-size underflow or exhausted budget above the amplitude floor
    is a finite-radius blow-up; below it the fault is re-raised."""
    r_fail, y_fail = exc.state
    if abs(y_fail[0]) <= BLOWUP_AMPLITUDE_FLOOR:
        raise exc
    return r_fail, OutcomeKind.BLOW_UP, None


def _outcome(event, r_max: float, end: tuple, trace_r=None,
             trace_y=None) -> ShootingOutcome:
    """The outcome of a trajectory that ended on `event` (None: it reached
    r_max) with its last accepted (r, u) `end`."""
    r_star, kind, layer = (r_max, OutcomeKind.SURVIVED, None) \
        if event is None else event
    return ShootingOutcome(kind, r_star, layer, trace_r, trace_y, end)


# the names the accepted-step template reads
_ACCEPT_NAMES = ("trace_r", "trace_y", "floor", "blow", "step_event")


@cache
def _accept_source(m: int) -> str:
    """Template of `_track`'s accepted-step fragment for m layers: append
    the step to the trace, then screen the new state once, unrolled, for a
    sign loss or a blow-up; only a step the screen stops builds its record
    and asks `_step_event` for the event. `{t1}`, `{y1[i]}` and `{record}`
    are the step's end, its new state's components and its StepRecord."""
    state = ", ".join("{y1[%d]}" % i for i in range(2 * m))
    screen = " or ".join(["{y1[%d]} < floor" % j for j in range(0, 2 * m, 2)]
                         + ["{y1[0]} > blow"])
    return ("trace_r.append({t1})\n"
            "trace_y.append([" + state + "])\n"
            "if " + screen + ":\n"
            "    event = step_event({record})\n"
            "    if event is not None:\n"
            "        return event")


def _track(integ, m: int, r0: float, y0: list, r_max: float,
           resume: Optional[Resume] = None):
    """Integrate from (r0, y0) with `_step_event`'s rules written into the
    loop of `integ` (an AdaptiveRK), from the start or continuing a lane
    `resume`. Returns the event (None: r_max reached) and the trace: r0 and
    y0, then every accepted step. A failure below the amplitude floor is
    re-raised (`_failure_event`)."""
    trace_r, trace_y = [r0], [y0]
    # the step callback built from the template, with this run's thresholds
    callback = Fragment(_accept_source(m), _ACCEPT_NAMES,
                        (trace_r, trace_y, -DEFAULT_SIGN_TOL,
                         DEFAULT_BLOW_THRESHOLD, _step_event)).callback(2 * m)
    try:
        if resume is None:
            event = integ.integrate(r0, y0, r_max, step_callback=callback)
        else:
            event = integ.resume(r0, y0, r_max, *resume,
                                 step_callback=callback)
    except IntegratorError as exc:
        event = _failure_event(exc)
    return event, trace_r, trace_y


def _classify(params: HardyHenonParams, r0: float, y0: Sequence[float],
              r_max: float) -> ShootingOutcome:
    """The outcome from the state y0 at r0: the event of its start or of
    its run to r_max, with the trace downsampled to at most 600 points."""
    y0 = [float(v) for v in y0]
    event = _start_event(r0, y0, params.m)
    if event is None:
        integ = AdaptiveRK(_radial_rhs(params), rtol=DEFAULT_RTOL,
                           atol=DEFAULT_ATOL)
        event, trace_r, trace_y = _track(integ, params.m, r0, y0, r_max)
    else:
        trace_r, trace_y = [r0], [y0]
    end = (trace_r[-1], trace_y[-1][0])
    tr, ty = np.asarray(trace_r), np.asarray(trace_y)
    if tr.size > 600:
        keep = np.unique(np.linspace(0, tr.size - 1, 600).astype(int))
        tr, ty = tr[keep], ty[keep]
    return _outcome(event, r_max, end, tr, ty)


def shoot_cell(init: Sequence[float], params: HardyHenonParams,
               r_max: float) -> np.ndarray:
    """The (m,) origin values of `shoot`, after its input checks: a finite
    span, m origin values, a weight a < 2, finite values, u(0) > 0."""
    _check_run(DEFAULT_R0, r_max)
    init = np.asarray(init, dtype=float)
    if init.shape != (params.m,):
        raise ValueError(f"need {params.m} origin values, got shape "
                         f"{init.shape}")
    _check_origin_weight(params)
    if not np.isfinite(init).all():
        raise ValueError("origin values must be finite")
    if init[0] <= 0.0:
        raise ValueError("origin value u(0) must be positive")
    return init


def shoot(init: Sequence[float], params: HardyHenonParams,
          r_max: float) -> ShootingOutcome:
    """Integrate outward from origin layer values and classify the fate."""
    init = shoot_cell(init, params, r_max)
    y0 = taylor_starts(init[None], params, DEFAULT_R0)[0]
    return _classify(params, DEFAULT_R0, y0, r_max)


def shoot_from(state: Sequence[float], r0: float, params: HardyHenonParams,
               r_max: float) -> ShootingOutcome:
    """Integrate from an explicit full state (u_i, u_i') at r0 > 0 and
    classify it by `shoot`'s rules: from the Taylor start of origin data
    it gives `shoot`'s outcome, bit for bit. A reference profile with
    sign-changing layers, such as the singular power-law solution, is
    followed to r_max with `DEFAULT_SIGN_TOL` set to inf."""
    _check_run(r0, r_max)
    y0 = np.asarray(state, dtype=float)
    if y0.shape != (2 * params.m,):
        raise ValueError(f"state must have length {2 * params.m}")
    if not np.all(np.isfinite(y0)):
        raise ValueError("state must be finite")
    return _classify(params, r0, y0, r_max)


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------

class ScanRecord(NamedTuple):
    init: tuple
    kind: str
    layer: Optional[int]
    r_star: float
    growth_fit: Optional[float]


@dataclass(frozen=True)
class ScanResult:
    params: HardyHenonParams
    records: tuple

    @property
    def tally(self) -> dict:
        counts: dict = {k.value: 0 for k in OutcomeKind}
        counts["IntegratorFailure"] = 0
        for rec in self.records:
            counts[rec.kind] += 1
        counts["cells"] = len(self.records)
        counts["all_positive_survivors"] = counts[OutcomeKind.SURVIVED.value]
        return counts

    def to_csv(self, fh) -> None:
        m = self.params.m
        cols = ",".join(f"init{i}" for i in range(m))
        fh.write(f"{cols},kind,layer,r_star,growth_fit\n")
        for rec in self.records:
            vals = ",".join(f"{v:.17g}" for v in rec.init)
            layer = "" if rec.layer is None else str(rec.layer)
            growth = "" if rec.growth_fit is None \
                else f"{rec.growth_fit:.17g}"
            fh.write(f"{vals},{rec.kind},{layer},{rec.r_star:.17g},"
                     f"{growth}\n")


def _scan_record(init, out: ShootingOutcome) -> ScanRecord:
    return ScanRecord(tuple(init), out.kind.value, out.layer_index,
                      out.r_star, out.growth_fit())


def _scan_lanes(cells: np.ndarray, params: HardyHenonParams,
                r_max: float) -> list:
    """The ScanRecord of every cell, as `shoot` would classify it alone.

    Cells whose Taylor start ends at r0 are recorded at once; the others
    are integrated together as the lanes of one LaneRK run, with the event
    rules of `_classify` applied to each lane. The last few lanes (at most
    `rk.LANE_HANDOFF`, all of them when the scan has no more) are handed
    back by LaneRK and finished one by one in `AdaptiveRK`'s generated
    loop, with the same rules written in, from the lane's exact state, step
    size and step count: each ends where it would have ended as a lane."""
    r0 = DEFAULT_R0
    starts = taylor_starts(cells, params, r0)
    records = [None] * len(cells)
    lanes = []
    for i, start in enumerate(starts.tolist()):
        event = _start_event(r0, start, params.m)
        if event is None:
            lanes.append(i)
        else:
            records[i] = _scan_record(cells[i], _outcome(
                event, r_max, (r0, start[0])))
    if not lanes:
        return records

    def callback(accept, t0, t1, y0, y1, f0, f1):
        # screen every lane at once; build a StepRecord only for the
        # accepted lanes the screen hits, and ask _step_event about those
        hit = np.flatnonzero(accept & (
            (y1[:, 0::2] < -DEFAULT_SIGN_TOL).any(axis=1)
            | (y1[:, 0] > DEFAULT_BLOW_THRESHOLD)))
        return {k: _step_event(StepRecord(float(t0[k]), float(t1[k]),
                                          y0[k].tolist(), y1[k].tolist(),
                                          f0[k].tolist(), f1[k].tolist()))
                for k in hit.tolist()}

    integ = LaneRK(_lane_rhs(params), rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL)
    results, t, y = integ.integrate(r0, starts[lanes], r_max, callback)
    tail = None
    for k, i in enumerate(lanes):
        event = results[k]
        end = (float(t[k]), float(y[k, 0]))
        try:
            if isinstance(event, Resume):
                if tail is None:
                    tail = AdaptiveRK(_radial_rhs(params), rtol=DEFAULT_RTOL,
                                      atol=DEFAULT_ATOL)
                event, trace_r, trace_y = _track(
                    tail, params.m, end[0], y[k].tolist(), r_max, event)
                end = (trace_r[-1], trace_y[-1][0])
            elif isinstance(event, IntegratorError):
                event = _failure_event(event)
        except IntegratorError:
            records[i] = ScanRecord(tuple(cells[i]), "IntegratorFailure",
                                    None, math.nan, None)
            continue
        records[i] = _scan_record(cells[i], _outcome(event, r_max, end))
    return records


def scan_cells(init_axes: Sequence[Sequence[float]],
               params: HardyHenonParams, r_max: float) -> np.ndarray:
    """The (cells, m) origin data of `scan`, after its input checks: a
    finite span, a weight a < 2, m finite axes, u(0) > 0 in every cell."""
    _check_run(DEFAULT_R0, r_max)
    _check_origin_weight(params)
    axes = [np.asarray(ax, dtype=float) for ax in init_axes]
    if len(axes) != params.m:
        raise ValueError(f"need {params.m} axes, got {len(axes)}")
    if not all(np.all(np.isfinite(ax)) for ax in axes):
        raise ValueError("origin data axes must be finite")
    mesh = np.meshgrid(*axes, indexing="ij")
    cells = np.stack([g.ravel() for g in mesh], axis=1)
    if np.any(cells[:, 0] <= 0.0):
        raise ValueError("u(0) axis must be strictly positive")
    return cells


def scan(init_axes: Sequence[Sequence[float]], params: HardyHenonParams,
         r_max: float) -> ScanResult:
    """Classify every cell of the Cartesian grid of origin data.

    `init_axes` gives one array of origin values per layer, checked with
    the span up front (`scan_cells`). Each cell is classified as `shoot`
    would classify it; the cells that leave r0 are integrated together as
    lanes of one array (`_scan_lanes`). Individual integrator failures are
    recorded per cell, not raised.
    """
    cells = scan_cells(init_axes, params, r_max)
    return ScanResult(params, tuple(_scan_lanes(cells, params, r_max)))


def reference_axes(params: HardyHenonParams) -> list:
    """The reference scan grid, the CLI scan's default: u(0) in [0.1, 10],
    u1(0) in [-10, 10], 21 points each, higher layers pinned at 1."""
    axes = [np.linspace(0.1, 10.0, 21)]
    if params.m > 1:
        axes.append(np.linspace(-10.0, 10.0, 21))
    for _ in range(2, params.m):
        axes.append(np.array([1.0]))
    return axes


# ---------------------------------------------------------------------------
# Validation oracles
# ---------------------------------------------------------------------------

def bubble_amplitude(n: int) -> float:
    return (n * (n - 2.0)) ** ((n - 2.0) / 4.0)


def bubble_oracle(n: int, grid: RadialGrid) -> RadialField:
    """The explicit entire profile (n(n-2))^((n-2)/4) (1+r^2)^(-(n-2)/2),
    solving -Lap u = u^((n+2)/(n-2)) in R^n, on `grid`."""
    if n < 3:
        raise ValueError("bubble profile requires n >= 3")
    amp = bubble_amplitude(n)
    return RadialField(grid, amp * (1.0 + grid.nodes ** 2)
                       ** (-(n - 2.0) / 2.0))


class RepresentationCheck(NamedTuple):
    potential_at_0: float
    direct: float
    tail_fraction: float
    truncated: bool


def _tail_power_fit(r, f):
    """Power-law fit f ~ c r^(-q) over the outer 20% of the grid; returns
    (c, q) or None when the tail is zero or not decaying."""
    mask = r >= 0.8 * r[-1]
    rw, fw = r[mask], f[mask]
    fmax = np.max(np.abs(f))
    if fmax == 0.0 or np.max(np.abs(fw)) <= 1e-13 * fmax:
        return None
    if np.any(fw <= 0.0):
        return None
    slope, intercept = np.polyfit(np.log(rw), np.log(fw), 1)
    q = -slope
    c = math.exp(intercept)
    return c, q


def representation_check(f: RadialField, n: int) -> RepresentationCheck:
    """Two routes to the potential of a radial source at the origin.

    potential_at_0 integrates the kernel directly:
        R_{2,n} |S^(n-1)| * int r f(r) dr.
    direct solves -Lap u = f by whole-line radial integration normalized to
    decay at infinity and reads u(0). Truncation beyond the grid is handled
    by a power-law tail fit and reported as a fraction of the value.
    """
    if n < 3:
        raise ValueError("representation check requires n >= 3")
    r = f.grid.nodes
    vals = f.values
    if r[0] > 0.0:
        raise ValueError("source grid must start at the origin")

    const = riesz_constant(2.0, n) * surface_area(n)

    # the first-moment integral is the n = 2 case of the weighted cumulative
    potential = const * float(weighted_cumulative(r, vals, 2)[-1])

    F = weighted_cumulative(r, vals, n)
    integrand = np.empty_like(F)
    integrand[0] = 0.0
    integrand[1:] = F[1:] * r[1:] ** (1 - n)
    direct = float(weighted_cumulative(r, integrand, 1)[-1])
    R_g = r[-1]
    # exact remainder for a source supported inside the grid
    direct += float(F[-1]) * R_g ** (2 - n) / (n - 2)

    tail_pot = 0.0
    truncated = False
    fit = _tail_power_fit(r, vals)
    if fit is not None:
        c, q = fit
        if q <= 2.05 or abs(q - n) < 1e-6:
            truncated = True
        else:
            tail_pot = const * c * R_g ** (2.0 - q) / (q - 2.0)
            potential += tail_pot
            direct += c * R_g ** (2.0 - q) / (n - q) \
                * (1.0 / (q - 2.0) - 1.0 / (n - 2.0))

    scale = max(abs(potential), abs(direct))
    tail_fraction = abs(tail_pot) / scale if scale > 0.0 else 0.0
    if tail_fraction > 0.01:
        truncated = True
    return RepresentationCheck(potential, direct, tail_fraction, truncated)
