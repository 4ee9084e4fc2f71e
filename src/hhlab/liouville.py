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
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import IntegratorError
from .kernels import riesz_constant
from .numerics import surface_area
from .radial import (HardyHenonParams, RadialField, RadialGrid,
                     weighted_cumulative)
from .rk import (AdaptiveRK, LaneRK, StepRecord, float_powers,
                 hermite_crossing)

DEFAULT_BLOW_THRESHOLD = 1e8
DEFAULT_SIGN_TOL = 1e-10
# shooting from origin data starts at this radius, off the r = 0 singularity
DEFAULT_R0 = 1e-6
# DP5(4) error control of `shoot` and `scan`
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
        """Quadratic-growth coefficient u(r)/r^2 at the trajectory end
        (reported for survivors in place of an o(r^2) test)."""
        if self.end is None:
            return None
        r, u = self.end
        return u / r ** 2 if r > 0 else None


def _radial_rhs(params: HardyHenonParams):
    n, m, p, a = params.n, params.m, params.p, params.a
    nm1 = n - 1.0
    top_row = 2 * m - 1

    def rhs(r, y):
        # y = (u_0, u_0', ..., u_{m-1}, u_{m-1}'): u_i' = y[2i+1] and
        # u_i'' = -u_{i+1} - (n-1)/r u_i', with u_m read as r^(-a) u^p
        c = nm1 / r
        try:
            top = max(y[0], 0.0) ** p
        except OverflowError:   # float ** raises where numpy gives inf
            top = math.inf
        if a != 0.0:
            top *= r ** (-a)
        dy = y[1:]
        dy.append(-top - c * y[top_row])
        for i in range(1, top_row, 2):
            dy[i] = -dy[i] - c * y[i]
        return dy

    return rhs


def _lane_rhs(params: HardyHenonParams):
    """`_radial_rhs` for LaneRK: r holds one radius per lane and each row
    of y one lane's state, in the column layout of `_radial_rhs`. Each
    entry is computed by the same operations in the same order."""
    n, m, p, a = params.n, params.m, params.p, params.a
    nm1 = n - 1.0
    top_row = 2 * m - 1

    def rhs(r, y):
        c = nm1 / r
        top = float_powers(np.maximum(y[:, 0], 0.0), p)
        if a != 0.0:
            top *= float_powers(r, -a)
        dy = np.empty_like(y)
        dy[:, 0::2] = y[:, 1::2]
        dy[:, 1:top_row:2] = -y[:, 2::2] - c[:, None] * y[:, 1:top_row:2]
        dy[:, top_row] = -top - c * y[:, top_row]
        return dy

    return rhs


def taylor_start(init: Sequence[float], params: HardyHenonParams,
                 r0: float) -> np.ndarray:
    """Second-order Taylor state at r0 from origin values of the layers.

    Uses u_i''(0) = -u_{i+1}(0)/n from the regularized Laplacian; the top
    layer integrates its source r^(-a) u(0)^p explicitly, which requires
    a < 2 (for a >= 2 the source is not integrable at the origin).
    """
    n, m, p, a = params.n, params.m, params.p, params.a
    if a >= 2.0:
        raise ValueError("origin data requires a < 2; start from r0 > 0 "
                         "with an explicit state instead")
    init = np.asarray(init, dtype=float)
    if init.shape != (m,):
        raise ValueError(f"need {m} origin values, got shape {init.shape}")
    if not np.all(np.isfinite(init)):
        raise ValueError("origin values must be finite")
    y = np.empty(2 * m)
    for i in range(m - 1):
        y[2 * i] = init[i] - init[i + 1] * r0 ** 2 / (2.0 * n)
        y[2 * i + 1] = -init[i + 1] * r0 / n
    # at a huge p, u(0)^p overflows to inf and the top layer's start to
    # -inf: a sign loss at r0, not a fault
    with np.errstate(over="ignore"):
        f0 = max(init[0], 0.0) ** p
    y[2 * m - 2] = init[m - 1] - f0 * r0 ** (2.0 - a) / ((2.0 - a) * (n - a))
    y[2 * m - 1] = -f0 * r0 ** (1.0 - a) / (n - a)
    return y


def _check_run(r0: float, r_max: float, rtol: float, atol: float) -> None:
    """Reject a non-finite or empty radius span and non-positive
    tolerances before any integration starts."""
    for name, value in (("r0", r0), ("r_max", r_max), ("rtol", rtol),
                        ("atol", atol)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if r0 <= 0.0:
        raise ValueError("the starting radius r0 must be positive")
    if r_max <= r0:
        raise ValueError("r_max must exceed the starting radius")
    if rtol <= 0.0 or atol <= 0.0:
        raise ValueError("rtol and atol must be positive")


# An event is (r*, kind, layer): where and how a trajectory ends. Single
# shoots (`_classify`) and scan lanes (`_scan_lanes`) share these rules.

def _start_event(r0: float, y0, m: int):
    """The event of a classified start state that ends at r0, or None."""
    for j in range(0, 2 * m, 2):
        if y0[j] < -DEFAULT_SIGN_TOL:
            return r0, OutcomeKind.SIGN_LOSS, j // 2
    if abs(y0[0]) >= DEFAULT_BLOW_THRESHOLD:
        return r0, OutcomeKind.BLOW_UP, None
    return None


def _step_event(rec: StepRecord, sign_rows):
    """The event inside the accepted step `rec`, or None: a sign loss in a
    row of `sign_rows` or a blow-up of u, on the step's Hermite interpolant."""
    y1 = rec.y1
    events = []
    for j in sign_rows:
        if y1[j] < -DEFAULT_SIGN_TOL:
            t_star = hermite_crossing(rec, j, -DEFAULT_SIGN_TOL)
            events.append((t_star, OutcomeKind.SIGN_LOSS, j // 2))
    # amplitude blow-up terminates even in pure tracking mode
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


def _classify(params: HardyHenonParams, r0: float, y0: Sequence[float],
              r_max: float, rtol: float, atol: float, keep_trace: bool,
              classify: bool = True) -> ShootingOutcome:
    y0 = [float(v) for v in y0]
    sign_rows = range(0, 2 * params.m, 2) if classify else ()
    trace_r, trace_y = [r0], [y0]
    last = None     # the last accepted StepRecord

    def outcome(event):
        tr = ty = None
        if keep_trace:
            tr, ty = np.asarray(trace_r), np.asarray(trace_y)
            if tr.size > 600:
                keep = np.unique(np.linspace(0, tr.size - 1, 600).astype(int))
                tr, ty = tr[keep], ty[keep]
        end = (r0, y0[0]) if last is None else (last.t1, last.y1[0])
        return _outcome(event, r_max, end, tr, ty)

    if classify:
        event = _start_event(r0, y0, params.m)
        if event is not None:
            return outcome(event)

    def callback(rec: StepRecord):
        nonlocal last
        last = rec
        if keep_trace:
            trace_r.append(rec.t1)
            trace_y.append(rec.y1)
        return _step_event(rec, sign_rows)

    integ = AdaptiveRK(_radial_rhs(params), rtol=rtol, atol=atol)
    try:
        event = integ.integrate(r0, y0, r_max, step_callback=callback)
    except IntegratorError as exc:
        event = _failure_event(exc)
    return outcome(event)


def shoot_start(init: Sequence[float], params: HardyHenonParams,
                r_max: float) -> np.ndarray:
    """The Taylor start state of `shoot` at DEFAULT_R0, after its input
    checks: a finite span, m finite origin values, u(0) > 0."""
    _check_run(DEFAULT_R0, r_max, DEFAULT_RTOL, DEFAULT_ATOL)
    init = np.asarray(init, dtype=float)
    y0 = taylor_start(init, params, DEFAULT_R0)
    if init[0] <= 0.0:
        raise ValueError("origin value u(0) must be positive")
    return y0


def shoot(init: Sequence[float], params: HardyHenonParams, r_max: float,
          rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
          keep_trace: bool = True) -> ShootingOutcome:
    """Integrate outward from origin layer values and classify the fate."""
    _check_run(DEFAULT_R0, r_max, rtol, atol)
    y0 = shoot_start(init, params, r_max)
    return _classify(params, DEFAULT_R0, y0, r_max, rtol, atol, keep_trace)


def shoot_from(state: Sequence[float], r0: float, params: HardyHenonParams,
               r_max: float, rtol: float = DEFAULT_RTOL,
               atol: float = DEFAULT_ATOL, keep_trace: bool = True,
               classify: bool = True) -> ShootingOutcome:
    """Integrate from an explicit full state (u_i, u_i') at r0 > 0.

    With classify=False the trajectory runs to r_max regardless of sign
    changes (used to track reference profiles such as the singular
    power-law solution, which has sign-changing layers).
    """
    _check_run(r0, r_max, rtol, atol)
    y0 = np.asarray(state, dtype=float)
    if y0.shape != (2 * params.m,):
        raise ValueError(f"state must have length {2 * params.m}")
    if not np.all(np.isfinite(y0)):
        raise ValueError("state must be finite")
    return _classify(params, r0, y0, r_max, rtol, atol, keep_trace,
                     classify=classify)


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------

class ScanRecord(NamedTuple):
    init: tuple
    kind: str
    layer: Optional[int]
    r_star: float
    growth_fit: Optional[float]
    error: Optional[str]


@dataclass(frozen=True)
class ScanResult:
    params: HardyHenonParams
    r_max: float
    records: tuple

    @property
    def tally(self) -> dict:
        counts: dict = {k.value: 0 for k in OutcomeKind}
        counts["IntegratorFailure"] = 0
        for rec in self.records:
            if rec.error is not None:
                counts["IntegratorFailure"] += 1
            else:
                counts[rec.kind] += 1
        counts["cells"] = len(self.records)
        counts["all_positive_survivors"] = self.survivor_count
        return counts

    @property
    def survivor_count(self) -> int:
        return sum(1 for rec in self.records
                   if rec.kind == OutcomeKind.SURVIVED.value
                   and rec.error is None)

    def to_csv(self, fh) -> None:
        m = self.params.m
        cols = ",".join(f"init{i}" for i in range(m))
        fh.write(f"{cols},kind,layer,r_star,growth_fit\n")
        for rec in self.records:
            vals = ",".join(f"{v:.17g}" for v in rec.init)
            layer = "" if rec.layer is None else str(rec.layer)
            growth = "" if rec.growth_fit is None \
                else f"{rec.growth_fit:.17g}"
            kind = rec.kind if rec.error is None else "IntegratorFailure"
            fh.write(f"{vals},{kind},{layer},{rec.r_star:.17g},{growth}\n")


def _scan_record(init, out: ShootingOutcome) -> ScanRecord:
    growth = out.growth_fit() if out.kind is OutcomeKind.SURVIVED else None
    return ScanRecord(tuple(init), out.kind.value, out.layer_index,
                      out.r_star, growth, None)


def _scan_lanes(cells: np.ndarray, params: HardyHenonParams, r_max: float,
                rtol: float, atol: float) -> list:
    """The ScanRecord of every cell, as `shoot` would classify it alone.

    Cells whose Taylor start ends at r0 are recorded at once; the others
    are integrated together as the lanes of one LaneRK run, with the event
    rules of `_classify` applied to each lane."""
    r0 = DEFAULT_R0
    records = [None] * len(cells)
    lanes, starts = [], []
    for i, init in enumerate(cells):
        y0 = taylor_start(init, params, r0)
        event = _start_event(r0, y0, params.m)
        if event is None:
            lanes.append(i)
            starts.append(y0)
        else:
            records[i] = _scan_record(init, _outcome(event, r_max,
                                                     (r0, y0[0])))
    if not lanes:
        return records

    sign_rows = range(0, 2 * params.m, 2)

    def callback(t0, t1, y0, y1, f0, f1):
        # screen every lane at once; build a StepRecord only for those
        # where _step_event finds an event
        hit = np.flatnonzero((y1[:, 0::2] < -DEFAULT_SIGN_TOL).any(axis=1)
                             | (y1[:, 0] > DEFAULT_BLOW_THRESHOLD))
        return {k: _step_event(StepRecord(float(t0[k]), float(t1[k]),
                                          y0[k].tolist(), y1[k].tolist(),
                                          f0[k].tolist(), f1[k].tolist()),
                               sign_rows)
                for k in hit}

    integ = LaneRK(_lane_rhs(params), rtol=rtol, atol=atol)
    results, t, y = integ.integrate(r0, np.array(starts), r_max, callback)
    for k, i in enumerate(lanes):
        event = results[k]
        if isinstance(event, IntegratorError):
            try:
                event = _failure_event(event)
            except IntegratorError as exc:
                records[i] = ScanRecord(tuple(cells[i]), "IntegratorFailure",
                                        None, math.nan, None, str(exc))
                continue
        end = (float(t[k]), float(y[k, 0]))
        records[i] = _scan_record(cells[i], _outcome(event, r_max, end))
    return records


def scan_cells(init_axes: Sequence[Sequence[float]],
               params: HardyHenonParams, r_max: float) -> np.ndarray:
    """The (cells, m) origin data of `scan`, after its input checks: a
    finite span, m finite axes, u(0) > 0 in every cell."""
    _check_run(DEFAULT_R0, r_max, DEFAULT_RTOL, DEFAULT_ATOL)
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
         r_max: float, rtol: float = DEFAULT_RTOL,
         atol: float = DEFAULT_ATOL) -> ScanResult:
    """Classify every cell of the Cartesian grid of origin data.

    `init_axes` gives one array of origin values per layer; the inputs are
    checked up front (`scan_cells`). Each cell is classified as `shoot`
    would classify it; the cells that leave r0 are integrated together as
    lanes of one array (`_scan_lanes`). Individual integrator failures are
    recorded per cell, not raised.
    """
    _check_run(DEFAULT_R0, r_max, rtol, atol)
    cells = scan_cells(init_axes, params, r_max)
    return ScanResult(params, r_max,
                      tuple(_scan_lanes(cells, params, r_max, rtol, atol)))


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


def bubble_oracle(n: int, grid: Optional[RadialGrid] = None) -> RadialField:
    """The explicit entire profile (n(n-2))^((n-2)/4) (1+r^2)^(-(n-2)/2),
    solving -Lap u = u^((n+2)/(n-2)) in R^n."""
    if n < 3:
        raise ValueError("bubble profile requires n >= 3")
    if grid is None:
        grid = RadialGrid.uniform(0.0, 10.0, 10001)
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
    outer = CubicSpline(r, integrand).antiderivative()
    R_g = r[-1]
    direct = float(outer(R_g) - outer(r[0]))
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
