"""Embedded adaptive Runge-Kutta 5(4) stepper (Dormand-Prince pair).

Fifth-order propagation with fourth-order error estimate, PI-free step
control with rejection, and cubic Hermite dense output for event
localization: `hermite_crossing` runs safeguarded Newton on one
component's cubic, from the chord root, inside a sign-change bracket that
it closes to CROSSING_TOL (about 4 evaluations of the cubic where
bisection took about 40). Self-contained and independent of scipy, so the
shooting classifier does not share an integration path with the
solver-side oracles or with the scipy cross-check in the tests.

Two steppers share the step controller, reject an invalid rtol or atol at
construction, and read one statement of the tableau, `_STAGES`,
`_NEW_STATE` and `_ERROR`, so both add the same terms in the same order:

* `AdaptiveRK` integrates one trajectory. Its state is a short list of
  Python floats (2m = 2 to 8 components for the shooting problems), and
  every stage is written out as scalar arithmetic: at that size numpy's
  fixed cost per array operation is far larger than the floating-point
  work. `rhs(t, y)` takes and returns such lists. The whole integration
  loop is generated as straight-line code (`_loop_source`), the trial
  step inlined: the components are locals, each stage state and the error
  norm are unrolled, and the step controller's factor is written in, so a
  step pays no per-component `zip` or loop. The source is written by
  walking the tableau's rows, each coefficient a float literal. Every
  entry is the expression a loop over the components would evaluate, in
  the same order.

  A right-hand side or step callback may carry, as its own attribute
  `splice`, a fragment (template, names, values) that the loop runs in
  place of calling it; the names are bound to the values once per run.
  A slopes template reads the radius `{r}` and the state `{y[i]}` and
  assigns the slopes `{f[i]}`; an accepted-step template reads the step's
  end `{t1}`, its new state `{y1[i]}` and its StepRecord `{record}`, and
  a `return` in it stops the run with that value, as a callback's
  non-None value does. Any other callable, a wrapper too, is called.
  `Fragment.rhs` and `Fragment.callback` build the called form of a
  template, the function a wrapper calls, and attach the fragment to it,
  so each rule is stated once, as its template. A loop is compiled once
  per state dimension and pair of templates (`_LOOPS`), and reads
  MAX_STEPS and H_MIN_FACTOR as it runs.
  `integrate` starts the loop at t0 with the first step `_first_step`;
  `resume` starts it from any state, trial step and step count.
* `LaneRK` integrates many trajectories in lockstep, one row ("lane") of a
  (lanes, dim) array each. Every lane keeps its own t, h, step count and
  accept or reject decision, so each row follows the steps `AdaptiveRK`
  would take for it alone; one pass pays numpy's fixed costs once for all
  lanes. A pass allocates almost nothing: one workspace per lane count
  (`_LaneWork`, made at the first pass and after each compaction) holds
  the seven (lanes, dim) slope slots, the stage and trial states, and the
  six stage radii, which one broadcast `t + c h` fills. `rhs(t, y, out)`
  takes the lanes' radii (lanes,) and states (lanes, dim) and writes the
  slopes into the slot `out` it is given. Each stage state and the error
  norm are accumulated in place, term by term in the tableau's order,
  then scaled by h and added to y, which float `+` and `*` commuting
  makes the same value as `y + h * (sum)`. The arrays are column-major,
  so the reductions over a row run down contiguous columns. Accepted
  lanes take their new t, state and slope by `np.copyto(..., where=
  accept)`; when every lane accepts, the trial state and the k7 slot
  become the state and its slope by swapping references (FSAL), and
  nothing is copied. The step callback sees every lane and the accept
  mask, so it can screen all lanes with one set of numpy calls. Powers are
  `np.float_power` (`float_powers`), whose float64 loop calls the libm
  `pow` that float `**` calls, never numpy's vectorised `np.power`. So a
  lane's arithmetic is that of `AdaptiveRK`'s generated loop, operation
  for operation, and a lane ends exactly where `AdaptiveRK` ends alone.

  A pass costs the same numpy calls however few lanes are live, about as
  much as 22 to 34 steps of `AdaptiveRK`'s loop. So once LANE_HANDOFF or
  fewer lanes are live, `LaneRK` stops and hands each one back (`Resume`:
  its step and step count, with its t and state), and `AdaptiveRK.resume`
  finishes it alone, with the steps the lane would have taken: the
  result is the same on either side of the handoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import IntegratorError

# The Dormand-Prince 5(4) pair (Hairer, Norsett & Wanner, Table II.5.2),
# stated once for both steppers. Each sum is a tuple of (coefficient, index
# into the slopes k1, k2, ...) in the order the terms are added; the stages
# k2..k6 are taken at t + c h, c the first entry of their row.
_STAGES = ((1 / 5, ((1 / 5, 0),)),
           (3 / 10, ((3 / 40, 0), (9 / 40, 1))),
           (4 / 5, ((44 / 45, 0), (-56 / 15, 1), (32 / 9, 2))),
           (8 / 9, ((19372 / 6561, 0), (-25360 / 2187, 1),
                    (64448 / 6561, 2), (-212 / 729, 3))),
           (1.0, ((9017 / 3168, 0), (-355 / 33, 1), (46732 / 5247, 2),
                  (49 / 176, 3), (-5103 / 18656, 4))))
# the fifth-order weights give the new state; they are also row 7 of A, so
# the last slope k7 is taken at the new state and reused as the next step's
# first (FSAL)
_NEW_STATE = ((35 / 384, 0), (500 / 1113, 2), (125 / 192, 3),
              (-2187 / 6784, 4), (11 / 84, 5))
# the error weights: fifth- minus fourth-order weight of each slope
_ERROR = tuple((b - b4, i) for (b, i), b4 in zip(
    _NEW_STATE, (5179 / 57600, 7571 / 16695, 393 / 640, -92097 / 339200,
                 187 / 2100))) + ((-1 / 40, 6),)

# Step controller: h *= SAFETY err^EXPONENT after a step with scaled error
# err, clamped to [SHRINK_MIN, GROW_MAX]; an error of 0 grows h by GROW_MAX
# and a NaN error rejects the step and shrinks h by SHRINK_MIN; a trial
# state that is not finite is retried at RETRY times the step
_SAFETY, _EXPONENT = 0.9, -0.2
_SHRINK_MIN, _GROW_MAX = 0.2, 5.0
_RETRY = 0.25
MAX_STEPS = 500_000         # trial steps per trajectory, rejected included
H_MIN_FACTOR = 1e-14        # smallest step relative to |t|
# width relative to max(1, |t|) of the sign-change bracket that
# `hermite_crossing` closes around an event, by Newton's steps, a probe
# half this width past a converged one, or bisection
CROSSING_TOL = 1e-13
# live lanes at or below which LaneRK hands its lanes back (`Resume`).
# Warm on a 2.1 GHz Xeon vCPU, a pass over 4 to 48 lanes of a reference
# scan takes 124-143 us at 4 components and 125-157 us at 6, and a step of
# AdaptiveRK's loop with a scan's event screen 4.2 and 5.8 us: a pass costs
# about 22 to 34 such steps. A fresh process also compiles the handed-back
# tail's loop and radial rhs once (2-4 ms), whatever the value. The two
# reference scans, forked after import, differ at 16, 24 and 32 by less
# than their run-to-run spread, so the value stays
LANE_HANDOFF = 16


def _first_step(t: float, t_end: float) -> float:
    return min(1e-4 * max(abs(t), 1e-3), t_end - t)


def float_powers(base: np.ndarray, exponent: float) -> np.ndarray:
    """base ** exponent elementwise, as float `**` takes each one (inf where
    that overflows).

    `np.float_power`'s float64 loop calls libm `pow` on every element, the
    function float `**` and `math.pow` call. `np.power` is not used: its
    float64 loop is vectorised and rounds differently from `pow` in a few
    percent of cases, and lanes must compute what the float stepper
    computes. The two agree bit for bit on the domain used here: bases
    >= 0 (-0.0 included), inf or NaN, and a positive exponent wherever a
    base is 0. A negative base gives NaN where `**` gives a complex number,
    and 0 to a negative power gives inf where `**` raises. Floating-point
    warnings are left to the caller's `np.errstate`."""
    return np.float_power(base, exponent)


class Resume(NamedTuple):
    """A lane `LaneRK` handed back unfinished: its next trial step and the
    trial steps it has taken. `AdaptiveRK.resume` continues it."""

    h: float
    steps: int


def _integrator_error(message: str, t, y) -> IntegratorError:
    """An IntegratorError carrying the state (t, y) it stopped in."""
    exc = IntegratorError(message)
    exc.state = (float(t), [float(v) for v in y])
    return exc


@dataclass(slots=True)
class StepRecord:
    """One accepted step with endpoint slopes for dense evaluation."""

    t0: float
    t1: float
    y0: list
    y1: list
    f0: list
    f1: list


def hermite_crossing(rec: StepRecord, j: int, level: float) -> float:
    """Locate where component j of y(t) crosses `level` inside a step, by
    safeguarded Newton on the cubic Hermite interpolant of that component
    alone.

    Newton starts at the chord root of the step's endpoint values and steps
    with the cubic's derivative. Every evaluation moves one end of a
    bracket [lo, hi] whose ends lie on either side of `level`; a Newton
    step that would leave the bracket, or that is more than half the step
    before last, is replaced by bisection (`rtsafe`, Numerical Recipes
    9.4). Once a Newton step is shorter than the target width, the next
    point is a probe half that width past the Newton root, so that its
    evaluation closes the bracket around the root; a second probe in a row
    bisects instead. The bracket is done when it is CROSSING_TOL
    max(1, |t|) wide, and its midpoint is returned. Any input returns a
    time in [t0, t1] without raising, NaN data too."""
    # the step and the component's endpoint data, bound once per crossing
    t0 = lo = rec.t0
    hi = rec.t1
    h = hi - t0
    y0, y1, f0, f1 = rec.y0[j], rec.y1[j], rec.f0[j], rec.f1[j]
    dy = y1 - y0
    tol = CROSSING_TOL
    # the bracket's low end keeps the side of `level` it starts on
    low_side = y0 - level <= 0.0
    # start at the chord root, or at the middle where it is not inside
    s = (y0 - level) / -dy if dy != 0.0 else 0.5
    t = t0 + (s if 0.0 < s < 1.0 else 0.5) * h
    last = before = hi - lo     # the last two steps' lengths
    probe = False               # whether t is a probe
    for _ in range(200):
        # the Hermite basis at s = (t - t0) / h:
        # h00 = (1 + 2s)(1 - s)^2, h10 = s(1 - s)^2, h01 = s^2 (3 - 2s) and
        # h11 = s^2 (s - 1), and g = h00 y0 + h01 y1 + h (h10 f0 + h11 f1)
        s = (t - t0) / h
        q = (1 - s) ** 2
        ss = s * s
        g = (1 + 2 * s) * q * y0 + ss * (3 - 2 * s) * y1 \
            + h * (s * q * f0 + ss * (s - 1) * f1) - level
        if (g <= 0.0) == low_side:
            lo = t
        else:
            hi = t
        mid = 0.5 * (lo + hi)
        # the bracket is narrow relative to max(1, |mid|)
        if hi - lo <= (tol * mid if mid > 1.0 else
                       tol * -mid if mid < -1.0 else tol):
            return mid
        # dg/dt = 6 s (1 - s) (y1 - y0) / h + h10' f0 + h11' f1, with
        # h10' = (1 - s)(1 - 3s) and h11' = s (3s - 2); a zero slope steps
        # out of the bracket, and a NaN step, from a NaN g or slope, fails
        # every test below: both bisect
        slope = 6 * s * (1 - s) * dy / h + (1 - s) * (1 - 3 * s) * f0 \
            + s * (3 * s - 2) * f1
        step = g / slope if slope != 0.0 else hi - lo
        width = tol * t if t > 1.0 else tol * -t if t < -1.0 else tol
        new = t - step
        converged = abs(step) < width
        if converged:
            # probe half the width past Newton's root, away from t
            new += 0.5 * width if t == lo else -0.5 * width
        if not lo < new < hi or abs(step) > 0.5 * before \
                or converged and probe:
            # a step out of the bracket or one that shrinks too slowly
            # bisects, as does a second probe in a row: the cubic rounds
            # to one side of the level over a span wider than the probe
            new = mid
            step = 0.5 * (hi - lo)
            probe = False
        else:
            probe = converged
        before, last = last, abs(step)
        t = new
    return 0.5 * (lo + hi)


class _DormandPrince:
    """Right-hand side and checked tolerances of either stepper. Both read
    the module's step limits MAX_STEPS and H_MIN_FACTOR as they integrate."""

    def __init__(self, rhs: Callable, rtol: float, atol: float):
        for name, value in (("rtol", rtol), ("atol", atol)):
            if not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if rtol <= 0.0 or atol <= 0.0:
            raise ValueError("rtol and atol must be positive")
        self.rhs = rhs
        self.rtol = rtol
        self.atol = atol


def _indent(text: str, pad: int) -> list:
    """The lines of `text`, each indented by `pad` spaces."""
    return [" " * pad + line for line in text.splitlines()]


# the accepted-step template of a callback that is called with the record
_CALLED_ACCEPT = ("out = step_callback({record})\n"
                  "if out is not None:\n"
                  "    return out")


def _loop_source(dim: int, slopes: tuple, accept: tuple) -> str:
    """Source of `AdaptiveRK`'s integration loop for states of `dim` floats.

    `slopes` and `accept` are the (template, names) of the right-hand side
    and of the accepted-step code written in (module docstring); a slopes
    template None calls `rhs`. `run` binds the names, in order, to the
    values of `slope_env` and `accept_env`. It starts at (t, y) with the
    trial step h after `steps` trial steps, and takes the first slope at
    (t, y) itself.

    The stage sums, the new state and the error norm are written by
    walking the rows of `_STAGES`, `_NEW_STATE` and `_ERROR`, each
    coefficient as its `repr`, which parses back to the same float. The
    loop's components are locals `s_i` (state), `w_i` (stage state), `z_i`
    (new state) and `a_i`..`g_i`, `k_i` (slopes k1..k7, lettered by
    index); besides its arguments, its scalars are t1, r (a stage's time),
    h, err, ratio, v, x and steps. No whole vector's name has an
    underscore, so none can collide with a component at any dimension. A
    fragment assigns only its outputs and names of its own."""
    idx = range(dim)
    letters = "abcdegk"

    def names(letter):
        return [f"{letter}_{i}" for i in idx]

    def vec(letter):
        return "[" + ", ".join(names(letter)) + "]"

    def combo(terms, i):
        # `c * x_i + c' * y_i + ...` of the (coefficient, slope) terms
        return " + ".join(f"{coef!r} * {letters[j]}_{i}"
                          for coef, j in terms)

    template, slope_names = slopes
    if template is None:
        template = "[{}] = rhs({{r}}, [{}])".format(
            ", ".join(f"{{f[{i}]}}" for i in idx),
            ", ".join(f"{{y[{i}]}}" for i in idx))

    def slope(r, state, out, pad):
        return _indent(template.format(r=r, y=names(state), f=names(out)),
                       pad)

    record = (f"StepRecord(t, t1, {vec('s')}, {vec('z')}, {vec('a')}, "
              f"{vec('k')})")
    lines = ["def run(t, y, t_end, h, steps, atol, rtol, slope_env, "
             "accept_env):"]
    for env, bound in (("slope_env", slope_names), ("accept_env", accept[1])):
        if bound:
            lines.append(f"    {', '.join(bound)}, = {env}")
    lines += [f"    {vec('s')} = y",
              *slope("t", "s", "a", 4),
              "    while t < t_end:",
              "        if t_end - t < h:",
              "            h = t_end - t",
              "        if h < H_MIN_FACTOR * max(abs(t), 1e-30):",
              "            raise _integrator_error(",
              "                f\"step size underflow at r={t:.6g}\", t, "
              f"{vec('s')})"]
    for j, (c, terms) in enumerate(_STAGES, start=1):
        lines.append("        r = t + h" if c == 1.0 else
                     f"        r = t + {c!r} * h")
        lines += [f"        w_{i} = s_{i} + h * ({combo(terms, i)})"
                  for i in idx]
        lines += slope("r", "w", letters[j], 8)
    lines += [f"        z_{i} = s_{i} + h * ({combo(_NEW_STATE, i)})"
              for i in idx]
    finite = " and ".join(f"isfinite(z_{i})" for i in idx) or "True"
    lines += ["        r = t + h",
              *slope("r", "z", "k", 8),
              "        steps += 1",
              "        if steps > MAX_STEPS:",
              "            raise _integrator_error(\"step budget exhausted\", "
              f"t, {vec('s')})",
              f"        if not ({finite}):",
              "            h *= _RETRY",
              "            continue",
              "        err = 0.0"]
    for i in idx:
        lines += [f"        ratio = abs(h * ({combo(_ERROR, i)}))",
                  f"        v, x = abs(s_{i}), abs(z_{i})",
                  "        ratio /= atol + rtol * (v if v > x else x)",
                  "        if ratio > err or ratio != ratio:"
                  "   # a NaN sticks, and rejects",
                  "            err = ratio"]
    lines += ["        if err <= 1.0:",
              "            t1 = t + h",
              *_indent(accept[0].format(t1="t1", y1=names("z"),
                                        record=record), 12),
              "            t = t1",
              "            {} = {}".format(", ".join(names("s") + names("a")),
                                           ", ".join(names("z") + names("k"))),
              # the step controller's factor on h
              "        if err > 0.0:",
              f"            x = {_SAFETY!r} * err ** {_EXPONENT!r}",
              f"            h *= (x if x < {_GROW_MAX!r} else {_GROW_MAX!r}) "
              f"if x > {_SHRINK_MIN!r} else {_SHRINK_MIN!r}",
              "        else:",
              f"            h *= {_SHRINK_MIN!r} if err != err else "
              f"{_GROW_MAX!r}",
              "    return None"]
    return "\n".join(lines) + "\n"


_LOOPS: dict = {}   # (dim, slopes, accept) -> generated integration loop


def _fragment(fn) -> Optional[tuple]:
    """The fragment (template, names, values) that `fn` carries as its own
    attribute `splice`, or None. A wrapper, which has `__wrapped__`,
    carries none even where it copied the wrapped function's attributes:
    it is called."""
    attrs = getattr(fn, "__dict__", None)
    if attrs is None or "__wrapped__" in attrs:
        return None
    return attrs.get("splice")


_CALLED: dict = {}  # (signature, dim, template, names) -> factory


class Fragment(NamedTuple):
    """A template, the names it reads and the values a run binds them to
    (module docstring), with the builders of its called form."""

    template: str
    names: tuple
    values: tuple

    def rhs(self, dim: int) -> Callable:
        """`rhs(r, y)` of a slopes template on lists of `dim` floats."""
        f = [f"f_{i}" for i in range(dim)]
        return self._called("rhs(r, y)", "y", dim, lambda y: [
            self.template.format(r="r", y=y, f=f), f"return [{', '.join(f)}]"])

    def callback(self, dim: int) -> Callable:
        """`callback(rec)` of an accepted-step template on StepRecords of
        `dim` components: None unless the template returns."""
        return self._called("callback(rec)", "rec.y1", dim, lambda y: [
            self.template.format(t1="rec.t1", y1=y, record="rec")])

    def _called(self, signature: str, state: str, dim: int, body):
        # `signature` unpacks `state` into locals y_i and runs the lines
        # `body(y_i)`; the factory that binds the names is compiled once
        key = (signature, dim, self.template, self.names)
        build = _CALLED.get(key)
        if build is None:
            y = [f"y_{i}" for i in range(dim)]
            source = "\n".join([f"def build({', '.join(self.names)}):",
                                f"    def {signature}:",
                                f"        [{', '.join(y)}] = {state}",
                                *_indent("\n".join(body(y)), 8),
                                f"    return {signature.split('(')[0]}\n"])
            namespace = {}
            exec(compile(source, f"<{signature}, dim {dim}>", "exec"),
                 globals(), namespace)
            build = _CALLED[key] = namespace["build"]
        fn = build(*self.values)
        fn.splice = self
        return fn


class AdaptiveRK(_DormandPrince):
    """Adaptive Dormand-Prince 5(4) integrator with step rejection."""

    def integrate(self, t0: float, y0, t_end: float,
                  step_callback: Optional[Callable] = None):
        """Integrate from t0 to t_end.

        `step_callback(rec)` is invoked after every accepted step; returning
        a non-None value stops integration and that value is returned.
        Raises IntegratorError on step-size underflow or step budget
        exhaustion; the current state (t, y) is attached as `.state`.

        A right-hand side or callback that carries a fragment is written
        into the loop instead of called (module docstring); the loop is
        compiled once per state dimension and pair of fragments.
        """
        t0 = float(t0)
        return self.resume(t0, y0, t_end, _first_step(t0, t_end), 0,
                           step_callback)

    def resume(self, t: float, y, t_end: float, h: float, steps: int,
               step_callback: Optional[Callable] = None):
        """`integrate` continued from (t, y) after `steps` trial steps, with
        the trial step h: it takes the steps `integrate` would take from
        there and counts MAX_STEPS on from `steps`. A lane that `LaneRK`
        hands back (`Resume`) continues here exactly as `integrate` would
        have taken it alone."""
        y = [float(v) for v in y]
        rhs = self.rhs
        slopes = _fragment(rhs) or (None, ("rhs",), (rhs,))
        if step_callback is None:
            accept = ("", (), ())
        else:
            accept = _fragment(step_callback) or (
                _CALLED_ACCEPT, ("step_callback",), (step_callback,))
        key = (len(y), slopes[:2], accept[:2])
        run = _LOOPS.get(key)
        if run is None:
            namespace = {}
            exec(compile(_loop_source(*key),
                         f"<AdaptiveRK loop, dim {len(y)}>", "exec"),
                 globals(), namespace)
            run = _LOOPS[key] = namespace["run"]
        return run(float(t), y, t_end, float(h), steps, self.atol, self.rtol,
                   slopes[2], accept[2])


def _lane_increment(out, tmp, terms, k, hc):
    """out = hc * (c k[i] + c' k[i'] + ...) for the (c, i) of `terms`,
    accumulated in place left to right; tmp is scratch of out's shape."""
    (c, i), *rest = terms
    np.multiply(c, k[i], out=out)
    for c, i in rest:
        out += np.multiply(c, k[i], out=tmp)
    out *= hc
    return out


# the radii of the slopes k2..k7 relative to a step: t + c h with the c of
# each `_STAGES` row, then t + h for k7 at the new state (1.0 h is h)
_LANE_NODES = np.array([c for c, _ in _STAGES] + [1.0])[:, None]


class _LaneWork:
    """The scratch of one lane pass, sized for one lane count: seven
    column-major (lanes, dim) slope slots k1..k7, the stage state, a
    term of a sum and the trial state, and the (6, lanes) stage radii.
    Slot k1 is whatever array holds the lanes' current slope f (`_step`
    puts its f0 there); the right-hand side writes k2..k7 into theirs."""

    __slots__ = ("shape", "k", "stage", "term", "trial", "radii")

    def __init__(self, shape):
        self.shape = shape
        self.k = [np.empty(shape, order="F") for _ in range(7)]
        self.stage, self.term, self.trial = (np.empty(shape, order="F")
                                             for _ in range(3))
        self.radii = np.empty((len(_LANE_NODES), shape[0]))


class LaneRK(_DormandPrince):
    """The Dormand-Prince 5(4) stepper of `AdaptiveRK`, advancing the rows
    of a (lanes, dim) array in lockstep.

    `rhs(t, y, out)` takes the lanes' radii (lanes,) and states
    (lanes, dim) and writes their slopes into `out`, a (lanes, dim) slot
    of the pass's workspace; it must write nothing else and keep no
    reference to y or out, which are scratch that the next stage
    overwrites. The lane arrays are column-major (order "F"): each
    component's lanes are contiguous, so the reductions over a row (the
    error norm, the finiteness test) run down a few contiguous columns.
    One workspace (`_LaneWork`) serves every pass with the same number of
    live lanes; a new one is made only when that number changes."""

    _work = None

    def _workspace(self, shape) -> _LaneWork:
        """The workspace for lane arrays of `shape`, made when the shape
        differs from the last pass's."""
        work = self._work
        if work is None or work.shape != shape:
            work = self._work = _LaneWork(shape)
        return work

    def _step(self, t, y, h, f0):
        """One trial step of every lane: new states, their slopes and each
        lane's max-norm of the scaled error (NaN when any component is).

        The new states and slopes are the workspace's trial buffer and k7
        slot, valid until the next pass. Every sum is accumulated in place,
        then scaled by h and added to y. Float `+` and `*` commute exactly,
        so `(sum) * h + y` is the value `y + h * (sum)` takes, element for
        element, and the error norm is `AdaptiveRK`'s to the last bit."""
        rhs = self.rhs
        work = self._workspace(y.shape)
        k = work.k
        k[0] = f0
        acc, tmp = work.stage, work.term
        hc = h[:, None]
        # every stage's radius t + c h at once
        r = np.multiply(_LANE_NODES, h, out=work.radii)
        r += t
        for j, (_, terms) in enumerate(_STAGES, start=1):
            _lane_increment(acc, tmp, terms, k, hc)
            acc += y
            rhs(r[j - 1], acc, k[j])
        y1 = _lane_increment(work.trial, tmp, _NEW_STATE, k, hc)
        y1 += y
        rhs(r[-1], y1, k[6])
        ratio = _lane_increment(acc, tmp, _ERROR, k, hc)
        np.abs(ratio, out=ratio)
        # no weight of the new state or the error reads k2: its slot holds
        # |y1| for the scale
        scale = np.maximum(np.abs(y, out=tmp), np.abs(y1, out=k[1]), out=tmp)
        scale *= self.rtol
        scale += self.atol
        ratio /= scale
        return y1, k[6], ratio.max(axis=1)

    def integrate(self, t0: float, y0, t_end: float,
                  step_callback: Optional[Callable] = None):
        """Integrate every row of y0 from t0 to t_end.

        `step_callback(accept, t0, t1, y0, y1, f0, f1)` is invoked after
        every pass with every live lane's step: `accept` marks the lanes
        whose step was accepted, and (t0, y0, f0) to (t1, y1, f1) is each
        lane's step, meaningful where `accept` holds; the arrays are valid
        only during the call and must not be written. It returns a dict
        from row index (of an accepted lane) to a stop value for the lanes
        that stop there, or None when none does; a callback that screens
        all rows at once and looks closer only at the accepted rows the
        screen hits pays one set of numpy calls per pass. Lanes that stop,
        reach t_end or fail are dropped from the arrays. Once LANE_HANDOFF
        or fewer lanes are live, before a pass (before the first, when y0
        has that few rows), the run ends and hands each of them back
        unfinished: a pass costs numpy's fixed costs however few lanes it
        has, and `AdaptiveRK.resume` steps one lane for much less.

        Returns (results, t, y). results[i] is lane i's stop value, None
        when it reached t_end, the IntegratorError (step-size underflow
        or budget exhaustion, with `.state`) that ended it, or its `Resume`
        when it was handed back; t[i] and y[i] are its time and state after
        its last accepted step.
        """
        y = np.array(y0, dtype=float, ndmin=2, order="F")
        t = np.full(y.shape[0], float(t0))
        results = [None] * y.shape[0]
        t_out, y_out = t.copy(), y.copy()
        lane = np.arange(y.shape[0])
        h = np.full(lane.size, _first_step(float(t0), t_end))
        steps = 0     # every live lane takes one trial step per pass
        with np.errstate(all="ignore"):
            if lane.size > LANE_HANDOFF:
                f = self._workspace(y.shape).k[0]
                self.rhs(t, y, f)
            while lane.size > LANE_HANDOFF:
                np.minimum(h, t_end - t, out=h)
                # an underflowing lane fails before its step: the step is
                # taken with the others but neither counted nor accepted
                done = h < H_MIN_FACTOR * np.maximum(np.abs(t), 1e-30)
                for i in np.flatnonzero(done):
                    results[lane[i]] = _integrator_error(
                        f"step size underflow at r={t[i]:.6g}", t[i], y[i])
                y1, f1, err = self._step(t, y, h, f)
                steps += 1
                if steps > MAX_STEPS:
                    for i in np.flatnonzero(~done):
                        results[lane[i]] = _integrator_error(
                            "step budget exhausted", t[i], y[i])
                    done[:] = True
                finite = np.isfinite(y1).all(axis=1)
                accept = finite & (err <= 1.0)
                accept &= ~done
                t1 = t + h
                if step_callback is not None:
                    stops = step_callback(accept, t, t1, y, y1, f, f1)
                    for k, value in (stops or {}).items():
                        results[lane[k]] = value
                        done[k] = True
                if accept.all():
                    # every lane accepts: the trial state and k7 become the
                    # state and its slope, and the workspace takes the old
                    # arrays as its trial buffer and k7 slot
                    work = self._work
                    t, y, f, work.trial, work.k[6] = t1, y1, f1, y, f
                else:
                    np.copyto(t, t1, where=accept)
                    rows = accept[:, None]
                    np.copyto(y, y1, where=rows)
                    np.copyto(f, f1, where=rows)
                done |= t >= t_end
                h *= _lane_factors(err, finite)
                if done.any():
                    ended = lane[done]
                    t_out[ended], y_out[ended] = t[done], y[done]
                    keep = ~done
                    lane, t, h = lane[keep], t[keep], h[keep]
                    y = np.asfortranarray(y[keep])
                    f = np.asfortranarray(f[keep])
        for i, h_i in zip(lane.tolist(), h.tolist()):
            results[i] = Resume(h_i, steps)
        t_out[lane], y_out[lane] = t, y
        return results, t_out, y_out


def _lane_factors(err, finite):
    """The step controller's factor on h for every lane's scaled error, or
    RETRY where the trial state is not finite. Every lane's power is
    taken, with no gather of the positive errors: an error of 0 gives
    SAFETY 0 ** EXPONENT = inf, which the clamp reads as GROW_MAX, and a
    NaN error gives NaN, which `np.fmax` reads as SHRINK_MIN."""
    factor = float_powers(err, _EXPONENT)
    factor *= _SAFETY
    np.minimum(np.fmax(factor, _SHRINK_MIN, out=factor), _GROW_MAX,
               out=factor)
    return np.where(finite, factor, _RETRY)
