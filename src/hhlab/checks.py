"""Certificate registry: one function per claim of the paper.

Each function computes the evidence for one claim and returns `Check`s
(name, equation tag, value, bound, verdict). A check's bound or tag is
written only here and in `navier.build_certificates`, whose six checks
(`fixed-point-residual` to `radial-monotonicity`) every Navier solution
carries; the subcommands and `report` call these and serialise the result.

Package functions are reached through their modules (`K.riesz_compose_check`,
not an imported name), so that a tracer which rebinds them sees every call.
Only `kernels` is imported at module level: it is all `kernels-selftest`
needs. `liouville`, `navier` and `radial` each load scipy (`liouville`
through `radial`), and `ladder` is needed by few checks, so the functions
that call them import them. Such an import binds the module object, not its
functions, so the tracer still sees every call.

The composition checks of a sample are independent, so `composition_sample`
spreads them over the CPUs the process may use: contiguous chunks of at
least `MIN_CHUNK` checks, the first in process and each other one in a
child made with `os.fork`, which sends its (lhs, rhs) pairs, or the
exception its chunk raised, back through a pipe. A smaller sample, a
single CPU, a platform without `os.fork` or a running Python thread keeps
every check in process. Either way the values, their order and the first
error are those of one loop over the sample. A traced call made in a
worker is not seen by the tracer of the parent.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import kernels as K
from .errors import AmplitudeRangeError
from .numerics import Check, HardyHenonParams

if TYPE_CHECKING:
    from . import ladder as L
    from . import liouville as LV
    from . import navier as NV

CONSTANT_TOL = 1e-12        # Riesz constants, Green symmetry
GREEN_BOUNDARY_TOL = 1e-9   # |G| next to the sphere
COMPOSITION_TOL = 1e-2      # relative gap of the composition identity
MONOMIAL_TOL = 1e-6         # u(0) of one double integration of r^beta
THRESHOLD_TOL = 1e-3        # divergence threshold against 2^24
LADDER_TOL = 1e-9           # recurrence vs closed form, relative in log space
LADDER_ROWS = 13            # ladder rows k = 0..12 held to the closed form
SINGULAR_REL = 1e-5         # FD residual of C r^(-sigma), relative to C^p
EIGEN_REL = 2e-3            # lambda1 against the Bessel oracle
REPRESENTATION_TOL = 1e-3   # bubble potential at 0 against 2 sqrt(2)
# fewest composition checks a forked worker takes: a fork costs about
# 1-2 ms and one check about 0.2-0.3 ms
MIN_CHUNK = 16


def riesz_constants() -> list:
    """eq:2c1 and eq:2c26: R_{2,4} = 1/(4 pi^2) and R_{4,5} = 1/(16 pi^2)."""
    checks = []
    for alpha, n, exact, tag in ((2, 4, 1.0 / (4 * math.pi ** 2), "eq:2c1"),
                                 (4, 5, 1.0 / (16 * math.pi ** 2),
                                  "eq:2c26")):
        c = K.riesz_constant(alpha, n)
        checks.append(Check(f"riesz-constant-{alpha}-{n}", tag, c, exact,
                            abs(c - exact) < CONSTANT_TOL))
    return checks


def green_ball() -> list:
    """eq:Green on the unit ball of R^4: G(x, y) = G(y, x), and G vanishes
    next to the boundary sphere."""
    x = np.array([0.2, -0.1, 0.05, 0.3])
    y = np.array([-0.25, 0.4, 0.1, 0.0])
    sym = abs(K.green_ball(x, y, 1.0, 4) - K.green_ball(y, x, 1.0, 4))
    edge = K.green_ball(x, 0.999999999999 * np.array([1.0, 0.0, 0.0, 0.0]),
                        1.0, 4)
    return [Check("green-symmetry", "eq:Green", sym, CONSTANT_TOL,
                  sym < CONSTANT_TOL),
            Check("green-boundary", "eq:Green", edge, GREEN_BOUNDARY_TOL,
                  abs(edge) < GREEN_BOUNDARY_TOL)]


def composition_sample(rng, per_n: int) -> list:
    """Quadrature gaps of the composition identity at `per_n` random draws
    for each of n = 4, 5. Orders are drawn by rejection until
    1 <= alpha1 + alpha2 <= n - 0.4, then x and z in [-2, 2]^n; the draw
    order fixes the sample for a seed. Every draw is made before the first
    check, which reads no randomness, and the checks are spread over the
    CPUs the process may use (`_compose_all`)."""
    configs = []
    for n in (4, 5):
        for _ in range(per_n):
            while True:
                a1 = float(rng.uniform(0.5, n - 1.1))
                a2 = float(rng.uniform(0.5, n - 1.1))
                if 1.0 <= a1 + a2 <= n - 0.4:
                    break
            x = rng.uniform(-2.0, 2.0, n)
            z = rng.uniform(-2.0, 2.0, n)
            configs.append((a1, a2, x, z, n))
    return [{"n": n, "alpha1": a1, "alpha2": a2,
             "distance": float(np.linalg.norm(x - z)),
             "rel_gap": abs(lhs / rhs - 1.0)}
            for (a1, a2, x, z, n), (lhs, rhs)
            in zip(configs, _compose_all(configs))]


def _compose_chunk(configs: list) -> list:
    return [K.riesz_compose_check(*config) for config in configs]


def _worker_count(checks: int) -> int:
    """One worker per CPU the process may use, each with at least
    MIN_CHUNK checks; 1 where `os.fork` is missing or another Python
    thread runs, whose state, locks included, a child would copy without
    the thread."""
    threading = sys.modules.get("threading")
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or \
            (threading is not None and threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), checks // MIN_CHUNK)


def _compose_all(configs: list) -> list:
    """`K.riesz_compose_check` of each (alpha1, alpha2, x, z, n), in order.

    Below two workers the checks run in process. Otherwise the meshes are
    built first, so that every worker inherits them; the configurations
    are cut into one contiguous chunk per worker, chunk 0 runs here and
    each later one in a forked worker (`_fork_chunk`). Every worker is read
    and reaped before this returns or raises, and a chunk whose worker
    could not be forked or sent nothing runs here. The first chunk's error
    is raised, so the pairs and the error are those of one loop."""
    workers = _worker_count(len(configs))
    if workers < 2:
        return _compose_chunk(configs)
    for n in sorted({config[4] for config in configs}):
        K.prepare_composition(n)
    edges = [len(configs) * i // workers for i in range(workers + 1)]
    chunks = [configs[lo:hi] for lo, hi in zip(edges, edges[1:])]
    forked = []
    try:
        for chunk in chunks[1:]:
            forked.append(_fork_chunk(chunk))
        pairs = _compose_chunk(chunks[0])
    finally:
        sent = _collect(forked)
    for chunk, data in zip(chunks[1:], sent):
        outcome = _compose_chunk(chunk) if data is None else \
            pickle.loads(data)
        if isinstance(outcome, Exception):
            raise outcome
        pairs += outcome
    return pairs


def _fork_chunk(chunk: list):
    """Fork a worker that evaluates `chunk` and writes its pairs, or the
    exception the chunk raised, pickled, to a pipe; (pid, read end), or
    None when the fork fails."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        # the worker ends here and never returns into the caller's stack;
        # os._exit skips the parent's exit handlers and stdio buffers
        status = 1
        try:
            os.close(read)
            try:
                outcome = _compose_chunk(chunk)
            except Exception as exc:    # raised in the parent, in order
                outcome = exc
            with open(write, "wb") as fh:
                pickle.dump(outcome, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _collect(forked: list) -> list:
    """Read each worker's pipe to its end and reap the worker; the bytes it
    sent, or None for a worker that was not forked or ended without
    sending."""
    sent = []
    for worker in forked:
        if worker is None:
            sent.append(None)
            continue
        pid, read = worker
        try:
            with open(read, "rb") as fh:
                data = fh.read()
        finally:
            status = os.waitpid(pid, 0)[1]
        sent.append(data if status == 0 else None)
    return sent


def riesz_composition(gaps: list) -> Check:
    """eq:2c26: R_{a1} * R_{a2} = R_{a1+a2}, worst gap of a sample."""
    worst = max(g["rel_gap"] for g in gaps)
    return Check("riesz-composition", "eq:2c26", worst, COMPOSITION_TOL,
                 worst < COMPOSITION_TOL)


def monomial_coefficient() -> Check:
    """eq:2-31: one radial double integration of r^beta on the unit ball
    has u(0) = 1/((beta+2)(beta+n))."""
    from . import ladder as L
    from . import navier as NV
    from . import radial as RD
    grid = RD.RadialGrid.graded(0.0, 1.0, NV.DEFAULT_NODES)
    worst = 0.0
    for beta, n in ((0.0, 4), (2.5, 4), (8.0, 6)):
        f = RD.RadialField.from_function(grid, lambda r: r ** beta)
        u = RD.poisson_solve_ball(f, 1.0, n)
        worst = max(worst, abs(u.values[0]
                               - L.monomial_poisson_coefficient(beta, n)))
    return Check("monomial-coefficient", "eq:2-31", worst, MONOMIAL_TOL,
                 worst < MONOMIAL_TOL)


def divergence_threshold() -> Check:
    """eq:2-29 at n = 4, p = 2, a = 0, M = 0: alpha0 = 4 and the threshold
    (2p)^(np/(p-1)^2) alpha0^(n/(p-1)) = 4^8 4^4 = 2^24."""
    from . import ladder as L
    thr = L.divergence_threshold(HardyHenonParams(4, 2, 0.0, 2.0), 0.0)
    return Check("divergence-threshold", "eq:2-29", thr, 16777216.0,
                 abs(thr - 16777216.0) < THRESHOLD_TOL)


def ladder_recurrence(s0: L.LadderState, l0: float, rows: list) -> Check:
    """eq:2-38: the first LADDER_ROWS rows (k, log l_k, alpha_k) of the
    recurrence from s0 against the closed form started at l0."""
    from . import ladder as L
    worst = 0.0
    for k, log_l, _ in rows[:LADDER_ROWS]:
        cf = L.ladder_closed_form(k, l0, s0)
        worst = max(worst, abs(cf.log_exact - log_l) / max(1.0, abs(log_l)))
    return Check("recurrence-vs-closed-form", "eq:2-38", worst, LADDER_TOL,
                 worst < LADDER_TOL)


def threshold_divergence(params: HardyHenonParams, l0: float,
                         threshold: float, rows: list) -> list:
    """eq:2-40: from l0 at or above the threshold, every row keeps
    log l_k >= nk/(p-1) log(2p). No claim below the threshold."""
    if l0 < threshold:
        return []
    n, p = params.n, params.p
    diverge = all(log_l >= n * k / (p - 1) * math.log(2 * p)
                  - LADDER_TOL * max(1.0, abs(log_l))
                  for k, log_l, _ in rows)
    return [Check("threshold-divergence", "eq:2-40", rows[-1][1], "growing",
                  diverge)]


def singular_solution(params: HardyHenonParams):
    """remark:1.2: the exact solution C r^(-sigma), by a 7-point FD residual
    of (-Lap)^m u - u^p/r^a on [0.5, 2], against SINGULAR_REL C^p.

    Returns None when no such solution exists, else (sigma, C, u, check).
    Raises AmplitudeRangeError when u or the right side would leave the
    float range on the grid [0.45, 2.05]."""
    from . import radial as RD
    found = RD.singular_solution(params)
    if found is None:
        return None
    sigma, C = found
    grid = RD.RadialGrid.uniform(0.45, 2.05, 401)
    log_c = math.log(C)
    power = -sigma * params.p - params.a
    for log_amp, exponent in ((log_c, -sigma), (params.p * log_c, power)):
        top = max(log_amp + exponent * math.log(r)
                  for r in (grid.r0, grid.r_max))
        if top > RD.LOG_HUGE:
            raise AmplitudeRangeError(
                f"singular profile term exp({top:.6g}) is outside the "
                f"float range on [{grid.r0:g}, {grid.r_max:g}]")
    u = RD.RadialField.from_function(grid, lambda r: C * r ** -sigma)
    op = RD.polyharmonic_apply(u, params.n, params.m, width=7)
    rhs = C ** params.p * grid.nodes ** power
    window = (grid.nodes >= 0.5) & (grid.nodes <= 2.0)
    residual = float(np.max(np.abs(op.values - rhs)[window]))
    bound = SINGULAR_REL * C ** params.p
    return sigma, C, u, Check("pde-residual", "remark:1.2", residual, bound,
                              residual < bound)


def bessel_oracle(problem: NV.NavierProblem) -> float:
    """First Navier eigenvalue of (-Lap)^m on the ball, (j/R)^(2m) with j
    the first zero of J_{n/2-1}."""
    from . import navier as NV
    n, m = problem.params.n, problem.params.m
    return NV.first_dirichlet_eigenvalue_oracle(n, problem.R) ** m


def eigenvalue_vs_bessel(lambda1: float, oracle: float) -> Check:
    """lemma:3.1: the computed first eigenvalue against the Bessel oracle."""
    rel = abs(lambda1 / oracle - 1.0)
    return Check("eigenvalue-vs-bessel", "lemma:3.1", rel, EIGEN_REL,
                 rel < EIGEN_REL)


def torsion_bound(problem: NV.NavierProblem) -> Check:
    """eq:4-9: the torsion function stays below diam^2/(2n)."""
    from . import navier as NV
    h = NV.torsion_function(problem)
    return Check("torsion-bound", "eq:4-9", float(np.max(h.values)),
                 problem.torsion_cap, NV.torsion_bound_check(h, problem))


def scan_survivors(result: LV.ScanResult) -> list:
    """thm:1.1: at critical and super-critical order no scanned origin
    datum survives with every layer positive. The value counts the cells
    that may survive: the survivors, and the cells whose integration
    failed, which show nothing, so a scan with a failed cell fails. No
    claim at sub-critical order."""
    if result.params.order_class not in ("critical", "super-critical"):
        return []
    tally = result.tally
    open_cells = tally["all_positive_survivors"] + tally["IntegratorFailure"]
    return [Check("no-all-positive-survivors", "thm:1.1", open_cells, 0,
                  open_cells == 0)]


def bubble_representation() -> Check:
    """eq:2c6: the Riesz potential of u^3 at the origin, u the n = 4
    bubble, is u(0) = 2 sqrt(2), with the source's tail beyond the grid
    accounted for (not truncated)."""
    from . import liouville as LV
    from . import radial as RD
    bubble = LV.bubble_oracle(4, RD.RadialGrid.graded(0.0, 20.0, 2049))
    rc = LV.representation_check(bubble.with_values(bubble.values ** 3), 4)
    target = 2.0 * math.sqrt(2.0)
    return Check("bubble-representation", "eq:2c6", rc.potential_at_0, target,
                 abs(rc.potential_at_0 - target) < REPRESENTATION_TOL
                 and not rc.truncated)
