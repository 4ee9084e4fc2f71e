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
"""

from __future__ import annotations

import math
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
    order fixes the sample for a seed."""
    gaps = []
    for n in (4, 5):
        for _ in range(per_n):
            while True:
                a1 = float(rng.uniform(0.5, n - 1.1))
                a2 = float(rng.uniform(0.5, n - 1.1))
                if 1.0 <= a1 + a2 <= n - 0.4:
                    break
            x = rng.uniform(-2.0, 2.0, n)
            z = rng.uniform(-2.0, 2.0, n)
            lhs, rhs = K.riesz_compose_check(a1, a2, x, z, n)
            gaps.append({"n": n, "alpha1": a1, "alpha2": a2,
                         "distance": float(np.linalg.norm(x - z)),
                         "rel_gap": abs(lhs / rhs - 1.0)})
    return gaps


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
    datum survives with every layer positive. No claim at sub-critical
    order."""
    if result.params.order_class not in ("critical", "super-critical"):
        return []
    survivors = result.tally["all_positive_survivors"]
    return [Check("no-all-positive-survivors", "thm:1.1", survivors, 0,
                  survivors == 0)]


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
