"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).

This battery is the independent side of the certificates: it computes each
criterion with its own code and holds it to its own tolerance, set below,
instead of calling the registry (`hhlab.checks`) the CLI reports from.
`test_registry_bounds_are_no_looser` checks that no registry bound is looser
than the tolerance pinned here for the same claim.
"""

import math

import numpy as np
import pytest

from hhlab import checks, navier
from hhlab.kernels import riesz_compose_check, riesz_constant
from hhlab.ladder import (LadderState, divergence_threshold, ladder_advance,
                          ladder_closed_form, monomial_poisson_coefficient)
from hhlab.liouville import (OutcomeKind, bubble_amplitude, bubble_oracle,
                             reference_axes, representation_check, scan,
                             shoot)
from hhlab.navier import (NavierProblem, apply_K, blowup_normalize,
                          first_dirichlet_eigenvalue_oracle, first_eigenpair,
                          kelvin_transform, shooting_oracle_sup_norm,
                          solve_positive, torsion_bound_check,
                          torsion_function)
from hhlab.radial import (HardyHenonParams, RadialField, RadialGrid,
                          poisson_solve_ball, polyharmonic_apply, rescale,
                          singular_solution)


CONSTANT_TOL = 1e-12
COMPOSITION_TOL = 1e-2
MONOMIAL_TOL = 1e-6
THRESHOLD_TOL = 1e-2
LADDER_TOL = 1e-9
SINGULAR_REL = 1e-5
EIGEN_REL = 2e-3
FIXED_POINT_TOL = 1e-8
REPRESENTATION_TOL = 1e-3


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_01_riesz_composition():
    c24 = abs(riesz_constant(2, 4) - 1.0 / (4 * math.pi ** 2))
    c45 = abs(riesz_constant(4, 5) - 1.0 / (16 * math.pi ** 2))
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in (4, 5):
        for _ in range(10):
            while True:
                a1 = float(rng.uniform(0.5, n - 1.1))
                a2 = float(rng.uniform(0.5, n - 1.1))
                if 1.0 <= a1 + a2 <= n - 0.4:
                    break
            x = rng.uniform(-2.0, 2.0, n)
            z = rng.uniform(-2.0, 2.0, n)
            lhs, rhs = riesz_compose_check(a1, a2, x, z, n)
            worst = max(worst, abs(lhs / rhs - 1.0))
    ok = (worst < COMPOSITION_TOL and c24 < CONSTANT_TOL
          and c45 < CONSTANT_TOL)
    _report(1, "riesz composition + constants", ok,
            f"worst rel gap {worst:.2e}, constant errors {c24:.1e}/{c45:.1e}")


def test_02_monomial_poisson_coefficient():
    grid = RadialGrid.graded(0.0, 1.0, 1025)
    worst = 0.0
    for beta in (0.0, 1.0, 2.5, 8.0):
        for n in (4, 6):
            f = RadialField.from_function(grid, lambda r: r ** beta)
            u = poisson_solve_ball(f, 1.0, n)
            coeff = monomial_poisson_coefficient(beta, n)
            worst = max(worst, abs(u.values[0] - coeff))
    _report(2, "monomial double-integration coefficient", worst < MONOMIAL_TOL,
            f"worst abs error {worst:.2e}")


def test_03_ladder_consistency_and_divergence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(15):
        params = HardyHenonParams(int(rng.integers(2, 7)), 2,
                                  float(rng.uniform(-1.0, 1.0)),
                                  float(rng.uniform(1.3, 3.5)))
        l0 = float(np.exp(rng.uniform(-2.0, 15.0)))
        state = LadderState.initial(
            l0, params, M=float(rng.uniform(0.0, 5.0)),
            alpha0=float(rng.uniform(1.0, 10.0)))
        cur = state
        for k in range(13):
            cf = ladder_closed_form(k, l0, state)
            worst = max(worst, abs(cf.log_exact - cur.log_l)
                        / max(1.0, abs(cur.log_l)))
            cur = ladder_advance(cur)

    params = HardyHenonParams(4, 2, 0.0, 2.0)
    threshold = divergence_threshold(params, 0.0)
    thr_ok = abs(threshold - 16777216.0) < THRESHOLD_TOL
    cur = LadderState.initial(threshold, params)
    bound_ok = True
    for k in range(41):
        bound = params.n * k / (params.p - 1.0) * math.log(2.0 * params.p)
        if cur.log_l < bound - LADDER_TOL * max(1.0, abs(bound)):
            bound_ok = False
        cur = ladder_advance(cur)
    ok = worst < LADDER_TOL and thr_ok and bound_ok
    _report(3, "ladder recurrence/closed form/threshold", ok,
            f"log gap {worst:.2e}, threshold {threshold:.1f}, "
            f"divergence bound {'holds' if bound_ok else 'fails'}")


def test_04_singular_solution():
    params = HardyHenonParams(4, 2, 0.0, 2.0)
    sigma, amplitude = singular_solution(params)
    grid = RadialGrid.uniform(0.45, 2.05, 401)
    u = RadialField.from_function(grid, lambda r: amplitude * r ** -sigma)
    op = polyharmonic_apply(u, 4, 2, width=7)
    rhs = amplitude ** 2 * grid.nodes ** -8.0
    window = (grid.nodes >= 0.5) & (grid.nodes <= 2.0)
    residual = float(np.max(np.abs(op.values - rhs)[window]))
    none_case = singular_solution(HardyHenonParams(4, 2, 0.0, 3.0))
    ok = (sigma == pytest.approx(4.0) and amplitude == pytest.approx(192.0)
          and residual < SINGULAR_REL * 192.0 ** 2 and none_case is None)
    _report(4, "singular solution", ok,
            f"sigma={sigma:g}, C={amplitude:g}, residual {residual:.3e} "
            f"< {SINGULAR_REL * 192.0**2:.3e}, p=3 case none")


def test_05_eigenvalue_oracle():
    worst = 0.0
    values = {}
    for n, m in ((3, 1), (4, 1), (4, 2)):
        problem = NavierProblem(HardyHenonParams(n, m, 0.0, 2.0), 1.0)
        eig = first_eigenpair(problem, problem.default_grid(512))
        oracle = first_dirichlet_eigenvalue_oracle(n, 1.0) ** m
        rel = abs(eig.lambda1 / oracle - 1.0)
        worst = max(worst, rel)
        values[(n, m)] = eig.lambda1
    refs_ok = (values[(3, 1)] == pytest.approx(math.pi ** 2, rel=EIGEN_REL)
               and values[(4, 1)] == pytest.approx(14.6820, rel=EIGEN_REL)
               and values[(4, 2)] == pytest.approx(215.5606, rel=EIGEN_REL))
    _report(5, "first eigenvalue vs Bessel oracle",
            worst < EIGEN_REL and refs_ok, f"worst rel error {worst:.2e} at N=512")


def test_06_existence_and_lower_bound():
    problem = NavierProblem(HardyHenonParams(4, 2, 0.0, 2.0), 1.0)
    sol = solve_positive(problem, problem.default_grid(513))
    certs = {c.name: c.ok for c in sol.certificates}
    u1_origin = float(sol.layers[1].values[0])
    oracle = shooting_oracle_sup_norm(problem, [sol.sup_norm, u1_origin])
    oracle_gap = abs(oracle / sol.sup_norm - 1.0)
    ok = (sol.residual < FIXED_POINT_TOL and certs["positive-layers"]
          and sol.sup_norm >= 4.0 and certs["energy-bound"]
          and certs["radial-monotonicity"] and oracle_gap < 5e-3)
    _report(6, "existence + amplitude lower bound", ok,
            f"sup {sol.sup_norm:.4f} >= 4, residual {sol.residual:.1e}, "
            f"shooting oracle gap {oracle_gap:.2e}")


def test_07_torsion_bound():
    results = []
    for n in (4, 6):
        problem = NavierProblem(HardyHenonParams(n, max(1, n // 2),
                                                 0.0, 2.0), 1.0)
        h = torsion_function(problem)
        exact = (problem.R ** 2 - h.grid.nodes ** 2) / (2.0 * n)
        err = float(np.max(np.abs(h.values - exact)))
        results.append((err, torsion_bound_check(h, problem)))
    worst = max(e for e, _ in results)
    bounds = all(b for _, b in results)
    _report(7, "torsion function and bound", worst < 1e-10 and bounds,
            f"worst formula error {worst:.2e}, bounds hold: {bounds}")


def test_08_liouville_scan(monkeypatch):
    r_max = 50.0
    survivors = {}
    stable = True
    for m in (2, 3):
        params = HardyHenonParams(4, m, 0.0, 2.0)
        axes = reference_axes(params)
        runs = []
        for rtol, atol in ((1e-10, 1e-12), (5e-11, 5e-13)):
            monkeypatch.setattr("hhlab.liouville.DEFAULT_RTOL", rtol)
            monkeypatch.setattr("hhlab.liouville.DEFAULT_ATOL", atol)
            runs.append(scan(axes, params, r_max))
        base, tight = runs
        survivors[m] = base.tally["all_positive_survivors"]
        assert base.tally["cells"] == 441
        for r1, r2 in zip(base.records, tight.records):
            if r1.kind != r2.kind or r1.layer != r2.layer:
                stable = False
            denom = max(abs(r1.r_star), 1e-5)
            if abs(r1.r_star - r2.r_star) / denom > 1e-2:
                stable = False

    sub = HardyHenonParams(4, 1, 0.0, 3.0)
    monkeypatch.setattr("hhlab.liouville.DEFAULT_RTOL", 1e-12)
    monkeypatch.setattr("hhlab.liouville.DEFAULT_ATOL", 1e-14)
    out = shoot([bubble_amplitude(4)], sub, r_max)
    exact = bubble_amplitude(4) / (1.0 + out.trace_r ** 2)
    tracking = float(np.max(np.abs(out.trace_y[:, 0] - exact)))
    survived = out.kind is OutcomeKind.SURVIVED

    ok = (survivors[2] == 0 and survivors[3] == 0 and survived
          and tracking < 1e-6 and stable)
    _report(8, "liouville scans + sub-critical control", ok,
            f"survivors m=2: {survivors[2]}, m=3: {survivors[3]}, bubble "
            f"survived with tracking {tracking:.2e}, stable: {stable}")


def test_09_representation_check():
    grid = RadialGrid.graded(0.0, 20.0, 2049)
    u = bubble_oracle(4, grid)
    check = representation_check(u.with_values(u.values ** 3), 4)
    target = 2.0 * math.sqrt(2.0)
    err = abs(check.potential_at_0 - target)
    ok = err < REPRESENTATION_TOL and not check.truncated
    _report(9, "representation formula at the origin", ok,
            f"|potential - 2*sqrt(2)| = {err:.2e}, "
            f"tail fraction {check.tail_fraction:.1e}")


def test_10_invariance_suite():
    params = HardyHenonParams(4, 2, 0.0, 2.0)
    sigma, amplitude = singular_solution(params)
    g = RadialGrid.uniform(0.5, 2.0, 64)
    u = RadialField.from_function(g, lambda r: amplitude * r ** -sigma)
    rescale_err = 0.0
    for lam in (0.5, 2.0, 3.7):
        v = rescale(u, lam, params)
        rescale_err = max(rescale_err, float(np.max(np.abs(
            v.values - amplitude * v.grid.nodes ** -sigma)
            / (amplitude * v.grid.nodes ** -sigma))))

    problem = NavierProblem(params, 1.0)
    sol = solve_positive(problem, problem.default_grid(513))
    v, lam = blowup_normalize(sol.u, params)
    peak = float(v.values[0])
    induced = NavierProblem(
        HardyHenonParams(4, 2, 0.0, 2.0, t=params.t / sol.sup_norm ** 2),
        v.grid.r_max)
    transformed_residual = float(np.max(np.abs(
        apply_K(v, induced).values - v.values)))

    gk = RadialGrid.uniform(0.2, 5.0, 1001)
    bub = bubble_oracle(4, gk)
    bk = kelvin_transform(bub, 4)
    kelvin_self = float(np.max(np.abs(
        bk.values - bubble_amplitude(4) / (1.0 + bk.grid.nodes ** 2))))
    back = kelvin_transform(bk, 4)
    involution = float(np.max(np.abs(back.values - bub.values)))

    ok = (rescale_err < 1e-12 and abs(peak - 1.0) < 1e-14
          and transformed_residual < 1e-8 and kelvin_self < 1e-8
          and involution < 1e-8)
    _report(10, "invariance suite", ok,
            f"rescale {rescale_err:.1e}, v(0)-1 = {peak - 1.0:.1e}, "
            f"transformed residual {transformed_residual:.1e}, kelvin "
            f"{kelvin_self:.1e}/{involution:.1e}")


def test_registry_bounds_are_no_looser():
    pairs = [
        (checks.CONSTANT_TOL, CONSTANT_TOL),
        (checks.COMPOSITION_TOL, COMPOSITION_TOL),
        (checks.MONOMIAL_TOL, MONOMIAL_TOL),
        (checks.THRESHOLD_TOL, THRESHOLD_TOL),
        (checks.LADDER_TOL, LADDER_TOL),
        (checks.SINGULAR_REL, SINGULAR_REL),
        (checks.EIGEN_REL, EIGEN_REL),
        (navier.FIXED_POINT_TOL, FIXED_POINT_TOL),
        (checks.REPRESENTATION_TOL, REPRESENTATION_TOL),
    ]
    assert all(ours <= pinned for ours, pinned in pairs), pairs
