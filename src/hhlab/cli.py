"""Scenario runner: reproducible commands, config files, CSV/JSON artifacts.

Every certificate a subcommand evaluates is reported in its JSON summary
together with the equation tag it certifies (e.g. "eq:3-41"), so reports are
self-documenting. Exit codes: 0 when all requested certificates pass, 1 when
any fails or the numerics fault, 2 for configuration errors. Every input is
checked inside its command's configuration guard before any numerics run, so
an error escaping a command is a numerical fault, never a configuration
error. Errors go to standard error as machine-readable JSON.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import kernels as K
from . import ladder as L
from . import liouville as LV
from . import navier as NV
from . import radial as RD
from .errors import HHLabError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        json.dump({"error": message, "code": 2}, sys.stderr)
        sys.stderr.write("\n")
        raise SystemExit(2)


def _config_error(message: str) -> int:
    json.dump({"error": message, "code": 2}, sys.stderr)
    sys.stderr.write("\n")
    return 2


def _out_dir(args) -> Path:
    d = args.output_dir or os.environ.get("HHLAB_OUTPUT_DIR", "hhlab-out")
    path = Path(d)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(args, name: str, payload: dict) -> None:
    path = _out_dir(args) / name
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not args.quiet:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _check(name: str, tag: str, value, bound, ok: bool) -> dict:
    return {"name": name, "tag": tag, "value": value, "bound": bound,
            "pass": bool(ok)}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_kernels_selftest(args) -> int:
    rng = np.random.default_rng(args.seed)
    checks = []

    c24 = K.riesz_constant(2, 4)
    checks.append(_check("riesz-constant-2-4", "eq:2c1",
                         c24, 1.0 / (4 * math.pi ** 2),
                         abs(c24 - 1.0 / (4 * math.pi ** 2)) < 1e-12))
    c45 = K.riesz_constant(4, 5)
    checks.append(_check("riesz-constant-4-5", "eq:2c26",
                         c45, 1.0 / (16 * math.pi ** 2),
                         abs(c45 - 1.0 / (16 * math.pi ** 2)) < 1e-12))

    # ball Green spot checks
    x = np.array([0.2, -0.1, 0.05, 0.3])
    y = np.array([-0.25, 0.4, 0.1, 0.0])
    sym = abs(K.green_ball(x, y, 1.0, 4) - K.green_ball(y, x, 1.0, 4))
    checks.append(_check("green-symmetry", "eq:Green", sym, 1e-12,
                         sym < 1e-12))
    ybdry = np.array([1.0, 0.0, 0.0, 0.0])
    checks.append(_check("green-boundary", "eq:Green",
                         K.green_ball(x, 0.999999999999 * ybdry, 1.0, 4),
                         1e-9, abs(K.green_ball(
                             x, 0.999999999999 * ybdry, 1.0, 4)) < 1e-9))

    gaps = []
    for n in (4, 5):
        for _ in range(args.n_configs // 2):
            while True:
                a1 = float(rng.uniform(0.5, n - 1.1))
                a2 = float(rng.uniform(0.5, n - 1.1))
                if 1.0 <= a1 + a2 <= n - 0.4:
                    break
            xx = rng.uniform(-2.0, 2.0, n)
            zz = rng.uniform(-2.0, 2.0, n)
            lhs, rhs = K.riesz_compose_check(a1, a2, xx, zz, n, args.budget)
            gaps.append({"n": n, "alpha1": a1, "alpha2": a2,
                         "distance": float(np.linalg.norm(xx - zz)),
                         "rel_gap": abs(lhs / rhs - 1.0)})
    worst = max(g["rel_gap"] for g in gaps)
    checks.append(_check("riesz-composition", "eq:2c26", worst, args.tol,
                         worst < args.tol))

    ok = all(c["pass"] for c in checks)
    _write_json(args, "kernels-selftest.json",
                {"command": "kernels-selftest", "seed": args.seed,
                 "checks": checks, "composition_gaps": gaps, "pass": ok})
    return 0 if ok else 1


def cmd_ladder(args) -> int:
    try:
        params = RD.HardyHenonParams(args.n, max(1, args.n // 2), args.a,
                                     args.p)
        threshold = L.divergence_threshold(params, args.M)
        l0 = args.l0 if args.l0 is not None else threshold
        state = L.LadderState.initial(l0, params, args.M, args.alpha0)
    except ValueError as exc:
        return _config_error(str(exc))
    rows = L.ladder_table(state, args.k_max)

    out = _out_dir(args) / "ladder.csv"
    with open(out, "w") as fh:
        fh.write("k,log_l,alpha\n")
        for k, log_l, alpha in rows:
            fh.write(f"{k},{log_l:.17g},{alpha:.17g}\n")
    if not args.quiet:
        sys.stdout.write("k,log_l,alpha\n")
        for k, log_l, alpha in rows:
            sys.stdout.write(f"{k},{log_l:.17g},{alpha:.17g}\n")

    # consistency: recurrence vs exact closed form, in log space
    worst = 0.0
    for k, log_l, _ in rows[:13]:
        cf = L.ladder_closed_form(k, l0, state)
        worst = max(worst, abs(cf.log_exact - log_l) / max(1.0, abs(log_l)))
    checks = [_check("recurrence-vs-closed-form", "eq:2-38", worst, 1e-9,
                     worst < 1e-9)]
    if l0 >= threshold:
        n, p = params.n, params.p
        diverge = all(log_l >= n * k / (p - 1) * math.log(2 * p)
                      - 1e-9 * max(1.0, abs(log_l))
                      for k, log_l, _ in rows)
        checks.append(_check("threshold-divergence", "eq:2-40",
                             rows[-1][1], "growing", diverge))
    ok = all(c["pass"] for c in checks)
    _write_json(args, "ladder.json",
                {"command": "ladder", "threshold": threshold, "l0": l0,
                 "M": args.M, "tag": "eq:2-29", "checks": checks,
                 "pass": ok})
    return 0 if ok else 1


def cmd_eigen(args) -> int:
    try:
        params = RD.HardyHenonParams(args.n, args.m, 0.0, 2.0)
        problem = NV.NavierProblem(params, args.R)
        grid = problem.default_grid(args.nodes)
        NV.check_tolerance("tol", args.tol)
    except ValueError as exc:
        return _config_error(str(exc))
    eig = NV.first_eigenpair(problem, args.tol, grid)
    oracle = NV.first_dirichlet_eigenvalue_oracle(args.n, args.R) ** args.m
    rel = abs(eig.lambda1 / oracle - 1.0)
    ok = rel < 2e-3
    _write_json(args, "eigen.json",
                {"command": "eigen", "lambda1": eig.lambda1,
                 "bessel_oracle": oracle, "rel_error": rel,
                 "checks": [_check("eigenvalue-vs-bessel", "lemma:3.1",
                                   rel, 2e-3, ok)],
                 "pass": ok})
    phi_path = _out_dir(args) / "eigenfunction.csv"
    eig.phi.to_csv(str(phi_path),
                   f"phi(n={args.n},m={args.m},R={args.R:g})")
    return 0 if ok else 1


def cmd_solve(args) -> int:
    try:
        params = RD.HardyHenonParams(args.n, args.m, 0.0, args.p, args.t)
        problem = NV.NavierProblem(params, args.R)
        NV.check_solver_order(problem)
        config = NV.SolverConfig(n_nodes=args.nodes,
                                 fixed_point_tol=args.tol)
    except ValueError as exc:
        return _config_error(str(exc))
    sol = NV.solve_positive(problem, config)
    certs = sol.certificates
    label = (f"u(n={args.n},m={args.m},p={args.p:g},t={args.t:g},"
             f"R={args.R:g})")
    sol.u.to_csv(str(_out_dir(args) / "solution.csv"), label)
    for i, layer in enumerate(sol.state.layers[1:], start=1):
        layer.to_csv(str(_out_dir(args) / f"layer{i}.csv"),
                     label.replace("u(", f"u{i}("))
    checks = [
        _check("fixed-point-residual", "eq:4-30", certs.fixed_point_residual,
               config.fixed_point_tol,
               certs.fixed_point_residual < config.fixed_point_tol),
        _check("positive-layers", "eq:3-3", certs.positive_layers, True,
               certs.positive_layers),
        _check("boundary-values", "eq:Navier", certs.boundary_values, True,
               certs.boundary_values),
        _check("amplitude-lower-bound", "eq:1.8", certs.sup_norm, certs.rho,
               certs.lower_bound_ok),
        _check("energy-bound", "eq:3-41", certs.energy_lhs, certs.energy_rhs,
               certs.energy_ok),
        _check("radial-monotonicity", "thm:Boundary", certs.monotone, True,
               certs.monotone),
    ]
    ok = all(c["pass"] for c in checks)
    _write_json(args, "solve.json",
                {"command": "solve", "lambda1": sol.eigen.lambda1,
                 "sup_norm": sol.sup_norm, "rho": certs.rho,
                 "residual": sol.residual,
                 "certificates": certs.to_dict(), "checks": checks,
                 "pass": ok})
    return 0 if ok else 1


def cmd_shoot(args) -> int:
    try:
        params = RD.HardyHenonParams(args.n, args.m, args.a, args.p)
        init = [float(v) for v in args.init.split(",")]
        LV.shoot_start(init, params, args.r_max, rtol=args.rtol,
                       atol=args.atol)
    except ValueError as exc:
        return _config_error(str(exc))
    out = LV.shoot(init, params, args.r_max, rtol=args.rtol, atol=args.atol)
    payload = {"command": "shoot", "init": init, "kind": out.kind.value,
               "layer_index": out.layer_index, "r_star": out.r_star,
               "growth_fit": out.growth_fit(), "tag": "eq:PDES"}
    _write_json(args, "shoot.json", payload)
    return 0


def cmd_scan(args) -> int:
    try:
        params = RD.HardyHenonParams(args.n, args.m, args.a, args.p)
        axes = [np.linspace(*_triple(args.u0))]
        if args.m > 1:
            axes.append(np.linspace(*_triple(args.u1)))
        for _ in range(2, args.m):
            axes.append(np.array([args.higher]))
        LV.scan_cells(axes, params, args.r_max, rtol=args.rtol,
                      atol=args.atol, workers=args.workers)
    except ValueError as exc:
        return _config_error(str(exc))
    result = LV.scan(axes, params, args.r_max, rtol=args.rtol,
                     atol=args.atol)
    with open(_out_dir(args) / "scan.csv", "w") as fh:
        result.to_csv(fh)
    tally = result.tally
    checks = []
    if params.order_class in ("critical", "super-critical"):
        checks.append(_check("no-all-positive-survivors", "thm:1.1",
                             tally["all_positive_survivors"], 0,
                             tally["all_positive_survivors"] == 0))
    ok = all(c["pass"] for c in checks)
    _write_json(args, "scan.json",
                {"command": "scan", "tally": tally,
                 "order_class": params.order_class, "checks": checks,
                 "pass": ok})
    return 0 if ok else 1


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        value = _parse_int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return parse


def _positive_float(text: str) -> float:
    """argparse type: a positive, finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text!r}")
    return value


def _worker_count(text: str) -> int:
    """argparse type for the deprecated --workers: an integer in
    1..os.cpu_count(), still checked so that existing invocations keep
    their exit codes."""
    count = _parse_int(text)
    limit = os.cpu_count() or 1
    if not 1 <= count <= limit:
        raise argparse.ArgumentTypeError(
            f"must be between 1 and {limit} (the CPU count), got {count}")
    return count


def _triple(spec: str):
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected min,max,count - got {spec!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def cmd_singular(args) -> int:
    try:
        params = RD.HardyHenonParams(args.n, args.m, args.a, args.p)
    except ValueError as exc:
        return _config_error(str(exc))
    found = RD.singular_solution(params)
    if found is None:
        _write_json(args, "singular.json",
                    {"command": "singular", "exists": False,
                     "sigma": params.sigma, "tag": "remark:1.2",
                     "pass": True})
        return 0
    sigma, C = found
    grid = RD.RadialGrid.uniform(0.45, 2.05, 401)
    u = RD.RadialField.from_function(grid, lambda r: C * r ** -sigma)
    op = RD.polyharmonic_apply(u, params.n, params.m, width=7)
    rhs = C ** params.p * grid.nodes ** (-sigma * params.p - params.a)
    window = (grid.nodes >= 0.5) & (grid.nodes <= 2.0)
    residual = float(np.max(np.abs(op.values - rhs)[window]))
    bound = 1e-5 * C ** params.p
    ok = residual < bound
    u.to_csv(str(_out_dir(args) / "singular.csv"),
             f"singular(n={args.n},m={args.m},a={args.a:g},p={args.p:g})")
    _write_json(args, "singular.json",
                {"command": "singular", "exists": True, "sigma": sigma,
                 "amplitude": C, "residual": residual, "bound": bound,
                 "checks": [_check("pde-residual", "remark:1.2", residual,
                                   bound, ok)],
                 "pass": ok})
    return 0 if ok else 1


def cmd_report(args) -> int:
    """Condensed certificate battery with one row per check."""
    rows = []

    def row(name, tag, value, bound, ok):
        rows.append(_check(name, tag, value, bound, ok))

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for n in (4, 5):
        for _ in range(3):
            while True:
                a1 = float(rng.uniform(0.5, n - 1.1))
                a2 = float(rng.uniform(0.5, n - 1.1))
                if 1.0 <= a1 + a2 <= n - 0.4:
                    break
            xx, zz = rng.uniform(-2, 2, n), rng.uniform(-2, 2, n)
            lhs, rhs = K.riesz_compose_check(a1, a2, xx, zz, n)
            worst = max(worst, abs(lhs / rhs - 1.0))
    row("riesz-composition", "eq:2c26", worst, 1e-2, worst < 1e-2)

    grid = RD.RadialGrid.graded(0.0, 1.0, 513)
    worst = 0.0
    for beta, n in ((0.0, 4), (2.5, 4), (8.0, 6)):
        f = RD.RadialField.from_function(grid, lambda r: r ** beta)
        u = RD.poisson_solve_ball(f, 1.0, n)
        worst = max(worst, abs(u.values[0]
                               - L.monomial_poisson_coefficient(beta, n)))
    row("monomial-coefficient", "eq:2-31", worst, 1e-6, worst < 1e-6)

    params = RD.HardyHenonParams(4, 2, 0.0, 2.0)
    thr = L.divergence_threshold(params, 0.0)
    row("divergence-threshold", "eq:2-29", thr, 16777216.0,
        abs(thr - 16777216.0) < 1e-3)
    st = L.LadderState.initial(thr, params)
    cur, ok = st, True
    for k in range(13):
        cf = L.ladder_closed_form(k, thr, st)
        ok &= abs(cf.log_exact - cur.log_l) <= 1e-9 * max(1.0, abs(cur.log_l))
        cur = L.ladder_advance(cur)
    row("ladder-consistency", "eq:2-38", ok, True, ok)

    sigma, C = RD.singular_solution(params)
    sgrid = RD.RadialGrid.uniform(0.45, 2.05, 401)
    us = RD.RadialField.from_function(sgrid, lambda r: C * r ** -sigma)
    op = RD.polyharmonic_apply(us, 4, 2, width=7)
    window = (sgrid.nodes >= 0.5) & (sgrid.nodes <= 2.0)
    res = float(np.max(np.abs(op.values - C ** 2 * sgrid.nodes ** -8.0)
                       [window]))
    row("singular-solution-residual", "remark:1.2", res, 1e-5 * C ** 2,
        res < 1e-5 * C ** 2)

    problem = NV.NavierProblem(params, 1.0)
    eig = NV.first_eigenpair(problem, 1e-10,
                             problem.default_grid(257))
    oracle = NV.first_dirichlet_eigenvalue_oracle(4) ** 2
    rel = abs(eig.lambda1 / oracle - 1.0)
    row("eigenvalue-vs-bessel", "lemma:3.1", rel, 2e-3, rel < 2e-3)

    h = NV.torsion_function(problem)
    row("torsion-bound", "eq:4-9", float(np.max(h.values)),
        problem.diameter ** 2 / 8.0, NV.torsion_bound_check(h, problem))

    sol = NV.solve_positive(problem, NV.SolverConfig(n_nodes=257))
    certs = sol.certificates
    row("fixed-point-residual", "eq:4-30", certs.fixed_point_residual, 1e-8,
        certs.fixed_point_residual < 1e-8)
    row("amplitude-lower-bound", "eq:1.8", certs.sup_norm, certs.rho,
        certs.lower_bound_ok)
    row("energy-bound", "eq:3-41", certs.energy_lhs, certs.energy_rhs,
        certs.energy_ok)
    row("radial-monotonicity", "thm:Boundary", certs.monotone, True,
        certs.monotone)

    scan_res = LV.scan([np.linspace(0.5, 8.0, 9), np.linspace(-8.0, 8.0, 9)],
                       params, 30.0)
    row("liouville-scan-survivors", "thm:1.1",
        scan_res.tally["all_positive_survivors"], 0,
        scan_res.tally["all_positive_survivors"] == 0)

    bubble = LV.bubble_oracle(4, RD.RadialGrid.graded(0.0, 20.0, 2049))
    rc = LV.representation_check(
        bubble.with_values(bubble.values ** 3), 4)
    target = 2.0 * math.sqrt(2.0)
    row("bubble-representation", "eq:2c6", rc.potential_at_0, target,
        abs(rc.potential_at_0 - target) < 1e-3)

    ok = all(r["pass"] for r in rows)
    if not args.quiet:
        width = max(len(r["name"]) for r in rows)
        print(f"{'check'.ljust(width)}  {'tag'.ljust(14)}  status")
        for r in rows:
            status = "PASS" if r["pass"] else "FAIL"
            print(f"{r['name'].ljust(width)}  {r['tag'].ljust(14)}  {status}")
    _write_json(args, "report.json",
                {"command": "report", "checks": rows, "pass": ok})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--output-dir", default=None,
                    help="artifact directory (default env HHLAB_OUTPUT_DIR "
                         "or ./hhlab-out)")
    sp.add_argument("--config", default=None,
                    help="INI config file; CLI flags override its values")
    sp.add_argument("--quiet", action="store_true")


def build_parser() -> _Parser:
    parser = _Parser(prog="hhlab",
                     description="Numerical laboratory for critical and "
                                 "super-critical order Hardy-Henon "
                                 "equations")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("kernels-selftest", parents=[], help="kernel checks")
    sp.add_argument("--n-configs", type=_int_at_least(2), default=20,
                    help="composition checks, split over n = 4 and 5 "
                         "(at least 2)")
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--budget", type=_int_at_least(1), default=250_000)
    sp.add_argument("--tol", type=_positive_float, default=1e-2)
    _add_common(sp)
    sp.set_defaults(func=cmd_kernels_selftest)

    sp = sub.add_parser("ladder", help="blow-up ladder table")
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--a", type=float, default=0.0)
    sp.add_argument("--M", type=float, default=0.0)
    sp.add_argument("--l0", type=float, default=None,
                    help="starting amplitude (default: divergence threshold)")
    sp.add_argument("--alpha0", type=float, default=None)
    sp.add_argument("--k-max", type=int, default=40)
    _add_common(sp)
    sp.set_defaults(func=cmd_ladder)

    sp = sub.add_parser("eigen", help="first Navier eigenpair on the ball")
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--R", type=float, default=1.0)
    sp.add_argument("--nodes", type=int, default=513)
    sp.add_argument("--tol", type=float, default=1e-10)
    _add_common(sp)
    sp.set_defaults(func=cmd_eigen)

    sp = sub.add_parser("solve", help="positive Navier solution on the ball")
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--R", type=float, default=1.0)
    sp.add_argument("--nodes", type=int, default=513)
    sp.add_argument("--tol", type=float, default=1e-8)
    _add_common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("shoot", help="classify one radial trajectory")
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--a", type=float, default=0.0)
    sp.add_argument("--init", required=True,
                    help="comma-separated origin layer values")
    sp.add_argument("--r-max", type=float, default=50.0)
    sp.add_argument("--rtol", type=float, default=1e-10)
    sp.add_argument("--atol", type=float, default=1e-12)
    _add_common(sp)
    sp.set_defaults(func=cmd_shoot)

    sp = sub.add_parser("scan", help="classify a grid of origin data")
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--a", type=float, default=0.0)
    sp.add_argument("--u0", default="0.1,10,21", help="min,max,count")
    sp.add_argument("--u1", default="-10,10,21", help="min,max,count")
    sp.add_argument("--higher", type=float, default=1.0,
                    help="fixed origin value for layers above the first two")
    sp.add_argument("--r-max", type=float, default=50.0)
    sp.add_argument("--rtol", type=float, default=1e-10)
    sp.add_argument("--atol", type=float, default=1e-12)
    sp.add_argument("--workers", type=_worker_count, default=1,
                    help="deprecated and ignored (1 to the CPU count): "
                    "every scan runs in one process")
    _add_common(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("singular", help="exact power-law singular solution")
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--a", type=float, default=0.0)
    sp.add_argument("--p", type=float, default=2.0)
    _add_common(sp)
    sp.set_defaults(func=cmd_singular)

    sp = sub.add_parser("report", help="condensed certificate battery")
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_common(sp)
    sp.set_defaults(func=cmd_report)

    return parser


def _apply_config(parser: _Parser, argv: list) -> list:
    """Load INI defaults for the chosen subcommand; flags still override."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return argv
    path, command = argv[idx + 1], argv[0] if argv else None
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise SystemExit(_config_error(f"config file {path!r} not readable"))
    if command is None or not cp.has_section(command):
        return argv
    injected = []
    for key, value in cp.items(command):
        flag = "--" + key.replace("_", "-")
        if flag not in argv:
            injected.extend([flag, value])
    return [command] + injected + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if argv and not argv[0].startswith("-"):
        argv = _apply_config(parser, argv)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HHLabError, ValueError) as exc:
        # inputs were checked in the command's guard: this is numerical
        json.dump({"error": str(exc), "code": 1,
                   "type": type(exc).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
