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

from . import checks as C
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


def _finish(args, command: str, checks, **fields) -> int:
    """Write <command>.json with the checks and their verdict; exit code."""
    ok = all(c.ok for c in checks)
    rows = [{"name": c.name, "tag": c.tag, "value": c.value,
             "bound": c.bound, "pass": bool(c.ok)} for c in checks]
    _write_json(args, f"{command}.json",
                {"command": command, **fields, "checks": rows, "pass": ok})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_kernels_selftest(args) -> int:
    gaps = C.composition_sample(np.random.default_rng(args.seed),
                                args.n_configs // 2, args.budget)
    checks = [*C.riesz_constants(), *C.green_ball(),
              C.riesz_composition(gaps, args.tol)]
    return _finish(args, "kernels-selftest", checks, seed=args.seed,
                   composition_gaps=gaps)


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
    table = "k,log_l,alpha\n" + "".join(
        f"{k},{log_l:.17g},{alpha:.17g}\n" for k, log_l, alpha in rows)
    (_out_dir(args) / "ladder.csv").write_text(table)
    if not args.quiet:
        sys.stdout.write(table)
    checks = [C.ladder_recurrence(state, l0, rows),
              *C.threshold_divergence(params, l0, threshold, rows)]
    return _finish(args, "ladder", checks, threshold=threshold, l0=l0,
                   M=args.M, tag="eq:2-29")


def cmd_eigen(args) -> int:
    try:
        params = RD.HardyHenonParams(args.n, args.m, 0.0, 2.0)
        problem = NV.NavierProblem(params, args.R)
        grid = problem.default_grid(args.nodes)
        NV.check_tolerance("tol", args.tol)
    except ValueError as exc:
        return _config_error(str(exc))
    eig = NV.first_eigenpair(problem, args.tol, grid)
    oracle = C.bessel_oracle(problem)
    check = C.eigenvalue_vs_bessel(eig.lambda1, oracle)
    code = _finish(args, "eigen", [check], lambda1=eig.lambda1,
                   bessel_oracle=oracle, rel_error=check.value)
    eig.phi.to_csv(str(_out_dir(args) / "eigenfunction.csv"),
                   f"phi(n={args.n},m={args.m},R={args.R:g})")
    return code


def cmd_solve(args) -> int:
    try:
        params = RD.HardyHenonParams(args.n, args.m, 0.0, args.p, args.t)
        problem = NV.NavierProblem(params, args.R)
        NV.check_solver_order(problem)
        grid = problem.default_grid(args.nodes)
        NV.check_tolerance("tol", args.tol)
    except ValueError as exc:
        return _config_error(str(exc))
    sol = NV.solve_positive(problem, grid, args.tol)
    label = (f"u(n={args.n},m={args.m},p={args.p:g},t={args.t:g},"
             f"R={args.R:g})")
    sol.u.to_csv(str(_out_dir(args) / "solution.csv"), label)
    for i, layer in enumerate(sol.layers[1:], start=1):
        layer.to_csv(str(_out_dir(args) / f"layer{i}.csv"),
                     label.replace("u(", f"u{i}("))
    return _finish(args, "solve", sol.certificates,
                   lambda1=sol.eigen.lambda1, sup_norm=sol.sup_norm,
                   rho=NV.rho_radius(problem), residual=sol.residual)


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
                      atol=args.atol)
    except ValueError as exc:
        return _config_error(str(exc))
    result = LV.scan(axes, params, args.r_max, rtol=args.rtol,
                     atol=args.atol)
    with open(_out_dir(args) / "scan.csv", "w") as fh:
        result.to_csv(fh)
    return _finish(args, "scan", C.scan_survivors(result),
                   tally=result.tally, order_class=params.order_class)


def _triple(spec: str):
    """min,max,count of a scan axis; an empty axis certifies nothing."""
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected min,max,count - got {spec!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError(f"axis {spec!r} must have at least one point")
    return lo, hi, count


def cmd_singular(args) -> int:
    try:
        params = RD.HardyHenonParams(args.n, args.m, args.a, args.p)
    except ValueError as exc:
        return _config_error(str(exc))
    found = C.singular_solution(params)
    if found is None:
        _write_json(args, "singular.json",
                    {"command": "singular", "exists": False,
                     "sigma": params.sigma, "tag": "remark:1.2",
                     "pass": True})
        return 0
    sigma, amplitude, u, check = found
    u.to_csv(str(_out_dir(args) / "singular.csv"),
             f"singular(n={args.n},m={args.m},a={args.a:g},p={args.p:g})")
    return _finish(args, "singular", [check], exists=True, sigma=sigma,
                   amplitude=amplitude, residual=check.value,
                   bound=check.bound)


# solver certificates the condensed report leaves out
_REPORT_OMITS = ("positive-layers", "boundary-values")


def cmd_report(args) -> int:
    """Condensed certificate battery with one row per check."""
    params = RD.HardyHenonParams(4, 2, 0.0, 2.0)
    problem = NV.NavierProblem(params, 1.0)
    sol = NV.solve_positive(problem, problem.default_grid(257))
    threshold = C.divergence_threshold()
    state = L.LadderState.initial(threshold.value, params)
    scan = LV.scan([np.linspace(0.5, 8.0, 9), np.linspace(-8.0, 8.0, 9)],
                   params, 30.0)
    rows = [
        C.riesz_composition(C.composition_sample(
            np.random.default_rng(args.seed), 3)),
        C.monomial_coefficient(),
        threshold,
        C.ladder_recurrence(state, threshold.value,
                            L.ladder_table(state, C.LADDER_ROWS)
                            )._replace(name="ladder-consistency"),
        C.singular_solution(params)[3]._replace(
            name="singular-solution-residual"),
        C.eigenvalue_vs_bessel(sol.eigen.lambda1, C.bessel_oracle(problem)),
        C.torsion_bound(problem),
        *(c for c in sol.certificates if c.name not in _REPORT_OMITS),
        *(c._replace(name="liouville-scan-survivors")
          for c in C.scan_survivors(scan)),
        C.bubble_representation(),
    ]
    if not args.quiet:
        width = max(len(r.name) for r in rows)
        print(f"{'check'.ljust(width)}  {'tag'.ljust(14)}  status")
        for r in rows:
            status = "PASS" if r.ok else "FAIL"
            print(f"{r.name.ljust(width)}  {r.tag.ljust(14)}  {status}")
    return _finish(args, "report", rows)


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


# (type, default) of the flags several subcommands share
_SHARED = {"n": (int, 4), "m": (int, 2), "p": (float, 2.0),
           "a": (float, 0.0), "r-max": (float, 50.0),
           "rtol": (float, 1e-10), "atol": (float, 1e-12)}


def _add_shared(sp, *names):
    for name in names:
        kind, default = _SHARED[name]
        sp.add_argument(f"--{name}", type=kind, default=default)


def build_parser() -> _Parser:
    parser = _Parser(prog="hhlab",
                     description="Numerical laboratory for critical and "
                                 "super-critical order Hardy-Henon "
                                 "equations")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("kernels-selftest", help="kernel checks")
    sp.add_argument("--n-configs", type=_int_at_least(2), default=20,
                    help="composition checks, split over n = 4 and 5 "
                         "(at least 2)")
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--budget", type=_int_at_least(1),
                    default=K.QUADRATURE_BUDGET)
    sp.add_argument("--tol", type=_positive_float, default=C.COMPOSITION_TOL)
    sp.set_defaults(func=cmd_kernels_selftest)

    sp = sub.add_parser("ladder", help="blow-up ladder table")
    _add_shared(sp, "n", "p", "a")
    sp.add_argument("--M", type=float, default=0.0)
    sp.add_argument("--l0", type=float, default=None,
                    help="starting amplitude (default: divergence threshold)")
    sp.add_argument("--alpha0", type=float, default=None)
    sp.add_argument("--k-max", type=_int_at_least(0), default=40)
    sp.set_defaults(func=cmd_ladder)

    sp = sub.add_parser("eigen", help="first Navier eigenpair on the ball")
    _add_shared(sp, "n", "m")
    sp.add_argument("--R", type=float, default=1.0)
    sp.add_argument("--nodes", type=int, default=NV.DEFAULT_NODES)
    sp.add_argument("--tol", type=float, default=NV.EIGEN_TOL)
    sp.set_defaults(func=cmd_eigen)

    sp = sub.add_parser("solve", help="positive Navier solution on the ball")
    _add_shared(sp, "n", "m", "p")
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--R", type=float, default=1.0)
    sp.add_argument("--nodes", type=int, default=NV.DEFAULT_NODES)
    sp.add_argument("--tol", type=float, default=NV.FIXED_POINT_TOL)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("shoot", help="classify one radial trajectory")
    _add_shared(sp, "n", "m", "p", "a")
    sp.add_argument("--init", required=True,
                    help="comma-separated origin layer values")
    _add_shared(sp, "r-max", "rtol", "atol")
    sp.set_defaults(func=cmd_shoot)

    sp = sub.add_parser("scan", help="classify a grid of origin data")
    _add_shared(sp, "n", "m", "p", "a")
    sp.add_argument("--u0", default="0.1,10,21", help="min,max,count")
    sp.add_argument("--u1", default="-10,10,21", help="min,max,count")
    sp.add_argument("--higher", type=float, default=1.0,
                    help="fixed origin value for layers above the first two")
    _add_shared(sp, "r-max", "rtol", "atol")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("singular", help="exact power-law singular solution")
    _add_shared(sp, "n", "m", "a", "p")
    sp.set_defaults(func=cmd_singular)

    sp = sub.add_parser("report", help="condensed certificate battery")
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.set_defaults(func=cmd_report)

    for sp in sub.choices.values():
        _add_common(sp)
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
