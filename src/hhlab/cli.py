"""Scenario runner: reproducible commands, config files, CSV/JSON artifacts.

Every certificate a subcommand evaluates is reported in its JSON summary
together with the equation tag it certifies (e.g. "eq:3-41"), so reports are
self-documenting. Exit codes: 0 when all requested certificates pass, 1 when
any fails or the numerics fault, 2 for configuration errors. Every input is
checked in its command's guard, which calls its entry's validator and does
no numerical work, so an error escaping a command is a numerical fault,
never a configuration error. Errors go to standard error as JSON.

A command imports the modules it runs inside its handler, so `--help` and
`kernels-selftest` load no scipy; only `checks` (with `kernels`), which
every certificate goes through, is imported with this module.

A command's argv is read from its flag table (`_FlagTable`), recorded from
the same functions that add its flags to its argparse parser. The table
reads exact `--flag value`, `--flag=value` and bare switches and returns
what argparse would return; anything else (help, an abbreviation, an
unknown flag, a rejected or missing value) goes to the command's argparse
parser, built only then, so every help text and error is argparse's.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import checks as C
from .errors import HHLabError
from .numerics import HardyHenonParams


# A token that starts with `-` then a digit, `.`, `inf` or `nan` in any
# case (every negative spelling `float` reads, `-infinity` too) is a value,
# never a flag (no hhlab flag looks like that): `--u1 -10,10,21`,
# `--a -1e-3` and `--a -inf` parse, where argparse's own pattern takes
# only -3 or -.5 as negative numbers.
_NEGATIVE_NUMBER = re.compile(r"^-(?:[\d.]|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reports errors as JSON and reads a token that
    matches `_NEGATIVE_NUMBER` as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse internals, the only ones this module relies on:
        # `_ActionsContainer.__init__` sets this pattern and
        # `_parse_optional` reads it to take a token that starts with `-`
        # as a value (checked against CPython 3.11's argparse). Were a
        # later argparse to stop reading it, the tests in tests/test_cli.py
        # that check the flag table against argparse on such values, given
        # with a space, would fail.
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise SystemExit(_config_error(message))


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
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (_out_dir(args) / name).write_text(text)
    if not args.quiet:
        sys.stdout.write(text)


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
                                args.n_configs // 2)
    checks = [*C.riesz_constants(), *C.green_ball(),
              C.riesz_composition(gaps)]
    return _finish(args, "kernels-selftest", checks, seed=args.seed,
                   composition_gaps=gaps)


def cmd_ladder(args) -> int:
    from . import ladder as L
    try:
        params = HardyHenonParams(args.n, max(1, args.n // 2), args.a,
                                  args.p)
        threshold = L.divergence_threshold(params, args.M)
        l0 = args.l0
        if l0 is None:
            # the closed form's log base is 1 at e times the threshold; on
            # the threshold it is 0 up to a rounding that p^k amplifies
            l0 = np.e * threshold
            if not np.isfinite(l0):
                raise ValueError(f"divergence threshold {threshold!r} at p = "
                                 f"{args.p!r} has no finite default start")
        state = L.LadderState.initial(l0, params, args.M, args.alpha0)
        # the recurrence check evaluates the closed form up to this row;
        # its terms grow like p^k and (p-1)^-2
        k_check = min(args.k_max, C.LADDER_ROWS - 1)
        try:
            L.ladder_closed_form(k_check, l0, state)
        except OverflowError:
            raise ValueError(f"the ladder's closed form leaves the float "
                             f"range by k = {k_check} at p = {args.p!r}")
        if not np.isfinite(L.log_amplitude_bound(state, args.k_max)):
            raise ValueError(f"log l_k can leave the float range by "
                             f"k_max = {args.k_max} at p = {args.p!r}")
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
    from . import navier as NV
    try:
        params = HardyHenonParams(args.n, args.m, 0.0, 2.0)
        problem = NV.NavierProblem(params, args.R)
        grid = problem.default_grid(args.nodes)
    except ValueError as exc:
        return _config_error(str(exc))
    eig = NV.first_eigenpair(problem, grid)
    oracle = C.bessel_oracle(problem)
    check = C.eigenvalue_vs_bessel(eig.lambda1, oracle)
    code = _finish(args, "eigen", [check], lambda1=eig.lambda1,
                   bessel_oracle=oracle, rel_error=check.value)
    eig.phi.to_csv(str(_out_dir(args) / "eigenfunction.csv"),
                   f"phi(n={args.n},m={args.m},R={args.R:g})")
    return code


def cmd_solve(args) -> int:
    from . import navier as NV
    try:
        params = HardyHenonParams(args.n, args.m, 0.0, args.p, args.t)
        problem = NV.NavierProblem(params, args.R)
        NV.check_solver_order(problem)
        grid = problem.default_grid(args.nodes)
    except ValueError as exc:
        return _config_error(str(exc))
    sol = NV.solve_positive(problem, grid)
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
    from . import liouville as LV
    try:
        params = HardyHenonParams(args.n, args.m, args.a, args.p)
        init = [float(v) for v in args.init.split(",")]
        LV.shoot_cell(init, params, args.r_max)
    except ValueError as exc:
        return _config_error(str(exc))
    out = LV.shoot(init, params, args.r_max)
    payload = {"command": "shoot", "init": init, "kind": out.kind.value,
               "layer_index": out.layer_index, "r_star": out.r_star,
               "growth_fit": out.growth_fit(), "tag": "eq:PDES"}
    _write_json(args, "shoot.json", payload)
    return 0


def cmd_scan(args) -> int:
    from . import liouville as LV
    try:
        params = HardyHenonParams(args.n, args.m, args.a, args.p)
        for layer, flag in enumerate(("u0", "u1", "higher")):
            if getattr(args, flag) is not None and layer >= args.m:
                raise ValueError(f"--{flag} sets an origin layer that "
                                 f"m = {args.m} does not have")
        axes = LV.reference_axes(params)   # each axis flag replaces its axis
        for i, spec in enumerate([args.u0, args.u1][:args.m]):
            if spec is not None:
                axes[i] = np.linspace(*_triple(spec))
        if args.higher is not None:
            axes[2:] = [np.array([args.higher])] * (args.m - 2)
        LV.scan_cells(axes, params, args.r_max)
    except ValueError as exc:
        return _config_error(str(exc))
    result = LV.scan(axes, params, args.r_max)
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
        params = HardyHenonParams(args.n, args.m, args.a, args.p)
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
    from . import ladder as L
    from . import liouville as LV
    from . import navier as NV
    params = HardyHenonParams(4, 2, 0.0, 2.0)
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


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return parse


def _config_count(text: str) -> int:
    """argparse type of --n-configs: even, half for each of n = 4 and 5."""
    value = _int_at_least(2)(text)
    if value % 2:
        raise argparse.ArgumentTypeError(f"must be even, got {value}")
    return value


# ---------------------------------------------------------------------------
# Command table
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
           "a": (float, 0.0), "r-max": (float, 50.0)}


def _add_shared(sp, *names):
    for name in names:
        kind, default = _SHARED[name]
        sp.add_argument(f"--{name}", type=kind, default=default)


def _kernels_selftest_flags(sp):
    sp.add_argument("--n-configs", type=_config_count, default=20,
                    help="composition checks, split over n = 4 and 5 "
                         "(even, at least 2)")
    sp.add_argument("--seed", type=_int_at_least(0), default=0)


def _ladder_flags(sp):
    _add_shared(sp, "n", "p", "a")
    sp.add_argument("--M", type=float, default=0.0)
    sp.add_argument("--l0", type=float, default=None,
                    help="starting amplitude (default: e times the "
                         "divergence threshold)")
    sp.add_argument("--alpha0", type=float, default=None)
    sp.add_argument("--k-max", type=_int_at_least(0), default=40)


def _eigen_flags(sp):
    from .navier import DEFAULT_NODES
    _add_shared(sp, "n", "m")
    sp.add_argument("--R", type=float, default=1.0)
    sp.add_argument("--nodes", type=int, default=DEFAULT_NODES)


def _solve_flags(sp):
    from .navier import DEFAULT_NODES
    _add_shared(sp, "n", "m", "p")
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--R", type=float, default=1.0)
    sp.add_argument("--nodes", type=int, default=DEFAULT_NODES)


def _shoot_flags(sp):
    _add_shared(sp, "n", "m", "p", "a")
    sp.add_argument("--init", required=True,
                    help="comma-separated origin layer values")
    _add_shared(sp, "r-max")


def _scan_flags(sp):
    _add_shared(sp, "n", "m", "p", "a")
    sp.add_argument("--u0", help="min,max,count (default: reference axis)")
    sp.add_argument("--u1", help="min,max,count (default: reference axis)")
    sp.add_argument("--higher", type=float,
                    help="fixed origin value for layers above the first two")
    _add_shared(sp, "r-max")


def _singular_flags(sp):
    _add_shared(sp, "n", "m", "a", "p")


def _report_flags(sp):
    sp.add_argument("--seed", type=_int_at_least(0), default=0)


class _Command(NamedTuple):
    run: Callable      # handler: parsed args -> exit code
    help: str          # its line in the top-level --help
    add_flags: Callable  # adds its flags to a parser


# every subcommand, in the order the top-level --help lists them
_COMMANDS = {
    "kernels-selftest": _Command(cmd_kernels_selftest, "kernel checks",
                                 _kernels_selftest_flags),
    "ladder": _Command(cmd_ladder, "blow-up ladder table", _ladder_flags),
    "eigen": _Command(cmd_eigen, "first Navier eigenpair on the ball",
                      _eigen_flags),
    "solve": _Command(cmd_solve, "positive Navier solution on the ball",
                      _solve_flags),
    "shoot": _Command(cmd_shoot, "classify one radial trajectory",
                      _shoot_flags),
    "scan": _Command(cmd_scan, "classify a grid of origin data",
                     _scan_flags),
    "singular": _Command(cmd_singular, "exact power-law singular solution",
                         _singular_flags),
    "report": _Command(cmd_report, "condensed certificate battery",
                       _report_flags),
}


def command_parser(name: str) -> _Parser:
    """The parser of one subcommand: its own flags, then the common ones.
    A run builds only the parser of the command it was given."""
    parser = _Parser(prog=f"hhlab {name}")
    _COMMANDS[name].add_flags(parser)
    _add_common(parser)
    return parser


class _Flag(NamedTuple):
    dest: str                  # its attribute in the namespace
    type: Optional[Callable]   # its argparse type; None keeps the string
    takes_value: bool          # False for a store_true switch


class _FlagTable:
    """The flags of one subcommand, recorded from the functions that add
    them to its parser, and a parse of argv that argparse would parse the
    same. Its `add_argument` takes the arguments those functions pass (a
    flag, `type`, `default`, `required`, `action="store_true"`, `help`)."""

    def __init__(self, name: str):
        self.flags = {}       # option string -> _Flag
        self.defaults = {}    # dest -> default, in declaration order
        self.required = []    # dests argparse requires
        _COMMANDS[name].add_flags(self)
        _add_common(self)

    def add_argument(self, flag, type=None, default=None, action=None,
                     required=False, help=None):
        if action not in (None, "store_true"):
            raise ValueError(f"{flag}: the flag table reads no {action!r}")
        dest = flag[2:].replace("-", "_")
        self.flags[flag] = _Flag(dest, type, action is None)
        self.defaults[dest] = default if action is None else False
        if required:
            self.required.append(dest)

    def parse(self, argv: list):
        """The argparse.Namespace that argparse returns for argv (the last
        repeat of a flag wins), where argv holds only exact `--flag value`,
        `--flag=value` and bare switches, the values are accepted by their
        types and every required flag is given; otherwise None."""
        values = dict(self.defaults)
        given = set()
        tokens = iter(argv)
        for token in tokens:
            name, eq, value = token.partition("=")
            flag = self.flags.get(name)
            if flag is None:
                return None
            if not flag.takes_value:
                if eq:
                    return None
                values[flag.dest] = True
                continue
            if not eq:
                value = next(tokens, None)
                if value is None or (value.startswith("-") and
                                     not _NEGATIVE_NUMBER.match(value)):
                    return None
            if flag.type is not None:
                try:
                    value = flag.type(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            values[flag.dest] = value
            given.add(flag.dest)
        if not given.issuperset(self.required):
            return None
        return argparse.Namespace(**values)


def _dispatch_parser(argv: list) -> _Parser:
    """The top-level parser: it names every subcommand with its help and
    owns no flags. It only sees an argv that does not start with a command
    name, so it ends in the top-level help or a JSON error. A subcommand
    named later in argv (`hhlab --quiet solve --p 2`) gets its flags, so
    the error names only the arguments that command does not know."""
    parser = _Parser(prog="hhlab",
                     description="Numerical laboratory for critical and "
                                 "super-critical order Hardy-Henon "
                                 "equations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        if name in argv:
            command.add_flags(sp)
            _add_common(sp)
    return parser


def _apply_config(argv: list, table: _FlagTable) -> list:
    """Load INI defaults for the subcommand argv[0]; flags still override.
    The file is named by `--config PATH` or `--config=PATH`. A key is its
    flag's name without the dashes, `_` standing for `-`, and keeps its
    case as on the command line: `R = 2` sets `--R`. The key of a flag
    that takes no value in `table` (`--quiet`) is a boolean in
    `ConfigParser.getboolean`'s words: true adds the bare flag."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token[len("--config="):]
    if path is None:
        return argv
    command = argv[0]
    cp = configparser.ConfigParser()
    cp.optionxform = str
    try:
        if not cp.read(path):
            raise SystemExit(
                _config_error(f"config file {path!r} not readable"))
        if not cp.has_section(command):
            return argv
        items = cp.items(command)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise SystemExit(_config_error(
            f"config file {path!r} is malformed: {exc}"))
    injected = []
    for key, value in items:
        flag = "--" + key.replace("_", "-")
        known = table.flags.get(flag)
        tokens = [flag, value]
        if known is not None and not known.takes_value:
            on = cp.BOOLEAN_STATES.get(value.lower())
            if on is None:
                raise SystemExit(_config_error(
                    f"config key {key!r} takes a boolean (true/false, "
                    f"yes/no, on/off, 1/0), got {value!r}"))
            tokens = [flag] if on else []
        if flag not in argv:
            injected.extend(tokens)
    return [command] + injected + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in _COMMANDS:
        _dispatch_parser(argv).parse_args(argv)   # exits: help or a JSON error
    table = _FlagTable(argv[0])
    tokens = _apply_config(argv, table)[1:]
    args = table.parse(tokens)
    if args is None:    # help, an error, or a form the table does not read
        args = command_parser(argv[0]).parse_args(tokens)
    try:
        # a floating-point fault surfaces through the finiteness checks as
        # a JSON error, never as a numpy warning on stderr
        with np.errstate(all="ignore"):
            return _COMMANDS[argv[0]].run(args)
    except (HHLabError, ValueError, ArithmeticError, MemoryError) as exc:
        # inputs were checked in the command's guard: this is numerical
        json.dump({"error": str(exc), "code": 1,
                   "type": type(exc).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
