"""One run of a benchmark workload: every operation forked from one import.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --out DIR [--trace]

This process imports ``hhlab.cli`` once and never runs an operation itself.
Each operation runs in a child forked from it, so every operation is a first
execution straight after ``import hhlab.cli``: a CLI user pays every cache
fill on every call, and so does each sample here. An operation is a CLI
subcommand, run in process through ``hhlab.cli.main``, or the batch of single
shoots, run through ``hhlab.liouville.shoot``.

Operations run one at a time (a closed loop with one caller), in the same
order in every cycle, and cycles repeat until S seconds are used. Between
cycles a fresh interpreter times ``import hhlab.cli``, which gives set-up
samples spread over the run. Every sample is taken next to runs of the
calibration kernel in the same process (calibrate.py), so that run.py can
scale it to a reference host speed. With --trace, odd cycles install the
tracer in their children; even cycles stay untraced and check that nothing
is wrapped.

Outputs (verdicts, scan cells, shoot outcomes, CSV hashes), timings and trace
statistics go to DIR/result.json; run.py checks them against reference.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

R_MAX = 50.0           # radius of the reference scans and the single shoots
N_SHOOTS = 120         # single shoots per cycle
SHOOT_BATCH = 30       # shoots timed between two calibration runs
SHOOT_PARAMS = (4, 0.0, 2.0)   # n, a, p of every shoot; m comes from the pool
NAVIER_PAIRS = (("3", "2"), ("5", "3"), ("6", "3"), ("8", "4"))
WORKLOADS = ("liouville-scan", "navier-sweep", "cert-report")
SHOOTS_ID = "shoots"
MIN_CYCLES = 3         # cycles of an untraced run
MIN_PAIRS = 2          # untraced/traced pairs of a traced run
SETUP_SAMPLES = 5      # fresh-interpreter imports spread over a run
OP_LIMIT_S = 150.0     # a child still running after this is killed

# A fresh interpreter times its import, then runs the calibration kernel
# twice (calibrate.py); the kernel needs numpy, so it can only follow.
SETUP_CODE = ("import sys, time; t = time.perf_counter(); import hhlab.cli; "
              "s = time.perf_counter() - t; sys.path.insert(0, {here!r}); "
              "import calibrate; "
              "print(s, calibrate.timed(), calibrate.timed())")


def commands(workload: str, seed: int) -> list:
    """(group, id, argv) of every CLI command of one cycle, in run order.

    The primary group is what the workload exists to measure; secondary is
    everything else it runs."""
    cli_seed = str(seed % 2 ** 32)
    if workload == "liouville-scan":
        return [("primary", f"scan-m{m}", ["scan", "--m", m])
                for m in ("2", "3")]
    if workload == "navier-sweep":
        cmds = [("primary", f"solve-p{p}-t{t}", ["solve", "--p", p, "--t", t])
                for p in ("1.5", "2", "3") for t in ("0", "0.5")]
        for n, m in NAVIER_PAIRS:
            cmds.append(("primary", f"solve-n{n}-m{m}",
                         ["solve", "--n", n, "--m", m]))
        cmds += [("primary", f"solve-nodes{k}", ["solve", "--nodes", k])
                 for k in ("257", "1025", "2049")]
        for n, m in NAVIER_PAIRS:
            cmds.append(("secondary", f"eigen-n{n}-m{m}",
                         ["eigen", "--n", n, "--m", m]))
        cmds += [("secondary", f"eigen-nodes{k}", ["eigen", "--nodes", k])
                 for k in ("257", "513", "1025", "2049", "4097")]
        return cmds
    if workload == "cert-report":
        return [("primary", "report", ["report", "--seed", cli_seed]),
                ("secondary", "kernels-selftest",
                 ["kernels-selftest", "--n-configs", "200",
                  "--seed", cli_seed]),
                ("secondary", "singular", ["singular"]),
                ("secondary", "ladder", ["ladder"])]
    raise ValueError(f"unknown workload {workload!r}")


def shoot_indices(workload: str, seed: int, pool: list) -> list:
    """Indices into the reference shoot pool, drawn from the seed.

    The pool is ranked by its recorded RHS-evaluation count and cut into
    N_SHOOTS strata; the seed picks one shoot from each. Every seed thus gets
    different origin data but nearly the same amount of work, so the seed
    does not move the timings."""
    if workload != "liouville-scan":
        return []
    import numpy as np
    rng = np.random.default_rng(seed % 2 ** 32)
    ranked = sorted(range(len(pool)), key=lambda i: (pool[i]["nfev"], i))
    return sorted(int(rng.choice(stratum))
                  for stratum in np.array_split(ranked, N_SHOOTS))


def _artifacts(d: Path) -> dict:
    files = sorted(p for p in d.iterdir() if p.is_file())
    csv = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in files if p.suffix == ".csv"}
    payload = None
    js = [p for p in files if p.suffix == ".json"]
    if js:
        payload = json.loads(js[0].read_text())
        payload.pop("composition_gaps", None)
    cells = None
    if (d / "scan.csv").exists():
        cells = []
        with open(d / "scan.csv") as fh:
            next(fh)
            for line in fh:
                *_, kind, layer, r_star, _growth = line.rstrip("\n").split(",")
                cells.append([kind, int(layer) if layer else None,
                              float(r_star)])
    return {"payload": payload, "csv": csv, "cells": cells,
            "artifact_files": len(files),
            "artifact_bytes": sum(p.stat().st_size for p in files)}


def span_counts(spans: list) -> dict:
    """Counts that need the span tree: scan cells that integrate (a shoot
    under a scan with an integrate child) or end at r0, Green solves under
    `hhlab solve` commands, and the number of those commands."""
    name = {s[0]: s[1] for s in spans}
    parent = {s[0]: s[4] for s in spans}
    scan_shoots = sum(1 for s in spans if s[1] == "liouville.shoot"
                      and name.get(s[4]) == "liouville.scan")
    integrated = sum(1 for s in spans if s[1] == "rk.integrate"
                     and name.get(parent.get(s[4])) == "liouville.scan")
    return {"cells_integrated": integrated,
            "cells_at_r0": scan_shoots - integrated,
            "solve_commands": sum(1 for s in spans if s[4] is None
                                  and s[1] == "cli.solve"),
            "solve_green_solves": sum(
                1 for s in spans if s[1] == "radial.poisson_solve_ball"
                and name[s[5]] == "cli.solve")}


class Operations:
    """The workload's operations, as run in a forked child."""

    def __init__(self, workload: str, seed: int):
        import hhlab.liouville as LV
        from hhlab.radial import HardyHenonParams
        self.lv = LV
        self.cmds = commands(workload, seed)
        self.pool = json.loads(REFERENCE.read_text())["shoot_pool"]
        self.shoots = shoot_indices(workload, seed, self.pool)
        n, a, p = SHOOT_PARAMS
        self.params = {m: HardyHenonParams(n, m, a, p) for m in (2, 3)}
        self.ids = [cid for _, cid, _ in self.cmds]
        if self.shoots:
            self.ids.append(SHOOTS_ID)

    def run(self, k: int, d: Path, trace: bool) -> dict:
        import hhlab.cli
        import calibrate
        import tracer as tr
        tracer = None
        if trace:
            tracer = tr.Tracer()
            tr.install(tracer)
        else:
            tr.assert_untraced()
        if k < len(self.cmds):
            before = calibrate.timed()
            op = self._command(k, d, tracer, hhlab.cli.main)
            op["segments"] = [[before, op["seconds"], calibrate.timed()]]
        else:
            op = self._shoots(calibrate.timed)
        op["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            op["trace"] = dict(span_counts(tracer.spans), stats=tracer.stats,
                               quad_points=tracer.quad_points)
            op["spans"] = tracer.spans
        return op

    def _command(self, k, d, tracer, cli_main) -> dict:
        group, cid, argv = self.cmds[k]
        full = argv + ["--quiet", "--output-dir", str(d)]
        rc, error = None, None
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli_main(full)
            else:
                rc = tracer.span("cli." + argv[0], cli_main, full)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:   # recorded as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        op = {"group": group, "id": cid, "argv": argv, "rc": rc,
              "error": error, "seconds": time.perf_counter() - start}
        if d.is_dir():
            op.update(_artifacts(d))
        return op

    def _shoots(self, calibration) -> dict:
        """The single shoots one after another, with a calibration run
        before the first and after every SHOOT_BATCH-th."""
        shoots, segments = [], []
        cal, first = calibration(), 0
        for n, i in enumerate(self.shoots, 1):
            entry = self.pool[i]
            rec = {"index": i, "error": None}
            start = time.perf_counter()
            try:
                res = self.lv.shoot(entry["init"], self.params[entry["m"]],
                                    R_MAX)
                rec.update(kind=res.kind.value, layer=res.layer_index,
                           r_star=res.r_star)
            except Exception as exc:   # recorded as a failed operation
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["seconds"] = time.perf_counter() - start
            shoots.append(rec)
            if n % SHOOT_BATCH == 0 or n == len(self.shoots):
                batch = sum(s["seconds"] for s in shoots[first:])
                segments.append([cal, batch, calibration()])
                cal, first = segments[-1][2], n
        return {"group": "secondary", "id": SHOOTS_ID, "rc": 0, "error": None,
                "seconds": sum(s["seconds"] for s in shoots),
                "shoots": shoots, "segments": segments}


def forked(ops: Operations, k: int, d: Path, trace: bool) -> dict:
    """Run operation k in a forked child and return its record; the parent
    waits for the child to end."""
    r, w = os.pipe()
    pid = os.fork()    # safe: this process starts no threads (BLAS capped)
    if pid == 0:
        # the child must end here and never return into the parent's loop
        status = 1
        try:
            os.close(r)
            signal.alarm(int(OP_LIMIT_S))
            data = json.dumps(ops.run(k, d, trace)).encode()
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    shutil.rmtree(d, ignore_errors=True)
    if status != 0 or not data:
        return {"group": None, "id": ops.ids[k], "rc": None, "seconds": 0.0,
                "error": f"operation process ended with status {status}"}
    return json.loads(data)


def setup_sample(trace: bool):
    """One fresh interpreter's `import hhlab.cli`: its seconds and the
    calibration kernel's two times after it, or with trace the (hhlab,
    scipy) import seconds from `python -X importtime`."""
    argv = [sys.executable]
    argv += ["-X", "importtime", "-c", "import hhlab.cli"] if trace \
        else ["-c", SETUP_CODE.format(here=str(HERE))]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError("cannot import hhlab.cli:\n" + proc.stderr)
    if not trace:
        seconds, *calibration = map(float, proc.stdout.split()[-3:])
        return seconds, calibration
    hhlab_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:      # the header line
            continue
        name = fields[2].strip()
        if name == "hhlab.cli":     # its cumulative includes hhlab
            hhlab_us = cumulative_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    return hhlab_us / 1e6, scipy_us / 1e6


def measure(workload: str, seed: int, seconds: float, out: Path,
            trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + seconds
    import hhlab.cli
    src = (Path.cwd() / "src").resolve()
    if Path(hhlab.cli.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"hhlab was imported from {hhlab.cli.__file__}, "
                           f"not from {src}")
    import calibrate  # noqa: F401  (imported once, before any fork)
    import tracer  # noqa: F401
    ops = Operations(workload, seed)

    cycles, setup, durations = [], [], []
    while True:
        begun = time.monotonic()
        if begun - started >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(setup_sample(trace))
        traced = trace and len(cycles) % 2 == 1
        n = len(cycles)
        cycles.append({"traced": traced, "ops": [
            forked(ops, k, out / f"c{n}-{k}", traced)
            for k in range(len(ops.ids))]})
        durations.append(time.monotonic() - begun)
        step = 2 if trace else 1   # a traced run stops after a pair
        enough = len(cycles) >= (2 * MIN_PAIRS if trace else MIN_CYCLES)
        if enough and len(cycles) % step == 0 and time.monotonic() + \
                step * statistics.median(durations) > deadline:
            break
    while len(setup) < 3:
        setup.append(setup_sample(trace))
    return {"workload": workload, "seed": seed, "trace": trace,
            "setup": setup, "cycles": cycles}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = measure(args.workload, args.seed, args.seconds, out, args.trace)
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
