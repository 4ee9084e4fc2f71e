"""hhlab benchmark: wall time to a certified result, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ./src.
workload.py imports hhlab.cli once and forks a child for every operation, so
each operation is a first execution after a fresh import. Operations run one
at a time, so load comes from a single caller in a closed loop, and cycle
over the workload until S seconds are used. BLAS/OpenMP threads are capped
at 1.

--trace 0 reports the end-to-end metrics: set-up as the median of fresh
interpreters spread over the run, operation times as the sum of each
operation's median over the cycles (see median_sum), peak RSS as a median.
--trace 1 alternates untraced and traced cycles and reports the per-layer
metrics of tracer.py; the untraced twin gives the tracing overhead and the
CSV artifacts both produce, which must match byte for byte.

Every operation is checked against reference.json, recorded at the seed
commit (record_reference.py). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_S, at_reference  # noqa: E402
from workload import SHOOTS_ID, WORKLOADS  # noqa: E402

ROOT = Path.cwd()
PYTHON = sys.executable or "python3"
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
RUN_LIMIT_S = 170.0     # a run must end within 180 s

# Tolerances the acceptance battery pins (tests/test_acceptance.py).
R_STAR_REL = 1e-2       # test_08: r* stability, kind and layer identical
SUP_NORM_REL = 5e-3     # test_06: sup-norm against the shooting oracle
LAMBDA1_REL = 2e-3      # test_05: eigenvalue against the Bessel oracle

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "primary_s": "s",
             "secondary_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def warm_up(env: dict) -> None:
    """Compile bytecode and fill the file cache before any timing."""
    proc = subprocess.run([PYTHON, "-c", "import hhlab.cli"], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError("cannot import hhlab.cli from ./src:\n"
                           + proc.stderr)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run workload.py for the time left of `seconds` and return its result.

    workload.py and every process it starts share one new session, which is
    killed and reaped on every way out of here."""
    start = time.monotonic()
    env = child_env()
    out = ROOT / ".perfbench_out" / f"{workload}-{os.getpid()}"
    warm_up(env)
    left = max(seconds - (time.monotonic() - start), 1.0)
    argv = [PYTHON, str(HERE / "workload.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", f"{left:.3f}",
            "--out", str(out)]
    if trace:
        argv.append("--trace")
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(
            timeout=RUN_LIMIT_S - (time.monotonic() - start))
        if proc.returncode != 0:
            raise RuntimeError(f"workload run failed:\n{err}")
        return json.loads((out / "result.json").read_text())
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def same_outcome(got, want) -> bool:
    """Identical kind and layer, r* within test_08's 1e-2 relative bound."""
    if got is None or got[0] != want[0] or got[1] != want[1]:
        return False
    return abs(got[2] - want[2]) / max(abs(want[2]), 1e-5) <= R_STAR_REL


def check_command(op: dict, want: dict) -> list:
    """Problems of one CLI command against its seed reference."""
    if op["error"] is not None:
        return [op["error"]]
    payload = op.get("payload")
    if op["rc"] not in (0, 1) or payload is None:
        return [f"exit {op['rc']} without a result"]
    problems = []
    got = {c["name"]: c["pass"] for c in payload.get("checks", [])}
    if set(got) != set(want["checks"]):
        problems.append(f"checks {sorted(got)} != {sorted(want['checks'])}")
    defects = want.get("known_defects", [])
    for name, ok in got.items():
        ref = want["checks"].get(name)
        # a known seed defect that starts passing is a fix, not a mismatch
        if ok != ref and not (ok and name in defects):
            problems.append(f"{name}: pass={ok}, seed reference {ref}")
    if op["rc"] != (0 if all(got.values()) else 1):
        problems.append(f"exit {op['rc']} disagrees with its checks")
    for key, tol in (("sup_norm", SUP_NORM_REL), ("lambda1", LAMBDA1_REL)):
        if key in want and not _rel(payload.get(key, float("nan")),
                                    want[key]) <= tol:
            problems.append(f"{key} {payload.get(key)} vs seed {want[key]}")
    return problems


def check_op(op: dict, ref: dict) -> tuple:
    """(attempted, failed, problems, csv identical, csv total) of one
    operation. An operation counts once, and so does each of its scan cells
    and single shoots."""
    if op["id"] == SHOOTS_ID and op["error"] is None:
        attempted = failed = 0
        problems = []
        pool = ref["shoot_pool"]
        for s in op["shoots"]:
            attempted += 1
            w = pool[s["index"]]
            got = None if s["error"] else [s["kind"], s["layer"], s["r_star"]]
            if not same_outcome(got, [w["kind"], w["layer"], w["r_star"]]):
                failed += 1
                problems.append(f"shoot {s['index']}: {s['error'] or got}")
        return attempted, failed, problems, 0, 0
    want = ref["commands"].get(op["id"], {"checks": {}})
    attempted, failed, problems = 1, 0, []
    bad = check_command(op, want)
    if bad:
        failed += 1
        problems += [f"{op['id']}: {b}" for b in bad]
    if "cells" in want:
        cells = op.get("cells") or []
        attempted += len(want["cells"])
        wrong = sum(1 for i, w in enumerate(want["cells"])
                    if not same_outcome(cells[i] if i < len(cells)
                                        else None, w))
        if wrong:
            failed += wrong
            problems.append(f"{op['id']}: {wrong} cells differ")
    csv = want.get("csv", {})
    identical = sum(op.get("csv", {}).get(name) == digest
                    for name, digest in csv.items())
    return attempted, failed, problems, identical, len(csv)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def calibrated_s(op: dict) -> float:
    """An operation's seconds at reference host speed (calibrate.py)."""
    return sum(at_reference(seconds, [before, after])
               for before, seconds, after in op["segments"])


def samples(cycles: list, group: str) -> dict:
    """Operation id -> its calibrated seconds in each of `cycles`."""
    out = {}
    for c in cycles:
        for op in c["ops"]:
            if op["group"] == group:
                out.setdefault(op["id"], []).append(calibrated_s(op))
    return out


def work_s(cycle: dict) -> float:
    return sum(calibrated_s(op) for op in cycle["ops"] if op["group"])


def median_sum(cycles: list, group: str) -> float:
    """Sum over the group's operations of each one's median over cycles.

    Each cycle repeats every operation on the same inputs, each as a first
    execution after a fresh import, so the cycles are repeated samples of
    one cost. Each sample is scaled to reference host speed first; the
    median then drops the samples the scaling could not straighten."""
    return sum(statistics.median(v) for v in samples(cycles, group).values())


def percentile(values, q: int) -> float:
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(len(v) * q / 100) - 1)]


def peak_rss_mb(cycle: dict) -> float:
    return max(op.get("peak_rss_mb", 0.0) for op in cycle["ops"])


def setup_s(result: dict) -> float:
    return statistics.median(at_reference(s, cal)
                             for s, cal in result["setup"])


def end_to_end(result: dict, cycles: list) -> dict:
    return {"setup_s": setup_s(result),
            "peak_rss_mb": statistics.median(peak_rss_mb(c) for c in cycles),
            "primary_s": median_sum(cycles, "primary"),
            "secondary_s": median_sum(cycles, "secondary")}


def named_metrics(workload: str, result: dict, cycles: list,
                  attempted: int, failed: int, exits: int) -> list:
    """The user-facing figures behind the end-to-end metrics, as wall
    time at the host's speed during the run: (name, value, unit, sample
    note). Timings come from the untraced `cycles`; the operation counts
    cover every cycle of the run."""
    med = statistics.median
    n = len(cycles)
    calibration = [t for c in cycles for op in c["ops"]
                   for seg in op.get("segments", []) for t in seg[::2]]
    rows = [("failed_frac", failed / attempted, "ratio",
             f"{failed} of {attempted} ops miss the seed reference"),
            ("nonzero_exit_frac", exits / attempted, "ratio",
             f"{exits} of {attempted} ops exit non-zero"),
            ("host_speed", REFERENCE_S / med(calibration), "ratio",
             f"reference kernel time over its median of {len(calibration)}"
             f" (1 = reference speed)")]
    if not result["trace"]:
        rows[:0] = [("setup_wall_s", med(s for s, _ in result["setup"]),
                     "s", f"median of {len(result['setup'])} interpreters"),
                    ("peak_rss_mb", med(peak_rss_mb(c) for c in cycles),
                     "MB", f"median of {n} cycles")]

    def cycle_median(group, ids=None):
        return med(sum(op["seconds"] for op in c["ops"]
                       if op["group"] == group and
                       (ids is None or op["id"] in ids)) for c in cycles)

    if workload == "liouville-scan":
        scans = [op for op in cycles[0]["ops"] if op.get("cells")]
        cells = sum(len(op["cells"]) for op in scans)
        ids = {op["id"] for op in scans}
        shots = [s["seconds"] * 1e3 for c in cycles for op in c["ops"]
                 for s in op.get("shoots", [])]
        beyond = len(shots) - math.ceil(len(shots) * 0.9)
        rows += [("scan_cells_per_s", cells / cycle_median("primary", ids),
                  "cells/s", f"{cells} cells, median of {n} cycles"),
                 ("shoot_ms_p50", percentile(shots, 50), "ms",
                  f"n={len(shots)}"),
                 ("shoot_ms_p90", percentile(shots, 90), "ms",
                  f"n={len(shots)}, {beyond} beyond")]
    elif workload == "navier-sweep":
        rows += [("solve_sweep_s", cycle_median("primary"), "s",
                  f"median of {n} cycles"),
                 ("eigen_sweep_s", cycle_median("secondary"), "s",
                  f"median of {n} cycles")]
    else:
        rows += [("report_s", cycle_median("primary"), "s",
                  f"median of {n} cycles"),
                 ("kernels_selftest_s",
                  cycle_median("secondary", {"kernels-selftest"}), "s",
                  f"median of {n} cycles")]
    return rows


def aggregate(cycle: dict) -> dict:
    """One traced cycle as one pass: its operations, with the trace
    statistics of all of them added up."""
    stats, ts = {}, {"cells_integrated": 0, "cells_at_r0": 0,
                     "quad_points": 0, "solve_commands": 0,
                     "solve_green_solves": 0}
    for op in cycle["ops"]:
        t = op.get("trace", {})
        for key in ts:
            ts[key] += t.get(key, 0)
        for name, (calls, total, self_s) in t.get("stats", {}).items():
            st = stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
    ts["green_solves_per_solve"] = (
        ts["solve_green_solves"] / ts["solve_commands"]
        if ts["solve_commands"] else 0.0)
    ts["stats"] = stats
    return {"ops": cycle["ops"], "trace_stats": ts}


def per_layer(traced: dict, overheads: list, imports: list,
              csv_frac: float) -> dict:
    """Per-layer metrics of one traced cycle: name -> (value, unit)."""
    ts = traced["trace_stats"]
    st = ts["stats"]
    med = statistics.median

    def calls(name):
        return st.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return st.get(name, [0, 0.0, 0.0])[1]

    def self_s(prefix):
        return sum(v[2] for k, v in st.items()
                   if k == prefix or k.startswith(prefix + "."))

    failures = sum(1 for op in traced["ops"] for c in (op.get("cells") or [])
                   if c[0] == "IntegratorFailure")
    nfev, n_int = calls("rk.rhs"), calls("rk.integrate")
    accepted = calls("rk.step_callback")
    attempted = (nfev - n_int) // 6     # one RHS call to start, six a step
    return {
        "setup.import_hhlab_s": (med(i[0] for i in imports), "s"),
        "setup.import_scipy_s": (med(i[1] for i in imports), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.artifact_bytes": (sum(op.get("artifact_bytes", 0)
                                   for op in traced["ops"]), "bytes"),
        "cli.artifact_files": (sum(op.get("artifact_files", 0)
                                   for op in traced["ops"]), "count"),
        "cli.csv_identical_frac": (csv_frac, "ratio"),
        "cli.nonzero_exits": (sum(1 for op in traced["ops"]
                                  if op["rc"] != 0), "count"),
        "liouville.scan.calls": (calls("liouville.scan"), "count"),
        "liouville.scan.self_s": (self_s("liouville.scan"), "s"),
        "liouville.shoot.calls": (calls("liouville.shoot"), "count"),
        "liouville.shoot.self_s": (self_s("liouville.shoot"), "s"),
        "liouville.cells_integrated": (ts["cells_integrated"], "count"),
        "liouville.cells_at_r0": (ts["cells_at_r0"], "count"),
        "liouville.integrator_failures": (failures, "count"),
        "rk.integrate.calls": (n_int, "count"),
        "rk.integrate.self_s": (self_s("rk.integrate"), "s"),
        "rk.nfev": (nfev, "count"),
        "rk.rhs_s": (total("rk.rhs"), "s"),
        "rk.steps_accepted": (accepted, "count"),
        "rk.steps_rejected": (attempted - accepted, "count"),
        "rk.accept_ratio": (accepted / attempted if attempted else 0.0,
                            "ratio"),
        "rk.hermite_crossing.calls": (calls("rk.hermite_crossing"), "count"),
        "radial.poisson_solve_ball.calls": (
            calls("radial.poisson_solve_ball"), "count"),
        "radial.poisson_solve_ball.self_s": (
            self_s("radial.poisson_solve_ball"), "s"),
        "radial.weighted_cumulative.calls": (
            calls("radial.weighted_cumulative"), "count"),
        "radial.weighted_cumulative.self_s": (
            self_s("radial.weighted_cumulative"), "s"),
        "radial.spline_builds": (calls("radial.spline_build"), "count"),
        "radial.spline_build_s": (total("radial.spline_build"), "s"),
        "radial.iterated_green.calls": (calls("radial.iterated_green"),
                                        "count"),
        "radial.polyharmonic_apply.calls": (
            calls("radial.polyharmonic_apply"), "count"),
        "navier.solve_positive.calls": (calls("navier.solve_positive"),
                                        "count"),
        "navier.solve_positive.self_s": (self_s("navier.solve_positive"),
                                         "s"),
        "navier.apply_K.calls": (calls("navier.apply_K"), "count"),
        "navier.apply_K.self_s": (self_s("navier.apply_K"), "s"),
        "navier.first_eigenpair.calls": (calls("navier.first_eigenpair"),
                                         "count"),
        "navier.first_eigenpair.self_s": (self_s("navier.first_eigenpair"),
                                          "s"),
        "navier.build_certificates.self_s": (
            self_s("navier.build_certificates"), "s"),
        "navier.green_solves_per_solve": (ts["green_solves_per_solve"],
                                          "count"),
        "kernels.riesz_compose_check.calls": (
            calls("kernels.riesz_compose_check"), "count"),
        "kernels.riesz_compose_check.self_s": (
            self_s("kernels.riesz_compose_check"), "s"),
        "kernels.quad_points": (ts["quad_points"], "count"),
        "ladder.advance.calls": (calls("ladder.advance"), "count"),
        "ladder.self_s": (self_s("ladder"), "s"),
        "trace.overhead_frac": (med(overheads), "ratio"),
    }


def combine_traced(layers: list) -> tuple:
    """Counts from the first traced cycle, which every other traced cycle must
    repeat exactly; times and ratios as medians over the traced cycles."""
    out, problems = {}, []
    for name, (value, unit) in layers[0].items():
        values = [m[name][0] for m in layers]
        if unit in ("count", "bytes"):
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced cycles: "
                                f"{values}")
            out[name] = (value, unit)
        else:
            out[name] = (statistics.median(values), unit)
    return out, problems


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def provenance(workload: str, seed: int, samples: dict) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hhlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed,
            "samples": samples,
            "git_commit": commit or "unknown (not a git checkout)",
            "source_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "thread_caps": THREAD_CAPS}


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

def write_spans(workload: str, cycle: dict) -> None:
    """Keep the spans of the run's last traced cycle for inspection."""
    path = ROOT / ".perfbench_out" / f"{workload}.spans.jsonl"
    with open(path, "w") as fh:
        for op in cycle["ops"]:
            for sid, name, start, end, parent, root in op.get("spans", []):
                fh.write(json.dumps({"op": op["id"], "id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "root": root}) + "\n")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ref = json.loads((HERE / "reference.json").read_text())
    result = measure(workload, seed, seconds, trace)
    cycles = result["cycles"]
    untraced = [c for c in cycles if not c["traced"]]
    pairs = [(a, b) for a, b in zip(cycles[::2], cycles[1::2])
             if b["traced"]]

    attempted = failed = identical = total = 0
    problems = []
    for op in (op for c in cycles for op in c["ops"]):
        a, f, p, i, n = check_op(op, ref)
        attempted += a
        failed += f
        identical += i
        total += n
        problems += p
    exits = sum(1 for c in cycles for op in c["ops"] if op["rc"] != 0)
    for plain, twin in pairs:
        for p_op, t_op in zip(plain["ops"], twin["ops"]):
            if p_op.get("csv") != t_op.get("csv"):
                problems.append(f"{p_op['id']}: traced CSV artifacts differ "
                                f"from the untraced ones")
                failed += 1

    shots = sum(len(op.get("shoots", [])) for c in untraced
                for op in c["ops"])
    counts = {"untraced_cycles": len(untraced),
              "samples_per_operation": len(untraced),
              "shoot_latencies": shots,
              "setup_interpreters": len(result["setup"])}
    if trace:
        counts["traced_cycles"] = len(pairs)
        overheads = [work_s(b) / work_s(a) - 1.0 for a, b in pairs]
        layers, unstable = combine_traced(
            [per_layer(aggregate(b), overheads, result["setup"],
                       identical / max(total, 1)) for _, b in pairs])
        problems += unstable
        metrics = layers
        write_spans(workload, pairs[-1][1])
    else:
        metrics = {k: (v, E2E_UNITS[k])
                   for k, v in end_to_end(result, untraced).items()}

    print(f"hhlab benchmark - workload {workload}, seed {seed}, "
          f"{'traced' if trace else 'untraced'}; {len(untraced)} untraced "
          f"cycles, every operation forked after one import, closed loop, "
          f"1 caller")
    for name, value, unit, note in named_metrics(
            workload, result, untraced, attempted, failed, exits):
        print(f"  {name:<22} {value:>12.6g} {unit:<8} {note}")
    print("  reported " + ("per layer:" if trace else
                           "end to end, at reference host speed:"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for p in problems[:50]:
        print(f"  MISMATCH {p}")
    print("provenance " + json.dumps(provenance(workload, seed, counts)))
    return {"correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hhlab" / "cli.py").is_file():
        print(f"no hhlab source tree at {ROOT / 'src'}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
