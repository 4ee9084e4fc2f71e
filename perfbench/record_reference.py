"""Record the benchmark's correctness reference at the current commit.

    python3 perfbench/record_reference.py

Run from the root of the checkout. Writes perfbench/reference.json with:

- shoot_pool: origin data for the single shoots, drawn once from POOL_SEED
  (u(0) in [0.1, 10], higher layers in [0, 10], so every shoot integrates),
  with the kind, layer and r* each one gets;
- commands: for every CLI command of every workload, its check verdicts, the
  checks that fail at this commit (known defects), the sup-norm of each
  solve, lambda1 of each eigen, the per-cell kind/layer/r* of each scan and
  the SHA-256 of each seed-independent CSV artifact.

run.py compares every operation against this file. Re-record only when the
program's certified output is meant to change.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workload as W  # noqa: E402
from run import child_env  # noqa: E402

POOL_SEED = 1808_06609
POOL_SIZE = 1024
SEED_DEPENDENT = {"report", "kernels-selftest"}


def shoot_pool() -> list:
    """Origin data with the outcome and RHS-evaluation count of each shoot
    (the count lets workload.py draw shoots of equal total cost)."""
    import hhlab.liouville as LV
    from hhlab.radial import HardyHenonParams
    import tracer as tr
    counter = tr.Tracer()
    tr.install(counter)
    n, a, p = W.SHOOT_PARAMS
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for k in range(POOL_SIZE):
        m = 2 + k % 2
        init = [float(rng.uniform(0.1, 10.0))] + \
            [float(v) for v in rng.uniform(0.0, 10.0, m - 1)]
        before = counter.stats.get("rk.rhs", [0])[0]
        out = LV.shoot(init, HardyHenonParams(n, m, a, p), W.R_MAX)
        pool.append({"m": m, "init": init, "kind": out.kind.value,
                     "layer": out.layer_index, "r_star": out.r_star,
                     "nfev": counter.stats["rk.rhs"][0] - before})
    return pool


def command_reference(op: dict) -> dict:
    payload = op["payload"]
    checks = {c["name"]: c["pass"] for c in payload["checks"]}
    ref = {"rc": op["rc"], "checks": checks}
    defects = sorted(name for name, ok in checks.items() if not ok)
    if defects:
        ref["known_defects"] = defects
    if payload["command"] == "solve":
        ref["sup_norm"] = payload["sup_norm"]
    if payload["command"] == "eigen":
        ref["lambda1"] = payload["lambda1"]
    if op.get("cells") is not None:
        ref["cells"] = op["cells"]
    if op["id"] not in SEED_DEPENDENT:
        ref["csv"] = op["csv"]
    return ref


def main() -> int:
    path = HERE / "reference.json"
    ref = {"shoot_pool": shoot_pool(), "commands": {}}
    path.write_text(json.dumps(ref))     # the runs below read the pool
    out = ROOT / ".perfbench_out" / "record"
    for workload in W.WORKLOADS:
        d = out / workload
        subprocess.run([sys.executable, str(HERE / "workload.py"),
                        "--workload", workload, "--seed", "0",
                        "--seconds", "0", "--out", str(d)],
                       env=child_env(), cwd=ROOT, check=True)
        result = json.loads((d / "result.json").read_text())
        for op in result["cycles"][0]["ops"]:
            if op["id"] == W.SHOOTS_ID:
                continue
            if op["error"] is not None:
                raise SystemExit(f"{op['id']}: {op['error']}")
            ref["commands"][op["id"]] = command_reference(op)
            for name in ref["commands"][op["id"]].get("known_defects", []):
                print(f"known defect at this commit: {op['id']} {name}")
    shutil.rmtree(out)
    text = json.dumps(ref, indent=1, sort_keys=True)
    # one line per innermost list or object keeps the file short and diffable
    text = re.sub(r"[\[{][^\[\]{}]*[\]}]",
                  lambda m: " ".join(m.group(0).split()), text)
    path.write_text(text + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
