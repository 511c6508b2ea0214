"""torilat benchmark: one seeded workload, every answer checked.

    python3 perfbench/run.py --workload {subgroup,hilbert,min_distance,cli}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout (this file's parent directory holds
src/torilat).  The workload runs in its own process (worker.py), closed
loop: one client, one job after another.  With --trace 0 the last stdout
line holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run (spans go to perfbench/out/).  Times are scaled
by a reference timed in the same process (see worker.Pace).  Set-up time
is the median over several fresh processes.  Exits non-zero, without a result,
when the program or the goldens are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ("subgroup", "hilbert", "min_distance", "cli")
# Extra processes that only set up, so setup_s is a median of several.
SETUP_PROCESSES = 6
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170

END_TO_END = {
    "jobs_per_s": "1/s", "job_ms.p50": "ms", "job_ms.p90": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
}
# Per traced round (every round of a seed holds the same jobs), except
# the largest HNF and the ratios.
PER_LAYER = {
    "torus.self_s": "s/round", "torus.tuples_swept": "count/round",
    "torus.points_out": "count/round", "torus.yield": "ratio",
    "intlin.self_s": "s/round", "intlin.calls": "count/round",
    "intlin.hnf_cols_max": "count",
    "grading.self_s": "s/round", "grading.setups": "count/round",
    "grading.monomials_out": "count/round",
    "gfield.self_s": "s/round", "gfield.table_entries": "count/round",
    "codes.elim_cells": "count/round", "codes.messages": "count/round",
    "lattice.cosets_reduced": "count/round",
    "cli.jobs": "count/round", "cli.tracebacks": "count/round",
    "trace.overhead_frac": "ratio",
}


def worker(args, extra, timeout):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(time.monotonic()), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description="torilat benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "torilat" / "__init__.py").is_file():
        print(f"error: no torilat source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setups = []
    if args.trace == 0:
        for _ in range(SETUP_PROCESSES):
            setups.append(worker(args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"])
    res = worker(args, [], RUN_TIMEOUT_S)
    m = res["metrics"]
    if args.trace == 0:
        setups.append(m["setup_s"])
        m["setup_s"] = statistics.median(setups)
        wanted = END_TO_END
        print(f"# {args.workload}: {m['samples']} jobs, {m['beyond_p90']} "
              f"beyond p90; setup_s over {len(setups)} processes")
    else:
        wanted = PER_LAYER
    print(f"# details: {res['details']}; threads pinned to 1, "
          f"nproc {os.cpu_count()}")
    for name, unit in wanted.items():
        print(f"# {name} = {m[name]:.6g} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": m[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
