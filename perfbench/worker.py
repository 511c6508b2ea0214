"""One workload run in its own process; started by run.py.

Pins numpy/BLAS/OpenMP to one thread before numpy is imported, imports
torilat from the checkout's src/, draws the seeded job rounds, times each
job, checks each answer, and prints one JSON object on stdout.  Untraced
runs report times scaled by a reference timed between jobs (`Pace`).
With --setup-only it stops after set-up and prints only its set-up time.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# p90 needs ten samples beyond it.
MIN_JOBS = 110
# Stop adding rounds after this much wall time even if MIN_JOBS is not met.
MAX_SECONDS = 150

# Reported times are scaled to a machine on which `reference_work` takes
# REF_NOMINAL_S.  The reference runs between jobs, at most every
# REF_EVERY_S; a job's local reference time is the median of the
# reference runs within REF_WINDOW_S of it (at least REF_MIN_RUNS of them).
REF_NOMINAL_S = 0.003
REF_EVERY_S = 0.1
REF_WINDOW_S = 0.5
REF_MIN_RUNS = 3
# Reference runs after set-up; their median scales setup_s.
SETUP_REF_RUNS = 5


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import torilat

    src = (ROOT / "src").resolve()
    if src not in Path(torilat.__file__).resolve().parents:
        raise SystemExit(f"torilat imported from {torilat.__file__}, not {src}")


def reference_work():
    """Fixed work on the interpreter and numpy paths that torilat uses
    (small-int arithmetic, tuples, dicts, lists, int64 arrays mod a prime)
    but no torilat code, so no change to the program moves its time.  It
    measures how fast the shared host lets this process run right now."""
    import numpy as np

    seen, acc = {}, 0
    for i in range(1200):
        t = (i * 7919 % 104729, i % 13, -i)
        seen[t] = seen.get(t, 0) + 1
        acc += sum([x * x % 31 for x in t])
    rows = [[(i * j) % 97 - 40 for j in range(12)] for i in range(12)]
    for _ in range(6):
        for r in rows:
            for k in range(12):
                acc += r[k] * rows[k][0] // 7
    a = np.arange(1024, dtype=np.int64).reshape(32, 32)
    for _ in range(8):
        a = (a @ a) % 31
    b = np.arange(20000, dtype=np.int64)
    for _ in range(10):
        b = (b * 17 + 3) % 101
    return acc + int(a[0, 0]) + int(b[-1])


def time_reference():
    t0 = time.perf_counter()
    reference_work()
    return t0, time.perf_counter() - t0


class Pace:
    """Untimed reference runs between the jobs of an untraced run.

    On a shared host, other tenants can slow this process by up to 1.7x
    for minutes at a time, in CPU time as much as in wall time.  The
    reference slows down with the jobs, so dividing a job's time by the
    reference time measured around it removes most of that swing."""

    def __init__(self):
        self.starts, self.secs, self.last = [], [], float("-inf")

    def tick(self):
        """Runs the reference if REF_EVERY_S has passed since the last run."""
        if time.perf_counter() - self.last >= REF_EVERY_S:
            t0, dt = time_reference()
            self.starts.append(t0)
            self.secs.append(dt)
            self.last = t0 + dt

    def local(self, t0, t1):
        """Median reference time around the interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - REF_WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + REF_WINDOW_S)
        while hi - lo < min(REF_MIN_RUNS, len(self.secs)):
            if lo > 0 and (hi == len(self.secs)
                           or t0 - self.starts[lo - 1] < self.starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.secs[lo:hi])


def scaled_setup(setup_s):
    """setup_s scaled by the reference time measured right after set-up;
    the first reference run only warms up."""
    time_reference()
    ref = statistics.median(time_reference()[1] for _ in range(SETUP_REF_RUNS))
    return setup_s * REF_NOMINAL_S / ref, ref


def run_round(workload, jobs, round_no, records, labels, tracer=None,
              pace=None):
    """Runs one round, appending a record per job; returns its busy time.

    Only the jobs are timed.  Each answer check runs after its job,
    untimed and untraced; its label, if any, is counted in `labels`.
    With a `pace`, the reference may run before a job, untimed."""
    busy = 0.0
    for job in jobs:
        if tracer is not None:
            tracer.job = len(records)
        if pace is not None:
            pace.tick()
        t0 = time.perf_counter()
        try:
            out = workload.run(job)
            error = None
        except Exception as exc:  # a job that raises counts as failed
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        busy += dt
        if error is None:
            if tracer is not None:
                tracer.enabled = False
            try:
                label = workload.check(job, out)
                if label:
                    labels[label] = labels.get(label, 0) + 1
            except Exception as exc:  # CheckFailed, or a check that raised
                error = f"{type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.enabled = True
        records.append({"kind": job["kind"], "t0": t0, "s": dt, "error": error,
                        "round": round_no, "job": job if error else None})
    return busy


def summarize(records, pace):
    """End-to-end metrics of an untraced run, with every job time scaled
    by the reference time around it (see `Pace`)."""
    for r in records:
        r["ref_s"] = pace.local(r["t0"], r["t0"] + r["s"])
        r["scaled_s"] = r["s"] * REF_NOMINAL_S / r["ref_s"]
    lat_ms = [r["scaled_s"] * 1e3 for r in records]
    ok = sum(1 for r in records if r["error"] is None)
    deciles = statistics.quantiles(lat_ms, n=10)
    busy = sum(r["scaled_s"] for r in records)
    raw_busy = sum(r["s"] for r in records)
    return {
        "jobs_per_s": ok / busy,
        "job_ms.p50": statistics.median(lat_ms),
        "job_ms.p90": deciles[8],
        "ok_frac": ok / len(records),
        "samples": len(records),
        "beyond_p90": sum(1 for x in lat_ms if x > deciles[8]),
        "busy_s": busy,
        "raw_busy_s": raw_busy,
        "raw_jobs_per_s": ok / raw_busy,
        "ref_ms.p50": statistics.median(pace.secs) * 1e3,
        "ref_runs": len(pace.secs),
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    os.chdir(ROOT)
    import_program()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    goldens = workloads.load_goldens()
    workload = workloads.make(args.workload, goldens)
    rounds = workload.rounds(args.seed)
    first = next(rounds)
    raw_setup_s = time.monotonic() - args.t0
    setup_s, setup_ref_s = scaled_setup(raw_setup_s)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s,
                          "ref_s": setup_ref_s}))
        return 0

    pending = itertools.chain([first], rounds)

    # Move set-up objects (goldens, job lists) out of the collector's reach
    # so that collections inside jobs cost what they would in a fresh CLI
    # process.
    gc.collect()
    gc.freeze()

    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "threads": {v: os.environ[v] for v in THREAD_VARS},
              "nproc": os.cpu_count()}
    OUT.mkdir(exist_ok=True)
    records, labels = [], {}
    n_rounds, start = 0, time.perf_counter()
    if args.trace == 0:
        pace = Pace()
        for jobs in pending:
            run_round(workload, jobs, n_rounds, records, labels, pace=pace)
            n_rounds += 1
            elapsed = time.perf_counter() - start
            if (elapsed >= args.seconds and len(records) >= MIN_JOBS
                    or elapsed >= MAX_SECONDS):
                break
        metrics = summarize(records, pace)
        metrics["setup_s"] = setup_s
        metrics["raw_setup_s"] = raw_setup_s
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    else:
        import tracing

        # Each round runs twice, untraced and traced, in alternating order,
        # so that a slow spell of the machine hits both sides alike.  The
        # wrappers are installed only for the traced side, so the untraced
        # side is the plain library.
        tracer = tracing.Tracer()
        plain, traced, plain_s, traced_s = [], [], 0.0, 0.0
        for jobs in pending:
            for side in ((0, 1) if n_rounds % 2 == 0 else (1, 0)):
                if side:
                    uninstall = tracing.install(tracer)
                    try:
                        traced_s += run_round(workload, jobs, n_rounds, traced,
                                              labels, tracer)
                    finally:
                        uninstall()
                else:
                    plain_s += run_round(workload, jobs, n_rounds, plain, {})
            n_rounds += 1
            if (plain_s >= args.seconds / 2
                    or time.perf_counter() - start >= MAX_SECONDS):
                break
        metrics = tracing.layer_metrics(tracer, n_rounds)
        metrics["cli.tracebacks"] = labels.get("traceback", 0) / n_rounds
        metrics["trace.overhead_frac"] = traced_s / plain_s - 1
        records = plain + traced
        spans_file = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        with open(spans_file, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job"],
                       "computed_counts": list(tracing.COMPUTED),
                       "spans": tracer.spans}, fh)
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    failed = [r for r in records if r["error"] is not None]
    result.update({
        "rounds": n_rounds, "attempted": len(records), "failed": len(failed),
        "labels": labels, "metrics": metrics,
        "failures": [{"job": r["job"], "error": r["error"]} for r in failed[:20]],
        "job_ms": [round(r["s"] * 1e3, 3) for r in records],
        "scaled_job_ms": [round(r["scaled_s"] * 1e3, 3) for r in records
                          if "scaled_s" in r],
        "job_kinds": [r["kind"] for r in records],
        "job_rounds": [r["round"] for r in records],
    })
    details = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(details, "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"details": str(details.relative_to(ROOT)),
                      "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
