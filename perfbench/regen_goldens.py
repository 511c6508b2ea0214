"""Record the benchmark's goldens from the current source tree.

    python3 perfbench/regen_goldens.py [--force]

Writes perfbench/data/goldens.json with
  - the stdout digest and exit code (or exception) of every CLI
    invocation the cli workload can draw,
  - the answers (|Y|, invariant factors, H values, N, k, d) of the
    default seed's first rounds of subgroup and hilbert,
  - the catalogue of min_distance codes with their N, k, d.
Refuses to overwrite an existing file unless --force is given: goldens
are meant to be recorded once, at the commit whose answers they pin.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

DEFAULT_SEED_ROUNDS = 2


def _first_rounds(workload, n):
    rounds = workload.rounds(workloads.DEFAULT_SEED)
    return [job for _ in range(n) for job in next(rounds)]


def record(workload, jobs):
    answers = {}
    for job in jobs:
        out = workload.run(job)
        workload.check(job, out)
        answers[workloads.job_key(job)] = workload.answer(job, out)
    return answers


def build():
    goldens = {"default_seed": workloads.DEFAULT_SEED}

    cli = {}
    for job in workloads.cli_all_jobs():
        cli[workloads.job_key(job)] = workloads.cli_golden(
            workloads.run_cli(job["argv"])
        )
    malformed = [job for job in workloads.cli_all_jobs()
                 if job["kind"] == "malformed"]
    raising = sum(1 for job in malformed
                  if cli[workloads.job_key(job)]["raises"] is not None)
    goldens["cli"] = {
        "answers": cli,
        "malformed_raising": raising,
        "malformed_total": len(malformed),
    }

    md = workloads.MinDistance({})
    by_class = {}
    for job in workloads.catalogue_jobs():
        setup = workloads.make_setup(job["variety"], job["q"])
        Y = workloads.degenerate_points(job["a"], job["h"], setup)
        alpha = workloads.torilat.Degree(free=tuple(job["alpha"]))
        k = workloads.codes.code_parameters(Y, alpha, setup).k
        cls = workloads.catalogue_class(job["q"], len(Y), k)
        if cls in workloads.MIN_DISTANCE_CLASSES:
            by_class.setdefault(cls, [])
            if len(by_class[cls]) < workloads.CATALOGUE_PER_CLASS:
                by_class[cls].append(job)
    catalogue = []
    for cls in sorted(by_class, key=str):
        for job in by_class[cls]:
            out = md.run(job)
            md.check(job, out)
            catalogue.append({"job": job, "answer": md.answer(job, out)})
    goldens["min_distance"] = {"catalogue": catalogue}
    fixture = [dict(workloads.FIXTURE_CODE, alpha=list(a))
               for a in workloads.FIXTURE_ANSWERS]
    goldens["min_distance"]["answers"] = record(md, fixture)

    for cls in (workloads.Subgroup, workloads.Hilbert):
        w = cls(goldens)
        goldens[w.name] = {
            "answers": record(w, _first_rounds(w, DEFAULT_SEED_ROUNDS))
        }
    return goldens


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--force", action="store_true",
                   help="overwrite existing goldens")
    args = p.parse_args(argv)
    out = workloads.GOLDENS
    if out.exists() and not args.force:
        print(f"{out} exists; pass --force to overwrite it", file=sys.stderr)
        return 1
    goldens = build()
    with open(out, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
