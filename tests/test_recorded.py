"""The benchmark's recorded answers, replayed as tests.

Jobs, goldens and checks are read from `perfbench/workloads.py`.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def goldens():
    return workloads.load_goldens()


def failures(workload, jobs):
    """(job, reason) for each job whose answer fails the workload's check."""
    bad = []
    for job in jobs:
        try:
            if workload.check(job, workload.run(job)) is not None:
                bad.append((job, "traceback"))  # a malformed input raised
        except workloads.CheckFailed as exc:
            bad.append((job, str(exc)))
    return bad


def test_recorded_cli_invocations(monkeypatch, goldens):
    """Every recorded invocation gives its recorded exit code, exception
    and stdout hash; every malformed input exits 2, 3 or 4 with empty
    stdout and no traceback."""
    monkeypatch.chdir(ROOT)  # the argv name fixtures from the root
    jobs = workloads.cli_all_jobs()
    assert (len(jobs), failures(workloads.Cli(goldens), jobs)) == (169, [])


def test_library_workload_checks(goldens):
    """The first round of the subgroup, hilbert and min_distance workloads
    at seeds 1-5 passes their golden answers and cross-checks."""
    count, bad = 0, []
    for cls in (workloads.Subgroup, workloads.Hilbert, workloads.MinDistance):
        workload = cls(goldens)
        for seed in range(1, 6):
            jobs = next(workload.rounds(seed))
            count += len(jobs)
            bad += failures(workload, jobs)
    assert (count, bad) == (260, [])
