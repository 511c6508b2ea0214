"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import regen_goldens  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import torilat  # noqa: E402
from torilat import cli, codes, grading, intlin, lattice, torus  # noqa: E402


@pytest.fixture(scope="module")
def goldens():
    return workloads.load_goldens()


def first_jobs(workload, seed, rounds=3):
    gen = workload.rounds(seed)
    return [job for jobs in itertools.islice(gen, rounds) for job in jobs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_jobs(goldens, name):
    a = first_jobs(workloads.make(name, goldens), 7)
    b = first_jobs(workloads.make(name, goldens), 7)
    c = first_jobs(workloads.make(name, goldens), 8)
    assert a == b
    assert a != c


def job_size(w, job):
    """What sets a job's cost: its class and the size of its input."""
    if "argv" in job:
        return tuple(a for a in job["argv"] if a.startswith(("perfbench", "--m")))
    if w.name == "min_distance":
        ans = w.answers[workloads.job_key(job)]
        return workloads.catalogue_class(job["q"], ans["N"], ans["k"])
    if job["kind"] in ("full_torus", "table"):
        return (job["kind"], job["variety"], job["q"])
    setup = workloads.make_setup(job["variety"], job["q"])
    Y = workloads.degenerate_points(job["a"], job["h"], setup)
    size = (job["kind"], job["q"], job["h"], len(Y))
    if "alpha" in job:
        alpha = torilat.Degree(free=tuple(job["alpha"]))
        size += (len(grading.monomial_basis(alpha, setup)),)
    return size


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_have_the_same_sizes_for_every_seed(goldens, name):
    w = workloads.make(name, goldens)

    def sizes(seed):
        rounds = itertools.islice(w.rounds(seed), 1, 3)  # after round 0
        return [sorted(map(str, (job_size(w, j) for j in jobs)))
                for jobs in rounds]

    assert sizes(1) == sizes(2)


def test_h2_monomial_count_matches_the_library():
    setup = workloads.make_setup("h2", 31)
    for i, j in [(0, 0), (3, 0), (0, 4), (5, 3), (16, 1), (1, 14)]:
        alpha = torilat.Degree(free=(i, j))
        assert (len(grading.monomial_basis(alpha, setup))
                == workloads.h2_monomial_count((i, j)))


def test_wrapped_functions_return_what_unwrapped_do():
    setup = workloads.make_setup("h2", 11)
    Y = workloads.degenerate_points([2, 5, 4, 5], 10, setup)
    alpha = torilat.Degree(free=(1, 1))
    M = [[4, 6, 2], [3, 9, 12], [1, 1, 5]]

    def compute():
        s = workloads.make_setup("h2", 11)
        return (
            intlin.hnf(M), intlin.snf(M), torilat.hnf(M),
            grading.monomial_basis(alpha, s),
            codes.hilbert_function(Y, alpha, s),
            codes.code_parameters(Y, alpha, s),
            lattice.degenerate_lattice([2, 5, 4, 5], 10, s).L,
            torus.vanishing_lattice(Y, s),
            workloads.run_cli(["subgroup-info",
                               f"{workloads.FIXTURE_DIR}/h2_a2455.json"]),
        )

    originals = (intlin.hnf, torilat.hnf, grading.ToricSetup.__init__,
                 codes.monomial_basis, cli.main)
    plain = compute()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert intlin.hnf is not originals[0]
        assert codes.monomial_basis is grading.monomial_basis
        traced = compute()
    finally:
        uninstall()
    assert traced == plain
    assert tracer.spans
    assert (intlin.hnf, torilat.hnf, grading.ToricSetup.__init__,
            codes.monomial_basis, cli.main) == originals


class SetupOwnership(tracing.Tracer):
    """Fails when a job calls the library with a setup from another job."""

    def __init__(self):
        super().__init__()
        self.owner = {}
        self.reused = []

    def call(self, name, fn, args, kwargs):
        if name == "grading.ToricSetup":
            self.owner[id(args[0])] = self.job
        for x in (*args, *kwargs.values()):
            if isinstance(x, grading.ToricSetup) and id(x) in self.owner:
                if self.owner[id(x)] != self.job:
                    self.reused.append((self.job, name))
        return super().call(name, fn, args, kwargs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_job_starts_with_an_empty_monomial_cache(goldens, name):
    w = workloads.make(name, goldens)
    jobs = [j for j in next(w.rounds(3)) if j.get("alpha") != [1, 1]]
    tracer = SetupOwnership()
    outputs = []  # keeps every setup alive, so no id is reused
    uninstall = tracing.install(tracer)
    try:
        for i, job in enumerate(jobs):
            tracer.job = i
            outputs.append(w.run(job))
    finally:
        uninstall()
    assert tracer.owner, "no ToricSetup was built"
    assert not tracer.reused


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_one_round(goldens, name):
    w = workloads.make(name, goldens)
    records, labels = [], {}
    t0 = time.perf_counter()
    worker.run_round(w, next(w.rounds(5)), 0, records, labels)
    assert time.perf_counter() - t0 < 30
    assert records
    assert [r["error"] for r in records if r["error"]] == []
    if name == "cli":
        raising = goldens["cli"]["malformed_raising"]
        assert labels.get("traceback", 0) == raising


def test_traced_round_reports_every_layer(goldens):
    w = workloads.make("cli", goldens)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        records = []
        worker.run_round(w, next(w.rounds(5)), 0, records, {}, tracer)
    finally:
        uninstall()
    m = tracing.layer_metrics(tracer, 1)
    for name in run.PER_LAYER:
        if name not in ("cli.tracebacks", "trace.overhead_frac"):
            assert name in m
    for layer in tracing.LAYERS:
        assert m[f"{layer}.self_s"] > 0
    assert m["cli.jobs"] == len(records)


def test_pace_scales_by_the_reference_around_each_job():
    pace = worker.Pace()
    pace.starts = [0.0, 1.0, 1.2, 1.4, 5.0]
    pace.secs = [0.009, 0.006, 0.004, 0.005, 0.001]
    # Within the window: the three runs near t = 1.2.
    assert pace.local(1.1, 1.3) == 0.005
    # Alone near t = 5: widened to the three nearest runs.
    assert pace.local(5.1, 5.1) == 0.004
    records = [{"t0": 1.1, "s": 0.2, "error": None},
               {"t0": 1.2, "s": 0.4, "error": "CheckFailed: x"}]
    m = worker.summarize(records, pace)
    scale = worker.REF_NOMINAL_S / 0.005
    assert records[0]["scaled_s"] == pytest.approx(0.2 * scale)
    assert m["jobs_per_s"] == pytest.approx(1 / (0.6 * scale))
    assert m["raw_jobs_per_s"] == pytest.approx(1 / 0.6)
    assert m["ok_frac"] == 0.5


def test_check_catches_a_wrong_answer(goldens):
    w = workloads.make("hilbert", goldens)
    job = next(j for j in next(w.rounds(0)) if j["kind"] != "table")
    out = w.run(job)
    out["H"] += 1
    with pytest.raises(workloads.CheckFailed):
        w.check(job, out)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_regen_refuses_to_overwrite(monkeypatch, tmp_path):
    target = tmp_path / "goldens.json"
    target.write_text("{}")
    monkeypatch.setattr(workloads, "GOLDENS", target)
    assert regen_goldens.main([]) == 1
    assert target.read_text() == "{}"


def test_benchmark_json_names_the_printed_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
