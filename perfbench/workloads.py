"""Seeded job lists, job bodies and answer checks for the four workloads.

A workload is a list of job classes.  One round runs every class once,
in an order and with parameters drawn from the seed.  A class fixes what
sets a job's cost (point count, monomial count, message count), so any
run of whole rounds has the same mix of job sizes whatever the seed.  A
job is a JSON-able dict; `run` executes it through torilat's public API and
returns its answer, and `check` raises `CheckFailed` when the answer is
wrong.  Every job builds its own `ToricSetup`, so no memo state carries
over from one job to the next.

Library functions are looked up through their modules at call time, so
the wrappers installed by `tracing.install` see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from math import gcd, prod
from pathlib import Path

import torilat
from torilat import cli, codes, grading, intlin, lattice, torus

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDENS = DATA / "goldens.json"
# CLI paths are given relative to the checkout root, as a user would type
# them from there; the runner works from the root.
FIXTURE_DIR = "perfbench/data/fixtures"
MALFORMED_DIR = "perfbench/data/malformed"
DEFAULT_SEED = 0

H2 = {
    "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
    "beta": [[1, -2, 1, 0], [0, 1, 0, 1]],
    "cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
}
P113_BETA = [[1, 1, 1, 3]]

# A zero-set check sweeps the whole torus; keep it to tori this small.
ZERO_SET_CHECK_MAX = 2000
# The (q-1)^r parameterization sweep is 10^4 tuples at q = 11 and grows
# as q^4, so it runs only up to this q.
PARAM_SWEEP_MAX_Q = 11


class CheckFailed(Exception):
    """The program's answer disagrees with an invariant or a golden."""


def make_setup(variety, q):
    if variety == "h2":
        return grading.ToricSetup(H2["rays"], H2["beta"], [], q, H2["cones"])
    if variety == "p113":
        return grading.setup_from_beta(P113_BETA, q)
    raise ValueError(f"unknown variety {variety!r}")


def degenerate_points(a, h, setup):
    """The degenerate torus Y_{a,h}, built as the subgroup generated by the
    images of the r coordinate generators: |Y| * r products where
    `degenerate_torus` sweeps h^r tuples."""
    qm = setup.q - 1
    step = qm // h
    gens = [
        torus.point_from_rep(
            [step * a[i] % qm if i == j else 0 for j in range(setup.r)], setup
        )
        for i in range(setup.r)
    ]
    return torus.subgroup_closure(gens, setup)


def job_key(job):
    return json.dumps(job, sort_keys=True, separators=(",", ":"))


def load_goldens(path=GOLDENS):
    with open(path) as fh:
        return json.load(fh)


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _golden(goldens, workload, job):
    return goldens.get(workload, {}).get("answers", {}).get(job_key(job))


def _random_a(rng, q):
    return [rng.randint(1, q - 2) for _ in range(4)]


def _unit_a(rng, q, h):
    """Exponents a_i that are units mod h.  Then t -> t^a permutes the
    order-h subgroup in each coordinate, so Y_{a,h} is the same set, of
    h^n points, for every such a: the seed moves a, not |Y|."""
    units = [x for x in range(1, q - 1) if gcd(x, h) == 1]
    return [rng.choice(units) for _ in range(4)]


# subgroup ---------------------------------------------------------------

# (variety, q, h).  h sets the sweep size (h^4 tuples) and, with a drawn
# by `_unit_a`, |Y| = h^n; the seed draws a and the order.  Measured in one
# process, a round holds, counting the two full tori, six jobs under 5 ms,
# six of 7-9 ms, one near 15 ms, two near 30 ms, four of 100-140 ms and one
# near 200 ms.  So p50 falls inside the 7-9 ms group (0.30-0.60 of a round)
# and p90 inside the 100-140 ms group (0.75-0.95), not on a gap between
# two groups.
SUBGROUP_CLASSES = [
    ("h2", 13, 4), ("h2", 41, 4), ("h2", 61, 4), ("p113", 13, 3),
    ("p113", 61, 3),
    ("p113", 61, 4), ("p113", 13, 4), ("h2", 61, 5), ("h2", 41, 5),
    ("h2", 31, 6),
    ("p113", 41, 4), ("p113", 61, 5), ("p113", 31, 5),
    ("h2", 11, 5),
    ("p113", 11, 2), ("h2", 61, 10), ("h2", 41, 10),
    ("h2", 11, 10),
]
# Full tori whose vanishing lattice is computed from all their points:
# 100 and 144 points.
FULL_TORUS_CLASSES = [("h2", 11), ("h2", 13)]


class Subgroup:
    name = "subgroup"

    def __init__(self, goldens):
        self.goldens = goldens

    def rounds(self, seed):
        rng = random.Random(f"subgroup:{seed}")
        while True:
            jobs = [
                {"kind": "degenerate", "variety": v, "q": q, "h": h,
                 "a": _unit_a(rng, q, h)}
                for v, q, h in SUBGROUP_CLASSES
            ]
            jobs += [{"kind": "full_torus", "variety": v, "q": q}
                     for v, q in FULL_TORUS_CLASSES]
            rng.shuffle(jobs)
            yield jobs

    def run(self, job):
        setup = make_setup(job["variety"], job["q"])
        if job["kind"] == "full_torus":
            Y = torus.all_torus_points(setup)
            gs = torus.group_structure(Y, setup)
            L = torus.vanishing_lattice(Y, setup)
            return {"setup": setup, "Y": Y, "orders": gs.orders, "L": L}
        a, h = job["a"], job["h"]
        Y, predicted = torus.degenerate_torus(a, h, setup)
        gs = torus.group_structure(Y, setup)
        L = torus.vanishing_lattice(Y, setup)
        dl = lattice.degenerate_lattice(a, h, setup)
        ci = lattice.complete_intersection(dl.L, setup)
        A = lattice.parameterize_zero_set(dl.L, setup)
        Yp = None
        if job["q"] <= PARAM_SWEEP_MAX_Q:
            Yp = torus.points_from_parameterization(
                intlin.transpose(A), job["q"] - 1, setup
            )
        return {"setup": setup, "Y": Y, "predicted": predicted,
                "orders": gs.orders, "L": L, "DL": dl.L, "ci": ci, "Yp": Yp}

    def answer(self, job, out):
        ans = {"order": len(out["Y"]), "invariant_factors": list(out["orders"])}
        if "ci" in out:
            ans["ci"] = out["ci"]
        return ans

    def check(self, job, out):
        setup, Y, L = out["setup"], out["Y"], out["L"]
        qm = setup.q - 1
        _require(prod(out["orders"]) == len(Y),
                 "invariant factors do not multiply to |Y|")
        if job["kind"] == "full_torus":
            _require(len(Y) == qm ** setup.n, "full torus has the wrong size")
            full = intlin.from_columns(
                [[qm * x for x in c] for c in intlin.columns(setup.phi)], setup.r
            )
            _require(intlin.lattice_equal(L, full),
                     "vanishing lattice of the torus is not (q-1) L_beta")
        else:
            _require(intlin.lattice_equal(L, out["DL"]),
                     "vanishing_lattice(Y) != degenerate_lattice(a, h).L")
            _require(out["predicted"] is None or out["predicted"] == len(Y),
                     "|Y| differs from the predicted order")
            _require(len(Y) == job["h"] ** setup.n,
                     "|Y| != h^n for exponents that are units mod h")
            if out["Yp"] is not None:
                _require(out["Yp"] == Y, "parameterized zero set != Y")
            if qm ** setup.n <= ZERO_SET_CHECK_MAX:
                _require(torus.zero_set_in_torus(L, setup) == Y,
                         "zero set of the vanishing lattice != Y")
        gold = _golden(self.goldens, self.name, job)
        if gold is not None:
            _require(gold == self.answer(job, out), "answer differs from golden")


# hilbert ----------------------------------------------------------------

# Cells (point set, M) over H_2.  The point set is a full torus or a
# degenerate torus of order h^2, whose exponents are units mod h (see
# `_unit_a`); it is built by `degenerate_points`, so it stays a small share
# of the job.  M is the number of monomials of the degree alpha, which
# sizes the evaluation matrix; the seed draws alpha among the degrees with
# exactly M monomials.  Measured in one process, a round with the table job
# holds five jobs under 45 ms, seven of 90-125 ms, one near 225 ms and three
# of 370-560 ms: p50 falls inside the 90-125 ms group (0.31-0.75 of a round)
# and p90 inside the top group (0.81-1).
HILBERT_CELLS = [
    ("degenerate", 31, 15, 36), ("degenerate", 41, 20, 36),
    ("full", 31, 30, 36), ("full", 41, 40, 36), ("degenerate", 41, 20, 120),
    ("degenerate", 31, 15, 240),
    ("full", 31, 30, 120), ("full", 41, 40, 120), ("full", 41, 40, 120),
    ("degenerate", 41, 40, 120), ("degenerate", 41, 40, 120),
    ("degenerate", 41, 20, 240),
    ("full", 31, 30, 240),
    ("degenerate", 41, 40, 240), ("full", 41, 40, 240),
]
# alpha = (i, j) with 0 <= i, j <= ALPHA_MAX.
ALPHA_MAX = 20
TABLE_FIXTURE = "h2_a5254.json"
TABLE_GOLDEN = "hilbert_table_6x18.json"


def h2_monomial_count(alpha):
    """Monomials of degree alpha on H_2: x1^e1 x2^e2 x3^e3 x4^e4 with
    e1 - 2 e2 + e3 = i and e2 + e4 = j number (j + 1)(i + j + 1)."""
    i, j = alpha
    return (j + 1) * (i + j + 1)


def degrees_with(monomials):
    return [[i, j] for i in range(ALPHA_MAX + 1) for j in range(ALPHA_MAX + 1)
            if h2_monomial_count((i, j)) == monomials]


class Hilbert:
    name = "hilbert"

    def __init__(self, goldens):
        self.goldens = goldens
        with open(DATA / "fixtures" / TABLE_FIXTURE) as fh:
            task = json.load(fh)["task"]
        with open(DATA / "fixtures" / TABLE_GOLDEN) as fh:
            self.table = json.load(fh)
        self.table_job = {
            "kind": "table", "variety": "h2", "q": 11, "a": task["a"],
            "h": task["h"], "alpha1_values": task["alpha1_values"],
            "alpha2_values": task["alpha2_values"],
        }

    def rounds(self, seed):
        rng = random.Random(f"hilbert:{seed}")
        while True:
            jobs = [dict(self.table_job)]
            for kind, q, h, monomials in HILBERT_CELLS:
                a = [1, 1, 1, 1] if kind == "full" else _unit_a(rng, q, h)
                jobs.append({"kind": kind, "variety": "h2", "q": q, "h": h,
                             "a": a, "alpha": rng.choice(degrees_with(monomials))})
            rng.shuffle(jobs)
            yield jobs

    def run(self, job):
        setup = make_setup(job["variety"], job["q"])
        a, h = job["a"], job["h"]
        if job["kind"] == "table":
            Y, _ = torus.degenerate_torus(a, h, setup)
            grid = codes.hilbert_table(
                Y, job["alpha1_values"], job["alpha2_values"], setup
            )
            return {"setup": setup, "grid": grid}
        if job["kind"] == "full":
            Y = torus.all_torus_points(setup)
        else:
            Y = degenerate_points(a, h, setup)
        alpha = torilat.Degree(free=tuple(job["alpha"]))
        H = codes.hilbert_function(Y, alpha, setup)
        L = lattice.degenerate_lattice(a, h, setup).L
        H_cosets = lattice.hilbert_of_lattice(L, alpha, setup)
        return {"setup": setup, "N": len(Y), "H": H, "H_cosets": H_cosets, "L": L}

    def answer(self, job, out):
        if job["kind"] == "table":
            return {"grid": out["grid"]}
        return {"N": out["N"], "H": out["H"]}

    def check(self, job, out):
        if job["kind"] == "table":
            _require(out["grid"] == self.table["grid"],
                     "Hilbert table differs from the published table")
            setup = out["setup"]
            L = lattice.degenerate_lattice(job["a"], job["h"], setup).L
            for row, b in zip(out["grid"], job["alpha2_values"]):
                for val, a in zip(row, job["alpha1_values"]):
                    alpha = torilat.Degree(free=(a, b))
                    _require(lattice.hilbert_of_lattice(L, alpha, setup) == val,
                             f"table cell {(a, b)} disagrees with the coset count")
        else:
            _require(out["H"] == out["H_cosets"],
                     "rank Hilbert function != coset count")
        gold = _golden(self.goldens, self.name, job)
        if gold is not None:
            _require(gold == self.answer(job, out), "answer differs from golden")


# min_distance -----------------------------------------------------------

# Small degenerate-torus codes, drawn from a catalogue recorded with the
# goldens and grouped by (q, N, k): the search visits (q^k - 1)/(q - 1)
# messages, so k sets a job's size, and N is fixed too.  "skip" draws
# codes whose message count exceeds the default cap (k >= 7), which take
# the skip path.  With the fixture code below, a round has 4 jobs under
# 5 ms, 6 near 12 ms (five (11, 4) codes and the fixture), one (13, 4)
# near 18 ms, one (11, 5) near 160 ms and three (13, 5) near 280 ms, so
# p50 lands inside the 12 ms group and p90 inside the (13, 5) group.
MIN_DISTANCE_CLASSES = [
    (11, 25, 3), (13, 16, 3), (11, 25, "skip"), (13, 16, "skip"),
    (11, 25, 4), (11, 25, 4), (11, 25, 4), (11, 25, 4), (11, 25, 4),
    (13, 8, 4),
    (11, 25, 5), (13, 36, 5), (13, 36, 5), (13, 36, 5),
]
CATALOGUE_POINT_SETS = [(11, 5), (11, 10), (13, 4), (13, 6)]  # (q, h)
CATALOGUE_ALPHAS = [[i, j] for i in range(6) for j in range(4)]
CATALOGUE_A_PER_SET = 16
CATALOGUE_PER_CLASS = 12
SKIP_MIN_K = 7
# The published code of fixture h2_a2455: (N, k, d) = (50, 4, 30) at
# alpha (0, 1) runs every round; (50, 6, 20) at (1, 1) costs about 3 s
# and runs once per run, first.
FIXTURE_CODE = {"kind": "code", "variety": "h2", "q": 11, "h": 10,
                "a": [2, 5, 4, 5]}
FIXTURE_ANSWERS = {(0, 1): (50, 4, 30), (1, 1): (50, 6, 20)}


def catalogue_jobs():
    """Candidate min_distance jobs; the golden script records N, k, d."""
    rng = random.Random("min_distance:catalogue")
    jobs = []
    for q, h in CATALOGUE_POINT_SETS:
        for _ in range(CATALOGUE_A_PER_SET):
            a = _random_a(rng, q)
            for alpha in CATALOGUE_ALPHAS:
                jobs.append({"kind": "code", "variety": "h2", "q": q, "h": h,
                             "a": a, "alpha": alpha})
    return jobs


def catalogue_class(q, n, k):
    if k >= SKIP_MIN_K:
        return (q, n, "skip")
    return (q, n, k)


class MinDistance:
    name = "min_distance"

    def __init__(self, goldens):
        recorded = goldens.get(self.name, {})
        self.catalogue = recorded.get("catalogue", [])
        self.answers = {job_key(e["job"]): e["answer"] for e in self.catalogue}
        self.answers.update(recorded.get("answers", {}))

    def rounds(self, seed):
        by_class = {}
        for entry in self.catalogue:
            job, ans = entry["job"], entry["answer"]
            cls = catalogue_class(job["q"], ans["N"], ans["k"])
            by_class.setdefault(cls, []).append(job)
        for cls in MIN_DISTANCE_CLASSES:
            if not by_class.get(cls):
                raise ValueError(f"catalogue has no code of class {cls}")
        rng = random.Random(f"min_distance:{seed}")
        first = True
        while True:
            jobs = [dict(rng.choice(by_class[c])) for c in MIN_DISTANCE_CLASSES]
            jobs.append(dict(FIXTURE_CODE, alpha=[0, 1]))
            rng.shuffle(jobs)
            if first:
                jobs.insert(0, dict(FIXTURE_CODE, alpha=[1, 1]))
                first = False
            yield jobs

    def run(self, job):
        setup = make_setup(job["variety"], job["q"])
        Y = degenerate_points(job["a"], job["h"], setup)
        alpha = torilat.Degree(free=tuple(job["alpha"]))
        summary = codes.code_parameters(Y, alpha, setup, compute_d=True)
        return {"setup": setup, "Y": Y, "alpha": alpha, "summary": summary}

    def answer(self, job, out):
        s = out["summary"]
        return {"N": s.N, "k": s.k, "d": s.d, "note": s.note}

    def check(self, job, out):
        s, setup, q = out["summary"], out["setup"], out["setup"].q
        mat, mons, _ = codes.evaluation_matrix(out["Y"], out["alpha"], setup)
        _require(s.N == len(out["Y"]), "N != |Y|")
        _require(s.k == (codes.rank_mod_q(mat, q) if mons else 0),
                 "k != rank of the evaluation matrix")
        messages = (q ** s.k - 1) // (q - 1)
        if messages > codes.DEFAULT_MESSAGE_CAP:
            _require(s.d is None and "skipped" in s.note,
                     "over-cap code did not take the skip path")
        elif s.k:
            _require(s.d is not None and 1 <= s.d <= s.N - s.k + 1,
                     "d outside [1, N - k + 1]")
            basis = codes.row_space_basis(mat, q)
            least = min(int((row != 0).sum()) for row in basis)
            _require(s.d <= least, "d exceeds the least weight of a basis row")
        published = FIXTURE_ANSWERS.get(tuple(job["alpha"]))
        if published and {k: job[k] for k in FIXTURE_CODE} == FIXTURE_CODE:
            _require((s.N, s.k, s.d) == published,
                     "fixture code differs from its published parameters")
        gold = self.answers.get(job_key(job))
        if gold is not None:
            _require(gold == self.answer(job, out), "answer differs from golden")


# cli --------------------------------------------------------------------

FIXTURES = ["ci_8x2.json", "h2_a2455.json", "h2_a5254.json", "h2_q11.json",
            "hilbert_table_6x18.json", "p113_q11.json"]
# Degrees for the --alpha variants, per fixture.  Documents without a
# variety fail before the degree is read.
ALPHA_BOX = {
    "h2_a2455.json": [f"{i},{j}" for i in range(4) for j in range(4)],
    "h2_a5254.json": [f"{i},{j}" for i in range(4) for j in range(4)],
    "h2_q11.json": [f"{i},{j}" for i in range(4) for j in range(4)],
    "p113_q11.json": [str(i) for i in range(5)],
}
NO_VARIETY_ALPHA = ["1,1"]
# --min-distance --alpha draws only degrees whose search is small (k <= 4)
# or skipped, so one pass stays a few seconds.
CLI_MIN_DISTANCE_MAX_K = 4
# Variants of each kind per fixture and round.  A variant costs about what
# its fixture's other commands cost.  The P(1,1,1,3) variants (0.2-0.4 s)
# get twice the share, so p90 lands inside their group, not on its lower
# edge.  The documents without a variety, whose variants stop at under a
# millisecond, get four times the share: the sub-millisecond jobs then
# fill about 0.63 of a round, and p50 lands inside them rather than on
# the gap between them and the 4-10 ms h2_q11 jobs.
CLI_VARIANTS = {f: 2 for f in FIXTURES}
CLI_VARIANTS.update({"p113_q11.json": 4, "ci_8x2.json": 8,
                     "hilbert_table_6x18.json": 8})
MALFORMED = [
    ["subgroup-info", f"{MALFORMED_DIR}/h_not_int.json"],
    ["code", f"{FIXTURE_DIR}/h2_a2455.json", "--alpha", "5,x"],
    ["point-ideal", f"{MALFORMED_DIR}/point_not_int.json"],
    ["torus-ideal", f"{MALFORMED_DIR}/float_ray.json"],
    ["subgroup-info", f"{MALFORMED_DIR}/top_level_list.json"],
]
CLEAN_EXITS = (2, 3, 4)


def cli_base_jobs():
    jobs = []
    for f in FIXTURES:
        path = f"{FIXTURE_DIR}/{f}"
        for command in sorted(cli.COMMANDS):
            jobs.append({"kind": "cli", "argv": [command, path]})
        jobs.append({"kind": "cli", "argv": ["code", path, "--min-distance"]})
    return jobs


def cli_alpha_jobs(fixture):
    path = f"{FIXTURE_DIR}/{fixture}"
    out = []
    for alpha in ALPHA_BOX.get(fixture, NO_VARIETY_ALPHA):
        out.append({"kind": "cli", "argv": ["code", path, "--alpha", alpha]})
        out.append({"kind": "cli",
                    "argv": ["code", path, "--min-distance", "--alpha", alpha]})
    return out


def cli_all_jobs():
    """Every job any seed can draw; the golden script records each one."""
    jobs = cli_base_jobs()
    for f in FIXTURES:
        jobs += cli_alpha_jobs(f)
    return jobs + [{"kind": "malformed", "argv": argv} for argv in MALFORMED]


def run_cli(argv):
    """torilat.cli.main in-process: exit code, exception type, stdout."""
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback, which the CLI should not give
            raised = type(exc).__name__
    return {"exit": code, "raises": raised, "stdout": out.getvalue()}


def cli_golden(result):
    stdout = result["stdout"]
    gold = {"exit": result["exit"], "raises": result["raises"],
            "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "bytes": len(stdout.encode())}
    if result["exit"] == 0 and stdout.startswith("{"):
        doc = json.loads(stdout)
        if "k" in doc:
            gold["k"], gold["d"] = doc["k"], doc["d"]
    return gold


class Cli:
    name = "cli"

    def __init__(self, goldens):
        self.goldens = goldens["cli"]["answers"]
        self.base = cli_base_jobs()
        self.alpha = {f: [] for f in FIXTURES}
        self.min_distance = {f: [] for f in FIXTURES}
        for f in FIXTURES:
            for job in cli_alpha_jobs(f):
                gold = self.goldens[job_key(job)]
                if "--min-distance" not in job["argv"]:
                    self.alpha[f].append(job)
                elif gold["exit"] != 0 or gold.get("d") is None or (
                        gold["k"] <= CLI_MIN_DISTANCE_MAX_K):
                    self.min_distance[f].append(job)

    def rounds(self, seed):
        rng = random.Random(f"cli:{seed}")
        while True:
            jobs = [dict(j) for j in self.base]
            for f in FIXTURES:
                for _ in range(CLI_VARIANTS[f]):
                    jobs.append(dict(rng.choice(self.alpha[f])))
                    jobs.append(dict(rng.choice(self.min_distance[f])))
            jobs += [{"kind": "malformed", "argv": list(argv)}
                     for argv in MALFORMED]
            rng.shuffle(jobs)
            yield jobs

    def run(self, job):
        return run_cli(job["argv"])

    def answer(self, job, out):
        return cli_golden(out)

    def check(self, job, out):
        """Returns "traceback" for a malformed input that raised."""
        if job["kind"] == "malformed":
            # The contract is a clean error: empty stdout and exit 2, 3 or
            # 4.  At the seed most of these raise instead; that is counted,
            # not failed, so the known defect shows without failing runs.
            _require(out["stdout"] == "", "malformed input wrote a result")
            if out["raises"] is not None:
                return "traceback"
            _require(out["exit"] in CLEAN_EXITS,
                     f"malformed input exited {out['exit']}")
            return None
        gold = self.goldens.get(job_key(job))
        _require(gold is not None, "no golden for this invocation")
        got = cli_golden(out)
        _require(got["exit"] == gold["exit"] and got["raises"] == gold["raises"],
                 f"exit {got['exit']}/{got['raises']} != golden "
                 f"{gold['exit']}/{gold['raises']}")
        _require(got["sha256"] == gold["sha256"], "stdout differs from golden")
        return None


WORKLOADS = {w.name: w for w in (Subgroup, Hilbert, MinDistance, Cli)}


def make(name, goldens):
    return WORKLOADS[name](goldens)
