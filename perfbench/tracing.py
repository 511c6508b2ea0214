"""Span tracing of torilat's layers from outside the package.

`install(tracer)` wraps each module's functions (and the constructors of
`ToricSetup` and `PrimeField`) and rebinds every name under which a
torilat module refers to them, so calls made inside the library are
traced too.  Spans (name, start, end, parent, job) are kept in memory;
`layer_metrics` turns them into per-layer self times and work counts.

Small per-element helpers (matrix accessors, per-point constructors) are
left unwrapped: a wrapper costs more than their work.  Their time counts
as self time of the wrapped function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("intlin", "gfield", "grading", "torus", "lattice", "codes", "cli")

# Called once per matrix entry, vector or torus point.
SKIP = {
    "intlin": {"shape", "identity", "zeros", "copy_matrix", "transpose",
               "mat_mul", "mat_vec", "columns", "from_columns"},
    "torus": {"canonical_form", "point_from_rep", "point_from_canon",
              "identity_point"},
}
# Private functions that other modules import by name.
EXTRA = {"grading": {"_enumerate_solutions"}}
# Constructors traced as spans of their own.
CLASSES = {"grading": "ToricSetup", "gfield": "PrimeField"}

# Torus functions that sweep tuples; only the outermost one counts.
SWEEPS = ("torus.all_torus_points", "torus.points_from_parameterization",
          "torus.zero_set_in_torus", "torus.subgroup_closure")


class Tracer:
    """In-memory span recorder.  `job` tags every span opened while it is
    set; `enabled` is cleared while the benchmark checks an answer."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index, job]
        self.stack = []
        self.counts = {}
        self.job = None
        self.enabled = True
        self.originals = {}  # span name -> unwrapped function

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        span = [name, 0, 0, parent, self.job]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self.stack.pop()
        hook = COUNTERS.get(name)
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    def inside(self, names):
        return any(self.spans[i][0] in names for i in self.stack)


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs)

    return traced


def install(tracer):
    """Wrap the library for `tracer`; returns a function that undoes it."""
    package = importlib.import_module("torilat")
    mods = {name: importlib.import_module(f"torilat.{name}") for name in LAYERS}
    replaced = {}  # id(original) -> wrapper
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and attr not in EXTRA.get(layer, ()):
                continue
            if attr in SKIP.get(layer, ()):
                continue
            name = f"{layer}.{attr}"
            tracer.originals[name] = obj
            replaced[id(obj)] = _wrap(tracer, name, obj)
    undo = []
    for mod in [package, *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
                undo.append((mod, attr, obj))
    for layer, cls_name in CLASSES.items():
        cls = getattr(mods[layer], cls_name)
        init = cls.__dict__["__init__"]
        cls.__init__ = _wrap(tracer, f"{layer}.{cls_name}", init)
        undo.append((cls, "__init__", init))

    def uninstall():
        for owner, attr, obj in reversed(undo):
            setattr(owner, attr, obj)

    return uninstall


# Work counters, computed from each call's arguments and result. ---------


def _count_sweep(tracer, args, kwargs, result, tuples):
    if tracer.inside(SWEEPS):
        return
    tracer.add("torus.tuples_swept", tuples)
    tracer.add("torus.points_out", len(result))


def _all_torus_points(tracer, args, kwargs, result):
    setup = args[0]
    _count_sweep(tracer, args, kwargs, result, (setup.q - 1) ** setup.n)


def _points_from_parameterization(tracer, args, kwargs, result):
    Q, h = args[0], args[1]
    _count_sweep(tracer, args, kwargs, result, h ** len(Q))


def _zero_set_in_torus(tracer, args, kwargs, result):
    setup = args[1]
    _count_sweep(tracer, args, kwargs, result, (setup.q - 1) ** setup.n)


def _subgroup_closure(tracer, args, kwargs, result):
    # one product per (closure element, generator) pair
    _count_sweep(tracer, args, kwargs, result, len(result) * len(args[0]))


def _hnf(tracer, args, kwargs, result):
    # rows of the row-style input: the generators, which size the transform
    rows = len(args[0])
    if rows > tracer.counts.get("intlin.hnf_cols_max", 0):
        tracer.counts["intlin.hnf_cols_max"] = rows


def _enumerate_solutions(tracer, args, kwargs, result):
    tracer.add("grading.monomials_out", len(result))


def _prime_field(tracer, args, kwargs, result):
    field = args[0]
    tracer.add("gfield.table_entries", len(field._pow) + len(field._log))


def _elimination(tracer, args, kwargs, result):
    rows, cols = args[0].shape
    tracer.add("codes.elim_cells", rows * cols)


def _code_parameters(tracer, args, kwargs, result):
    # the full projective message count; an upper bound when d == 1 ends
    # the search early
    if result.d is not None:
        q = args[2].q
        tracer.add("codes.messages", (q ** result.k - 1) // (q - 1))


def _hilbert_of_lattice(tracer, args, kwargs, result):
    L, alpha, setup = args[0], args[1], args[2]
    if L and L[0]:
        mons = tracer.originals["grading.monomial_basis"](alpha, setup)
        tracer.add("lattice.cosets_reduced", len(mons))


COUNTERS = {
    "torus.all_torus_points": _all_torus_points,
    "torus.points_from_parameterization": _points_from_parameterization,
    "torus.zero_set_in_torus": _zero_set_in_torus,
    "torus.subgroup_closure": _subgroup_closure,
    "intlin.hnf": _hnf,
    "grading._enumerate_solutions": _enumerate_solutions,
    "gfield.PrimeField": _prime_field,
    "codes.rank_mod_q": _elimination,
    "codes.row_space_basis": _elimination,
    "codes.code_parameters": _code_parameters,
    "lattice.hilbert_of_lattice": _hilbert_of_lattice,
}

# Counts that are derived from arguments and results rather than observed
# inside the library.
COMPUTED = ("torus.tuples_swept", "intlin.hnf_cols_max", "codes.elim_cells",
            "codes.messages", "lattice.cosets_reduced")


# Metrics that layer_metrics reports whole rather than per round.
UNDIVIDED = ("torus.yield", "intlin.hnf_cols_max", "grading.monomials_per_s",
             "codes.messages_per_s")


def self_times(spans):
    """Per-span self time in ns: duration minus direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(tracer, rounds):
    """Per-layer metrics from the recorded spans and counters, per round.

    Every round of a seed holds the same jobs, so per-round values compare
    across commits even when a faster commit fits more rounds in a run.
    The largest HNF and the ratios are not divided."""
    own = self_times(tracer.spans)
    by_layer = dict.fromkeys(LAYERS, 0)
    by_name = {}
    calls = dict.fromkeys(LAYERS, 0)
    for s, t in zip(tracer.spans, own):
        layer = s[0].split(".", 1)[0]
        by_layer[layer] += t
        by_name[s[0]] = by_name.get(s[0], 0) + t
        calls[layer] += 1
    ns = 1e-9
    c = tracer.counts
    m = {f"{layer}.self_s": by_layer[layer] * ns for layer in LAYERS}
    swept = c.get("torus.tuples_swept", 0)
    m["torus.tuples_swept"] = swept
    m["torus.points_out"] = c.get("torus.points_out", 0)
    m["torus.yield"] = m["torus.points_out"] / swept if swept else 0.0
    m["intlin.calls"] = calls["intlin"]
    m["intlin.hnf_cols_max"] = c.get("intlin.hnf_cols_max", 0)
    m["grading.setups"] = sum(1 for s in tracer.spans
                              if s[0] == "grading.ToricSetup")
    m["grading.monomials_out"] = c.get("grading.monomials_out", 0)
    m["grading.monomials_per_s"] = (
        m["grading.monomials_out"] / m["grading.self_s"]
        if m["grading.self_s"] else 0.0
    )
    m["codes.eval_s"] = by_name.get("codes.evaluation_matrix", 0) * ns
    m["codes.elim_s"] = (by_name.get("codes.rank_mod_q", 0)
                         + by_name.get("codes.row_space_basis", 0)) * ns
    m["codes.elim_cells"] = c.get("codes.elim_cells", 0)
    m["codes.search_s"] = by_name.get("codes.code_parameters", 0) * ns
    m["codes.messages"] = c.get("codes.messages", 0)
    m["codes.messages_per_s"] = (
        m["codes.messages"] / m["codes.search_s"] if m["codes.search_s"]
        else 0.0
    )
    m["lattice.cosets_reduced"] = c.get("lattice.cosets_reduced", 0)
    m["gfield.table_entries"] = c.get("gfield.table_entries", 0)
    m["cli.jobs"] = sum(1 for s in tracer.spans if s[0] == "cli.main")
    for key in m:
        if key not in UNDIVIDED:
            m[key] /= rounds
    return m

