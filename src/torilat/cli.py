"""Batch command-line front end.

Reads a JSON problem description, dispatches to the library, writes a
structured JSON result (stdout or --out) plus a human summary on
stderr.  Exit codes: 0 success, 2 validation error, 3 cap exceeded,
4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import codes, intlin, lattice as lat, torus
from .errors import CapExceededError, InternalError, ValidationError
from .grading import Degree, ToricSetup, setup_from_beta, setup_from_rays


# The integer fields of a problem document, by section: 0 marks an int,
# 1 a list of ints, 2 a list of integer rows.
_INT_FIELDS = {
    "variety": {"rays": 2, "beta": 2, "max_cones": 2},
    "field": {"q": 0},
    "task": {"a": 1, "h": 0, "alpha": 1, "point": 1, "alpha1_values": 1,
             "alpha2_values": 1, "lattice": 2, "generators": 2, "matrix": 2},
}
_SHAPES = ("an integer", "a list of integers", "a list of integer rows")


def _is_ints(x, depth) -> bool:
    if depth == 0:
        return isinstance(x, int) and not isinstance(x, bool)
    return isinstance(x, list) and all(_is_ints(v, depth - 1) for v in x)


def _check_document(doc):
    """Reject a document whose known fields are not integers of the right
    shape (bools, floats and strings are not integers) before any of it
    reaches the library."""
    if not isinstance(doc, dict):
        raise ValidationError("problem document must be a JSON object")
    for section, fields in _INT_FIELDS.items():
        block = doc.get(section, {})
        if not isinstance(block, dict):
            raise ValidationError(f"'{section}' must be a JSON object")
        for key, depth in fields.items():
            if key in block and not _is_ints(block[key], depth):
                raise ValidationError(f"{section}.{key} must be {_SHAPES[depth]}")


def _load_setup(doc) -> ToricSetup:
    try:
        variety = doc["variety"]
        q = doc["field"]["q"]
    except KeyError as exc:
        raise ValidationError(f"malformed problem document: missing {exc}") from exc
    max_cones = variety.get("max_cones")
    if "rays" in variety and "beta" in variety:
        return ToricSetup(variety["rays"], variety["beta"], [], q, max_cones)
    if "rays" in variety:
        return setup_from_rays(variety["rays"], q, max_cones)
    if "beta" in variety:
        return setup_from_beta(variety["beta"], q, max_cones)
    raise ValidationError("variety needs either 'rays' or 'beta'")


def _int_matrix(rows, what, width=None):
    """Rows of a checked document field, of equal length (`width` if given)."""
    if rows and width is not None and any(len(r) != width for r in rows):
        raise ValidationError(f"{what} rows must have length {width}")
    if rows:
        intlin.shape(rows)
    return rows


def _lattice_from_task(task, setup):
    rows = _int_matrix(task.get("lattice", []), "lattice", width=setup.r)
    return intlin.transpose(rows) if rows else [[] for _ in range(setup.r)]


def _alpha_from(args, task, setup) -> Degree:
    if args.alpha is not None:
        try:
            vals = [int(x) for x in args.alpha.split(",")]
        except ValueError:
            raise ValidationError(
                f"--alpha must be comma-separated integers, not {args.alpha!r}"
            ) from None
    elif "alpha" in task:
        vals = task["alpha"]
    else:
        raise ValidationError("no degree given (task 'alpha' or --alpha)")
    if len(vals) != setup.k:
        raise ValidationError(f"degree must have {setup.k} coordinates")
    return Degree(free=tuple(vals))


def _point_set_from_task(task, setup):
    if "a" in task:
        h = task.get("h", setup.q - 1)
        Y, _ = torus.degenerate_torus(list(task["a"]), h, setup)
        return Y
    if "lattice" in task:
        return torus.zero_set_in_torus(_lattice_from_task(task, setup), setup)
    if "generators" in task:
        gens = [
            torus.point_from_rep(list(s), setup)
            for s in _int_matrix(task["generators"], "generators", width=setup.r)
        ]
        return torus.subgroup_closure(gens, setup)
    raise ValidationError("task needs one of 'a', 'lattice', 'generators'")


def _binomials_doc(gens):
    return [{"m": list(b.m), "text": b.text()} for b in gens]


def cmd_parameterize(args, doc, setup):
    L = _lattice_from_task(doc["task"], setup)
    A = lat.parameterize_zero_set(L, setup)
    Y = torus.points_from_parameterization(
        intlin.transpose(A), setup.q - 1, setup
    )
    result = {
        "A": A,
        "num_points": len(Y),
        "points": Y.canon.tolist() if len(Y) <= 512 else None,
    }
    summary = f"parameterizing matrix A ({setup.r}x{setup.r}); zero set has {len(Y)} torus points"
    return result, summary


def cmd_degenerate_lattice(args, doc, setup):
    task = doc["task"]
    if "a" not in task:
        raise ValidationError("degenerate-lattice needs the exponent vector 'a'")
    h = task.get("h", setup.q - 1)
    res = lat.degenerate_lattice(list(task["a"]), h, setup)
    ci = lat.complete_intersection(res.L, setup)
    # the basis columns of L are independent by construction: no rank check
    gens = [lat.Binomial(m=intlin.sign_normalize(c)) for c in intlin.columns(res.L)]
    result = {
        "D": res.D,
        "lattice": intlin.transpose(res.L),
        "generators": _binomials_doc(gens),
        "complete_intersection": ci,
    }
    summary = (
        f"D = diag{tuple(res.D)}; I(Y) = <{', '.join(b.text() for b in gens)}>; "
        f"complete intersection: {ci}"
    )
    return result, summary


def cmd_ci_check(args, doc, setup):
    task = doc["task"]
    rows = _int_matrix(task.get("matrix", task.get("lattice", [])), "matrix")
    if not rows:
        raise ValidationError("ci-check needs a basis 'matrix'")
    if not rows[0]:
        raise ValidationError("matrix rows must not be empty")
    gamma = intlin.transpose(rows)
    mixed = lat.is_mixed(gamma)
    dominating = lat.is_dominating(gamma)
    result = {
        "mixed": mixed,
        "dominating": dominating,
        "complete_intersection": mixed and dominating,
    }
    summary = f"mixed: {mixed}; dominating: {dominating}; CI: {mixed and dominating}"
    return result, summary


def cmd_torus_ideal(args, doc, setup):
    gens = lat.torus_ideal(setup)
    result = {"generators": _binomials_doc(gens)}
    return result, f"I(T_X) = <{', '.join(b.text() for b in gens)}>"


def cmd_subgroup_info(args, doc, setup):
    Y = _point_set_from_task(doc["task"], setup)
    gs = torus.group_structure(Y, setup)
    result = {
        "order": len(Y),
        "invariant_factors": list(gs.orders),
        "generators": [list(p.rep) for p in gs.generators],
        "Q": gs.Q,
        "h": gs.h,
    }
    summary = (
        f"subgroup of order {len(Y)}; invariant factors {list(gs.orders)}; "
        f"parameterized over the order-{gs.h} subgroup of F_{setup.q}*"
    )
    return result, summary


def cmd_code(args, doc, setup):
    task = doc["task"]
    Y = _point_set_from_task(task, setup)
    alpha = _alpha_from(args, task, setup)
    summary_obj = codes.code_parameters(
        Y, alpha, setup, compute_d=args.min_distance, cap=args.cap
    )
    result = {
        "N": summary_obj.N,
        "k": summary_obj.k,
        "d": summary_obj.d,
        "alpha": list(alpha.free),
        "F0": list(summary_obj.F0) if summary_obj.F0 is not None else None,
        "note": summary_obj.note,
    }
    dtxt = f", d = {summary_obj.d}" if summary_obj.d is not None else ""
    return result, f"code parameters: N = {summary_obj.N}, k = {summary_obj.k}{dtxt}"


def cmd_hilbert_table(args, doc, setup):
    task = doc["task"]
    Y = _point_set_from_task(task, setup)
    try:
        first = task["alpha1_values"]
        second = task["alpha2_values"]
    except KeyError as exc:
        raise ValidationError(f"hilbert-table needs {exc} in the task") from exc
    grid = codes.hilbert_table(Y, first, second, setup)
    result = {
        "alpha1_values": first,
        "alpha2_values": second,
        "grid": grid,
    }
    return result, f"{len(second)}x{len(first)} Hilbert table on {len(Y)} points"


def cmd_point_ideal(args, doc, setup):
    task = doc["task"]
    if "point" not in task:
        raise ValidationError("point-ideal needs an exponent vector 'point'")
    P = torus.point_from_rep(task["point"], setup)
    gens = lat.point_ideal(P, setup)
    result = {
        "point_canonical": list(P.canon),
        "generators": [
            {"m": list(b.m), "scale": b.scale, "text": b.text()} for b in gens
        ],
    }
    return result, f"I([P]) has {len(gens)} shifted binomial generators"


COMMANDS = {
    "parameterize": cmd_parameterize,
    "degenerate-lattice": cmd_degenerate_lattice,
    "ci-check": cmd_ci_check,
    "torus-ideal": cmd_torus_ideal,
    "subgroup-info": cmd_subgroup_info,
    "code": cmd_code,
    "hilbert-table": cmd_hilbert_table,
    "point-ideal": cmd_point_ideal,
}


# built once per process: argparse makes a help formatter per argument,
# which costs more than a small command; main only parses with it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="torilat",
        description="Exact lattice-ideal and toric-code computations.",
    )
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("problem", help="JSON problem description")
    p.add_argument("--alpha", help="degree as comma-separated integers")
    p.add_argument(
        "--min-distance", action="store_true", help="also compute minimum distance"
    )
    p.add_argument(
        "--cap", type=int, default=codes.DEFAULT_MESSAGE_CAP,
        help="projective-message cap for minimum distance",
    )
    p.add_argument("--out", help="write the JSON result to this file")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.problem) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers undecodable bytes, malformed JSON and integers
        # longer than int() may convert
        print(f"error: cannot read problem document: {exc}", file=sys.stderr)
        return 2
    try:
        _check_document(doc)
        # ci-check is a pure matrix test and works without a variety block
        if args.command == "ci-check" and "variety" not in doc:
            setup = None
        else:
            setup = _load_setup(doc)
        if "task" not in doc:
            doc = dict(doc, task={})
        result, summary = COMMANDS[args.command](args, doc, setup)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    payload = json.dumps(result, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"error: cannot write result: {exc}", file=sys.stderr)
            return 2
    else:
        print(payload)
    print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
