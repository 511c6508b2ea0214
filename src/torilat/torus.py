"""Points of the torus T_X = (F_q*)^r / G in exponent space.

A point with exponent representative s (coordinates eta^{s_1}, ...,
eta^{s_r}) is classified by its canonical form phi^T s mod q-1; two
representatives give the same point of T_X iff their canonical forms
agree.  All set operations are linear algebra mod q-1.

A subgroup of T_X is, in canonical forms, a lattice Lambda with
(q-1)Z^n <= Lambda <= Z^n.  Every constructor here names generators of
its subgroup and builds the points from the Hermite basis of Lambda; the
order comes from that basis, so the cap is checked before any point is.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from . import intlin
from .errors import CapExceededError, InternalError, ValidationError
from .grading import ToricSetup, is_homogeneous

TORUS_ENUM_CAP = 10**6


@dataclass(frozen=True)
class TorusPoint:
    """canon: n-vector of residues mod q-1; rep: one exponent r-vector."""

    canon: tuple
    rep: tuple

    def __eq__(self, other):
        return isinstance(other, TorusPoint) and self.canon == other.canon

    def __hash__(self):
        return hash(self.canon)

    def __lt__(self, other):
        return self.canon < other.canon

    def coordinates(self, setup: ToricSetup):
        """Field-element coordinates of the stored representative."""
        return tuple(setup.field.eta_pow(s) for s in self.rep)


class PointSet:
    """Deduplicated, canonically sorted set of torus points."""

    def __init__(self, points, is_group=False):
        seen = {}
        for p in points:
            seen.setdefault(p.canon, p)
        self.points = tuple(seen[c] for c in sorted(seen))
        self.is_group = is_group

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return isinstance(p, TorusPoint) and any(
            q.canon == p.canon for q in self.points
        )

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and tuple(p.canon for p in self.points)
            == tuple(p.canon for p in other.points)
        )

    def __repr__(self):
        return f"PointSet({len(self.points)} points, is_group={self.is_group})"

    def canon_set(self):
        return {p.canon for p in self.points}


def canonical_form(s, setup: ToricSetup):
    """phi^T s reduced mod q-1."""
    if len(s) != setup.r:
        raise ValidationError("exponent vector length != r")
    qm = setup.q - 1
    return tuple(
        v % qm for v in intlin.mat_vec(intlin.transpose(setup.phi), list(s))
    )


def point_from_rep(s, setup: ToricSetup) -> TorusPoint:
    return TorusPoint(canon=canonical_form(s, setup), rep=tuple(s))


def point_from_canon(c, setup: ToricSetup) -> TorusPoint:
    """Point with the given canonical form; the representative comes from
    an integer right inverse of phi^T."""
    qm = setup.q - 1
    c = tuple(x % qm for x in c)
    R = setup.right_inverse()
    s = intlin.mat_vec(R, list(c))
    p = TorusPoint(canon=c, rep=tuple(x % qm for x in s))
    if p.canon != canonical_form(p.rep, setup):
        raise InternalError("right inverse failed to produce a representative")
    return p


def identity_point(setup: ToricSetup) -> TorusPoint:
    return TorusPoint(canon=(0,) * setup.n, rep=(0,) * setup.r)


def _subgroup(reps, setup: ToricSetup) -> PointSet:
    """The subgroup of T_X generated by the points with exponent
    representatives `reps`.

    In canonical forms the subgroup is the lattice Lambda spanned by the
    generators and (q-1)Z^n.  The column Hermite form of [generators |
    (q-1)I] gives its lower-triangular basis B, so |Lambda / (q-1)Z^n| =
    prod (q-1)/B_ii is checked against the cap before any point exists.
    The transform W writes each basis column as an integer combination of
    the generators; the same combination of their representatives (the
    (q-1)e_j contribute the identity) represents that column.  The points
    are then sum_i x_i B_i with 0 <= x_i < (q-1)/B_ii, each exactly once.
    """
    qm = setup.q - 1
    n, r = setup.n, setup.r
    reps = [[x % qm for x in s] for s in reps]
    cols = [list(canonical_form(s, setup)) for s in reps]
    cols += [[qm if i == j else 0 for i in range(n)] for j in range(n)]
    reps += [[0] * r] * n
    H, W = intlin.column_hnf(intlin.from_columns(cols, n))
    orders = [qm // H[j][j] for j in range(n)]
    total = prod(orders)
    if total > TORUS_ENUM_CAP:
        raise CapExceededError(
            f"subgroup has {total} points, cap is {TORUS_ENUM_CAP}"
        )
    # entries stay below (q-1)^2 <= 10^12 (q is capped at 10^6), far
    # inside int64
    canon = np.zeros((1, n), dtype=np.int64)
    rep = np.zeros((1, r), dtype=np.int64)
    for j, order in enumerate(orders):
        col = np.array([H[i][j] % qm for i in range(n)], dtype=np.int64)
        col_rep = np.array(
            [sum(W[k][j] * s[i] for k, s in enumerate(reps)) % qm
             for i in range(r)],
            dtype=np.int64,
        )
        x = np.arange(order, dtype=np.int64)[:, None, None]
        canon = ((canon + x * col) % qm).reshape(-1, n)
        rep = ((rep + x * col_rep) % qm).reshape(-1, r)
    pts = [
        TorusPoint(canon=tuple(c), rep=tuple(s))
        for c, s in zip(canon.tolist(), rep.tolist())
    ]
    return PointSet(pts, is_group=True)


def all_torus_points(setup: ToricSetup) -> PointSet:
    """All points of T_X, one representative each: the subgroup generated
    by the coordinate points e_j.  (q-1)^n points when the class group is
    torsion free."""
    return _subgroup(intlin.identity(setup.r), setup)


def points_from_parameterization(Q, h, setup: ToricSetup) -> PointSet:
    """Y_{Q,H} for the order-h subgroup H of F_q*: the set of points whose
    j-th coordinate is t_1^{Q[0][j]} ... t_s^{Q[s-1][j]} with t_i in H.
    With H generated by eta^((q-1)/h), this is the subgroup generated by
    the rows of ((q-1)/h) Q."""
    qm = setup.q - 1
    if h <= 0 or qm % h != 0:
        raise ValidationError(f"subgroup order {h} does not divide q-1 = {qm}")
    if Q and len(Q[0]) != setup.r:
        raise ValidationError("parameterization matrix has wrong column count")
    step = qm // h
    return _subgroup([[step * x for x in row] for row in Q], setup)


def _zero_set_exponents(cols, qm: int, r: int):
    """r x r matrix whose columns generate {s in Z^r : s . b = 0 mod q-1
    for every b in cols}: the first r rows of an integer kernel basis of
    B_L, whose rows are [b_j, (q-1)e_j]."""
    ell = len(cols)
    if ell == 0:
        return intlin.identity(r)
    BL = [
        list(cols[j]) + [qm if i == j else 0 for i in range(ell)]
        for j in range(ell)
    ]
    AL = intlin.integer_kernel(BL)
    return [AL[i] for i in range(r)]


def zero_set_in_torus(L, setup: ToricSetup) -> PointSet:
    """Points of T_X where every basis binomial of the homogeneous
    lattice L vanishes: s . b = 0 mod q-1 for each basis column b.  Built
    as the subgroup generated by the columns of the B_L kernel."""
    if not is_homogeneous(L, setup):
        raise ValidationError("lattice is not homogeneous")
    A = _zero_set_exponents(intlin.columns(L), setup.q - 1, setup.r)
    return _subgroup(intlin.columns(A), setup)


def subgroup_closure(generators, setup: ToricSetup) -> PointSet:
    """Smallest subgroup of T_X containing the generators."""
    return _subgroup([list(g.rep) for g in generators], setup)


@dataclass(frozen=True)
class GroupStructure:
    """Invariant-factor decomposition of a finite subgroup of T_X plus a
    Laurent-monomial parameterization reproducing it."""

    orders: tuple  # invariant factors > 1, divisibility order
    generators: tuple  # one TorusPoint per factor
    Q: list  # s x r integer matrix
    h: int  # order of the coefficient subgroup of F_q*


def _exponent_lattice(Y: PointSet, setup: ToricSetup):
    """(B, C) for a subgroup Y: B is the column Hermite basis of its
    canonical-form lattice Lambda, C = B^{-1} (q-1) I.

    B is built from Y's own points, inserting a point only when it lies
    outside the span so far; each insertion at least doubles the span, so
    there are at most log2|Y| of them, each an HNF of n+1 columns.
    """
    if not Y.is_group:
        raise ValidationError("point set is not a verified subgroup")
    qm = setup.q - 1
    n = setup.n
    reducer = intlin.HermiteReducer.from_basis(
        [[qm if i == j else 0 for j in range(n)] for i in range(n)]
    )
    for p in Y:
        if not reducer.contains(p.canon):
            cols = [list(c) for c in reducer.basis] + [list(p.canon)]
            reducer = intlin.HermiteReducer.from_basis(intlin.from_columns(cols))
    B = intlin.from_columns([list(c) for c in reducer.basis], n)
    if prod(qm // B[i][i] for i in range(n)) != len(Y):
        raise InternalError("group order mismatch in cyclic decomposition")
    # (q-1)Z^n inside the lattice spanned by B: columns of C = B^{-1} (q-1)I
    Ccols = []
    for i in range(n):
        e = [qm if j == i else 0 for j in range(n)]
        x = intlin.solve_integer(B, e)
        if x is None:
            raise InternalError("(q-1)Z^n not inside the generated lattice")
        Ccols.append(x)
    return B, intlin.from_columns(Ccols, n)


def group_structure(Y: PointSet, setup: ToricSetup) -> GroupStructure:
    """Cyclic decomposition of a subgroup Y and a (Q, h) with
    points_from_parameterization(Q, h) == Y."""
    qm = setup.q - 1
    n = setup.n
    B, C = _exponent_lattice(Y, setup)
    res = intlin.snf(C)
    Uinv = intlin.inverse_unimodular(res.U)
    orders = []
    gens = []
    for i in range(n):
        d = res.S[i][i]
        if d <= 1:
            continue
        x = [Uinv[j][i] for j in range(n)]
        g = [v % qm for v in intlin.mat_vec(B, x)]
        orders.append(d)
        gens.append(point_from_canon(g, setup))
    if gens:
        g_all = gcd(qm, *(x for p in gens for x in p.rep))
        h = qm // g_all
        Q = [[x // g_all for x in p.rep] for p in gens]
    else:
        h = 1
        Q = []
    return GroupStructure(orders=tuple(orders), generators=tuple(gens), Q=Q, h=h)


def degenerate_torus(a, h, setup: ToricSetup):
    """Y_{A,H} for the diagonal parameterization t_i -> t_i^{a_i} over the
    order-h subgroup H.

    Returns (Y, predicted_order): the predicted order is prod(d_i) when
    the orders d_i = h/gcd(h, a_i) are pairwise coprime, else None.  When
    predicted, |Y| is checked against it.
    """
    if len(a) != setup.r:
        raise ValidationError("diagonal exponent vector length != r")
    qm = setup.q - 1
    if h <= 0 or qm % h != 0:
        raise ValidationError(f"subgroup order {h} does not divide q-1 = {qm}")
    Q = [[a[i] if i == j else 0 for j in range(setup.r)] for i in range(setup.r)]
    Y = points_from_parameterization(Q, h, setup)
    d = [h // gcd(h, abs(ai)) for ai in a]
    pairwise = all(
        gcd(d[i], d[j]) == 1 for i in range(len(d)) for j in range(i + 1, len(d))
    )
    predicted = None
    if pairwise:
        predicted = 1
        for di in d:
            predicted *= di
        if len(Y) != predicted:
            raise InternalError(
                f"degenerate torus has {len(Y)} points, predicted {predicted}"
            )
    return Y, predicted


def vanishing_lattice(Y: PointSet, setup: ToricSetup):
    """The lattice L(Y) = {m in L_beta : s_P . m = 0 mod q-1 for all P}.

    By the subgroup/lattice correspondence, I(Y) = I_{L(Y)} for subgroups
    Y.  With m = phi u, s_P . m = canon(P) . u, so L(Y) is phi applied to
    the dual {u : B^T u in (q-1)Z^n} = C^T Z^n of Y's exponent lattice.
    """
    _, C = _exponent_lattice(Y, setup)
    return intlin.column_hermite_basis(
        intlin.mat_mul(setup.phi, intlin.transpose(C))
    )
