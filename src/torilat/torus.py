"""Points of the torus T_X = (F_q*)^r / G in exponent space.

A point with exponent representative s (coordinates eta^{s_1}, ...,
eta^{s_r}) is classified by its canonical form phi^T s mod q-1; two
representatives give the same point of T_X iff their canonical forms
agree.  All set operations are linear algebra mod q-1.

A subgroup of T_X is, in canonical forms, a lattice Lambda with
(q-1)Z^n <= Lambda <= Z^n.  Every constructor here names generators of
its subgroup and keeps the Hermite basis of Lambda; the order,
membership, structure and vanishing lattice come from that basis, and
the points are enumerated from it only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    rep: tuple = field(compare=False)


class PointSet:
    """Deduplicated set of torus points, stored as two int64 arrays in
    canonical order: `canon` (N x n canonical forms) and `reps` (N x r, one
    exponent representative per point).  A subgroup from `_subgroup` holds
    its n x n Hermite basis B and one representative per column of B
    instead, and fills the arrays on first read."""

    def __init__(self, points):
        self.basis = None
        pts = list(points)
        # np.unique sorts stably, so `first` keeps each form's first point
        canon, first = np.unique(
            _int_rows([p.canon for p in pts]), axis=0, return_index=True
        )
        self._arrays = canon, _int_rows([p.rep for p in pts])[first]

    @classmethod
    def _from_lattice(cls, basis, basis_reps, qm, r):
        Y = cls.__new__(cls)
        Y.basis, Y.basis_reps, Y._qm, Y._r = basis, basis_reps, qm, r
        return Y

    @property
    def is_group(self):
        return self.basis is not None

    @cached_property
    def _arrays(self):
        """(canon, reps) of a subgroup: sum_j x_j B_j with 0 <= x_j <
        (q-1)/B_jj, each point once."""
        qm, B = self._qm, self.basis
        n, r = len(B), self._r
        # entries stay below (q-1)^2 <= 10^12 (q is capped at 10^6), far
        # inside int64
        canon = np.zeros((1, n), dtype=np.int64)
        rep = np.zeros((1, r), dtype=np.int64)
        for j, col_rep in enumerate(self.basis_reps):
            col = np.array([B[i][j] % qm for i in range(n)], dtype=np.int64)
            x = np.arange(qm // B[j][j], dtype=np.int64)[:, None, None]
            canon = ((canon + x * col) % qm).reshape(-1, n)
            rep = ((rep + x * np.array(col_rep, dtype=np.int64)) % qm).reshape(-1, r)
        # lexsort needs at least one key; with n = 0 there is one point
        order = np.lexsort(canon.T[::-1]) if n else slice(None)
        return canon[order], rep[order]

    canon = property(lambda self: self._arrays[0])
    reps = property(lambda self: self._arrays[1])

    def __len__(self):
        if self.basis is None:
            return len(self.canon)
        return prod(self._qm // self.basis[j][j] for j in range(len(self.basis)))

    def __iter__(self):
        for c, s in zip(self.canon.tolist(), self.reps.tolist()):
            yield TorusPoint(canon=tuple(c), rep=tuple(s))

    def __contains__(self, p):
        if not isinstance(p, TorusPoint):
            return False
        if self.is_group:
            # a canonical form lies in [0, q-1)^n; Lambda decides the rest
            return (len(p.canon) == len(self.basis)
                    and all(0 <= x < self._qm for x in p.canon)
                    and self._reducer.contains(list(p.canon)))
        # the width test keeps an empty (0 x 0) set from broadcasting
        return len(p.canon) == self.canon.shape[1] and bool(
            (self.canon == p.canon).all(axis=1).any())

    @cached_property
    def _reducer(self):
        return intlin.HermiteReducer.from_basis(self.basis)

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return False
        if self.is_group and other.is_group:
            # Lambda has one reduced lower-triangular Hermite basis
            return (self.basis, self._qm) == (other.basis, other._qm)
        return np.array_equal(self.canon, other.canon)

    def __repr__(self):
        return f"PointSet({len(self)} points, is_group={self.is_group})"


def _int_rows(rows):
    """int64 array with one row per vector; 0 x 0 when there are none."""
    return np.array(rows, dtype=np.int64) if rows else np.zeros((0, 0), np.int64)


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


def _subgroup(reps, setup: ToricSetup) -> PointSet:
    """The subgroup of T_X generated by the points with exponent
    representatives `reps`.

    In canonical forms the subgroup is the lattice Lambda spanned by the
    generators and (q-1)Z^n.  The column Hermite form of [generators |
    (q-1)I] gives its lower-triangular basis B, so |Lambda / (q-1)Z^n| =
    prod (q-1)/B_ii is checked against the cap before any point exists.
    The transform W writes each basis column as an integer combination of
    the generators; the same combination of their representatives (the
    (q-1)e_j contribute the identity) represents that column; the set
    keeps B and these representatives.
    """
    qm = setup.q - 1
    n, r = setup.n, setup.r
    reps = [[x % qm for x in s] for s in reps]
    cols = [list(canonical_form(s, setup)) for s in reps]
    cols += [[qm if i == j else 0 for i in range(n)] for j in range(n)]
    reps += [[0] * r] * n
    H, W = intlin.column_hnf(intlin.from_columns(cols, n))
    basis_reps = [
        [sum(W[k][j] * s[i] for k, s in enumerate(reps)) % qm for i in range(r)]
        for j in range(n)
    ]
    Y = PointSet._from_lattice([row[:n] for row in H], basis_reps, qm, r)
    if len(Y) > TORUS_ENUM_CAP:
        raise CapExceededError(
            f"subgroup has {len(Y)} points, cap is {TORUS_ENUM_CAP}"
        )
    return Y


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
    step = _subgroup_step(h, setup)
    if Q and len(Q[0]) != setup.r:
        raise ValidationError("parameterization matrix has wrong column count")
    return _subgroup([[step * x for x in row] for row in Q], setup)


def _subgroup_step(h, setup: ToricSetup) -> int:
    """(q-1)/h: eta to this power generates the order-h subgroup of F_q*."""
    qm = setup.q - 1
    if h <= 0 or qm % h != 0:
        raise ValidationError(f"subgroup order {h} does not divide q-1 = {qm}")
    return qm // h


def _diagonal_orders(a, h, setup: ToricSetup):
    """d_i = h/gcd(h, a_i): the order of t -> t^{a_i} on the order-h
    subgroup of F_q*, for the diagonal exponents a of a degenerate torus."""
    if len(a) != setup.r:
        raise ValidationError("diagonal exponent vector length != r")
    _subgroup_step(h, setup)
    return [h // gcd(h, abs(ai)) for ai in a]


def parameterize_zero_set(L, setup: ToricSetup):
    """Square matrix A with Y_{A, F_q*} = V_X(I_L) n T_X (as point sets).

    Forms B_L with rows [b_j, (q-1)e_j], takes an integer kernel basis
    A_L of B_L and returns its first r rows (B_L has full row rank, so
    A is r x r however many columns span L); the columns of the result
    generate {s in Z^r : s . b = 0 mod q-1 for every column b of L}, so
    the point set is points_from_parameterization(transpose(A), q-1).  A
    lattice with no columns gives the identity.  The matrix itself is
    basis-dependent; only the parameterized point set is canonical.
    """
    if not is_homogeneous(L, setup):
        raise ValidationError("lattice is not homogeneous")
    cols = intlin.columns(L)
    ell = len(cols)
    if ell == 0:
        return intlin.identity(setup.r)
    qm = setup.q - 1
    BL = [cols[j] + [qm if i == j else 0 for i in range(ell)] for j in range(ell)]
    AL = intlin.integer_kernel(BL)
    return [AL[i] for i in range(setup.r)]


def zero_set_in_torus(L, setup: ToricSetup) -> PointSet:
    """Points of T_X where every basis binomial of the homogeneous
    lattice L vanishes: the subgroup generated by the columns of
    `parameterize_zero_set(L)`."""
    return _subgroup(intlin.columns(parameterize_zero_set(L, setup)), setup)


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
    """C = (q-1) B^{-1} for a subgroup Y with lower-triangular Hermite
    basis B: forward substitution down each column of (q-1) I.  Every
    division is exact because (q-1)Z^n lies in Lambda."""
    if not Y.is_group:
        raise ValidationError("point set is not a verified subgroup")
    qm, n, B = setup.q - 1, setup.n, Y.basis
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = (qm if j == i else 0) - sum(
                B[j][k] * C[k][i] for k in range(i, j)
            )
            if t % B[j][j]:
                raise InternalError("(q-1)Z^n not inside the generated lattice")
            C[j][i] = t // B[j][j]
    return C


def group_structure(Y: PointSet, setup: ToricSetup) -> GroupStructure:
    """Cyclic decomposition of a subgroup Y and a (Q, h) with
    points_from_parameterization(Q, h) == Y.

    With U C V = S = diag(d_i) the Smith form of C = (q-1) B^{-1}, the
    generators are B U^{-1} e_i = B C V e_i / d_i = ((q-1)/d_i) V e_i;
    each d_i divides q-1, the exponent of Lambda / (q-1)Z^n."""
    qm = setup.q - 1
    n = setup.n
    res = intlin.snf(_exponent_lattice(Y, setup))
    orders = []
    gens = []
    for i in range(n):
        d = res.S[i][i]
        if d <= 1:
            continue
        orders.append(d)
        gens.append(point_from_canon(
            [qm // d * res.V[j][i] % qm for j in range(n)], setup))
    g_all = gcd(qm, *(x for p in gens for x in p.rep))
    h = qm // g_all
    Q = [[x // g_all for x in p.rep] for p in gens]
    return GroupStructure(orders=tuple(orders), generators=tuple(gens), Q=Q, h=h)


def degenerate_torus(a, h, setup: ToricSetup):
    """Y_{A,H} for the diagonal parameterization t_i -> t_i^{a_i} over the
    order-h subgroup H.

    Returns (Y, predicted_order): the predicted order is prod(d_i) when
    the orders d_i = h/gcd(h, a_i) are pairwise coprime, else None.  When
    predicted, |Y| is checked against it.
    """
    d = _diagonal_orders(a, h, setup)
    Q = [[a[i] if i == j else 0 for j in range(setup.r)] for i in range(setup.r)]
    Y = points_from_parameterization(Q, h, setup)
    pairwise = all(
        gcd(d[i], d[j]) == 1 for i in range(len(d)) for j in range(i + 1, len(d))
    )
    predicted = prod(d) if pairwise else None
    if pairwise and len(Y) != predicted:
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
    C = _exponent_lattice(Y, setup)
    return intlin.column_hermite_basis(
        intlin.mat_mul(setup.phi, intlin.transpose(C))
    )
