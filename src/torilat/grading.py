"""The grading of the Cox ring.

Builds the exact sequence 0 -> Z^n -> Z^r -> A -> 0 from fan rays (or
from an explicit degree matrix), computes degrees in A, checks lattice
homogeneity, and enumerates monomial bases of graded pieces.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import intlin
from .errors import CapExceededError, InternalError, ValidationError
from .gfield import PrimeField

# Nodes one monomial search may visit; degree (30, 30) on H_2 needs 3.54 M.
MONOMIAL_SEARCH_CAP = 5 * 10**6


@dataclass(frozen=True)
class Degree:
    """An element of the grading group A: free part plus torsion residues."""

    free: tuple
    torsion: tuple = ()


class ToricSetup:
    """Fixed ambient context: ray matrix phi (r x n, rows are primitive
    ray generators), degree matrix beta (free rows plus torsion residue
    rows), prime field size q, optional maximal cones.

    Instances are immutable after construction.
    """

    def __init__(self, phi, beta_free, torsion, q, max_cones=None,
                 check_primitive=True):
        self._check_primitive = check_primitive
        self.phi = [list(row) for row in phi]
        self.r, self.n = intlin.shape(self.phi)
        self.beta_free = [list(row) for row in beta_free]
        self.k = len(self.beta_free)
        # torsion: list of (modulus, residue row of length r)
        self.torsion = [(int(d), list(row)) for d, row in torsion]
        self.q = int(q)
        self.field = PrimeField(self.q)
        self.max_cones = (
            None if max_cones is None else [sorted(set(c)) for c in max_cones]
        )
        self._validate()
        self._right_inverse = None
        self._functional = "unset"
        self._monomial_cache = {}

    def _validate(self):
        for row in self.beta_free:
            if len(row) != self.r:
                raise ValidationError("beta row length != r")
        for _, row in self.torsion:
            if len(row) != self.r:
                raise ValidationError("torsion row length != r")
        for v in self.phi:
            if not any(v):
                raise ValidationError("zero ray vector")
            if self._check_primitive and gcd(*(abs(x) for x in v)) != 1:
                raise ValidationError(f"non-primitive ray {v}")
        phi_snf = intlin.snf(self.phi)
        if phi_snf.rank != self.n:
            raise ValidationError("rays do not span Q^n")
        if self.max_cones is not None:
            for c in self.max_cones:
                if any(j < 0 or j >= self.r for j in c):
                    raise ValidationError("cone ray index out of range")
        # ker(beta_free) must contain the columns of phi; exact equality
        # when there is no torsion.
        for col in intlin.columns(self.phi):
            if any(intlin.mat_vec(self.beta_free, col)) if self.k else False:
                raise ValidationError("beta does not annihilate im(phi)")
            for d, row in self.torsion:
                if sum(a * b for a, b in zip(row, col)) % d != 0:
                    raise ValidationError("torsion row does not annihilate im(phi)")
        # With beta phi = 0, ker(beta) = im(phi) exactly when im(phi) is
        # saturated (every invariant factor of phi is 1) and both have
        # rank n; beta maps onto Z^k when its invariant factors are 1.
        # With no rows, ker(beta) = Z^r: phi must be square and unimodular.
        # This is the one test that phi^T maps onto Z^n.
        beta_factors = intlin.snf(self.beta_free).diagonal if self.k else []
        beta_rank = sum(1 for f in beta_factors if f)
        if not self.torsion and (
            any(f != 1 for f in phi_snf.diagonal) or beta_rank != self.r - self.n
        ):
            raise ValidationError("ker(beta) != im(phi)")
        if beta_rank != self.k:
            raise ValidationError("beta rows are dependent")
        if any(f != 1 for f in beta_factors):
            raise ValidationError("beta does not map onto Z^k")
        torsion_order = 1
        for d, _ in self.torsion:
            torsion_order *= d
        if torsion_order % self.q == 0:
            warnings.warn(
                "torsion order of the class group shares the field "
                "characteristic; quotient constructions may misbehave",
                stacklevel=3,
            )

    def _require_torsion_free(self, what: str):
        if self.torsion:
            raise ValidationError(
                f"{what} is only supported for torsion-free gradings"
            )

    def _require_degrees(self, what: str, *degrees: Degree):
        """Reject a torsion grading, and any degree whose free rank is not
        k (before zip or the search can cut it short or overrun it)."""
        self._require_torsion_free(what)
        if any(len(d.free) != self.k for d in degrees):
            raise ValidationError("degree has wrong free rank")

    def right_inverse(self):
        """Integer R (r x n) with phi^T R = I_n: the first n columns of the
        transform W of the column Hermite form phi^T W = H, which is
        [I_n | 0] because phi^T maps onto Z^n (checked by `_validate` for
        every torsion-free setup)."""
        if self._right_inverse is None:
            self._require_torsion_free("torus coordinate computation")
            H, W = intlin.column_hnf(intlin.transpose(self.phi))
            pad = [0] * (self.r - self.n)
            if H != [row + pad for row in intlin.identity(self.n)]:
                raise InternalError("phi^T is not surjective over Z")
            self._right_inverse = [row[:self.n] for row in W]
        return self._right_inverse

    def __repr__(self):
        return (
            f"ToricSetup(r={self.r}, n={self.n}, k={self.k}, q={self.q}, "
            f"torsion={[d for d, _ in self.torsion]})"
        )


def setup_from_rays(rays, q, max_cones=None) -> ToricSetup:
    """Build the grading from primitive ray generators.

    beta is the cokernel presentation of phi computed by SNF; its free
    block is canonicalized by row Hermite form so the result is
    deterministic.  Torsion in the class group shows up as residue rows.
    """
    phi = [list(v) for v in rays]
    r, n = intlin.shape(phi)
    if r < n:
        raise ValidationError("fewer rays than ambient dimension")
    res = intlin.snf(phi)
    if res.rank != n:
        raise ValidationError("rays do not span Q^n")
    diag = res.diagonal
    torsion = []
    for i in range(n):
        if diag[i] > 1:
            torsion.append((diag[i], [x % diag[i] for x in res.U[i]]))
    free_rows = [res.U[i] for i in range(n, r)]
    if free_rows:
        H, _ = intlin.hnf(free_rows)
        free_rows = [row for row in H if any(row)]
    return ToricSetup(phi, free_rows, torsion, q, max_cones)


def setup_from_beta(beta, q, max_cones=None) -> ToricSetup:
    """Build the grading from an explicit (torsion-free) degree matrix.

    phi is recovered as an integer kernel basis of beta, so ker(beta) =
    im(phi) holds by construction.  Rows of beta must be Z-independent.
    """
    beta = [list(row) for row in beta]
    k, r = intlin.shape(beta)
    phi = intlin.kernel_basis_canonical(beta)
    if intlin.shape(phi)[1] != r - k:  # the kernel has rank r - rank(beta)
        raise ValidationError("beta rows are dependent")
    # rows of a kernel basis need not be primitive; the kernel lattice is
    # saturated, which is all the torus machinery needs
    return ToricSetup(phi, beta, [], q, max_cones, check_primitive=False)


def degree_of(a, setup: ToricSetup) -> Degree:
    """Degree beta(a) of the exponent vector a, torsion reduced."""
    if len(a) != setup.r:
        raise ValidationError("exponent vector length != r")
    free = tuple(intlin.mat_vec(setup.beta_free, list(a))) if setup.k else ()
    tor = tuple(
        sum(x * y for x, y in zip(row, a)) % d for d, row in setup.torsion
    )
    return Degree(free=free, torsion=tor)


def is_homogeneous(L, setup: ToricSetup) -> bool:
    """True iff every basis column of L has degree zero, i.e. the column
    span lies in L_beta."""
    m, _ = intlin.shape(L)
    if m != setup.r:
        raise ValidationError("lattice basis has wrong number of rows")
    for col in intlin.columns(L):
        d = degree_of(col, setup)
        if any(d.free) or any(d.torsion):
            return False
    return True


# positive functional -------------------------------------------------


def _fm_find(cons, k):
    """Find w in Q^k with c . w > 0 for every c in cons, or None.

    Fourier-Motzkin on a homogeneous system of strict inequalities.
    """
    cons = [tuple(Fraction(x) for x in c) for c in cons]
    if k == 0:
        return [] if not cons else None
    pos = [c for c in cons if c[k - 1] > 0]
    neg = [c for c in cons if c[k - 1] < 0]
    zero = [c[: k - 1] for c in cons if c[k - 1] == 0]
    combined = list(zero)
    for p in pos:
        for m in neg:
            # eliminate w_{k-1}: rest_m * p_k + rest_p * (-m_k) > 0
            combined.append(
                tuple(
                    m[i] * p[k - 1] + p[i] * (-m[k - 1]) for i in range(k - 1)
                )
            )
    # an all-zero combined constraint reads 0 > 0: infeasible
    cleaned = []
    for c in combined:
        if not any(c):
            return None
        cleaned.append(c)
    rest = _fm_find(cleaned, k - 1)
    if rest is None:
        return None
    lower = None
    upper = None
    for c in pos:
        val = -sum(ci * wi for ci, wi in zip(c[: k - 1], rest)) / c[k - 1]
        lower = val if lower is None else max(lower, val)
    for c in neg:
        val = -sum(ci * wi for ci, wi in zip(c[: k - 1], rest)) / c[k - 1]
        upper = val if upper is None else min(upper, val)
    if lower is None and upper is None:
        w = Fraction(1)
    elif upper is None:
        w = lower + 1
    elif lower is None:
        w = upper - 1
    else:
        if lower >= upper:
            return None  # cannot happen if FM is consistent
        w = (lower + upper) / 2
    return rest + [w]


def positive_functional(setup: ToricSetup):
    """Integer w with w . deg(x_j) > 0 for all j, or None if the degree
    semigroup is not pointed.  Computed on the free part of the grading."""
    if setup._functional != "unset":
        return setup._functional
    if setup.k == 0:
        setup._functional = None
        return None
    cons = [tuple(setup.beta_free[i][j] for i in range(setup.k)) for j in range(setup.r)]
    w = _fm_find(cons, setup.k)
    if w is None:
        setup._functional = None
        return None
    denom = lcm(*(f.denominator for f in w)) if w else 1
    wi = [int(f * denom) for f in w]
    g = gcd(*(abs(x) for x in wi)) or 1
    wi = [x // g for x in wi]
    if any(
        sum(wi[i] * setup.beta_free[i][j] for i in range(setup.k)) <= 0
        for j in range(setup.r)
    ):
        raise ValidationError("positive functional verification failed")
    setup._functional = wi
    return wi


def _enumerate_solutions(alpha_free, setup, allowed, find_one=False):
    """All a in N^r supported on `allowed` with beta_free . a = alpha_free,
    in ascending lexicographic order.  Requires a pointed grading.

    The last allowed exponent is solved from one row of the remainder
    rather than searched; it still counts top + 1 nodes, so the cap trips
    where a search of every value would."""
    w = positive_functional(setup)
    if w is None:
        raise ValidationError(
            "grading is not pointed; monomial enumeration needs an explicit cap"
        )
    weights = [
        sum(w[i] * setup.beta_free[i][j] for i in range(setup.k))
        for j in range(setup.r)
    ]
    cols = [[row[j] for row in setup.beta_free] for j in range(setup.r)]
    # a row with beta_ij != 0 exists for every j, since w . beta_j > 0
    pivots = [next(i for i, b in enumerate(col) if b) for col in cols]
    target = list(alpha_free)
    budget = sum(wi * ai for wi, ai in zip(w, target))
    out = []
    a = [0] * setup.r
    allowed = sorted(allowed)
    last = len(allowed) - 1
    nodes = 1

    def rec(pos, rem, bud):
        nonlocal nodes
        if pos > last:  # nothing is allowed
            if not any(rem):
                out.append(tuple(a))
            return
        j = allowed[pos]
        top = bud // weights[j]
        nodes += top + 1  # the children, counted once by their parent
        if nodes > MONOMIAL_SEARCH_CAP:
            raise CapExceededError(
                f"monomial search passed {MONOMIAL_SEARCH_CAP} nodes")
        col = cols[j]
        if pos == last:
            v, r = divmod(rem[pivots[j]], col[pivots[j]])
            if r == 0 and 0 <= v <= top and all(
                x == v * b for x, b in zip(rem, col)
            ):
                a[j] = v
                out.append(tuple(a))
                a[j] = 0
            return
        rem = list(rem)
        for v in range(top + 1):
            a[j] = v
            rec(pos + 1, rem, bud - v * weights[j])
            if find_one and out:
                break
            for i, b in enumerate(col):
                rem[i] -= b
        a[j] = 0

    if budget >= 0:
        rec(0, target, budget)
    return out


def monomial_basis(alpha: Degree, setup: ToricSetup):
    """All exponent vectors a in N^r of degree alpha, lexicographically
    ascending.  Torsion-graded enumeration is not supported."""
    setup._require_degrees("monomial enumeration", alpha)
    cached = setup._monomial_cache.get(alpha.free)
    if cached is None:
        cached = _enumerate_solutions(alpha.free, setup, range(setup.r))
        setup._monomial_cache[alpha.free] = cached
    return cached


def in_semigroup_Khat(alpha: Degree, setup: ToricSetup) -> bool:
    """True iff for every maximal cone sigma there is a monomial of
    degree alpha supported off sigma."""
    setup._require_degrees("semigroup membership", alpha)
    if setup.max_cones is None:
        raise ValidationError("setup has no maximal cones")
    for cone in setup.max_cones:
        allowed = [j for j in range(setup.r) if j not in cone]
        if not _enumerate_solutions(alpha.free, setup, allowed, find_one=True):
            return False
    return True
