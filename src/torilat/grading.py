"""The grading of the Cox ring.

Builds the exact sequence 0 -> Z^n -> Z^r -> A -> 0 from fan rays (or
from an explicit degree matrix), computes degrees in A, checks lattice
homogeneity, and enumerates monomial bases of graded pieces.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from math import gcd
from operator import mul

from . import intlin
from .errors import CapExceededError, InternalError, ValidationError
from .gfield import PrimeField

# Walk nodes plus monomials of an enumeration, counted before any is
# listed.  Each is a node of the search of every value of every exponent.
MONOMIAL_SEARCH_CAP = 5 * 10**6


@dataclass(frozen=True)
class Degree:
    """An element of the grading group A: free part plus torsion residues."""

    free: tuple
    torsion: tuple = ()


class ToricSetup:
    """Fixed ambient context: ray matrix phi (r x n, rows are ray
    generators, primitive unless check_primitive is off), degree matrix
    beta (free rows plus torsion residue rows), prime field size q,
    optional maximal cones.

    Instances are not changed after construction, and what a setup caches
    is handed out as a fresh list: changing one changes no later answer.
    """

    def __init__(self, phi, beta_free, torsion, q, max_cones=None,
                 check_primitive=True):
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
        # U of the Hermite form U phi = H (`_validate`)
        self._U = self._validate(check_primitive)
        # (degree, tuple of monomials) of the last enumeration: a Hilbert
        # value by rank and by coset count at one degree enumerate it once
        self._monomial_cache = (None, None)

    def _validate(self, check_primitive):
        """Raise ValidationError unless the setup is consistent, and return
        U of the Hermite form U phi = H of the rays."""
        for row in self.beta_free:
            if len(row) != self.r:
                raise ValidationError("beta row length != r")
        for _, row in self.torsion:
            if len(row) != self.r:
                raise ValidationError("torsion row length != r")
        for v in self.phi:
            if not any(v):
                raise ValidationError("zero ray vector")
            if check_primitive and gcd(*(abs(x) for x in v)) != 1:
                raise ValidationError(f"non-primitive ray {v}")
        # H is row echelon, so phi has rank n exactly when the diagonal of
        # H has no zero, and then phi^T maps onto Z^n exactly when that
        # diagonal is all 1.  Then phi^T W = [I_n | 0] with W = U^T (the
        # column Hermite form of phi^T): its first n columns are a right
        # inverse of phi^T.
        H, U = intlin.hnf(self.phi)
        pivots = [H[i][i] for i in range(min(self.r, self.n))]
        if len(pivots) != self.n or not all(pivots):
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
        # saturated (phi^T maps onto Z^n) and both have rank n; beta maps
        # onto Z^k when its invariant factors are 1.  With no rows,
        # ker(beta) = Z^r: phi must be square and unimodular.  This is the
        # one test that phi^T maps onto Z^n.
        beta_factors = intlin.snf(self.beta_free).diagonal if self.k else []
        beta_rank = sum(1 for f in beta_factors if f)
        if not self.torsion and (
            any(f != 1 for f in pivots) or beta_rank != self.r - self.n
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
        return U

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
        transform W = U^T of the Hermite form that `_validate` checked to
        be [I_n | 0] for every torsion-free setup."""
        self._require_torsion_free("torus coordinate computation")
        return [list(col) for col in zip(*self._U[:self.n])]

    @cached_property
    def _functional(self):
        """(w, None) with w the tuple `positive_functional` hands out as a
        list, or (None, u) with x^u a nonconstant monomial of degree 0,
        u primitive."""
        if self.k == 0:
            return None, tuple(int(j == 0) for j in range(self.r))
        v, u = _phase_one(self.beta_free)
        if v is None:
            # u is the exponent vector of a nonconstant monomial of degree 0
            if (not any(u) or min(u) < 0
                    or any(sum(map(mul, row, u)) for row in self.beta_free)):
                raise InternalError("degree-zero monomial verification failed")
            g = gcd(*u)
            return None, tuple(x // g for x in u)
        g = gcd(*v)
        w = tuple(x // g for x in v)
        if any(sum(map(mul, w, c)) <= 0 for c in zip(*self.beta_free)):
            raise InternalError("positive functional verification failed")
        return w, None

    @cached_property
    def _plan(self):
        """(w, cols, ws, size, D, adj, lead, Q, checks) of a pointed
        grading: what `_enumerate_solutions` needs beyond the degree.
        w is the positive functional, cols the columns of beta_free and
        ws their weights w . deg(x_j); (size, D, adj) is the solved block
        (`_solved_block`), lead the index of the exponent t just before
        it, Q the block's slopes in t, and checks pairs each check row
        with its slope in t."""
        w = _require_pointed(self)
        cols = [[row[j] for row in self.beta_free] for j in range(self.r)]
        ws = [sum(map(mul, w, col)) for col in cols]
        size, D, adj, checks = _solved_block(cols, self.k)
        lead = self.r - size - 1
        ct = cols[lead]
        Q = [sum(map(mul, row, ct)) for row in adj]
        checks = [(row, sum(map(mul, row, ct))) for row in checks]
        return w, cols, ws, size, D, adj, lead, Q, checks

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
    n = intlin.shape(phi)[1]
    res = intlin.snf(phi)
    if res.rank != n:
        raise ValidationError("rays do not span Q^n")
    diag = res.diagonal
    torsion = []
    for i in range(n):
        if diag[i] > 1:
            torsion.append((diag[i], [x % diag[i] for x in res.U[i]]))
    # U is unimodular: its last rows are independent, so their Hermite
    # form has no zero row
    free_rows = intlin.hnf(res.U[n:])[0]
    return ToricSetup(phi, free_rows, torsion, q, max_cones)


def setup_from_beta(beta, q, max_cones=None) -> ToricSetup:
    """Build the grading from an explicit (torsion-free) degree matrix.

    phi is recovered as an integer kernel basis of beta, so ker(beta) =
    im(phi) holds by construction.  Rows of beta must be Z-independent.
    """
    beta = [list(row) for row in beta]
    phi = intlin.kernel_basis_canonical(beta)
    # row j of phi, the ray of x_j, is zero when coordinate j vanishes on
    # ker(beta): name the coordinate, as beta alone gives no rays
    for j, row in enumerate(phi):
        if not any(row):
            raise ValidationError(
                f"coordinate {j + 1} vanishes on ker(beta): x{j + 1} has no ray")
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


def _phase_one(beta):
    """(w, None) with w . beta_j > 0 on every column beta_j of beta
    (k x r, k >= 1), or (None, u) with u >= 0, u != 0 and beta u = 0:
    Gordan's alternative, decided by phase 1 of the simplex method on
    [beta; 1 ... 1] u = e_{k+1}, u >= 0, from a basis of k + 1
    artificial columns.

    The tableau T holds integers: the true entries times D, the last
    pivot (1 before the first).  A pivot on p keeps its row and sets
    every other row to (p * row - f * prow) / D, which divides exactly
    (Bareiss).  Bland's rule (the lowest column of negative reduced
    cost enters; ties in the ratio test leave by the lowest basic
    index) makes the method finite.  At a positive optimum the duals y
    of the artificial rows satisfy beta_j . y[:k] + y[k] <= 0 < y[k] on
    every column, so w = -y[:k]; at optimum 0 (z[-1], minus the optimum
    times D) the basic columns give u.  Neither is reduced: the caller
    checks it.
    """
    k, r = len(beta), len(beta[0])
    m = k + 1
    T = [list(row) + [0] * (m + 1) for row in beta] + [[1] * r + [0] * m + [1]]
    for i in range(m):
        T[i][r + i] = 1
    # reduced costs of phase 1 (the sum of the artificials), times D
    z = [-sum(col) - 1 for col in zip(*beta)] + [0] * m + [-1]
    basis = list(range(r, r + m))
    D = 1
    # only columns of u enter: an artificial that leaves is not needed again
    while (j := next((j for j in range(r) if z[j] < 0), None)) is not None:
        # phase 1 is bounded below, so some entry of column j is positive;
        # ratios T[l][-1] / T[l][j] are compared by cross-multiplying
        i = None
        for l in range(m):
            if T[l][j] > 0 and (i is None or (T[l][-1] * T[i][j], basis[l])
                                < (T[i][-1] * T[l][j], basis[i])):
                i = l
        prow, p = T[i], T[i][j]
        for row in T + [z]:
            f = row[j]
            # a row with f = 0 only scales by p / D
            if row is not prow and (f or p != D):
                row[:] = [(p * x - f * y) // D for x, y in zip(row, prow)]
        basis[i], D = j, p
    if z[-1] == 0:
        u = [0] * r
        for i, b in enumerate(basis):
            if b < r:
                u[b] = T[i][-1]
        return None, u
    return [z[r + i] - D for i in range(k)], None


def positive_functional(setup: ToricSetup):
    """Integer w with w . deg(x_j) > 0 for all j, or None if the degree
    semigroup is not pointed.  Computed on the free part of the grading.

    w is the primitive integer vector on the ray of the functional that
    the duals of one phase-1 simplex LP give (`_phase_one`).  It is
    computed once per setup (`ToricSetup._functional`), and checked
    against every column before it is handed out; so is the exponent
    vector u >= 0, u != 0 of degree 0 that answers None."""
    w = setup._functional[0]
    return None if w is None else list(w)


# Enumeration ------------------------------------------------------------


def _require_pointed(setup):
    """The positive functional w of a pointed grading, else
    ValidationError naming a nonconstant monomial of degree 0: its powers
    fill that graded piece."""
    w, u = setup._functional
    if w is None:
        raise ValidationError(
            f"grading is not pointed: {monomial_text(u)} has degree 0"
        )
    return list(w)


def monomial_text(exps) -> str:
    """x1^e1*x2^e2*... over the nonzero exponents, "1" when none is."""
    parts = [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
             for i, e in enumerate(exps) if e]
    return "*".join(parts) if parts else "1"


def _solved_block(cols, k):
    """(size, D, adj, checks) for the trailing exponents solved by
    Cramer's rule: the last two when their columns have a nonzero 2x2
    minor (on the first rows i1 < i2 that give one), else the last
    alone, from its first nonzero row.  For the remainder y, exponent l
    of the block is adj[l] . y / D with D > 0, and y is reached exactly
    when also checks . y = 0 for every row of checks (one per other row
    of beta on which the block is not automatic)."""
    block = cols[-2:]
    pair = next(
        ((i1, i2) for i1 in range(k) for i2 in range(i1 + 1, k)
         if block[0][i1] * block[1][i2] != block[0][i2] * block[1][i1]),
        None)
    adj = []
    if pair:
        (i1, i2), (u, v) = pair, block
        D = u[i1] * v[i2] - u[i2] * v[i1]
        for col, sign in ((v, 1), (u, -1)):
            row = [0] * k
            row[i1], row[i2] = sign * col[i2], -sign * col[i1]
            adj.append(row)
    else:
        block = block[-1:]
        p = next(i for i, b in enumerate(block[0]) if b)
        D = block[0][p]
        adj.append([int(i == p) for i in range(k)])
    if D < 0:
        D, adj = -D, [[-x for x in row] for row in adj]
    # D y_i = sum_l (adj[l] . y) block[l][i] holds on the minor's rows
    checks = [[D * (h == i) - sum(col[i] * row[h] for col, row in zip(block, adj))
               for h in range(k)] for i in range(k)]
    return len(block), D, adj, [row for row in checks if any(row)]


def _progression(P, Q, D):
    """(t0, e) with {t : t Q_l = P_l mod D for every l} = t0 + eZ, or
    None when no t solves them."""
    t0, e = 0, 1
    for p, q in zip(P, Q):
        # t = t0 + e s: solve (e q) s = p - t0 q mod D for s
        a, b = e * q % D, (p - t0 * q) % D
        g = gcd(a, D)
        if b % g:
            return None
        step = D // g
        t0 += e * (b // g * pow(a // g, -1, step) % step)
        e *= step
    return t0, e


def _enumerate_solutions(alpha_free, setup):
    """All a in N^r with beta_free . a = alpha_free, in ascending
    lexicographic order.  Requires a pointed grading.

    The trailing exponents are solved by Cramer's rule (`_solved_block`):
    the last two when their columns are independent, else the last.  The
    search walks the exponents before the one just ahead of that block,
    t.  The block's solution is affine in t, so the t that reach the
    degree form an arithmetic progression in an interval: integrality is
    a congruence modulo D, nonnegativity gives the interval, and any
    other row of beta fixes t or rules it out.  Each such t gives one
    monomial.  What depends on the setup alone is read from `_plan`.

    The work is the nodes the walk visits plus the monomials it finds:
    each walk node adds its children, each leaf the length of its
    progression.  CapExceededError is raised as soon as it passes
    MONOMIAL_SEARCH_CAP; leaves are kept as records until the walk ends,
    so a refused degree lists no monomial, though it holds their records."""
    w, cols, ws, size, D, adj, lead, Q, checks = setup._plan
    target = list(alpha_free)
    budget = sum(map(mul, w, target))
    if budget < 0:
        return []
    cap = MONOMIAL_SEARCH_CAP
    passed = f"monomial search passed {cap} nodes and monomials"
    a = [0] * lead  # the exponents before t
    leaves = []  # (a, first t, last t + 1, step of t, P) of each leaf
    work = 1  # the root

    def solve(rem, bud):
        """Keep the progression of t of a leaf."""
        nonlocal work
        lo, hi = 0, bud // ws[lead]
        P = [sum(map(mul, row, rem)) for row in adj]
        for p, q in zip(P, Q):  # exponent l of the block is (p - t q) / D
            if q > 0:
                hi = min(hi, p // q)
            elif q < 0:
                lo = max(lo, -(p // -q))
            elif p < 0:
                return
        for row, q in checks:  # (row . rem) - t q must vanish
            p = sum(map(mul, row, rem))
            if q:
                t, rest = divmod(p, q)
                if rest:
                    return
                lo, hi = max(lo, t), min(hi, t)
            elif p:
                return
        if lo > hi:
            return
        found = _progression(P, Q, D) if D > 1 else (0, 1)
        if found is None:
            return
        t0, e = found
        first = lo + (t0 - lo) % e
        if first > hi:
            return
        work += (hi - first) // e + 1
        if work > cap:
            raise CapExceededError(passed)
        leaves.append((tuple(a), first, hi + 1, e, P))

    def walk(pos, rem, bud):
        nonlocal work
        if pos == lead:
            solve(rem, bud)
            return
        wj, col = ws[pos], cols[pos]
        top = bud // wj + 1
        work += top
        if work > cap:
            raise CapExceededError(passed)
        rem = list(rem)
        for v in range(top):
            a[pos] = v
            walk(pos + 1, rem, bud - v * wj)
            for i, b in enumerate(col):
                rem[i] -= b

    walk(0, target, budget)
    out = []
    for head, first, stop, e, P in leaves:
        ts = range(first, stop, e)
        xs = [count((p - first * q) // D, -e * q // D) for p, q in zip(P, Q)]
        if size == 1:
            out.extend([(*head, t, x) for t, x in zip(ts, *xs)])
        else:
            out.extend([(*head, t, x, y) for t, x, y in zip(ts, *xs)])
    return out


def monomial_basis(alpha: Degree, setup: ToricSetup):
    """All exponent vectors a in N^r of degree alpha, lexicographically
    ascending.  Torsion-graded enumeration is not supported."""
    setup._require_degrees("monomial enumeration", alpha)
    key, cached = setup._monomial_cache
    if key != alpha.free:
        cached = tuple(_enumerate_solutions(alpha.free, setup))
        setup._monomial_cache = (alpha.free, cached)
    return list(cached)


def in_semigroup_Khat(alpha: Degree, setup: ToricSetup) -> bool:
    """True iff for every maximal cone sigma there is a monomial of
    degree alpha supported off sigma.

    On a complete simplicial fan the degrees of the k rays off sigma are
    a basis of A (x) Q, so the one candidate is the solution c of
    B c = alpha, with B the k x k block of beta_free on those columns.
    With U B V = S in Smith form, c is in N^k iff S_ii divides
    (U alpha)_i for each i and c = V S^-1 U alpha >= 0."""
    setup._require_degrees("semigroup membership", alpha)
    if setup.max_cones is None:
        raise ValidationError("setup has no maximal cones")
    _require_pointed(setup)
    k = setup.k
    for cone in setup.max_cones:
        off = [j for j in range(setup.r) if j not in cone]
        B = [[row[j] for j in off] for row in setup.beta_free]
        if len(off) != k or (res := intlin.snf(B)).rank < k:
            raise ValidationError(
                f"maximal cone {cone} does not leave k = {k} rays of independent degrees"
            )
        Ua = intlin.mat_vec(res.U, list(alpha.free))
        if any(x % s for x, s in zip(Ua, res.diagonal)):
            return False
        if min(intlin.mat_vec(res.V, [x // s for x, s in zip(Ua, res.diagonal)])) < 0:
            return False
    return True
