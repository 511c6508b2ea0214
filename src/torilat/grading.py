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

# Nodes a search of every value of every exponent would visit, counted
# before the monomials are listed.  Degree (30, 30) on H_2 needs 3.54 M.
MONOMIAL_SEARCH_CAP = 5 * 10**6
# Constraints one level of the Fourier-Motzkin elimination may hold.  A
# level holds |pos| * |neg| + |zero| of them, so their number can grow
# doubly exponentially in k (a k = 6 grading reaches 4.5 * 10^9).
FM_CONSTRAINT_CAP = 10**5
# Values the node count keeps: a budget too large for a table of this
# many is counted over the budgets the search reaches.
_COUNT_MEMO = 1 << 14


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
        # the node counts of the search over the weights of `_plan`
        # (`_full_count`)
        self._counts = None
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
        """The tuple `positive_functional` hands out as a list, or None."""
        if self.k == 0:
            return None
        cons = list(zip(*self.beta_free))
        found = _fm_find(cons, self.k)
        if found is None:
            return None
        v, _ = found
        g = gcd(*v)
        w = tuple(x // g for x in v)
        if any(sum(map(mul, w, c)) <= 0 for c in cons):
            raise InternalError("positive functional verification failed")
        return w

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


def _fm_find(cons, k):
    """(v, D) with D > 0 and c . v > 0 for every c in cons, or None: the
    w = v / D in Q^k of a homogeneous system of strict inequalities.

    Fourier-Motzkin, last variable first.  The elimination only
    multiplies and subtracts, so the constraints stay integers.  The
    back-substitution keeps the partial solution over one common
    denominator, compares bounds by cross-multiplying, and sets the new
    coordinate to lower + 1, upper - 1 or the midpoint of the two.
    A level of more than FM_CONSTRAINT_CAP constraints raises
    CapExceededError before it is built.
    """
    if k == 0:
        return ([], 1) if not cons else None
    pos = [c for c in cons if c[k - 1] > 0]
    neg = [c for c in cons if c[k - 1] < 0]
    combined = [c[: k - 1] for c in cons if c[k - 1] == 0]
    if len(pos) * len(neg) + len(combined) > FM_CONSTRAINT_CAP:
        raise CapExceededError(
            f"Fourier-Motzkin elimination passed {FM_CONSTRAINT_CAP} constraints")
    for p in pos:
        for m in neg:
            # eliminate w_{k-1}: rest_m * p_k + rest_p * (-m_k) > 0
            pk, mk = p[k - 1], m[k - 1]
            combined.append(tuple(m[i] * pk - p[i] * mk for i in range(k - 1)))
    # an all-zero combined constraint reads 0 > 0: infeasible
    if not all(map(any, combined)):
        return None
    found = _fm_find(combined, k - 1)
    if found is None:
        return None
    v, D = found
    # c . (v / D, x) > 0 bounds x by -(c[:k-1] . v) / (D c_k), kept as
    # (numerator, denominator > 0); map stops at the end of v
    lower = upper = None
    for c in pos:
        num, den = -sum(map(mul, c, v)), D * c[k - 1]
        if lower is None or num * lower[1] > lower[0] * den:
            lower = (num, den)
    for c in neg:
        num, den = sum(map(mul, c, v)), -D * c[k - 1]
        if upper is None or num * upper[1] < upper[0] * den:
            upper = (num, den)
    if lower is None and upper is None:
        x, d = 1, 1
    elif upper is None:
        x, d = lower[0] + lower[1], lower[1]
    elif lower is None:
        x, d = upper[0] - upper[1], upper[1]
    else:
        (ln, ld), (un, ud) = lower, upper
        if ln * ud >= un * ld:
            return None  # cannot happen if FM is consistent
        x, d = ln * ud + un * ld, 2 * ld * ud
    v = [a * d for a in v] + [x * D]
    D *= d
    g = gcd(D, *v)
    return [a // g for a in v], D // g


def positive_functional(setup: ToricSetup):
    """Integer w with w . deg(x_j) > 0 for all j, or None if the degree
    semigroup is not pointed.  Computed on the free part of the grading.

    w is the primitive integer vector on the ray of the Fourier-Motzkin
    solution (`_fm_find`): its integer numerators divided by their gcd.
    It is computed once per setup (`ToricSetup._functional`), and
    checked against every column before it is handed out."""
    w = setup._functional
    return None if w is None else list(w)


# Node counts of the full search ---------------------------------------
#
# The cap bounds the nodes of a search that tries every value of every
# exponent in turn: a node of level i and budget c (what is left of the
# weight w . alpha) has c // w_i + 1 children, and the root counts one.
# These counts depend on the weights alone, so they are taken before the
# enumeration, which visits far fewer nodes.


def _count_table(ws, top):
    """T[i][c] for 0 <= i <= m and 0 <= c <= top: the nodes below a
    level-i node of budget c.  Its children v = 0, 1, ... give
    T_i(c) = 1 + T_{i+1}(c) + T_i(c - w_i), and T_m = 0."""
    table = [[0] * (top + 1)]
    for w in reversed(ws):
        row = [x + 1 for x in table[-1]]
        for c in range(w, top + 1):
            row[c] += row[c - w]
        table.append(row)
    return table[::-1]


def _counter(ws):
    """below(i, c, limit): T_i(c), the nodes below a level-i node of
    budget c, or a number past `limit` once the count passes it.

    T_i is summed by the recurrence of `_count_table` up one residue
    class of c modulo w_i at a time (known[i][c % w_i] lists T_i at
    c % w_i, c % w_i + w_i, ...), with T_{m-1}(c) = c // w + 1.  Each
    step adds at least one node, so the work stops as soon as the count
    passes the limit, and at most _COUNT_MEMO values are kept, however
    large the budget and the weights."""
    last = len(ws) - 1
    known, room = [{} for _ in ws], _COUNT_MEMO

    def below(i, c, limit):
        nonlocal room
        w = ws[i]
        j, rho = divmod(c, w)
        if i == last:
            return j + 1
        row = known[i].get(rho, ())
        if j < len(row):
            return row[j]
        if j >= limit:  # the children alone pass it
            return j + 1
        total = row[-1] if row else 0
        if not row and room:
            row = known[i][rho] = []
        for b in range(rho + len(row) * w, c + 1, w):
            total += 1 + below(i + 1, b, limit - total - 1)
            if total > limit:
                return total
            if room:
                row.append(total)
                room -= 1
        return total

    return below


def _full_count(setup, budget):
    """Nodes of the whole search from a root of budget >= 0 over the
    weights ws of `_plan`: 1 + T_0(b), or a number past the cap once the
    count passes it.

    A budget whose table holds at most _COUNT_MEMO values is read from
    the setup's one table, which is rebuilt at least twice as wide, up
    to that many values, when a budget passes its end.  Larger budgets
    are summed by `_counter`."""
    ws = setup._plan[2]
    width = _COUNT_MEMO // (len(ws) + 1)  # budgets 0 .. width - 1 fit
    if budget >= width:
        return 1 + _counter(ws)(0, budget, MONOMIAL_SEARCH_CAP - 1)
    table = setup._counts
    if table is None or budget >= len(table[0]):
        top = budget if table is None else max(budget, 2 * len(table[0]) - 1)
        table = setup._counts = _count_table(ws, min(top, width - 1))
    return 1 + table[0][budget]


# Enumeration ------------------------------------------------------------


def _require_pointed(setup):
    """The positive functional w of a pointed grading, else
    ValidationError: then some nonconstant monomial has degree 0, and
    its powers fill that graded piece."""
    w = positive_functional(setup)
    if w is None:
        raise ValidationError(
            "grading is not pointed: a nonconstant monomial has degree 0"
        )
    return w


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

    The cap bounds the nodes of the search of every value of every
    exponent; the count (`_full_count`) stops as soon as it passes the
    cap and raises CapExceededError before the search."""
    w, cols, ws, size, D, adj, lead, Q, checks = setup._plan
    target = list(alpha_free)
    budget = sum(map(mul, w, target))
    if budget < 0:
        return []
    if _full_count(setup, budget) > MONOMIAL_SEARCH_CAP:
        raise CapExceededError(f"monomial search passed {MONOMIAL_SEARCH_CAP} nodes")
    a = [0] * lead  # the exponents before t
    out = []

    def solve(rem, bud):
        """The monomials of the node of t."""
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
        ts = range(first, hi + 1, e)
        xs = [count((p - first * q) // D, -e * q // D) for p, q in zip(P, Q)]
        head = tuple(a)
        if size == 1:
            out.extend([(*head, t, x) for t, x in zip(ts, *xs)])
        else:
            out.extend([(*head, t, x, y) for t, x, y in zip(ts, *xs)])

    def walk(pos, rem, bud):
        if pos == lead:
            solve(rem, bud)
            return
        wj, col = ws[pos], cols[pos]
        rem = list(rem)
        for v in range(bud // wj + 1):
            a[pos] = v
            walk(pos + 1, rem, bud - v * wj)
            for i, b in enumerate(col):
                rem[i] -= b

    walk(0, target, budget)
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
