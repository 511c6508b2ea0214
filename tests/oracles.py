"""Slow, independent oracles that the library's fast paths are tested
against.  None of this is library code: each routine is the direct
brute-force definition of what a library function computes.

Integer matrices: determinants by elimination and by cofactor expansion,
the gcd of k x k minors (whose running products are the Smith
invariants), a general integer solver (one column HNF per right-hand
side) and the inverse of a unimodular matrix, which the right inverse,
exponent lattice and group structure in `torilat` replaced with reads of
Hermite and Smith forms already at hand.  The exactness test
ker(beta) = im(phi) by comparing two lattices, which the set-up check in
`torilat.grading.ToricSetup` replaced with the Hermite form of phi^T and
the Smith form of beta.  `HermiteReducer`, the coset canonicalizer against a column
Hermite basis: `torilat.lattice.hilbert_of_lattice` runs its loop
inline, and subgroup membership in `torilat.torus` reads the dual basis
(q-1) B^{-1} instead.  Matrices over F_q: rank by plain-list Gaussian
elimination.

Torus subgroups: the point-by-point constructions that the lattice path
in `torilat.torus` replaced — a sweep of every canonical form, a sweep of
every parameter tuple, a filter of the whole torus, a breadth-first
closure, an O(|Y|^2) closure check, and the exponent lattice rebuilt
from a subgroup's points.

Mixed dominating matrices: the scan of every k x k submatrix that the
row-subset test in `torilat.lattice.is_dominating` replaced.

Minimum distance: the search one projective message at a time that the
batched search in `torilat.codes.minimum_distance` replaced.

Positive functional: Fourier-Motzkin elimination in `Fraction`s, which
`torilat.grading.positive_functional` replaced with one phase-1 simplex
LP in integers.  The two agree on whether a functional exists, not on
which one they find.

Monomial enumeration: the search that tries every value of every
exponent, which `torilat.grading._enumerate_solutions` replaced by
solving for the trailing ones and listing the one before them as an
arithmetic progression.  Run on the columns off a maximal cone, it is
also the definition of membership in K-hat that
`torilat.grading.in_semigroup_Khat` replaced by one k x k solve per
cone, and, with find_one, the semigroup comparison of degrees below.

Classes of monomials on a subgroup: the listing by `np.unique` of the
distinct character labels that `torilat.codes._code` replaced with a
first-seen dict.

Points and binomials: the identity point of the torus, the value of a
binomial at a point and the discrete log of a field element, which only
the tests read.

Injectivity of evaluation on a degenerate torus: the route through the
degenerate lattice and its coset count that the class count in
`torilat.codes.injectivity_exact` replaced; the published degree bound,
which is not sufficient; a provable sufficient condition; and the
semigroup comparison of degrees that the last two read.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import numpy as np

from torilat import intlin
from torilat.errors import ValidationError
from torilat.grading import (
    degree_of,
    monomial_basis,
    positive_functional,
)
from torilat.intlin import (
    IntMatrix,
    column_hermite_basis,
    column_hnf,
    columns,
    hnf,
    identity,
    mat_vec,
    shape,
)
from torilat.lattice import degenerate_lattice, hilbert_of_lattice
from torilat.torus import (
    PointSet,
    TorusPoint,
    _diagonal_orders,
    point_from_canon,
    point_from_rep,
)


def det(U):
    """Determinant of a square matrix by integer row elimination."""
    m, n = intlin.shape(U)
    assert m == n, "determinant of a non-square matrix"
    A = intlin.copy_matrix(U)
    d = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            d = -d
        # Euclid on the column: swap the smaller entry up, subtract
        for i in range(c + 1, n):
            while A[i][c] != 0:
                if abs(A[i][c]) < abs(A[c][c]):
                    A[c], A[i] = A[i], A[c]
                    d = -d
                q = A[i][c] // A[c][c]
                for j in range(n):
                    A[i][j] -= q * A[c][j]
        d *= A[c][c]
    return d


def cofactor_det(A):
    n = len(A)
    if n == 1:
        return A[0][0]
    if n == 2:
        return A[0][0] * A[1][1] - A[0][1] * A[1][0]
    total = 0
    for j in range(n):
        if A[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in A[1:]]
        total += (-1) ** j * A[0][j] * cofactor_det(minor)
    return total


def gcd_of_minors(M, k):
    """GCD of all k x k minors (0 if all vanish)."""
    m, n = intlin.shape(M)
    if k == 0:
        return 1
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            sub = [[M[i][j] for j in cols] for i in rows]
            g = gcd(g, cofactor_det(sub))
    return abs(g)


def solve_integer(M: IntMatrix, b: list):
    """One integer solution x of M x = b, or None if there is none."""
    m, n = shape(M)
    if len(b) != m:
        raise ValidationError("matrix/vector size mismatch")
    H, W = column_hnf(M)
    # forward substitution over the echelon columns of H
    y = [0] * n
    resid = list(b)
    col = 0
    pivots = []
    for j in range(n):
        p = next((i for i in range(m) if H[i][j] != 0), None)
        pivots.append(p)
    for j in range(n):
        p = pivots[j]
        if p is None:
            continue
        if resid[p] % H[p][j] != 0:
            return None
        q = resid[p] // H[p][j]
        y[j] = q
        for i in range(m):
            resid[i] -= q * H[i][j]
        col += 1
    if any(resid):
        return None
    return mat_vec(W, y)


def inverse_unimodular(U: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    m, n = shape(U)
    if m != n:
        raise ValidationError("inverse of a non-square matrix")
    H, W = hnf(U)
    if H != identity(n):
        raise ValidationError("matrix is not unimodular")
    return W


@dataclass(frozen=True)
class HermiteReducer:
    """Coset canonicalizer for a lattice given by its column-Hermite basis.

    reduce(v) returns the canonical representative of v modulo the
    lattice; v lies in the lattice iff reduce(v) is the zero vector.
    """

    basis: tuple  # columns, each a tuple
    pivots: tuple  # pivot row index per column
    dim: int

    @classmethod
    def from_basis(cls, L: IntMatrix) -> "HermiteReducer":
        m, n = shape(L)
        H = column_hermite_basis(L)
        cols = [tuple(c) for c in columns(H)]
        pivots = []
        for c in cols:
            p = next(i for i, x in enumerate(c) if x)
            pivots.append(p)
        return cls(basis=tuple(cols), pivots=tuple(pivots), dim=m)

    def reduce(self, v: list) -> tuple:
        if len(v) != self.dim:
            raise ValidationError("vector dimension mismatch")
        w = list(v)
        for c, p in zip(self.basis, self.pivots):
            q = w[p] // c[p]
            if q:
                for i in range(p, self.dim):
                    w[i] -= q * c[i]
        return tuple(w)

    def contains(self, v: list) -> bool:
        return not any(self.reduce(v))


def kernel_is_image(beta, phi):
    """ker(beta) = im(phi): an integer kernel basis of beta and the
    columns of phi span the same lattice.  A beta with no rows has kernel
    Z^r."""
    ker = intlin.integer_kernel(beta) if beta else identity(len(phi))
    return intlin.lattice_equal(ker, phi)


def rank_mod_q(rows, q):
    """Rank over F_q, one Python int at a time."""
    A = [[x % q for x in row] for row in rows]
    rank = 0
    for c in range(len(A[0]) if A else 0):
        piv = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][c], q - 2, q)
        for i in range(rank + 1, len(A)):
            f = A[i][c] * inv % q
            A[i] = [(a - f * b) % q for a, b in zip(A[i], A[rank])]
        rank += 1
    return rank


# points and binomials -------------------------------------------------


def identity_point(setup):
    """The identity of T_X: every coordinate eta^0 = 1."""
    return TorusPoint(canon=(0,) * setup.n, rep=(0,) * setup.r)


def discrete_log(field, x):
    """log_eta x in F_q, read from the field's log table."""
    x %= field.q
    if x == 0:
        raise ValidationError("discrete log of 0")
    return int(field._log[x])


def powers_by_products(field):
    """eta^0, ..., eta^{q-2} of `field`, one product mod q at a time."""
    q = field.q
    pows = [1] * (q - 1)
    for i in range(1, q - 1):
        pows[i] = pows[i - 1] * field.eta % q
    return pows


def binomial_value(b, point, setup):
    """x^{m+} - scale * x^{m-} of the Binomial b at a torus point, as an
    element of F_q."""
    s = point.rep
    plus = sum(x * y for x, y in zip(s, b.m_plus))
    minus = sum(x * y for x, y in zip(s, b.m_minus))
    f = setup.field
    return (f.eta_pow(plus) - b.scale * f.eta_pow(minus)) % setup.q


# torus subgroups ------------------------------------------------------


def sweep_torus(setup):
    """Every canonical form in (Z/(q-1))^n, one solve per point.  Needs a
    torsion-free grading (an integer right inverse of phi^T)."""
    qm = setup.q - 1
    return PointSet(
        point_from_canon(c, setup) for c in product(range(qm), repeat=setup.n)
    )


def sweep_parameterization(Q, h, setup):
    """Y_{Q,H} by its definition: one point per tuple in H^s."""
    qm = setup.q - 1
    step = qm // h
    pts = []
    for lam in product(range(h), repeat=len(Q)):
        s = [
            step * sum(lam[i] * Q[i][j] for i in range(len(Q)))
            for j in range(setup.r)
        ]
        pts.append(point_from_rep([x % qm for x in s], setup))
    return PointSet(pts)


def sweep_zero_set(L, setup):
    """The points of `sweep_torus` at which every column b of L gives
    s . b = 0 mod q-1."""
    qm = setup.q - 1
    basis = intlin.columns(L)
    return PointSet(
        p
        for p in sweep_torus(setup)
        if all(sum(a * b for a, b in zip(p.rep, col)) % qm == 0 for col in basis)
    )


def bfs_closure(generators, setup):
    """Breadth-first closure of the generators under canonical-form
    addition, starting from the identity."""
    qm = setup.q - 1
    one = identity_point(setup)
    seen = {one.canon: one}
    frontier = [one]
    gens = [point_from_rep([x % qm for x in g.rep], setup) for g in generators]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                s = point_from_rep(
                    [(a + b) % qm for a, b in zip(p.rep, g.rep)], setup
                )
                if s.canon not in seen:
                    seen[s.canon] = s
                    nxt.append(s)
        frontier = nxt
    return PointSet(seen.values())


def is_closed_group(Y, setup):
    """Y holds the identity and every sum of two of its points."""
    qm = setup.q - 1
    canons = {p.canon for p in Y}
    if identity_point(setup).canon not in canons:
        return False
    return all(
        tuple((x + y) % qm for x, y in zip(a.canon, b.canon)) in canons
        for a in Y
        for b in Y
    )


def exponent_lattice_from_points(Y, setup):
    """Column Hermite basis of the canonical-form lattice of a subgroup
    Y, rebuilt from its points: starting from (q-1)Z^n, a point is
    inserted whenever it lies outside the span so far."""
    qm = setup.q - 1
    n = setup.n
    reducer = HermiteReducer.from_basis(
        [[qm if i == j else 0 for j in range(n)] for i in range(n)]
    )
    for p in Y:
        if not reducer.contains(p.canon):
            cols = [list(c) for c in reducer.basis] + [list(p.canon)]
            reducer = HermiteReducer.from_basis(intlin.from_columns(cols))
    return intlin.from_columns([list(c) for c in reducer.basis], n)


def is_dominating_by_submatrices(gamma):
    """No square submatrix (any k rows x k columns) is mixed.

    Exhaustive scan; 1 x 1 submatrices are never mixed, so k starts at 2.
    """
    m, n = intlin.shape(gamma)
    for k in range(2, min(m, n) + 1):
        for cols in combinations(range(n), k):
            # a column that is not mixed on the full row set can never be
            # mixed on a subset, so prune early
            if any(
                not (
                    any(gamma[i][j] > 0 for i in range(m))
                    and any(gamma[i][j] < 0 for i in range(m))
                )
                for j in cols
            ):
                continue
            for rows in combinations(range(m), k):
                if all(
                    any(gamma[i][j] > 0 for i in rows)
                    and any(gamma[i][j] < 0 for i in rows)
                    for j in cols
                ):
                    return False
    return True


# minimum distance -----------------------------------------------------


def _projective_messages(k: int, q: int):
    """One representative per scalar class of nonzero messages in F_q^k:
    first nonzero coordinate fixed to 1."""
    for lead in range(k):
        for tail in product(range(q), repeat=k - lead - 1):
            yield (0,) * lead + (1,) + tail


def min_distance_by_messages(basis, q):
    """Least codeword weight of the row space of a k x N rank-k matrix
    (k >= 1), one projective message at a time."""
    k, N = basis.shape
    best = N
    for msg in _projective_messages(k, q):
        word = np.zeros(N, dtype=np.int64)
        for c, row in zip(msg, basis):
            if c:
                word = (word + c * row) % q
        w = int(np.count_nonzero(word))
        if w < best:
            best = w
            if best == 1:
                break
    return best


# positive functional --------------------------------------------------


def fm_find_by_fractions(cons, k):
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
    rest = fm_find_by_fractions(cleaned, k - 1)
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


def positive_functional_by_fractions(beta_free):
    """The primitive integer w of `fm_find_by_fractions` on the columns of
    beta_free (k x r, k >= 1), or None when there is none."""
    k, r = len(beta_free), len(beta_free[0])
    cons = [tuple(beta_free[i][j] for i in range(k)) for j in range(r)]
    w = fm_find_by_fractions(cons, k)
    if w is None:
        return None
    denom = lcm(*(f.denominator for f in w))
    wi = [int(f * denom) for f in w]
    g = gcd(*(abs(x) for x in wi)) or 1
    return [x // g for x in wi]


# monomial enumeration -------------------------------------------------


def monomials_by_full_search(alpha_free, setup, allowed, find_one=False):
    """(monomials, nodes): all a in N^r supported on `allowed` with
    beta_free . a = alpha_free in ascending lexicographic order, by a
    search over every value of every allowed exponent, and the number of
    search nodes it visits.  No cap.  Over the exponents the library walks
    (`range(lead)` of `ToricSetup._plan`), `nodes` is the walk's share of
    the work that the library's cap counts."""
    w = positive_functional(setup)
    if w is None:
        raise ValidationError(
            "grading is not pointed: a nonconstant monomial has degree 0"
        )
    weights = [
        sum(w[i] * setup.beta_free[i][j] for i in range(setup.k))
        for j in range(setup.r)
    ]
    target = list(alpha_free)
    budget = sum(wi * ai for wi, ai in zip(w, target))
    out = []
    a = [0] * setup.r
    allowed = sorted(allowed)
    nodes = 1

    def rec(pos, rem, bud):
        nonlocal nodes
        if find_one and out:
            return
        if pos == len(allowed):
            if not any(rem):
                out.append(tuple(a))
            return
        j = allowed[pos]
        top = bud // weights[j]
        nodes += top + 1  # the children, counted once by their parent
        for v in range(top + 1):
            a[j] = v
            new_rem = [
                rem[i] - v * setup.beta_free[i][j] for i in range(setup.k)
            ]
            rec(pos + 1, new_rem, bud - v * weights[j])
            if find_one and out:
                break
        a[j] = 0

    if budget >= 0:
        rec(0, target, budget)
    return out, nodes


def in_khat_by_search(alpha_free, setup):
    """alpha lies in K-hat iff for every maximal cone some monomial of
    degree alpha is supported off it: one search per cone."""
    return all(
        monomials_by_full_search(
            alpha_free, setup, [j for j in range(setup.r) if j not in cone],
            find_one=True,
        )[0]
        for cone in setup.max_cones
    )


# classes of monomials on a subgroup -----------------------------------


def first_of_each_class(labels):
    """The index of the first row of each distinct row of `labels`, in the
    order the distinct rows are first met."""
    return np.sort(np.unique(labels, axis=0, return_index=True)[1])


# injectivity on degenerate tori ---------------------------------------


def injectivity_by_lattice(a, h, alpha, setup):
    """Evaluation at the degenerate torus is injective on S_alpha iff no
    two distinct degree-alpha monomials agree modulo its vanishing
    lattice D(L_{beta D}): a coset count of the degenerate lattice."""
    L = degenerate_lattice(a, h, setup).L
    return hilbert_of_lattice(L, alpha, setup) == len(monomial_basis(alpha, setup))


def degree_leq(alpha, alpha2, setup):
    """alpha <= alpha2 iff alpha2 - alpha lies in the degree semigroup,
    i.e. some monomial has degree alpha2 - alpha."""
    setup._require_degrees("semigroup comparison", alpha, alpha2)
    diff = [y - x for x, y in zip(alpha.free, alpha2.free)]
    mons, _ = monomials_by_full_search(diff, setup, range(setup.r), find_one=True)
    return bool(mons)


def injectivity_check(a, h, alpha, setup):
    """Whether alpha <= d_1 beta_1 + ... + d_r beta_r.

    This is the published degree bound for injectivity of evaluation on
    the degenerate torus, but it is NOT sufficient when the degrees
    beta_i have mixed-sign coordinates: alpha can sit below the bound
    and above a generator degree of the vanishing ideal at the same
    time.  `torilat.codes.injectivity_exact` decides injectivity.
    """
    d = _diagonal_orders(a, h, setup)
    return degree_leq(alpha, degree_of(d, setup), setup)


def injectivity_certified(a, h, alpha, setup):
    """Provable sufficient condition for injective evaluation.

    If two distinct degree-alpha monomials are congruent modulo the
    degenerate-torus lattice D(L_{beta D}), their difference Dm gives
    alpha >= beta(D m+) >= d_i beta_i for any i in the support of m+.
    Hence when no d_i beta_i precedes alpha, evaluation is injective.
    """
    d = _diagonal_orders(a, h, setup)
    return all(
        not degree_leq(
            degree_of([d[j] if i == j else 0 for i in range(setup.r)], setup),
            alpha,
            setup,
        )
        for j in range(setup.r)
    )
