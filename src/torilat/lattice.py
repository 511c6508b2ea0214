"""Lattice-ideal computations.

Vanishing-ideal lattices of degenerate tori, complete-intersection
decisions, binomial generators, torus and point ideals, and a
coset-counting Hilbert function.  A lattice L is the data: the ideal
builders return a tuple of `Binomial`, one per basis column, which
`Binomial.text()` renders.  The parameterization of torus zero sets
lives in `torus` and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from . import intlin
from .errors import CapExceededError, ValidationError
from .grading import (Degree, ToricSetup, _leaves, _require_pointed,
                      is_homogeneous, leaf_classes, monomial_text)
from .torus import TorusPoint, _diagonal_orders
from .torus import parameterize_zero_set  # re-exported: the zero set of I_L

DOMINATING_SUBSET_CAP = 10**6


@dataclass(frozen=True)
class Binomial:
    """x^{m+} - scale * x^{m-} for an integer vector m with disjoint
    positive/negative supports; scale is 1 for plain lattice binomials."""

    m: tuple
    scale: int = 1

    def __post_init__(self):
        if not any(self.m):
            raise ValidationError("binomial exponent vector is zero")

    @property
    def m_plus(self):
        return tuple(max(x, 0) for x in self.m)

    @property
    def m_minus(self):
        return tuple(max(-x, 0) for x in self.m)

    def text(self) -> str:
        head = monomial_text(self.m_plus)
        tail = monomial_text(self.m_minus)
        if self.scale == 1:
            return f"{head} - {tail}"
        return f"{head} - {self.scale}*{tail}"


def lattice_ideal_generators(L) -> tuple:
    """Binomials F_m for the basis columns m of L, sign-normalized.

    On the torus these basis binomials cut out V_X(I_L) exactly; the
    full ideal may need more generators, which are never materialized
    here.
    """
    _, ell = intlin.shape(L)
    if ell and intlin.snf(L).rank != ell:
        raise ValidationError("lattice basis columns are dependent")
    return tuple(Binomial(m=intlin.sign_normalize(c)) for c in intlin.columns(L))


@dataclass(frozen=True)
class DegenerateLattice:
    D: list  # the diagonal entries d_1..d_r
    L: list  # r x ell basis matrix of D(L_{beta D})


def degenerate_lattice(a, h, setup: ToricSetup) -> DegenerateLattice:
    """Lattice of the vanishing ideal of the degenerate torus with
    diagonal exponents a over the order-h subgroup of F_q*.

    d_i = h/gcd(h, a_i); L = D * (canonical basis of ker_Z(beta D)), so
    the basis binomials of L are the toric-kernel binomials with x_i
    replaced by x_i^{d_i}.
    """
    setup._require_torsion_free("degenerate-torus lattices")
    d = _diagonal_orders(a, h, setup)
    # with no beta rows, a zero row keeps the kernel Z^r ([] has no columns)
    betaD = [
        [setup.beta_free[i][j] * d[j] for j in range(setup.r)]
        for i in range(setup.k)
    ] or [[0] * setup.r]
    gamma0 = intlin.kernel_basis_canonical(betaD)
    Lcols = [
        [d[i] * c[i] for i in range(setup.r)] for c in intlin.columns(gamma0)
    ]
    L = intlin.from_columns(Lcols, setup.r)
    return DegenerateLattice(D=d, L=L)


def is_mixed(gamma) -> bool:
    """Every column has both a strictly positive and a strictly negative
    entry.  Vacuously true for a matrix with no columns."""
    for col in intlin.columns(gamma):
        if not (any(x > 0 for x in col) and any(x < 0 for x in col)):
            return False
    return True


def is_dominating(gamma) -> bool:
    """No square submatrix (any k rows x k columns) is mixed.

    A k x k mixed submatrix on a row set R exists iff at least k columns
    take both signs inside R (any k of them give one), so the matrix is
    dominating iff every row set R with |R| >= 2 has fewer than |R|
    columns mixed on R.  Only a column mixed on all rows can be mixed on
    a subset; each is kept as its positive-row and negative-row bitmasks.
    Row sets are tested level by level, |R| = 2, 3, ...; a level that
    would take the count past DOMINATING_SUBSET_CAP raises before it
    starts, so a witness on a lower level is still found.
    """
    m, _ = intlin.shape(gamma)
    cols = []
    for col in intlin.columns(gamma):
        pos = sum(1 << i for i, x in enumerate(col) if x > 0)
        neg = sum(1 << i for i, x in enumerate(col) if x < 0)
        if pos and neg:
            cols.append((pos, neg))
    bits = [1 << i for i in range(m)]
    tested = 0
    for k in range(2, min(m, len(cols)) + 1):
        tested += comb(m, k)
        if tested > DOMINATING_SUBSET_CAP:
            raise CapExceededError(
                f"dominating test needs {tested} row subsets up to size {k}, "
                f"cap is {DOMINATING_SUBSET_CAP}"
            )
        for rows in combinations(bits, k):
            R = sum(rows)
            if sum(1 for p, n in cols if p & R and n & R) >= k:
                return False
    return True


def complete_intersection(L, setup: ToricSetup) -> bool:
    """Whether the Hermite-canonical basis matrix of L is mixed
    dominating.  True proves that I_L is a complete intersection
    (Fischer-Shapiro; Morales-Thoma).  False only means that this basis
    is not: I_L is one as soon as some basis of L is mixed dominating.

    Requires L n N^r = {0}, certified by homogeneity plus a pointed
    grading.
    """
    if not is_homogeneous(L, setup):
        raise ValidationError("lattice is not homogeneous")
    _require_pointed(setup)
    gamma = intlin.column_hermite_basis(L)
    return is_mixed(gamma) and is_dominating(gamma)


def torus_ideal(setup: ToricSetup) -> tuple:
    """The basis binomials of (q-1) L_beta, one per column of phi.  They
    lie in I(T_X), and generate it only for some coordinates of the rays
    (not for the rays (1,1), (0,1), (-1,-2) of P^2)."""
    qm = setup.q - 1
    cols = [[qm * x for x in c] for c in intlin.columns(setup.phi)]
    return lattice_ideal_generators(intlin.from_columns(cols, setup.r))


def point_ideal(P: TorusPoint, setup: ToricSetup) -> tuple:
    """Shifted binomials in I([P]), one per basis column m of L_beta with
    scale x^m(P); like `torus_ideal`, they generate it only for some
    coordinates of the rays.

    The scale is computed from the canonical form, so it is independent
    of the chosen representative of [P].
    """
    setup._require_torsion_free("point ideals")
    f = setup.field
    return tuple(
        Binomial(m=tuple(col), scale=f.eta_pow(P.canon[i]))
        for i, col in enumerate(intlin.columns(setup.phi))
    )


def hilbert_of_lattice(L, alpha: Degree, setup: ToricSetup) -> int:
    """Coset-counting Hilbert function: the number of classes of degree-
    alpha monomials under a ~ a' iff a - a' in L.

    For a lattice ideal this equals dim S_alpha - dim (I_L)_alpha.  With
    U L V = S in Smith form, a ~ a' iff U a and U a' agree modulo each
    invariant factor d of S (and exactly past them), so the classes are
    read from the leaves of the walk as labels (`leaf_classes`), as the
    class count in `codes` reads them, and no monomial is listed.  When L
    has rank r - k, the rows of U past its invariant factors are constant
    on a degree and are left out.  It is the coset-count cross-check of
    the class count and the rank in `codes`, which no library routine
    reads; it stays in the library only because the benchmark's `hilbert`
    workload times it.
    """
    if not is_homogeneous(L, setup):
        raise ValidationError("lattice is not homogeneous")
    setup._require_degrees("monomial enumeration", alpha)
    leaves = _leaves(alpha.free, setup)
    res = intlin.snf(L)
    factors = [d for d in res.diagonal if d]
    free = [] if len(factors) == setup.r - setup.k else res.U[len(factors):]
    rows = [u for u, d in zip(res.U, factors) if d > 1] + free
    moduli = [d for d in factors if d > 1] + [0] * len(free)
    return len(leaf_classes(leaves, rows, moduli)[0]) if leaves.size else 0
