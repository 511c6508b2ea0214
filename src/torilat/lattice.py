"""Lattice-ideal computations.

Binomial generators, vanishing-ideal lattices of degenerate tori,
complete-intersection decisions, torus and point ideals, and a
coset-counting Hilbert function.  The parameterization of torus zero
sets lives in `torus` and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from . import intlin
from .errors import CapExceededError, ValidationError
from .grading import Degree, ToricSetup, is_homogeneous, monomial_basis, positive_functional
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
        def mono(exps):
            parts = [
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                for i, e in enumerate(exps)
                if e
            ]
            return "*".join(parts) if parts else "1"

        head = mono(self.m_plus)
        tail = mono(self.m_minus)
        if self.scale == 1:
            return f"{head} - {tail}"
        return f"{head} - {self.scale}*{tail}"


@dataclass(frozen=True)
class LatticeIdealPresentation:
    """One binomial per basis column of a lattice L."""

    binomials: tuple

    def __iter__(self):
        return iter(self.binomials)

    def texts(self):
        return [b.text() for b in self.binomials]


def lattice_ideal_generators(L) -> LatticeIdealPresentation:
    """Binomials F_m for the basis columns m of L, sign-normalized.

    On the torus these basis binomials cut out V_X(I_L) exactly; the
    full ideal may need more generators, which are never materialized
    here.
    """
    _, ell = intlin.shape(L)
    if ell and intlin.snf(L).rank != ell:
        raise ValidationError("lattice basis columns are dependent")
    cols = [intlin.sign_normalize(c) for c in intlin.columns(L)]
    return LatticeIdealPresentation(binomials=tuple(Binomial(m=c) for c in cols))


@dataclass(frozen=True)
class DegenerateLattice:
    D: list  # the diagonal entries d_1..d_r
    L: list  # r x ell basis matrix of D(L_{beta D})
    gens: LatticeIdealPresentation


def degenerate_lattice(a, h, setup: ToricSetup) -> DegenerateLattice:
    """Lattice of the vanishing ideal of the degenerate torus with
    diagonal exponents a over the order-h subgroup of F_q*.

    d_i = h/gcd(h, a_i); L = D * (canonical basis of ker_Z(beta D)); the
    generators are the toric-kernel binomials with x_i replaced by
    x_i^{d_i}.
    """
    setup._require_torsion_free("degenerate-torus lattices")
    d = _diagonal_orders(a, h, setup)
    betaD = [
        [setup.beta_free[i][j] * d[j] for j in range(setup.r)]
        for i in range(setup.k)
    ]
    gamma0 = intlin.kernel_basis_canonical(betaD)
    Lcols = [
        [d[i] * c[i] for i in range(setup.r)] for c in intlin.columns(gamma0)
    ]
    L = intlin.from_columns(Lcols, setup.r)
    return DegenerateLattice(D=d, L=L, gens=lattice_ideal_generators(L))


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


def complete_intersection(L, setup: ToricSetup | None = None) -> bool:
    """Whether the Hermite-canonical basis matrix of L is mixed
    dominating.  True proves that I_L is a complete intersection
    (Fischer-Shapiro; Morales-Thoma).  False only means that this basis
    is not: I_L is one as soon as some basis of L is mixed dominating.

    Requires L n N^r = {0}; when a setup is supplied this is certified by
    homogeneity plus a pointed grading.
    """
    if setup is not None:
        if not is_homogeneous(L, setup):
            raise ValidationError("lattice is not homogeneous")
        if positive_functional(setup) is None:
            raise ValidationError(
                "grading is not pointed; cannot certify L n N^r = {0}"
            )
    gamma = intlin.column_hermite_basis(L)
    return is_mixed(gamma) and is_dominating(gamma)


def torus_ideal(setup: ToricSetup) -> LatticeIdealPresentation:
    """Generators of I(T_X): the basis binomials of (q-1) L_beta, taken
    on the columns of phi."""
    qm = setup.q - 1
    cols = [[qm * x for x in c] for c in intlin.columns(setup.phi)]
    return lattice_ideal_generators(intlin.from_columns(cols, setup.r))


def point_ideal(P: TorusPoint, setup: ToricSetup):
    """Shifted binomials generating I([P]): one per basis column m of
    L_beta, with scale x^m(P).

    The scale is computed from the canonical form, so it is independent
    of the chosen representative of [P].
    """
    setup._require_torsion_free("point ideals")
    f = setup.field
    out = []
    for i, col in enumerate(intlin.columns(setup.phi)):
        scale = f.eta_pow(P.canon[i])
        out.append(Binomial(m=tuple(col), scale=scale))
    return out


def hilbert_of_lattice(L, alpha: Degree, setup: ToricSetup) -> int:
    """Coset-counting Hilbert function: the number of classes of degree-
    alpha monomials under a ~ a' iff a - a' in L.

    For a lattice ideal this equals dim S_alpha - dim (I_L)_alpha.  It is
    the coset-count cross-check of the class count and the rank in
    `codes`; `injectivity_exact` reads it, and it stays in the library
    because the benchmark's `hilbert` workload times it.
    """
    if not is_homogeneous(L, setup):
        raise ValidationError("lattice is not homogeneous")
    mons = monomial_basis(alpha, setup)
    reducer = intlin.HermiteReducer.from_basis(L)
    return len({reducer.reduce(list(a)) for a in mons})
