"""Generalized toric codes on subsets of the torus.

Evaluation matrices over F_q, code dimension via the multigraded
Hilbert function (rank of the evaluation matrix), length, Hilbert
tables, and small-scale brute-force minimum distance.  All field
arithmetic is exact modular arithmetic; numpy only carries int64
residues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grading import Degree, ToricSetup, monomial_basis, _enumerate_solutions
from .torus import PointSet, _diagonal_orders

DEFAULT_MESSAGE_CAP = 10**6


@dataclass(frozen=True)
class CodeSummary:
    N: int
    k: int
    d: int | None
    alpha: Degree
    F0: tuple | None
    note: str = ""


def evaluation_matrix(Y: PointSet, alpha: Degree, setup: ToricSetup):
    """Row per monomial of S_alpha, column per point of Y, entries
    F(P)/F0(P) with F0 the lexicographically smallest monomial.

    Returns (matrix, monomials, F0); the matrix is an int64 residue
    array of shape (len(monomials), len(Y)).
    """
    if len(Y) == 0:
        raise ValidationError("evaluation over an empty point set")
    mons = monomial_basis(alpha, setup)
    N = len(Y)
    if not mons:
        return np.zeros((0, N), dtype=np.int64), [], None
    a0 = mons[0]
    qm = setup.q - 1
    # exponent of entry (a, P): (a - a0) . s_P mod q-1; well defined since
    # a - a0 lies in L_beta
    diffs = np.array([[a[j] - a0[j] for j in range(setup.r)] for a in mons],
                     dtype=np.int64)
    exps = (diffs @ Y.reps.T) % qm
    return setup.field._pow[exps], mons, a0


def _echelon(mat: np.ndarray, q: int) -> np.ndarray:
    """Row-echelon basis of the row space over F_q, pivots scaled to 1,
    by exact modular Gaussian elimination."""
    A = np.array(mat, dtype=np.int64) % q
    rows, cols = A.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(A[rank:, c])
        if nz.size == 0:
            continue
        piv = rank + nz[0]
        A[[rank, piv]] = A[[piv, rank]]
        inv = pow(int(A[rank, c]), q - 2, q)
        A[rank] = A[rank] * inv % q
        mask = A[rank + 1 :, c] != 0
        if mask.any():
            A[rank + 1 :][mask] = (
                A[rank + 1 :][mask] - np.outer(A[rank + 1 :, c][mask], A[rank])
            ) % q
        rank += 1
    return A[:rank]


def rank_mod_q(mat: np.ndarray, q: int) -> int:
    """Rank over F_q."""
    return _echelon(mat, q).shape[0]


def row_space_basis(mat: np.ndarray, q: int) -> np.ndarray:
    """Row-echelon basis of the row space over F_q."""
    return _echelon(mat, q)


def hilbert_function(Y: PointSet, alpha: Degree, setup: ToricSetup) -> int:
    """dim of the degree-alpha code piece: rank of the evaluation matrix
    (the kernel of the evaluation map is the degree-alpha part of I(Y))."""
    mat, mons, _ = evaluation_matrix(Y, alpha, setup)
    if not mons:
        return 0
    return rank_mod_q(mat, setup.q)


def hilbert_table(Y: PointSet, first_values, second_values, setup: ToricSetup):
    """grid[j][i] = hilbert_function(Y, (first_values[i], second_values[j]))
    for a rank-2 free grading."""
    if setup.k != 2 or setup.torsion:
        raise ValidationError("hilbert_table expects a free rank-2 grading")
    return [
        [
            hilbert_function(Y, Degree(free=(a, b)), setup)
            for a in first_values
        ]
        for b in second_values
    ]


def degree_leq(alpha: Degree, alpha2: Degree, setup: ToricSetup) -> bool:
    """alpha <= alpha2 iff alpha2 - alpha lies in the degree semigroup,
    i.e. some monomial has degree alpha2 - alpha."""
    setup._require_torsion_free("semigroup comparison")
    diff = setup.sub_degrees(alpha2, alpha)
    return bool(
        _enumerate_solutions(diff.free, setup, range(setup.r), find_one=True)
    )


def injectivity_check(a, h, alpha: Degree, setup: ToricSetup) -> bool:
    """Whether alpha <= d_1 beta_1 + ... + d_r beta_r.

    This is the published degree bound for injectivity of evaluation on
    the degenerate torus, but it is NOT sufficient when the degrees
    beta_i have mixed-sign coordinates: alpha can sit below the bound
    and above a generator degree of the vanishing ideal at the same
    time.  Use injectivity_exact for a decision, or
    injectivity_certified for a provable sufficient condition.
    """
    d = _diagonal_orders(a, h, setup)
    bound = setup.zero_degree()
    for j in range(setup.r):
        bound = setup.add_degrees(
            bound, setup.scale_degree(d[j], setup.variable_degree(j))
        )
    return degree_leq(alpha, bound, setup)


def injectivity_certified(a, h, alpha: Degree, setup: ToricSetup) -> bool:
    """Provable sufficient condition for injective evaluation.

    If two distinct degree-alpha monomials are congruent modulo the
    degenerate-torus lattice D(L_{beta D}), their difference Dm gives
    alpha >= beta(D m+) >= d_i beta_i for any i in the support of m+.
    Hence when no d_i beta_i precedes alpha, evaluation is injective.
    """
    d = _diagonal_orders(a, h, setup)
    return all(
        not degree_leq(
            setup.scale_degree(d[j], setup.variable_degree(j)), alpha, setup
        )
        for j in range(setup.r)
    )


def injectivity_exact(a, h, alpha: Degree, setup: ToricSetup) -> bool:
    """Exact decision: evaluation at the degenerate torus is injective on
    S_alpha iff no two distinct degree-alpha monomials agree modulo the
    vanishing lattice."""
    from .lattice import degenerate_lattice, hilbert_of_lattice

    L = degenerate_lattice(a, h, setup).L
    return hilbert_of_lattice(L, alpha, setup) == len(monomial_basis(alpha, setup))


def _projective_messages(k: int, q: int):
    """One representative per scalar class of nonzero messages in F_q^k:
    first nonzero coordinate fixed to 1."""
    from itertools import product

    for lead in range(k):
        for tail in product(range(q), repeat=k - lead - 1):
            yield (0,) * lead + (1,) + tail


def code_parameters(
    Y: PointSet,
    alpha: Degree,
    setup: ToricSetup,
    compute_d: bool = False,
    cap: int = DEFAULT_MESSAGE_CAP,
) -> CodeSummary:
    """Block-length, dimension and (optionally) minimum distance of the
    evaluation code C_{alpha, Y}."""
    mat, mons, a0 = evaluation_matrix(Y, alpha, setup)
    N = len(Y)
    q = setup.q
    basis = row_space_basis(mat, q) if mons else np.zeros((0, N), dtype=np.int64)
    k = basis.shape[0]
    d = None
    note = ""
    if compute_d:
        if k == 0:
            note = "zero code; minimum distance undefined"
        else:
            n_msgs = (q**k - 1) // (q - 1)
            if n_msgs > cap:
                note = (
                    f"minimum distance skipped: {n_msgs} projective messages "
                    f"exceed cap {cap}"
                )
            else:
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
                d = best
    return CodeSummary(
        N=N, k=k, d=d, alpha=alpha, F0=tuple(a0) if a0 is not None else None,
        note=note,
    )
