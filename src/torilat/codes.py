"""Generalized toric codes on subsets of the torus.

Evaluation matrices over F_q, code dimension via the multigraded
Hilbert function (a count of monomial classes on a subgroup, a rank
elsewhere), length, Hilbert tables, injectivity of evaluation on a
degenerate torus, and an exhaustive minimum-distance search in batches,
over one message per orbit on a subgroup.  All field arithmetic is exact
modular arithmetic; numpy only carries int64 residues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ValidationError
from .grading import Degree, ToricSetup, monomial_basis
from .torus import PointSet, degenerate_torus

DEFAULT_MESSAGE_CAP = 10**6
# Entries in one temporary of the minimum-distance search: the table of
# tail combinations, or a block of messages against it.  A block holds
# at least one message, so a code longer than this has N-entry blocks.
SEARCH_ENTRIES = 2**16
# a search of more projective messages is refused; below it every message
# index is an exact int64
_INDEX_LIMIT = 2**62


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
    if not mons:
        return np.zeros((0, len(Y)), dtype=np.int64), [], None
    return _evaluate(mons, Y, setup), mons, mons[0]


def _evaluate(mons, Y: PointSet, setup: ToricSetup):
    """eta^{(a - a0) . s} for a in `mons` (rows) and the points s of Y
    (columns).  The points are read before the field's power table is
    built, so a set over the point cap raises without building it."""
    e = _exponents(mons, Y.reps, setup.q)
    return setup.field._pow[e]


def _exponents(mons, reps, q):
    """(a - a0) . s mod q-1, a0 = mons[0], for a in `mons` (rows) and s in
    `reps` (columns); well defined on points since a - a0 lies in L_beta."""
    diffs = np.array(mons, dtype=np.int64)
    return (diffs - diffs[0]) @ np.asarray(reps, dtype=np.int64).T % (q - 1)


def _code(Y: PointSet, alpha: Degree, setup: ToricSetup):
    """(k, F0, generator, labels) of the degree-alpha code on Y;
    generator() returns a k x N generator matrix.  On a subgroup the row
    of x^a is the character s -> eta^{(a - a0) . s} of Y, fixed by its
    values on `Y.basis_reps`: its row of `labels`.  Distinct characters
    are independent (Dedekind), so k counts distinct label rows and one
    monomial per class spans the code; no point is read until
    generator() runs.  Other sets take a rank, and labels is None."""
    if not Y.is_group:
        mat, _, a0 = evaluation_matrix(Y, alpha, setup)
        basis = row_space_basis(mat, setup.q)
        return basis.shape[0], a0, lambda: basis, None
    mons = monomial_basis(alpha, setup)
    if not mons:
        return 0, None, None, None
    labels = _exponents(mons, Y.basis_reps, setup.q)
    first = np.sort(np.unique(labels, axis=0, return_index=True)[1])
    classes = [mons[i] for i in first]
    return (len(classes), mons[0], lambda: _evaluate(classes, Y, setup),
            labels[first])


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
    """dim of the degree-alpha code piece: the rank of the evaluation
    matrix, on a subgroup the number of monomial classes modulo L(Y)."""
    return _code(Y, alpha, setup)[0]


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


def injectivity_exact(a, h, alpha: Degree, setup: ToricSetup) -> bool:
    """Whether evaluation at the degenerate torus Y_{A,H} is injective on
    S_alpha: exactly when k = dim S_alpha, that is when no two distinct
    degree-alpha monomials fall in one class of the subgroup.  The class
    count reads no point."""
    Y, _ = degenerate_torus(a, h, setup)
    return hilbert_function(Y, alpha, setup) == len(monomial_basis(alpha, setup))


def minimum_distance(basis: np.ndarray, q: int) -> int:
    """Least weight of a nonzero word in the row space of `basis`, a
    k x N int64 residue matrix of rank k >= 1 over F_q.

    The search is exhaustive over one message per scalar class: for each
    leading position `lead`, the messages (0, ..., 0, 1, tail), tail in
    F_q^m (m = k - lead - 1) in lexicographic order.  Per lead, the table
    `neg` holds -(c . T_low) mod q for every combination c of the last
    `low` < m tail digits, `low` as large as SEARCH_ENTRIES allows.  A
    block of leading digits gives its partial words `part` by one int64
    product mod q, and word (head, c) is zero in column j exactly when
    part[j] == neg[c, j] (with low = 0, `neg` is the one zero row).
    The search stops at weight 1.  A search of more than 2^62 messages
    could never finish and raises CapExceededError before any work.
    """
    return _search(basis, q)


def _search(basis: np.ndarray, q: int, labels=None, pows=None) -> int:
    """minimum_distance(basis, q); given `labels` and `pows`, over one
    message per orbit of a subgroup Y.

    Row i of `basis` is then a character chi_i of Y, labels[i] its
    exponents of eta on the generators of Y, and pows[e] = eta^e.
    Translation by g in Y permutes the coordinates and sends the word of
    message m to that of (m_i chi_i(g)), of the same weight.  With
    m_lead = 1, tail row j is so scaled by chi_j/chi_lead, whose image is
    <eta^{g_j}>, g_j = gcd(q-1, labels[j] - labels[lead]).  The tail row of
    least g_j is searched first, its digit drawn from {0, eta^0, ...,
    eta^{g_j - 1}}, one per coset of that image; the rest of the tail runs
    over all of F_q, so every orbit is met.  Without labels that digit
    runs over all of F_q.
    """
    k, N = basis.shape
    # (q^k - 1)/(q - 1) >= 2^k - 1, so k >= 64 needs no big-integer power
    if k >= 64 or (q**k - 1) // (q - 1) > _INDEX_LIMIT:
        raise CapExceededError(
            f"minimum distance needs ({q}^{k} - 1)/{q - 1} projective messages, "
            f"more than the search limit 2^62"
        )
    best = N
    for lead in range(k):
        tail, m = basis[lead + 1 :], k - lead - 1
        first = np.arange(q, dtype=np.int64)  # the first tail row's digits
        if labels is not None and m:
            g = np.gcd.reduce(labels[lead + 1 :] - labels[lead], axis=1,
                              initial=q - 1)
            i = int(np.argmin(g))
            tail = tail[[i, *range(i), *range(i + 1, m)]]
            first = np.concatenate(([0], pows[: g[i]]))
        low = max([t for t in range(m) if q**t * N <= SEARCH_ENTRIES], default=0)
        # low < m whenever m > 0, so the first tail row leads the head and
        # its digits replace one factor q of the head count (m = 0: one)
        head, heads = tail[: m - low], len(first) * q ** (m - low) // q
        # neg[c] = -(c . T_low) mod q, c in F_q^low in lexicographic order
        neg = np.zeros((1, N), dtype=np.int64)
        for row in tail[m - low :]:
            neg = (neg[:, None] - np.arange(q)[:, None] * row).reshape(-1, N) % q
        # one buffer per lead: fresh block-sized temporaries page-fault
        rows = min(heads, max(1, SEARCH_ENTRIES // neg.size))
        buf = np.empty((rows, N), dtype=np.int64)
        for start in range(0, heads, rows):
            index = np.arange(start, min(start + rows, heads), dtype=np.int64)
            digits = np.empty((index.size, m - low), dtype=np.int64)
            for j in range(m - low - 1, -1, -1):
                index, digits[:, j] = np.divmod(index, q if j else len(first))
            # the first digit is a position in `first` (with m = 0, no-op)
            digits[:, :1] = first[digits[:, :1]]
            # exact in int64: the product plus basis[lead] stays below
            # k (q-1)^2 + q < 2^63 (at q <= 10^6, for k below 9 * 10^6), as
            # does a table step; part and neg are compared as residues
            part = np.matmul(digits, head, out=buf[: len(digits)])
            part += basis[lead]
            part %= q
            zeros = np.count_nonzero(neg == part[:, None], axis=2)
            best = min(best, N - int(zeros.max()))
            if best == 1:
                return 1
    return best


def _decimal(n: int, fallback: str = "") -> str:
    """str(n); when n has more digits than str() may convert
    (sys.get_int_max_str_digits()), `fallback`, or n in hexadecimal."""
    try:
        return str(n)
    except ValueError:
        return fallback or f"{n:#x}"


def code_parameters(
    Y: PointSet,
    alpha: Degree,
    setup: ToricSetup,
    compute_d: bool = False,
    cap: int = DEFAULT_MESSAGE_CAP,
) -> CodeSummary:
    """Block-length, dimension and (optionally) minimum distance of the
    evaluation code C_{alpha, Y}.

    The search for d is sized by its (q^k - 1)/(q - 1) projective messages
    (on a subgroup it visits fewer, one per orbit of a tail digit); above
    `cap` it is skipped with a note."""
    if cap < 0:
        raise ValidationError(
            f"message cap must be nonnegative, got {_decimal(cap)}"
        )
    k, a0, generator, labels = _code(Y, alpha, setup)
    q = setup.q
    d = None
    note = ""
    if compute_d:
        if k == 0:
            note = "zero code; minimum distance undefined"
        else:
            n_msgs = (q**k - 1) // (q - 1)
            if n_msgs > cap:
                count = _decimal(n_msgs, f"({q}^{k} - 1)/{q - 1}")
                note = (
                    f"minimum distance skipped: {count} projective messages "
                    f"exceed cap {_decimal(cap)}"
                )
            else:
                d = _search(generator(), q, labels, setup.field._pow)
    return CodeSummary(
        N=len(Y), k=k, d=d, alpha=alpha, F0=a0, note=note,
    )
