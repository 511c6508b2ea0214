"""Generalized toric codes on subsets of the torus.

Evaluation matrices over F_q, code dimension via the multigraded
Hilbert function (a count of monomial classes on a subgroup, read from
the leaves of the walk with no monomial listed, and a rank elsewhere),
length, Hilbert tables (where a cell takes its value from
the cells one degree of a variable below it when it can: |Y| above a
cell of value |Y|, and on a subgroup the union of their class sets,
with no monomial listed), injectivity of evaluation on a degenerate
torus, and an exhaustive minimum-distance search in batches, over one
message per orbit on a subgroup.  All field arithmetic is exact modular
arithmetic: numpy carries int64 residues, and in the distance search
the narrowest unsigned ones that hold the values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mod

import numpy as np

from . import grading
from .errors import CapExceededError, ValidationError
from .gfield import PrimeField
from .grading import (Degree, ToricSetup, leaf_classes, monomial_basis,
                      positive_functional)
from .torus import PointSet, degenerate_torus

DEFAULT_MESSAGE_CAP = 10**6
# Entries in one temporary of the minimum-distance search: the table of
# tail combinations, the words of a span of head messages, or a block of
# them against the table.  A block holds at least one message, so a code
# longer than this has N-entry blocks.
SEARCH_ENTRIES = 2**16
# a search of more projective messages is refused; below it every message
# index fits in 64 bits
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
    return _evaluate(mons, Y, setup, mons[0]), mons, mons[0]


def _evaluate(mons, Y: PointSet, setup: ToricSetup, a0):
    """eta^{(a - a0) . s} for a in `mons` (rows) and the points s of Y
    (columns).  The points are read before the field's power table is
    built, so a set over the point cap raises without building it."""
    e = _exponents(mons, Y.reps, setup.q, a0)
    return setup.field._pow[e]


def _exponents(mons, reps, q, a0):
    """(a - a0) . s mod q-1 for a in `mons` (rows) and s in `reps`
    (columns, entries in [0, q-1)); well defined on points since a - a0
    lies in L_beta.  a - a0 is reduced mod q-1 as Python ints, so each
    product is below (q-1)^2 in int64, whatever the degree."""
    qm = q - 1
    diffs = np.array([[(x - y) % qm for x, y in zip(a, a0)] for a in mons],
                     dtype=np.int64).reshape(len(mons), len(a0))
    return diffs @ np.asarray(reps, dtype=np.int64).reshape(-1, len(a0)).T % qm


def _code(Y: PointSet, alpha: Degree, setup: ToricSetup):
    """(k, F0, generator, labels) of the degree-alpha code on Y, F0 the
    lexicographically least monomial; generator() returns a k x N
    generator matrix.  On a subgroup the row of x^a is the character
    s -> eta^{(a - F0) . s} of Y, fixed by the labels a . s mod q-1 on
    `Y.basis_reps`: its row of `labels`.  Distinct characters are
    independent (Dedekind), so k counts distinct labels and one monomial
    per class spans the code.  The labels are read from the leaves of the
    walk (`grading.leaf_classes`), and no monomial is listed; no point
    is read until generator() runs.  Other sets take a rank, and labels
    is None."""
    if not Y.is_group:
        mat, _, a0 = evaluation_matrix(Y, alpha, setup)
        basis = row_space_basis(mat, setup.q)
        return basis.shape[0], a0, lambda: basis, None
    setup._require_degrees("monomial enumeration", alpha)
    leaves = grading._leaves(alpha.free, setup)
    if not leaves.size:
        return 0, None, None, None
    reps = Y.basis_reps
    labels, classes = leaf_classes(leaves, reps, [setup.q - 1] * len(reps))
    a0 = leaves.least()
    return len(labels), a0, lambda: _evaluate(classes(), Y, setup, a0), labels


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
    for a rank-2 free grading.

    The cells are visited in increasing w . alpha (w the positive
    functional), so the cells p_j = alpha - deg(x_j) of the table come
    before alpha, and each cell is filled by the first rule that applies:

    1. Some p_j has value |Y|: then alpha has too.  x_j has no zero on
       the torus, so multiplying by it maps the functions on Y onto
       themselves, and the degree-p_j piece into the degree-alpha piece.
    2. On a subgroup, where a cell below |Y| keeps its set of classes
       (labels a . s mod q-1 on `Y.basis_reps`, as in `_code`), at most
       one p_j is unknown: neither a cell with a kept set nor outside the
       degree cone (which has no monomial).  A degree-alpha monomial that
       no x_j of a known p_j divides is a power of the unknown x_j (or
       1), so the classes of alpha are those of each known p_j moved by
       the label of x_j, and that of the power (or 1) when it has degree
       alpha.  No monomial is listed.
    3. Otherwise the classes of alpha are counted from the walk of its
       monomials (`_code`; on other point sets they are listed), and the
       monomial cap applies to this cell.

    Class sets are kept while their total stays within
    MONOMIAL_SEARCH_CAP; a cell past it keeps none, and counts as
    unknown to the cells above it.  On other point sets rule 1 alone
    applies.  A grading with no positive functional is not pointed: the
    first cell it lists raises ValidationError, so it gives a value only
    for a grid with no cell."""
    if setup.k != 2 or setup.torsion:
        raise ValidationError("hilbert_table expects a free rank-2 grading")
    cells = list(dict.fromkeys((a, b) for b in second_values for a in first_values))
    w = positive_functional(setup)
    if w is not None:
        cells.sort(key=lambda c: w[0] * c[0] + w[1] * c[1])
    steps = list(zip(*setup.beta_free))  # deg(x_j)
    full, value, sets = len(Y), {}, {}  # sets: cell -> its class labels
    keep = Y.is_group and w is not None
    if keep:
        qm, reps = setup.q - 1, Y.basis_reps
        qms = (qm,) * len(reps)
        gens = [tuple(s[j] % qm for s in reps) for j in range(setup.r)]  # of x_j
        _, (y1, y2), (z1, z2) = setup._bounds[1]
        kept = 0

        def classes(p):
            """The classes of degree p: kept, none off the cone, else None."""
            if p in sets:
                return sets[p]
            x, y = p
            return () if y1 * x + y2 * y < 0 or z1 * x + z2 * y < 0 else None

    for alpha in cells:
        a, b = alpha
        preds = [(a - x, b - y) for x, y in steps]
        if full in map(value.get, preds):
            value[alpha] = full
            continue
        if keep and (known := list(map(classes, preds))).count(None) <= 1:
            S = {(0,) * len(reps)} if alpha == (0, 0) else set()
            for c, g, (x, y) in zip(known, gens, steps):
                if c is not None:
                    S.update(tuple(map(mod, map(add, label, g), qms)) for label in c)
                    continue
                # the unknown x_j: x_j^t, when it has degree alpha
                t, rest = divmod(w[0] * a + w[1] * b, w[0] * x + w[1] * y)
                if not rest and (t * x, t * y) == alpha:
                    S.add(tuple(t * e % qm for e in g))
            value[alpha] = len(S)
        else:
            k, _, _, labels = _code(Y, Degree(free=alpha), setup)
            value[alpha] = k
            if not keep:
                continue
            S = set(map(tuple, labels.tolist())) if k else set()
        if len(S) < full and kept + len(S) <= grading.MONOMIAL_SEARCH_CAP:
            sets[alpha], kept = S, kept + len(S)
    return [[value[a, b] for a in first_values] for b in second_values]


def injectivity_exact(a, h, alpha: Degree, setup: ToricSetup) -> bool:
    """Whether evaluation at the degenerate torus Y_{A,H} is injective on
    S_alpha: exactly when k = dim S_alpha, that is when no two distinct
    degree-alpha monomials fall in one class of the subgroup.  The class
    count reads no point, and dim S_alpha is the total length of the
    leaves it reads."""
    Y, _ = degenerate_torus(a, h, setup)
    k = hilbert_function(Y, alpha, setup)
    return k == grading._leaves(alpha.free, setup).size


def minimum_distance(basis: np.ndarray, q: int) -> int:
    """Least weight of a nonzero word in the row space of `basis`, a
    k x N matrix of rank k >= 1 over F_q, q prime, whose entries are read
    mod q.  Other input raises ValidationError (CapExceededError for a q
    past the field-size cap) before the search.

    The search is exhaustive over one message per scalar class: for each
    leading position `lead`, the messages (0, ..., 0, 1, tail), tail in
    F_q^m (m = k - lead - 1) in lexicographic order.  Per lead, the table
    `neg` holds -(c . T_low) mod q for every combination c of the last
    `low` < m tail digits, `low` within SEARCH_ENTRIES and no more than
    the lead's head messages pay for; leads whose tabulated rows end the
    basis share one table.  The words `part` of a span of head messages
    (the other m - low digits) are formed by broadcast multiply-adds and
    reduced mod q, exactly, in the narrowest unsigned dtype that holds
    their sums, and word (head, c) is zero in column j exactly when
    part[j] == neg[c, j] (with low = 0, `neg` is the one zero row).
    Residues are compared in the narrowest unsigned dtype that holds
    q - 1, and zeros counted in the narrowest that holds N, with the sum
    over the N columns along a long axis.  The search stops at weight 1.
    A search of more than 2^62 messages could never finish and raises
    CapExceededError before any work.
    """
    PrimeField(q)  # q prime, and within the field-size cap
    basis = np.asarray(basis, dtype=np.int64)
    if basis.ndim != 2 or basis.shape[0] == 0:
        raise ValidationError(
            f"minimum distance needs a k x N basis with k >= 1, got shape "
            f"{basis.shape}"
        )
    _check_messages(q, basis.shape[0])
    basis = basis % q
    if rank_mod_q(basis, q) < basis.shape[0]:
        raise ValidationError(
            f"the {basis.shape[0]} basis rows are linearly dependent over F_{q}"
        )
    return _search(basis, q)


def _check_messages(q: int, k: int) -> None:
    """Refuse a search of more than 2^62 projective messages."""
    # (q^k - 1)/(q - 1) >= 2^k - 1, so k >= 64 needs no big-integer power
    if k >= 64 or (q**k - 1) // (q - 1) > _INDEX_LIMIT:
        raise CapExceededError(
            f"minimum distance needs ({q}^{k} - 1)/{q - 1} projective messages, "
            f"more than the search limit 2^62"
        )


def _search(basis: np.ndarray, q: int, labels=None, pows=None) -> int:
    """minimum_distance(basis, q) of a k x N residue matrix of rank k;
    given `labels` and `pows`, over one message per orbit of a subgroup Y.

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
    _check_messages(q, k)
    digits = np.arange(q)  # the first tail row's digits, or their cosets
    if labels is not None:
        gaps = np.gcd.reduce(labels - labels[:, None], axis=2, initial=q - 1)
        cosets = np.concatenate(([0], pows))
    # suffix: the table of the last ell rows; its first row is zero
    suffix, ell = np.zeros((1, N), dtype=np.min_scalar_type(q - 1)), 0
    best = N
    for lead in range(k - 1):
        m = k - lead - 1
        rows = list(range(lead + 1, k))  # the tail, as rows of `basis`
        first = digits
        if labels is not None:
            i = int(gaps[lead, lead + 1 :].argmin())
            rows.insert(0, rows.pop(i))
            first = cosets[: gaps[lead, lead + 1 + i] + 1]
        low = _table_digits(q, N, m, len(first))
        if rows[m - low :] == list(range(k - low, k)):
            if low > ell:
                suffix, ell = _prepend(suffix, basis[k - low : k - ell], q), low
            neg = suffix[: q**low]
        else:
            neg = _prepend(suffix[:1], basis[rows[m - low :]], q)
        # low < m, so the head leads with the first tail row and its digits
        best = _scan(basis[lead], basis[rows[: m - low]], first, neg, q, best)
        if best == 1:
            return 1
    # the last lead has the one message (0, ..., 0, 1)
    return min(best, int(np.count_nonzero(basis[-1])))


def _table_digits(q: int, N: int, m: int, first: int) -> int:
    """How many of the m > 0 tail digits to tabulate: fewer than m, within
    SEARCH_ENTRIES, and of those the count that builds the fewest entries
    per word column: q^low for the table, plus m - low products for each
    of the first * q^(m - low - 1) head messages.  That count is convex
    in low, so its first local minimum is the least."""
    def built(t):
        return q**t + first * q ** (m - t - 1) * (m - t)

    low = 0
    while (low + 1 < m and q ** (low + 1) * N <= SEARCH_ENTRIES
           and built(low + 1) < built(low)):
        low += 1
    return low


def _prepend(table: np.ndarray, rows: np.ndarray, q: int) -> np.ndarray:
    """The table of -(c . T) mod q, T = `rows` stacked above the rows that
    `table` tabulates, c in lexicographic order.  The digits of `rows`
    are the most significant, so `table` is the part where they are 0."""
    res, wide = table.dtype, np.min_scalar_type(2 * q - 2)
    for row in rows[::-1]:
        step = (np.arange(q)[:, None] * (q - row) % q).astype(wide)
        t = np.add(table, step[:, None], dtype=wide)
        # from [0, 2q - 2] to [0, q): unsigned t - q wraps above t if t < q
        np.minimum(t, t - wide.type(q), out=t)
        table = t.astype(res).reshape(-1, row.size)
    return table


def _memory_order(rows: int, R: int, N: int) -> tuple:
    """The axes of the compare, (rows, R, N) = (head words, table rows,
    word columns), outermost first: the longest innermost, and N
    outermost otherwise, so that the sum over the N word columns runs
    along a long axis."""
    if N >= max(rows, R):
        return (0, 1, 2)
    return (2, 0, 1) if R >= rows else (2, 1, 0)


def _scan(lead_row, head, first, neg, q, best):
    """The least of `best` and the weights of the words lead_row +
    c_0 head[0] + ... + c_{h-1} head[h-1] - neg[t], for c_0 in `first`,
    c_1, ..., c_{h-1} in F_q and t over the rows of `neg`; 1 once met.

    Head messages are taken in spans, lexicographic in c; a span's words
    are formed mod q, then compared with `neg` in blocks of `rows` of
    them, each temporary of at most SEARCH_ENTRIES entries."""
    (R, N), h = neg.shape, len(head)
    heads = len(first) * q ** (h - 1)
    rows = min(heads, max(1, SEARCH_ENTRIES // (R * N)))
    span = min(heads, rows * max(1, SEARCH_ENTRIES // (rows * max(R, N))))
    # exact for a message index, and for a word before its mod: lead_row
    # plus h products of residues, at most (q - 1)(1 + h(q - 1))
    wide = np.min_scalar_type(max(heads - 1, (q - 1) * (1 + h * (q - 1))))
    count = np.min_scalar_type(N)
    axes = _memory_order(rows, R, N)
    eq = np.empty([(rows, R, N)[a] for a in axes], dtype=bool)
    eq = eq.transpose([axes.index(a) for a in range(3)])
    # the (., N) and (., R) arrays in the memory order of eq's axes
    order = "C" if axes[0] == 0 else "F"
    neg = np.asarray(neg, order=order)
    words = np.empty((span, N), dtype=neg.dtype, order=order)
    acc = np.empty((span, N), dtype=wide, order=order)
    prod = np.empty_like(acc)
    zeros = np.empty((span, R), dtype=count,
                     order="F" if axes == (2, 1, 0) else "C")
    steps = np.arange(span, dtype=wide)
    index, quot, digit = np.empty((3, span), dtype=wide)
    lead_row, head, first = (x.astype(wide) for x in (lead_row, head, first))
    for start in range(0, heads, span):
        n = min(span, heads - start)
        i, t, d, a, p = index[:n], quot[:n], digit[:n], acc[:n], prod[:n]
        np.add(steps[:n], start, out=i)
        np.copyto(a, lead_row)
        for j in range(h - 1, -1, -1):
            if j:  # the last digit of i, whose quotient is the new i
                np.floor_divide(i, q, out=t)
                np.multiply(t, q, out=d)
                np.subtract(i, d, out=d)
                i, t = t, i
            else:
                first.take(i, out=d)
            np.multiply(d[:, None], head[j], out=p)
            a += p
        # a mod q by a floor division, which numpy vectorizes (and its
        # remainder not)
        np.floor_divide(a, q, out=p)
        p *= q
        np.subtract(a, p, out=words[:n], casting="unsafe")
        for s in range(0, n, rows):
            b = min(rows, n - s)
            np.equal(neg, words[s : s + b, None], out=eq[:b])
            np.add.reduce(eq[:b].view(np.uint8), axis=2, dtype=count,
                          out=zeros[s : s + b])
        best = min(best, N - int(zeros[:n].max()))
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
