"""Exact integer matrix algorithms.

Hermite and Smith normal forms, integer kernels, lattice comparison and
cokernel structure.  Matrices are plain lists of rows of Python ints, so
every operation is arbitrary precision; there is no overflow to guard
against.  All functions treat their arguments as immutable and return
fresh matrices.

Each helper checks the shape of its arguments once per call, with
`shape`.  The row and column helpers then walk the rows with `zip`, which
stops at the shortest row without a word: a ragged matrix would be cut
short, not rejected, if the check were left out.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import InternalError, ValidationError

IntMatrix = list  # list[list[int]], rows of equal length


def shape(M: IntMatrix) -> tuple[int, int]:
    if len(set(map(len, M))) > 1:
        raise ValidationError("ragged matrix")
    return len(M), len(M[0]) if M else 0


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(M: IntMatrix) -> IntMatrix:
    return [list(row) for row in M]


def transpose(M: IntMatrix) -> IntMatrix:
    shape(M)
    return [list(col) for col in zip(*M)]


def mat_mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    ma, na = shape(A)
    mb, nb = shape(B)
    if na != mb:
        raise ValidationError(f"cannot multiply {ma}x{na} by {mb}x{nb}")
    Bt = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in Bt] for row in A]


def mat_vec(M: IntMatrix, v: list) -> list:
    _, n = shape(M)
    if len(v) != n:
        raise ValidationError("matrix/vector size mismatch")
    return [sum(map(mul, row, v)) for row in M]


def columns(M: IntMatrix) -> list:
    return transpose(M)


def from_columns(cols: list, nrows: int | None = None) -> IntMatrix:
    if not cols:
        return [[] for _ in range(nrows or 0)]
    return transpose(cols)


def hnf(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U @ M = H, H in row echelon form
    with positive pivots and entries above each pivot reduced into
    [0, pivot).
    """
    m, n = shape(M)
    H = copy_matrix(M)
    U = identity(m)
    row = 0
    for col in range(n):
        if row >= m:
            break
        # gcd the entries in this column below `row` into position `row`
        while True:
            nz = [i for i in range(row, m) if H[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(H[i][col]))
            if i0 != row:
                H[row], H[i0] = H[i0], H[row]
                U[row], U[i0] = U[i0], U[row]
            done = True
            for i in range(row + 1, m):
                if H[i][col] != 0:
                    q = H[i][col] // H[row][col]
                    for j in range(n):
                        H[i][j] -= q * H[row][j]
                    for j in range(m):
                        U[i][j] -= q * U[row][j]
                    if H[i][col] != 0:
                        done = False
            if done:
                break
        if H[row][col] == 0:
            continue
        if H[row][col] < 0:
            H[row] = [-x for x in H[row]]
            U[row] = [-x for x in U[row]]
        p = H[row][col]
        for i in range(row):
            q = H[i][col] // p
            if q:
                for j in range(n):
                    H[i][j] -= q * H[row][j]
                for j in range(m):
                    U[i][j] -= q * U[row][j]
        row += 1
    return H, U


def column_hnf(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite form: returns (H, W) with M @ W = H.

    H is column echelon: column j has its first nonzero (positive) entry
    at a strictly increasing pivot row.
    """
    Ht, W = hnf(transpose(M))
    return transpose(Ht), transpose(W)


def column_hermite_basis(M: IntMatrix) -> IntMatrix:
    """Canonical basis of the column span: column HNF with zero columns
    dropped.  Two matrices span the same lattice iff these agree."""
    m, n = shape(M)
    H, _ = column_hnf(M)
    cols = [c for c in columns(H) if any(c)]
    return from_columns(cols, m)


def lattice_equal(B1: IntMatrix, B2: IntMatrix) -> bool:
    """True iff the column spans of B1 and B2 over Z coincide."""
    m1, _ = shape(B1)
    m2, _ = shape(B2)
    if m1 != m2:
        raise ValidationError("lattice bases live in different ambient ranks")
    return column_hermite_basis(B1) == column_hermite_basis(B2)


@dataclass(frozen=True)
class SNFResult:
    """U @ M @ V = S with U, V unimodular and S diagonal, nonnegative,
    each diagonal entry dividing the next."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> list:
        m, n = shape(self.S)
        return [self.S[i][i] for i in range(min(m, n))]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def snf(M: IntMatrix) -> SNFResult:
    """Smith normal form with transformation matrices."""
    m, n = shape(M)
    S = copy_matrix(M)
    U = identity(m)
    V = identity(n)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        for j in range(n):
            S[dst][j] -= q * S[src][j]
        for j in range(m):
            U[dst][j] -= q * U[src][j]

    def addmul_col(dst, src, q):
        for row in S:
            row[dst] -= q * row[src]
        for row in V:
            row[dst] -= q * row[src]

    t = 0
    while t < min(m, n):
        # find a pivot in the trailing submatrix
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] != 0:
                    if piv is None or abs(S[i][j]) < abs(S[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    if abs(S[i][t]) < abs(S[t][t]):
                        swap_rows(t, i)
                    q = S[i][t] // S[t][t]
                    addmul_row(i, t, q)
            if any(S[i][t] for i in range(t + 1, m)):
                continue
            # clear row t
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    if abs(S[t][j]) < abs(S[t][t]):
                        swap_cols(t, j)
                    q = S[t][j] // S[t][t]
                    addmul_col(j, t, q)
            if any(S[t][j] for j in range(t + 1, n)) or any(
                S[i][t] for i in range(t + 1, m)
            ):
                continue
            # divisibility: S[t][t] must divide the rest of the block
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % S[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            addmul_row(t, bad, -1)  # fold the offending row in and redo
        if S[t][t] < 0:
            S[t] = [-x for x in S[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return SNFResult(U=U, S=S, V=V)


def integer_kernel(M: IntMatrix) -> IntMatrix:
    """Basis of {x in Z^cols : M x = 0}, as columns.

    Computed from the SNF: the columns of V at zero diagonal positions.
    Column count equals cols - rank(M).
    """
    m, n = shape(M)
    if n == 0:
        return []
    res = snf(M)
    r = res.rank
    cols = columns(res.V)[r:]
    K = from_columns(cols, n)
    for c in cols:
        if any(mat_vec(M, c)):
            raise InternalError("kernel basis vector fails M x = 0")
    return K


def sign_normalize(m) -> tuple:
    """Orient m so its first nonzero entry is positive."""
    first = next((x for x in m if x), 0)
    return tuple(-x for x in m) if first < 0 else tuple(m)


def kernel_basis_canonical(M: IntMatrix) -> IntMatrix:
    """Canonical kernel basis: Hermite form taken in reversed coordinate
    order, mapped back, each vector oriented so its first nonzero entry
    is positive, columns sorted lexicographically.

    This pivots from the last coordinates, which keeps early coordinates
    unreduced and yields the generator shapes conventional for these
    toric kernels (e.g. x1^a x2^b - x4^c rather than x2^b x3^a' - x4^c).
    """
    K = integer_kernel(M)
    m, n = shape(K)
    if n == 0:
        return K
    H = column_hermite_basis(K[::-1])
    cols = sorted(sign_normalize(c[::-1]) for c in columns(H))
    return from_columns(cols, m)
