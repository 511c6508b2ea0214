"""Integer linear algebra: normal forms, kernels, lattice comparison.

Oracles: brute-force determinant/minor GCDs for SNF invariants, and
box-bounded kernel enumeration for integer kernels.
"""

import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from torilat import intlin
from torilat.errors import ValidationError

small_entries = st.integers(min_value=-6, max_value=6)


def matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: st.lists(
                st.lists(small_entries, min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


def fixed_matrices(m, n):
    return st.lists(
        st.lists(small_entries, min_size=n, max_size=n), min_size=m, max_size=m
    )


def brute_force_kernel_box(M, bound):
    """All kernel vectors with entries in [-bound, bound]."""
    _, n = intlin.shape(M)
    out = []
    for v in product(range(-bound, bound + 1), repeat=n):
        if not any(intlin.mat_vec(M, list(v))):
            out.append(list(v))
    return out


@pytest.fixture(scope="module")
def sympy_snf():
    """sympy's Smith normal form over Z, where sympy is installed (it is
    not a dependency of torilat)."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    return lambda M: smith_normal_form(sympy.Matrix(M), domain=sympy.ZZ)


@pytest.fixture(scope="module")
def same_span_as_sympy_hnf():
    """Whether the columns of a basis span the same lattice as sympy's
    Hermite normal form of M, where sympy is installed: each side's
    columns lie in the integer span of the other's, decided by exact
    rational solves (both sides have independent columns)."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    def in_span(B, v):
        if B.cols == 0:
            return not any(v)
        try:
            x, params = B.gauss_jordan_solve(v)
        except ValueError:  # no rational solution
            return False
        assert params.shape[0] == 0
        return all(c.is_integer for c in x)

    def same_span(basis, M):
        ours = sympy.Matrix(basis) if basis[0] else sympy.zeros(len(M), 0)
        theirs = hermite_normal_form(sympy.Matrix(M))
        return all(in_span(theirs, ours.col(j)) for j in range(ours.cols)) and all(
            in_span(ours, theirs.col(j)) for j in range(theirs.cols))

    return same_span


RAGGED = [[[1, 2], [3]], [[1], [2, 3]], [[], [1]]]


class TestShapeChecks:
    """The helpers walk rows with `zip`, which stops at the shortest row;
    a ragged matrix must be refused, never cut short."""

    @pytest.mark.parametrize("M", RAGGED)
    @pytest.mark.parametrize("call", [
        intlin.shape,
        intlin.transpose,
        intlin.columns,
        intlin.from_columns,
        lambda M: intlin.mat_vec(M, [1, 1]),
        lambda M: intlin.mat_mul(M, [[1], [1]]),
        lambda M: intlin.mat_mul([[1, 1]], M),
    ], ids=["shape", "transpose", "columns", "from_columns", "mat_vec",
            "mat_mul_left", "mat_mul_right"])
    def test_ragged_matrix_is_refused(self, call, M):
        with pytest.raises(ValidationError, match="^ragged matrix$"):
            call(M)

    def test_empty_shapes(self):
        assert intlin.shape([]) == (0, 0)
        assert intlin.shape([[], []]) == (2, 0)
        assert intlin.transpose([[], []]) == []
        assert intlin.from_columns([], 3) == [[], [], []]
        assert intlin.mat_vec([[], []], []) == [0, 0]
        assert intlin.mat_mul([[], []], []) == [[], []]


def pinned_matrices(count=2000, seed=20171):
    """`count` seeded matrices of at most 6 rows and 7 columns, entries in
    [-9, 9] with about 30 % zeros, 0-row and 0-column ones among them,
    and a last row dependent on the first two in about 30 % of those
    with three rows or more."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, n = rng.randint(0, 6), rng.randint(0, 7)
        M = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(n)]
             for _ in range(m)]
        if m >= 3 and rng.random() < 0.3:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            M[-1] = [a * x + b * y for x, y in zip(M[0], M[1])]
        out.append(M)
    return out


def test_transforms_are_pinned():
    """Every transform (not only the forms) of snf, hnf, column_hnf,
    integer_kernel and kernel_basis_canonical stays bit for bit what it
    was: the parameterizations and subgroup bases the CLI prints are
    read from them.  The digest was recorded before the row and column
    helpers moved to zip products."""
    matrices = pinned_matrices()
    assert sum(not M for M in matrices) == 289  # 0 rows
    assert sum(bool(M) and not M[0] for M in matrices) == 207  # 0 columns
    digest = hashlib.sha256()
    for M in matrices:
        res = intlin.snf(M)
        digest.update(repr((
            res.U, res.S, res.V, intlin.hnf(M), intlin.column_hnf(M),
            intlin.integer_kernel(M), intlin.kernel_basis_canonical(M),
        )).encode())
    assert digest.hexdigest() == (
        "a9c8a5e2c36d7bb6597918f5f3de68afad99671b46414455ea34098eb030be76")


class TestHNF:
    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_defining_equations(self, M):
        H, U = intlin.hnf(M)
        assert intlin.mat_mul(U, M) == H
        assert abs(oracles.det(U)) == 1

    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_echelon_shape(self, M):
        H, _ = intlin.hnf(M)
        m, n = intlin.shape(H)
        pivots = []
        for i in range(m):
            p = next((j for j in range(n) if H[i][j]), None)
            if p is None:
                # all later rows must be zero too
                assert all(not any(H[k]) for k in range(i, m))
                break
            pivots.append(p)
            assert H[i][p] > 0
            for k in range(i):
                assert 0 <= H[k][p] < H[i][p]
        assert pivots == sorted(pivots)

    def test_known_small_case(self):
        # rows (2,4),(3,5) span the same lattice as (1,1),(0,2)
        H, _ = intlin.hnf([[2, 4], [3, 5]])
        assert H == [[1, 1], [0, 2]]

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_column_span_matches_sympy(self, same_span_as_sympy_hnf, M):
        # an independent implementation with its own normalization: only
        # the column spans have to agree
        assert same_span_as_sympy_hnf(intlin.column_hermite_basis(M), M)

    def test_span_check_sees_a_sublattice(self, same_span_as_sympy_hnf):
        assert not same_span_as_sympy_hnf([[2, 0], [0, 1]], [[1, 0], [0, 1]])
        assert not same_span_as_sympy_hnf([[1], [0]], [[1, 0], [0, 1]])


class TestSNF:
    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_defining_equations(self, M):
        res = intlin.snf(M)
        S = intlin.mat_mul(intlin.mat_mul(res.U, M), res.V)
        assert S == res.S
        assert abs(oracles.det(res.U)) == 1
        assert abs(oracles.det(res.V)) == 1
        diag = res.diagonal
        m, n = intlin.shape(res.S)
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert res.S[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a and b:
                assert b % a == 0
            if a == 0:
                assert b == 0

    @given(matrices(3, 3))
    @settings(max_examples=80, deadline=None)
    def test_invariants_match_minor_gcds(self, M):
        # d_1 * ... * d_k equals the gcd of all k x k minors
        res = intlin.snf(M)
        diag = res.diagonal
        prod = 1
        for k in range(1, len(diag) + 1):
            prod *= diag[k - 1]
            assert abs(prod) == oracles.gcd_of_minors(M, k)

    def test_textbook_case(self):
        res = intlin.snf([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        assert res.diagonal == [2, 6, 12]

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_diagonal_matches_sympy(self, sympy_snf, M):
        # an independent implementation; its factors may carry a sign
        S = sympy_snf(M)
        m, n = intlin.shape(M)
        expected = [abs(int(S[i, i])) for i in range(min(m, n))]
        assert intlin.snf(M).diagonal == expected


class TestKernel:
    @given(matrices(2, 4))
    @settings(max_examples=80, deadline=None)
    def test_kernel_vectors_annihilate(self, M):
        K = intlin.integer_kernel(M)
        for c in intlin.columns(K):
            assert not any(intlin.mat_vec(M, c))

    @given(matrices(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_box_kernel_is_spanned(self, M):
        # every small kernel vector is an integer combination of the basis
        K = intlin.integer_kernel(M)
        reducer = oracles.HermiteReducer.from_basis(K) if K and K[0] else None
        for v in brute_force_kernel_box(M, 3):
            if not any(v):
                continue
            assert reducer is not None and reducer.contains(v)

    def test_rank_count(self):
        K = intlin.integer_kernel([[1, 1, 1, 3]])
        _, ncols = intlin.shape(K)
        assert ncols == 3

    def test_canonical_basis_is_deterministic_and_spans(self):
        M = [[1, -2, 1, 0], [0, 1, 0, 1]]
        K1 = intlin.kernel_basis_canonical(M)
        K2 = intlin.kernel_basis_canonical([list(r) for r in M])
        assert K1 == K2
        assert intlin.lattice_equal(K1, intlin.integer_kernel(M))


class TestLatticeEqual:
    @given(matrices(3, 3))
    @settings(max_examples=60, deadline=None)
    def test_reflexive_and_column_shuffle(self, M):
        assert intlin.lattice_equal(M, M)
        cols = intlin.columns(M)
        shuffled = intlin.from_columns(cols[::-1], len(M))
        assert intlin.lattice_equal(M, shuffled)

    def test_unimodular_invariance(self):
        B = [[2, 0], [1, 3], [0, -1]]
        # post-multiplying by a unimodular matrix keeps the column span
        W = [[1, 4], [0, 1]]
        assert intlin.lattice_equal(B, intlin.mat_mul(B, W))
        assert not intlin.lattice_equal(B, [[4, 0], [2, 6], [0, -2]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            intlin.lattice_equal([[1]], [[1], [0]])


class TestSolveInverse:
    """The general solver and unimodular inverse are test oracles (the
    library reads the same answers off Hermite and Smith forms); they
    must themselves be right."""

    @given(fixed_matrices(3, 3), st.lists(small_entries, min_size=3, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_solve_consistency(self, M, x):
        b = intlin.mat_vec(M, x)
        y = oracles.solve_integer(M, b)
        assert y is not None
        assert intlin.mat_vec(M, y) == b

    def test_unsolvable(self):
        assert oracles.solve_integer([[2, 0], [0, 2]], [1, 0]) is None

    def test_inverse_unimodular(self):
        U = [[1, 2], [1, 3]]
        V = oracles.inverse_unimodular(U)
        assert intlin.mat_mul(U, V) == intlin.identity(2)


class TestHermiteReducer:
    @given(fixed_matrices(3, 2), st.lists(small_entries, min_size=3, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_reduce_is_coset_invariant(self, L, v):
        if not any(any(c) for c in intlin.columns(L)):
            return
        reducer = oracles.HermiteReducer.from_basis(L)
        for c in intlin.columns(L):
            shifted = [a + b for a, b in zip(v, c)]
            assert reducer.reduce(shifted) == reducer.reduce(v)
        assert reducer.contains(list(intlin.columns(L)[0]))

    def test_zero_reduction(self):
        reducer = oracles.HermiteReducer.from_basis([[2], [0]])
        assert reducer.reduce([4, 1]) == (0, 1)
        assert reducer.contains([6, 0])
        assert not reducer.contains([3, 0])


class TestCokernel:
    def test_structure_of_p113_presentation(self):
        # Z^4 / im(columns of the kernel of [1,1,1,3]) is Z: three unit
        # invariants on four rows
        K = intlin.integer_kernel([[1, 1, 1, 3]])
        assert intlin.snf(K).diagonal == [1, 1, 1]

    def test_torsion_quotient(self):
        # Z^2 / im(diag(2, 3)) is Z/6
        assert intlin.snf([[2, 0], [0, 3]]).diagonal == [1, 6]
