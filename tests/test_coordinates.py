"""Answers that do not change with coordinates.

Three changes of coordinates describe the same variety, the same
subgroup and the same graded piece:

1. a unimodular change phi -> phi V of the ray coordinates, with beta
   kept;
2. a permutation of the rays, with the columns of beta, the cones and the
   diagonal exponents a permuted to match;
3. a unimodular change of the rows of beta, with the degree alpha mapped
   by it.

None may change the order and the invariant factors of the degenerate
torus Y_{a,h}, its vanishing lattice L(Y) up to the permutation of the
coordinates, N and k of the code C_{alpha,Y}, or a Hilbert table on
Y of a rank-2 grading under changes 1 and 2, cell by cell.  Without
change 1, Y itself stays the same.  The monomials of degree alpha are those of the
mapped degree with their exponents permuted: changes 2 and 3 give the
enumerator other trailing columns to solve.  The complete intersection
verdict is left out: it tests a Hermite basis, which depends on the
order of the variables.
"""

from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import H2_CONES, hirzebruch_rays
from torilat import intlin
from torilat.codes import code_parameters, hilbert_table
from torilat.grading import (Degree, ToricSetup, degree_of, monomial_basis,
                             setup_from_beta, setup_from_rays)
from torilat.torus import degenerate_torus, group_structure, vanishing_lattice

VARIETIES = {
    "h2": lambda q: ToricSetup(hirzebruch_rays(2), [[1, -2, 1, 0], [0, 1, 0, 1]],
                               [], q, H2_CONES),
    "h3": lambda q: ToricSetup(hirzebruch_rays(3), [[1, -3, 1, 0], [0, 1, 0, 1]],
                               [], q, H2_CONES),
    # P^2 blown up at two points: class group Z^3
    "blowup": lambda q: setup_from_rays([[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]], q,
                                        [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]),
    "p2": lambda q: ToricSetup([[1, 0], [0, 1], [-1, -1]], [[1, 1, 1]], [], q,
                               [[0, 1], [1, 2], [2, 0]]),
    "p3": lambda q: ToricSetup([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                               [[1, 1, 1, 1]], [], q,
                               [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
    "p113": lambda q: setup_from_beta([[1, 1, 1, 3]], q),
}


def changed(setup, V, perm, U):
    """The setup with ray i' = perm[i'] of `setup` in the coordinates of
    the unimodular V and beta's rows mixed by the unimodular U.  The rays
    were checked when `setup` was built."""
    phi = intlin.mat_mul([setup.phi[j] for j in perm], V)
    beta = intlin.mat_mul(U, [[row[j] for j in perm] for row in setup.beta_free])
    new = {j: i for i, j in enumerate(perm)}
    cones = [[new[j] for j in c] for c in setup.max_cones or ()]
    return ToricSetup(phi, beta, [], setup.q, cones or None, check_primitive=False)


def unimodular(draw, k):
    """A k x k integer matrix of determinant +-1: a few row additions and
    a sign."""
    U = intlin.identity(k)
    for _ in range(draw(hst.integers(0, 3))):
        i, j = draw(hst.integers(0, k - 1)), draw(hst.integers(0, k - 1))
        c = draw(hst.integers(-2, 2))
        if i != j:
            U[i] = [x + c * y for x, y in zip(U[i], U[j])]
    sign = draw(hst.sampled_from([-1, 1]))
    U[0] = [sign * x for x in U[0]]
    return U


@hst.composite
def coordinate_changes(draw):
    """(setup, a, h, alpha, V, perm, U): H_2, H_3, the blow-up of P^2
    at two points, P^2, P^3 or P(1,1,1,3) at q <= 13, a degenerate torus
    Y_{a,h}, a degree of monomials of exponents at most 4, a unimodular
    n x n matrix (the identity half of the time), a ray permutation and a
    unimodular k x k matrix.  Under U the positive functional is found
    anew, and may be another one."""
    q = draw(hst.sampled_from([5, 7, 11, 13]))
    setup = VARIETIES[draw(hst.sampled_from(sorted(VARIETIES)))](q)
    r, k = setup.r, setup.k
    h = draw(hst.sampled_from([d for d in range(1, q) if (q - 1) % d == 0]))
    a = draw(hst.lists(hst.integers(1, q - 2), min_size=r, max_size=r))
    alpha = degree_of(draw(hst.lists(hst.integers(0, 4), min_size=r, max_size=r)),
                      setup)
    V = unimodular(draw, setup.n) if draw(hst.booleans()) else intlin.identity(setup.n)
    perm = draw(hst.permutations(range(r)))
    return setup, a, h, alpha, V, perm, unimodular(draw, k)


@settings(max_examples=150, deadline=None)
@given(coordinate_changes())
def test_subgroup_and_code_keep_their_invariants(case):
    setup, a, h, alpha, V, perm, U = case
    other = changed(setup, V, perm, U)
    Y, _ = degenerate_torus(a, h, setup)
    Y2, _ = degenerate_torus([a[j] for j in perm], h, other)
    assert len(Y2) == len(Y)
    if V == intlin.identity(setup.n):
        # phi^T s is unchanged when s is permuted with the rays: the same
        # canonical forms, so the same subgroup
        assert Y2 == Y
    assert group_structure(Y2, other).orders == group_structure(Y, setup).orders
    L = vanishing_lattice(Y, setup)
    assert intlin.lattice_equal(vanishing_lattice(Y2, other), [L[j] for j in perm])
    alpha2 = Degree(free=tuple(intlin.mat_vec(U, list(alpha.free))))
    c, c2 = code_parameters(Y, alpha, setup), code_parameters(Y2, alpha2, other)
    assert (c2.N, c2.k) == (c.N, c.k)
    permuted = sorted(tuple(m[j] for j in perm) for m in monomial_basis(alpha, setup))
    assert monomial_basis(alpha2, other) == permuted


@settings(max_examples=40, deadline=None)
@given(hst.data())
def test_hilbert_table_keeps_its_cells(data):
    # change 2 reorders the steps deg(x_j) that a table cell reads
    setup = VARIETIES[data.draw(hst.sampled_from(["h2", "h3"]))](
        data.draw(hst.sampled_from([5, 7, 11, 13])))
    q, r = setup.q, setup.r
    h = data.draw(hst.sampled_from([d for d in range(1, q) if (q - 1) % d == 0]))
    a = data.draw(hst.lists(hst.integers(1, q - 2), min_size=r, max_size=r))
    V = unimodular(data.draw, setup.n)
    perm = data.draw(hst.permutations(range(r)))
    other = changed(setup, V, perm, intlin.identity(setup.k))
    first = data.draw(hst.lists(hst.integers(-4, 10), min_size=1, max_size=6))
    second = data.draw(hst.lists(hst.integers(0, 5), min_size=1, max_size=4))
    Y, _ = degenerate_torus(a, h, setup)
    Y2, _ = degenerate_torus([a[j] for j in perm], h, other)
    assert (hilbert_table(Y2, first, second, other)
            == hilbert_table(Y, first, second, setup))
