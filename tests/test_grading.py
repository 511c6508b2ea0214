"""Grading setup, degrees, homogeneity, monomial enumeration."""

from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import oracles
from conftest import make_h2, make_p113, rows_to_lattice
from torilat import grading, intlin
from torilat.errors import CapExceededError, ValidationError
from torilat.grading import (
    Degree,
    ToricSetup,
    degree_of,
    in_semigroup_Khat,
    is_homogeneous,
    monomial_basis,
    positive_functional,
    setup_from_beta,
    setup_from_rays,
)


def brute_force_monomials(setup, alpha, bound):
    """All a in [0, bound]^r with beta a = alpha.  Box oracle; valid when
    bound exceeds every coordinate the real enumeration can reach."""
    out = []
    for a in product(range(bound + 1), repeat=setup.r):
        if tuple(intlin.mat_vec(setup.beta_free, list(a))) == alpha:
            out.append(a)
    return out


class TestSetupConstruction:
    def test_h2_from_rays_matches_explicit_beta(self):
        st_rays = setup_from_rays([[1, 0], [0, 1], [-1, 2], [0, -1]], 11)
        st_beta = make_h2()
        # the two degree matrices present the same quotient: equal kernels
        assert intlin.lattice_equal(
            intlin.integer_kernel(st_rays.beta_free),
            intlin.integer_kernel(st_beta.beta_free),
        )
        assert st_rays.torsion == [] and st_beta.torsion == []

    def test_p113_kernel_matches_displayed_map(self):
        st = make_p113()
        displayed = intlin.transpose(
            [[1, -1, 0, 0], [-1, 0, 1, 0], [0, 3, 0, -1]]
        )
        assert intlin.lattice_equal(st.phi, displayed)

    def test_beta_must_annihilate_rays(self):
        with pytest.raises(ValidationError):
            ToricSetup([[1, 0], [0, 1], [-1, 2], [0, -1]],
                       [[1, 0, 0, 0], [0, 1, 0, 1]], [], 11)

    def test_weighted_rays_produce_torsion(self):
        # P(1,1,2): rays (1,0), (0,1), (-1,-2) give class group Z (no
        # torsion); the fake ray set (2,0), (0,1), (-2,-1) is rejected as
        # non-primitive
        st = setup_from_rays([[1, 0], [0, 1], [-1, -2]], 7)
        assert st.torsion == []
        assert st.k == 1
        with pytest.raises(ValidationError):
            setup_from_rays([[2, 0], [0, 1], [-2, -1]], 7)

    def test_torsion_class_group(self):
        # rays of a quotient structure: cokernel of phi has Z/2
        st = setup_from_rays([[1, 1], [1, -1]], 7)
        assert [d for d, _ in st.torsion] == [2]

    def test_composite_q_rejected(self):
        with pytest.raises(ValidationError):
            make_h2(q=10)

    def test_torsion_class_group_needs_rays_alone(self):
        # beta phi = 0 and rank beta = r - n, but the rays span an index-2
        # sublattice of their saturation: the class group has Z/2 torsion
        with pytest.raises(ValidationError, match=r"ker\(beta\) != im\(phi\)"):
            ToricSetup([[1, 1], [1, -1], [-1, -1], [-1, 1]],
                       [[1, 0, 1, 0], [0, 1, 0, 1]], [], 11)

    def test_too_few_beta_rows(self):
        with pytest.raises(ValidationError, match=r"ker\(beta\) != im\(phi\)"):
            ToricSetup([[1, 0], [0, 1], [-1, 2], [0, -1]], [[1, -2, 1, 0]], [], 11)

    def test_dependent_beta_rejected(self):
        # the third row is the sum of the first two: ker(beta) = im(phi),
        # yet a k = 3 grading of a rank-2 class group
        with pytest.raises(ValidationError, match="beta rows are dependent"):
            ToricSetup([[1, 0], [0, 1], [-1, 2], [0, -1]],
                       [[1, -2, 1, 0], [0, 1, 0, 1], [1, -1, 1, 1]], [], 11)
        with pytest.raises(ValidationError, match="beta rows are dependent"):
            setup_from_beta([[1, 1, 1, 3], [2, 2, 2, 6]], 11)

    def test_one_smith_form_per_matrix(self, monkeypatch):
        # a setup given rays and beta is checked by the Smith forms of
        # phi and beta alone: no kernel, Hermite form or lattice comparison
        def refuse(*args):
            raise AssertionError("set-up check left the Smith forms")

        for name in ("integer_kernel", "lattice_equal", "hnf"):
            monkeypatch.setattr(intlin, name, refuse)
        assert make_h2().k == 2

    def test_one_smith_form_of_beta_alone(self, monkeypatch):
        # the kernel basis reads one Smith form of beta and one Hermite
        # form; the set-up check adds those of phi and beta, and nothing
        # else computes a Smith form
        calls = {"snf": 0, "hnf": 0}
        for name in calls:
            def counted(*args, _real=getattr(intlin, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(intlin, name, counted)
        assert make_p113().k == 1
        assert calls == {"snf": 3, "hnf": 1}

    @pytest.mark.parametrize("beta", [[[2, -4, 2, 0], [0, 1, 0, 1]],
                                      [[1, -2, 1, 0], [1, 0, 1, 2]],
                                      [[3, -6, 3, 0], [0, 1, 0, 1]]])
    def test_beta_must_map_onto_the_degrees(self, beta):
        # ker(beta) = im(phi) and the rows are independent, but the image
        # of beta is a proper sublattice of Z^2 (index 2, 2 and 3)
        rays = [[1, 0], [0, 1], [-1, 2], [0, -1]]
        with pytest.raises(ValidationError, match=r"beta does not map onto Z\^k"):
            ToricSetup(rays, beta, [], 11)
        # a unimodular change of the rows is still onto
        assert ToricSetup(rays, [[1, -2, 1, 0], [1, -1, 1, 1]], [], 11).k == 2


@hst.composite
def gradings(draw):
    """phi of rank n with no zero row, and beta whose rows are integer
    combinations of a basis of the left kernel of phi.  k = 0 and n = r
    are drawn too: with no rows, ker(beta) = Z^r."""
    r = draw(hst.integers(2, 5))
    n = draw(hst.integers(1, r))
    phi = [draw(hst.lists(hst.integers(-3, 3), min_size=n, max_size=n))
           for _ in range(r)]
    assume(all(any(row) for row in phi) and intlin.snf(phi).rank == n)
    left = intlin.columns(intlin.integer_kernel(intlin.transpose(phi)))
    k = draw(hst.sampled_from([k for k in (r - n - 1, r - n, r - n + 1) if k >= 0]))
    beta = []
    for _ in range(k):
        coef = draw(hst.lists(hst.integers(-2, 2), min_size=len(left),
                              max_size=len(left)))
        beta.append([sum(c * y[j] for c, y in zip(coef, left)) for j in range(r)])
    return phi, beta


def _rank(M):
    return max(k for k in range(len(M) + 1) if oracles.gcd_of_minors(M, k))


@settings(max_examples=300, deadline=None)
@given(gradings())
def test_validation_matches_kernel_oracle(case):
    """A setup is accepted iff ker(beta) = im(phi) and beta has independent
    rows and maps onto Z^k (the gcd of its k x k minors is 1); the failures
    are reported in that order.  An accepted setup has a right inverse."""
    phi, beta = case
    exact = oracles.kernel_is_image(beta, phi)
    independent = _rank(beta) == len(beta)
    onto = oracles.gcd_of_minors(beta, len(beta)) == 1
    try:
        st = ToricSetup(phi, beta, [], 5, check_primitive=False)
    except ValidationError as exc:
        assert not (exact and independent and onto)
        if not exact:
            assert str(exc) == "ker(beta) != im(phi)"
        elif not independent:
            assert str(exc) == "beta rows are dependent"
        else:
            assert str(exc) == "beta does not map onto Z^k"
    else:
        assert exact and independent and onto
        R = st.right_inverse()
        assert intlin.mat_mul(intlin.transpose(phi), R) == intlin.identity(st.n)


class TestDegrees:
    def test_variable_degrees_h2(self, h2):
        assert degree_of([1, 0, 0, 0], h2).free == (1, 0)
        assert degree_of([0, 1, 0, 0], h2).free == (-2, 1)
        assert degree_of([0, 0, 1, 0], h2).free == (1, 0)
        assert degree_of([0, 0, 0, 1], h2).free == (0, 1)

    def test_degree_of_monomial(self, h2):
        assert degree_of([2, 1, 0, 0], h2).free == (0, 1)
        assert degree_of([0, 0, 0, 1], h2).free == (0, 1)

    def test_homogeneity(self, h2):
        L = rows_to_lattice([[10, 0, -10, 0], [0, 5, 10, -5]], 4)
        assert is_homogeneous(L, h2)
        assert not is_homogeneous(rows_to_lattice([[1, 0, 0, 0]], 4), h2)


class TestPositiveFunctional:
    def test_h2_is_pointed(self, h2):
        w = positive_functional(h2)
        assert w is not None
        for j in range(h2.r):
            d = degree_of([int(i == j) for i in range(h2.r)], h2).free
            assert sum(a * b for a, b in zip(w, d)) > 0

    def test_p113_is_pointed(self, p113):
        assert positive_functional(p113) == [1]

    def test_unpointed_grading(self):
        # degrees 1 and -1: the semigroup is all of Z, no positive w
        st = ToricSetup([[1], [1]], [[1, -1]], [], 5, check_primitive=True)
        assert positive_functional(st) is None


class TestMonomialBasis:
    def test_h2_small_degrees(self, h2):
        assert monomial_basis(Degree(free=(1, 0)), h2) == [
            (0, 0, 1, 0),
            (1, 0, 0, 0),
        ]
        assert monomial_basis(Degree(free=(0, 1)), h2) == [
            (0, 0, 0, 1),
            (0, 1, 2, 0),
            (1, 1, 1, 0),
            (2, 1, 0, 0),
        ]

    def test_zero_degree(self, h2, p113):
        assert monomial_basis(degree_of([0] * 4, h2), h2) == [(0, 0, 0, 0)]
        assert monomial_basis(degree_of([0] * 4, p113), p113) == [(0, 0, 0, 0)]

    def test_empty_outside_semigroup(self, h2):
        assert monomial_basis(Degree(free=(-1, 0)), h2) == []

    @pytest.mark.parametrize("alpha", [(0, 1), (2, 1), (1, 2), (-2, 2), (3, 0)])
    def test_against_box_oracle(self, h2, alpha):
        got = monomial_basis(Degree(free=alpha), h2)
        assert got == brute_force_monomials(h2, alpha, 10)

    @pytest.mark.parametrize("alpha", [(0,), (1,), (3,), (5,)])
    def test_p113_against_box_oracle(self, p113, alpha):
        got = monomial_basis(Degree(free=alpha), p113)
        assert got == brute_force_monomials(p113, alpha, 6)

    def test_search_cap(self, monkeypatch):
        # (20, 10) visits 138,330 search nodes for its 341 monomials
        monkeypatch.setattr(grading, "MONOMIAL_SEARCH_CAP", 100_000)
        with pytest.raises(CapExceededError):
            monomial_basis(Degree(free=(20, 10)), make_h2())
        monkeypatch.setattr(grading, "MONOMIAL_SEARCH_CAP", 140_000)
        assert len(monomial_basis(Degree(free=(20, 10)), make_h2())) == 341

    def test_search_cap_at_the_node_count(self, monkeypatch):
        # the cap bounds nodes, not calls: solving the last exponent
        # instead of trying its values still trips it at the same node
        h2 = make_h2()
        mons, nodes = oracles.monomials_by_full_search((20, 10), h2, range(4))
        assert (len(mons), nodes) == (341, 138_330)
        monkeypatch.setattr(grading, "MONOMIAL_SEARCH_CAP", 138_329)
        with pytest.raises(CapExceededError):
            monomial_basis(Degree(free=(20, 10)), h2)
        monkeypatch.setattr(grading, "MONOMIAL_SEARCH_CAP", 138_330)
        assert monomial_basis(Degree(free=(20, 10)), h2) == mons

    def test_lex_ascending(self, h2):
        mons = monomial_basis(Degree(free=(2, 3)), h2)
        assert mons == sorted(mons)


POINTED = [
    make_h2(),
    make_p113(),
    setup_from_beta([[1, 1, 1]], 11),  # P^2
    setup_from_beta([[1, 2, 3, 4, 5]], 11),
    # P^2 blown up at two points: class group Z^3
    setup_from_rays([[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]], 11),
]


@hst.composite
def searches(draw):
    setup = draw(hst.sampled_from(POINTED))
    alpha = tuple(
        draw(hst.lists(hst.integers(-3, 9), min_size=setup.k, max_size=setup.k))
    )
    keep = draw(hst.lists(hst.booleans(), min_size=setup.r, max_size=setup.r))
    allowed = [j for j in range(setup.r) if keep[j]]
    return setup, alpha, allowed, draw(hst.booleans())


@settings(max_examples=300, deadline=None)
@given(searches())
def test_enumeration_matches_full_search(case):
    """Same monomials in the same order, and the cap trips at the same
    node, as the search over every value of the last exponent."""
    setup, alpha, allowed, find_one = case
    want, nodes = oracles.monomials_by_full_search(alpha, setup, allowed, find_one)
    with mock.patch.object(grading, "MONOMIAL_SEARCH_CAP", nodes):
        assert grading._enumerate_solutions(alpha, setup, allowed, find_one) == want
    if nodes > 1:  # the root is counted but never checked against the cap
        with mock.patch.object(grading, "MONOMIAL_SEARCH_CAP", nodes - 1):
            with pytest.raises(CapExceededError):
                grading._enumerate_solutions(alpha, setup, allowed, find_one)


class TestSemigroupMembership:
    def test_h2_known_points(self, h2):
        assert in_semigroup_Khat(Degree(free=(5, 0)), h2)
        assert in_semigroup_Khat(Degree(free=(0, 10)), h2)
        assert not in_semigroup_Khat(Degree(free=(-1, 0)), h2)

    def test_requires_cones(self):
        st = setup_from_beta([[1, 1, 1, 3]], 11)
        with pytest.raises(ValidationError):
            in_semigroup_Khat(Degree(free=(1,)), st)


class TestRightInverse:
    def test_right_inverse_identity(self, h2, p113):
        for st in (h2, p113):
            R = st.right_inverse()
            prod = intlin.mat_mul(intlin.transpose(st.phi), R)
            assert prod == intlin.identity(st.n)

    def test_not_surjective(self):
        # with no beta rows ker(beta) = Z^2, but det phi = -2: phi^T maps
        # onto an index-2 sublattice, and the set-up check refuses it
        with pytest.raises(ValidationError, match=r"ker\(beta\) != im\(phi\)"):
            ToricSetup([[1, 1], [1, -1]], [], [], 7)
