"""Grading setup, degrees, homogeneity, monomial enumeration."""

import tracemalloc
from itertools import combinations, product
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import oracles
from conftest import make_h2, make_p113, rows_to_lattice
from torilat import grading, intlin
from torilat.codes import hilbert_function
from torilat.errors import CapExceededError, InternalError, ValidationError
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
from torilat.lattice import complete_intersection
from torilat.torus import degenerate_torus, group_structure


def brute_force_monomials(setup, alpha, bound):
    """All a in [0, bound]^r with beta a = alpha.  Box oracle; valid when
    bound exceeds every coordinate the real enumeration can reach."""
    out = []
    for a in product(range(bound + 1), repeat=setup.r):
        if tuple(intlin.mat_vec(setup.beta_free, list(a))) == alpha:
            out.append(a)
    return out


def count_normal_forms(monkeypatch):
    """The calls of intlin.snf and intlin.hnf from here on, by name."""
    calls = {"snf": 0, "hnf": 0}
    for name in calls:
        def counted(*args, _real=getattr(intlin, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(intlin, name, counted)
    return calls


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

    def test_one_normal_form_per_matrix(self, monkeypatch):
        # a setup given rays and beta is checked by the Hermite form of
        # phi and the Smith form of beta alone: no kernel or lattice
        # comparison
        def refuse(*args):
            raise AssertionError("set-up check left the normal forms")

        for name in ("integer_kernel", "lattice_equal"):
            monkeypatch.setattr(intlin, name, refuse)
        calls = count_normal_forms(monkeypatch)
        assert make_h2().k == 2
        assert calls == {"snf": 1, "hnf": 1}

    def test_normal_forms_of_beta_alone(self, monkeypatch):
        # the kernel basis reads one Smith form of beta and one Hermite
        # form; the set-up check adds the Hermite form of phi and the
        # Smith form of beta
        calls = count_normal_forms(monkeypatch)
        assert make_p113().k == 1
        assert calls == {"snf": 2, "hnf": 2}

    @pytest.mark.parametrize("torsion, message", [
        ([(2, [1])], "torsion row length != r"),
        ([(2, [1, 0])], r"torsion row does not annihilate im\(phi\)"),
    ])
    def test_torsion_rows_are_checked(self, torsion, message):
        # the class group of these rays is Z/2, with residue row (1, 1)
        with pytest.raises(ValidationError, match=message):
            ToricSetup([[1, 1], [1, -1]], [], torsion, 7)

    def test_torsion_order_in_the_characteristic_warns(self):
        with pytest.warns(UserWarning, match="shares the field characteristic"):
            st = setup_from_rays([[1, 1], [1, -1]], 2)
        assert [d for d, _ in st.torsion] == [2]

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

    def test_wrong_lengths_rejected(self, h2):
        with pytest.raises(ValidationError, match="exponent vector length != r"):
            degree_of([1, 2, 3], h2)
        with pytest.raises(ValidationError,
                           match="lattice basis has wrong number of rows"):
            is_homogeneous(rows_to_lattice([[1, 0, 0]], 3), h2)


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

    @pytest.mark.parametrize("u", [[1, 1], [2, 2]], ids=["primitive", "multiple"])
    def test_unpointed_grading_names_its_monomial(self, monkeypatch, u):
        # enumeration and the complete intersection check raise one
        # message, naming x^u with u made primitive
        monkeypatch.setattr(grading, "_phase_one", lambda beta: (None, u))
        st = ToricSetup([[1], [1]], [[1, -1]], [], 5, check_primitive=True)
        message = "^grading is not pointed: x1\\*x2 has degree 0$"
        with pytest.raises(ValidationError, match=message):
            monomial_basis(Degree(free=(0,)), st)
        with pytest.raises(ValidationError, match=message):
            complete_intersection([[1], [1]], st)

    def test_failed_verification_is_an_internal_error(self, monkeypatch):
        # a functional that is not positive on every degree is a fault of
        # the LP, not of the input
        monkeypatch.setattr(grading, "_phase_one", lambda beta: ([-1] * len(beta), None))
        with pytest.raises(InternalError, match="verification failed"):
            positive_functional(make_p113())

    @pytest.mark.parametrize("u", [[0, 0], [-1, -1], [1, 0]],
                             ids=["zero", "negative", "nonzero_degree"])
    def test_failed_monomial_check_is_an_internal_error(self, monkeypatch, u):
        # so is an exponent vector that is not a nonconstant monomial of
        # degree 0, even on a grading that has one
        monkeypatch.setattr(grading, "_phase_one", lambda beta: (None, u))
        st = ToricSetup([[1], [1]], [[1, -1]], [], 5, check_primitive=True)
        with pytest.raises(InternalError, match="degree-zero monomial verification"):
            positive_functional(st)

    @pytest.mark.parametrize("setup, w", [
        (make_h2(), [1, 3]),
        (make_h2(ell=3), [1, 4]),
        (setup_from_rays([[1, 0], [0, 1], [-1, 2], [0, -1]], 11), [1, 1]),
        (setup_from_rays([[1, 0], [0, 1], [-1, 3], [0, -1]], 11), [1, 1]),
        (setup_from_rays([[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]], 11), [1, 1, 1]),
        (setup_from_beta([[1, 1, 1]], 11), [1]),
        (setup_from_beta([[1, 1, 1, 1]], 11), [1]),
        (setup_from_beta([[1, 2, 3, 4, 5]], 11), [1]),
    ], ids=["h2", "h3", "h2_rays", "h3_rays", "blowup", "p2", "p3", "p12345"])
    def test_fixture_functionals(self, setup, w):
        # the walk's budgets, and so its cap boundaries, follow w; P(1,1,1,3)
        # is pinned above
        assert positive_functional(setup) == w


@hst.composite
def surjective_betas(draw):
    """beta: the first k rows of a unimodular r x r matrix built from
    random row additions, so beta maps onto Z^k with independent rows;
    2 <= r <= 7 and 1 <= k <= min(4, r - 1).  About a fifth of the
    accepted gradings are pointed; the rest have no functional."""
    r = draw(hst.integers(2, 7))
    k = draw(hst.integers(1, min(4, r - 1)))
    U = intlin.identity(r)
    # few row additions leave coordinates that vanish on ker(beta)
    for _ in range(draw(hst.integers(2 * r, 4 * r))):
        i, j = draw(hst.lists(hst.integers(0, r - 1), min_size=2, max_size=2,
                              unique=True))
        c = draw(hst.sampled_from([-2, -1, 1, 2]))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return U[:k]


@settings(max_examples=300, deadline=None)
@given(surjective_betas())
def test_positive_functional_matches_fraction_oracle(beta):
    """The LP finds a functional exactly when Fourier-Motzkin in Fractions
    does.  The two need not find the same one."""
    try:
        st = setup_from_beta(beta, 11)
    except ValidationError:
        # a coordinate that vanishes on ker(beta) has no ray
        assume(False)
    w = positive_functional(st)
    assert (w is None) == (oracles.positive_functional_by_fractions(beta) is None)
    if w is not None:
        assert all(sum(a * b for a, b in zip(w, col)) > 0 for col in zip(*beta))


@hst.composite
def lp_gradings(draw):
    """Any k x r integer matrix with 1 <= k <= 8 and k <= r <= 2k + 2,
    dependent rows and zero columns included; half of the draws are made
    pointed by a positive first row, then hidden by row additions."""
    k = draw(hst.integers(1, 8))
    r = draw(hst.integers(k, 2 * k + 2))
    beta = [draw(hst.lists(hst.integers(-4, 4), min_size=r, max_size=r))
            for _ in range(k)]
    if draw(hst.booleans()):
        beta[0] = [abs(x) + 1 for x in beta[0]]
        for _ in range(draw(hst.integers(0, 2 * k))):
            i, j = draw(hst.integers(0, k - 1)), draw(hst.integers(0, k - 1))
            c = draw(hst.sampled_from([-2, -1, 1, 2]))
            if i != j:
                beta[i] = [a + c * b for a, b in zip(beta[i], beta[j])]
    return beta


@settings(max_examples=200, deadline=None)
@given(lp_gradings())
def test_phase_one_answers_with_a_certificate(beta):
    """Either w . beta_j > 0 on every column, or u >= 0, u != 0, beta u = 0."""
    w, u = grading._phase_one(beta)
    if u is None:
        assert all(sum(a * b for a, b in zip(w, col)) > 0 for col in zip(*beta))
    else:
        assert w is None and min(u) >= 0 and any(u)
        assert intlin.mat_vec(beta, u) == [0] * len(beta)


@settings(max_examples=100, deadline=None)
@given(lp_gradings())
def test_phase_one_matches_linprog(beta):
    """Pointed exactly when scipy's floating-point LP finds w with
    beta^T w >= 1 (scipy is not a dependency)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    k, r = len(beta), len(beta[0])
    res = linprog([0] * k, A_ub=[[-x for x in col] for col in zip(*beta)],
                  b_ub=[-1] * r, bounds=[(None, None)] * k, method="highs")
    assert res.status in (0, 2)
    assert (grading._phase_one(beta)[0] is not None) == (res.status == 0)


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
        # (20, 10) walks 42 nodes for its 341 monomials: x1 runs up to 40,
        # the bound of the cone normal (1, 2); w = (1, 3) alone gives 50
        st = make_h2()
        monkeypatch.setattr(grading, "MONOMIAL_SEARCH_CAP", 382)
        with pytest.raises(CapExceededError, match="^monomial search passed 382 "):
            monomial_basis(Degree(free=(20, 10)), st)
        monkeypatch.setattr(grading, "MONOMIAL_SEARCH_CAP", 383)
        assert len(monomial_basis(Degree(free=(20, 10)), st)) == 341
        # the walk is kept, and refused again at a lower cap
        monkeypatch.setattr(grading, "MONOMIAL_SEARCH_CAP", 382)
        with pytest.raises(CapExceededError, match="^monomial search passed 382 "):
            monomial_basis(Degree(free=(20, 10)), st)

    def test_what_the_full_search_fit_is_answered(self):
        # P^7 at degree 20: the walk's 296,010 nodes plus the 888,030
        # monomials pass 10^6, but the search of every value of every
        # exponent visits 4,292,145 nodes, under the cap
        mons = grading._enumerate_solutions((20,), setup_from_beta([[1] * 8], 11))
        assert len(mons) == 888_030
        assert (mons[0], mons[-1]) == ((0,) * 7 + (20,), (20,) + (0,) * 7)

    @pytest.mark.parametrize("d", [10**6, 10**30])
    @pytest.mark.parametrize("setup", [
        make_h2(),
        # P^2 blown up at two points: three exponents off each cone
        setup_from_rays([[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]], 11,
                        [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]),
    ], ids=["h2", "blowup"])
    def test_huge_degree_trips_at_the_first_node(self, setup, d):
        # the first node of the walk has more children than the cap
        alpha = degree_of([d] * setup.r, setup)
        with pytest.raises(CapExceededError):
            monomial_basis(alpha, setup)
        # d times the anticanonical degree: a monomial off every cone
        assert in_semigroup_Khat(alpha, setup)

    @pytest.mark.parametrize("weights, d", [
        ((10**5, 10**5 + 1, 1), 3 * 10**9),
        ((100, 101, 1), 3 * 10**6),
    ])
    def test_large_weights_trip_in_little_memory(self, weights, d):
        # the walk's one level holds 30,001 nodes, under the cap, but its
        # leaves hold about 4.5 * 10^8 monomials: the work passes the cap
        # after a few hundred leaves, and no monomial is listed
        setup = setup_from_beta([list(weights)], 11)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                monomial_basis(Degree(free=(d,)), setup)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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
    # rank 2 with parallel last columns: the last exponent alone is solved
    setup_from_beta([[1, 0, 1, 1], [0, 1, 1, 1]], 11),
    # rank 3: a pair is solved on the first two rows with a nonzero minor
    setup_from_beta([[1, 0, 0, 1, 1], [0, 1, 0, 1, 2], [0, 0, 1, 1, 3]], 11),
    # the solved pair has minor -4: the exponents t before it that give
    # integer solutions step by 2
    setup_from_beta([[1, 1, 1, 1], [0, 1, 3, -1]], 11),
    # rank 3, minor 3 on the first two rows: the third row fixes t
    setup_from_beta([[1, 0, 0, 1, 2], [0, 1, 0, 2, 1], [0, 0, 1, 1, 1]], 11),
]


@hst.composite
def searches(draw):
    setup = draw(hst.sampled_from(POINTED))
    alpha = tuple(
        draw(hst.lists(hst.integers(-3, 14), min_size=setup.k, max_size=setup.k))
    )
    return setup, alpha


@settings(max_examples=300, deadline=None)
@given(searches())
def test_enumeration_matches_full_search(case):
    """Same monomials in the same order as the search over every value of
    every exponent."""
    setup, alpha = case
    want, _ = oracles.monomials_by_full_search(alpha, setup, range(setup.r))
    assert grading._enumerate_solutions(alpha, setup) == want


@settings(max_examples=300, deadline=None)
@given(searches(), hst.one_of(hst.integers(-2, 1), hst.integers(-3000, 3000)),
       hst.booleans())
def test_cap_trips_when_the_work_passes_it(case, offset, lex):
    """The cap trips exactly when the nodes of the walk over the exponents
    before t, in the lexicographic or the counting order, plus the
    monomials pass it, at a cap near that work or anywhere in the walk.
    The counting work is at most the lexicographic work, and that at most
    the nodes of the search of every value of every exponent.  The leaves
    of either order hold the monomials of the degree."""
    setup, alpha = case
    want, full = oracles.monomials_by_full_search(alpha, setup, range(setup.r))
    work = {}
    for key in (True, False):
        order = (tuple(range(setup.r)) if key
                 else grading._counting_order(alpha, setup))
        lead, fs = setup._plan(order)[2], setup._bounds[1]
        _, nodes = oracles.monomials_by_full_search(alpha, setup, order[:lead],
                                                    functionals=fs)
        work[key] = nodes + len(want)
    assert work[False] <= work[True] <= full
    cap = max(1, work[lex] + offset)
    with mock.patch.object(grading, "MONOMIAL_SEARCH_CAP", cap):
        if work[lex] > cap:
            with pytest.raises(CapExceededError):
                grading._leaves(alpha, setup, lex)
            return
        leaves = grading._leaves(alpha, setup, lex)
    assert leaves.work == work[lex] and leaves.size == len(want)
    got = [tuple(x + i * s for x, s in zip(a, leaves.step))
           for a, n in leaves.starts() for i in range(n)]
    assert sorted(got) == want
    assert leaves.least() == (want[0] if want else None)
    if lex:
        assert grading._enumerate_solutions(alpha, setup) == want


def test_a_count_refused_in_its_order_walks_again_in_lex_order():
    """The counting order is a heuristic: here it walks 256 against the
    lexicographic order's 215.  A cap between the two still answers the
    count, by the lexicographic walk, so a count is refused only where a
    listing is."""
    setup = setup_from_beta([[3, 4, 3, 1, 1, 0], [1, 2, 0, 4, 3, 3]], 11)
    alpha = (23, 25)
    own = tuple(range(setup.r))
    order = grading._counting_order(alpha, setup)
    assert grading._walk(alpha, setup, order).work == 256
    assert grading._walk(alpha, setup, own).work == 215
    with mock.patch.object(grading, "MONOMIAL_SEARCH_CAP", 215):
        leaves = grading._leaves(alpha, setup)
        assert (leaves.order, leaves.work) == (own, 215)
    with mock.patch.object(grading, "MONOMIAL_SEARCH_CAP", 214):
        with pytest.raises(CapExceededError):
            grading._leaves(alpha, setup)
    # on h2_a5254 at (10^6, 4) the counting walk finds more monomials than
    # the cap in five leaves: no order answers, and it is not walked again
    setup = setup_from_beta([[1, -2, 1, 0], [0, 1, 0, 1]], 11)
    with mock.patch.object(grading, "_walk", wraps=grading._walk) as walk:
        with pytest.raises(CapExceededError):
            grading._leaves((10**6, 4), setup)
        assert walk.call_count == 1


@settings(max_examples=150, deadline=None)
@given(hst.data())
def test_leaf_labels_in_int64_are_those_in_python_ints(data):
    """Near the sizes up to which `leaf_classes` forms labels in int64,
    it finds the labels that Python ints find, and a monomial of each.
    Starts near the modulus times rows near their bound make a start's
    label, unreduced, nearly 2^63."""
    r = data.draw(hst.integers(2, 4))
    m = data.draw(hst.integers(10**9, 3 * 10**9))
    top = (2**63 - 1) // (m * r)
    row = [data.draw(hst.sampled_from([top, top - 1, -top]))
           for _ in range(r)]
    order = tuple(data.draw(hst.permutations(range(r))))
    step = [data.draw(hst.integers(-3, 3)) for _ in range(r)]
    records = []
    for _ in range(data.draw(hst.integers(1, 6))):
        records += [m - 1 - data.draw(hst.integers(0, 2)) for _ in range(r)]
        records.append(data.draw(hst.integers(1, 40)))
    n = sum(records[r::r + 1])
    leaves = grading._Leaves(order, step, records, n, n)
    got, firsts = grading.leaf_classes(leaves, [row], [m])
    with mock.patch.object(grading, "_NUMPY_ENTRIES", 10**9):
        want = grading.leaf_classes(leaves, [row], [m])[0]
    assert sorted(got.tolist()) == sorted(want.tolist())
    assert [[sum(map(mul, row, a)) % m] for a in firsts()] == got.tolist()


def all_cones(r, size):
    return [list(c) for c in combinations(range(r), size)]


# complete simplicial fans with their maximal cones
COMPLETE = {
    "h2": make_h2(),
    "h3": make_h2(ell=3),
    "blowup": setup_from_rays([[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]], 11,
                              [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]),
    "p2": setup_from_beta([[1, 1, 1]], 11, all_cones(3, 2)),
    "p3": setup_from_beta([[1, 1, 1, 1]], 11, all_cones(4, 3)),
    "p1113": setup_from_beta([[1, 1, 1, 3]], 11, all_cones(4, 3)),
}


@hst.composite
def khat_degrees(draw):
    setup = COMPLETE[draw(hst.sampled_from(sorted(COMPLETE)))]
    alpha = draw(hst.lists(hst.integers(-6, 30), min_size=setup.k, max_size=setup.k))
    return setup, tuple(alpha)


@settings(max_examples=300, deadline=None)
@given(khat_degrees())
def test_khat_matches_a_search_per_cone(case):
    setup, alpha = case
    assert in_semigroup_Khat(Degree(free=alpha), setup) == oracles.in_khat_by_search(
        alpha, setup)


class TestSemigroupMembership:
    def test_h2_known_points(self, h2):
        assert in_semigroup_Khat(Degree(free=(5, 0)), h2)
        assert in_semigroup_Khat(Degree(free=(0, 10)), h2)
        assert not in_semigroup_Khat(Degree(free=(-1, 0)), h2)

    def test_requires_cones(self):
        st = setup_from_beta([[1, 1, 1, 3]], 11)
        with pytest.raises(ValidationError):
            in_semigroup_Khat(Degree(free=(1,)), st)

    @pytest.mark.parametrize("cones, message", [
        ([[0, 1, 2]], r"cone \[0, 1, 2\] does not leave k = 1 rays"),
        ([[0], [1], [2]], r"cone \[0\] does not leave k = 1 rays"),
    ], ids=["none_left", "two_left"])
    def test_cone_must_leave_k_rays(self, cones, message):
        st = setup_from_beta([[1, 1, 1]], 11, cones)
        with pytest.raises(ValidationError, match=message):
            in_semigroup_Khat(Degree(free=(1,)), st)

    def test_rays_off_a_cone_must_be_independent(self):
        # the columns off the cone [1, 3] are (1, 0) twice
        with pytest.raises(ValidationError, match=r"cone \[1, 3\]"):
            in_semigroup_Khat(Degree(free=(1, 1)), ToricSetup(
                [[1, 0], [0, 1], [-1, 2], [0, -1]], [[1, -2, 1, 0], [0, 1, 0, 1]],
                [], 11, [[0, 1], [1, 3]]))

    def test_grading_must_be_pointed(self):
        st = setup_from_beta([[1, -1]], 11, [[0], [1]])
        with pytest.raises(ValidationError, match="not pointed"):
            in_semigroup_Khat(Degree(free=(1,)), st)

    @pytest.mark.parametrize("name, alpha, want", [
        ("h2", (10**6, 10**6), True),
        ("h2", (10**30, 10**30), True),
        ("h2", (10**30, -1), False),
        # the ray off the cone {0, 1, 2} has degree 3: K-hat is 3N
        ("p1113", (10**6,), False),
        ("p1113", (3 * 10**6,), True),
        ("p1113", (10**30,), False),
        ("p1113", (3 * 10**30,), True),
    ])
    def test_huge_degrees_enumerate_nothing(self, monkeypatch, name, alpha, want):
        def refuse(*args):
            raise AssertionError("monomials enumerated")

        monkeypatch.setattr(grading, "_enumerate_solutions", refuse)
        assert in_semigroup_Khat(Degree(free=alpha), COMPLETE[name]) is want


class TestRightInverse:
    def test_right_inverse_identity(self, h2, p113):
        for st in (h2, p113):
            R = st.right_inverse()
            prod = intlin.mat_mul(intlin.transpose(st.phi), R)
            assert prod == intlin.identity(st.n)

    @pytest.mark.parametrize("make, R", [
        (make_h2, [[1, 0], [0, 1], [0, 0], [0, 0]]),
        (make_p113, [[0, 1, 0], [-1, 1, 0], [0, 0, 0], [0, 3, -1]]),
        (lambda: setup_from_beta([[1, 1, 1]], 11), [[0, 1], [-1, 1], [0, 0]]),
        (lambda: setup_from_rays([[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]], 11),
         [[1, -1], [0, 1], [0, 0], [0, 0], [0, 0]]),
    ], ids=["h2", "p113", "p2", "blowup"])
    def test_read_from_the_set_up_check(self, make, R, monkeypatch):
        # R is read from the Hermite form of phi that the set-up check
        # computed: no normal form is taken after construction
        st = make()

        def refuse(*args):
            raise AssertionError("right inverse took a normal form")

        for name in ("hnf", "snf"):
            monkeypatch.setattr(intlin, name, refuse)
        assert st.right_inverse() == R

    def test_not_surjective(self):
        # with no beta rows ker(beta) = Z^2, but det phi = -2: phi^T maps
        # onto an index-2 sublattice, and the set-up check refuses it
        with pytest.raises(ValidationError, match=r"ker\(beta\) != im\(phi\)"):
            ToricSetup([[1, 1], [1, -1]], [], [], 7)


class TestCachedValuesAreCopies:
    """A setup hands out copies of what it caches: changing a returned
    list changes no later answer (the session fixtures share setups)."""

    def test_monomial_basis(self):
        st = make_h2()
        Y, _ = degenerate_torus([2, 5, 4, 5], 10, st)
        alpha = Degree(free=(1, 1))
        k = hilbert_function(Y, alpha, st)
        monomial_basis(alpha, st).clear()
        assert hilbert_function(Y, alpha, st) == k > 0

    def test_positive_functional(self):
        alpha = Degree(free=(3, 3))
        expected = monomial_basis(alpha, make_h2())
        st = make_h2()
        positive_functional(st)[0] = -5
        assert monomial_basis(alpha, st) == expected != []

    def test_right_inverse(self):
        def structure(st):
            return group_structure(degenerate_torus([2, 5, 4, 5], 10, st)[0], st)

        expected = structure(make_h2())
        st = make_h2()
        st.right_inverse()[0][0] += 1
        assert structure(st) == expected
