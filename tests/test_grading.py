"""Grading setup, degrees, homogeneity, monomial enumeration."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import oracles
from conftest import load_json, make_h2, make_p113, rows_to_lattice
from torilat import cli, grading, intlin
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

    def test_failed_verification_is_an_internal_error(self, monkeypatch):
        # a functional that is not positive on every degree is a fault of
        # the elimination, not of the input
        monkeypatch.setattr(grading, "_fm_find", lambda cons, k: ([-1] * k, 1))
        with pytest.raises(InternalError, match="verification failed"):
            positive_functional(make_p113())


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
    """The integer elimination gives the functional of the elimination in
    Fractions, or None with it."""
    try:
        st = setup_from_beta(beta, 11)
    except ValidationError:
        # a coordinate that vanishes on ker(beta) has no ray
        assume(False)
    assert positive_functional(st) == oracles.positive_functional_by_fractions(beta)


@settings(max_examples=300, deadline=None)
@given(hst.integers(1, 4).flatmap(lambda k: hst.lists(
    hst.tuples(*[hst.integers(-4, 4)] * k), max_size=7).map(lambda c: (c, k))))
def test_fm_find_matches_fraction_oracle(case):
    """On any system, with zero and repeated constraints, the integer
    elimination finds the Fraction oracle's w exactly: the same bounds,
    the same midpoints, v / D = w."""
    cons, k = case
    want = oracles.fm_find_by_fractions(cons, k)
    got = grading._fm_find(cons, k)
    if want is None:
        assert got is None
    else:
        v, D = got
        assert D > 0 and [Fraction(x, D) for x in v] == want


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

    def test_real_cap_splits_32_and_33(self, h2):
        # the full search visits 4,526,181 nodes at (32, 32) and 5,090,310
        # at (33, 33), either side of the 5 * 10**6 cap
        assert len(monomial_basis(Degree(free=(32, 32)), h2)) == 2145
        with pytest.raises(CapExceededError):
            monomial_basis(Degree(free=(33, 33)), h2)

    @pytest.mark.parametrize("d", [10**6, 10**30])
    @pytest.mark.parametrize("setup", [
        make_h2(),
        # P^2 blown up at two points: three exponents off each cone
        setup_from_rays([[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]], 11,
                        [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]),
    ], ids=["h2", "blowup"])
    def test_huge_degree_trips_before_any_table(self, monkeypatch, setup, d):
        # a table this large would pass the values the count may keep, so
        # the count runs over the budgets the search reaches and stops at
        # the cap
        def refuse(*args):
            raise AssertionError("count table built")

        monkeypatch.setattr(grading, "_count_table", refuse)
        alpha = degree_of([d] * setup.r, setup)
        with pytest.raises(CapExceededError):
            monomial_basis(alpha, setup)
        # d times the anticanonical degree: a monomial off every cone
        assert in_semigroup_Khat(alpha, setup)

    @pytest.mark.parametrize("weights, d", [
        ((10**6, 10**6 + 1, 1), 3 * 10**9),
        ((1000, 1001, 1), 3 * 10**6),
    ])
    def test_large_weights_trip_in_little_memory(self, monkeypatch, weights, d):
        # the first two levels hold fewer nodes than the cap, the third
        # far more: the count stops there and keeps next to nothing
        def refuse(*args):
            raise AssertionError("count table built")

        monkeypatch.setattr(grading, "_count_table", refuse)
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
    """Same monomials in the same order, and the cap trips at the same
    node, as the search over every value of every exponent."""
    setup, alpha = case
    want, nodes = oracles.monomials_by_full_search(alpha, setup, range(setup.r))
    with mock.patch.object(grading, "MONOMIAL_SEARCH_CAP", nodes):
        assert grading._enumerate_solutions(alpha, setup) == want
    if nodes > 1:  # the root is counted but never checked against the cap
        with mock.patch.object(grading, "MONOMIAL_SEARCH_CAP", nodes - 1):
            with pytest.raises(CapExceededError):
                grading._enumerate_solutions(alpha, setup)


@hst.composite
def deep_searches(draw):
    """Degrees up to 40, whose searches run to millions of nodes, a cap
    that the search may pass at any node, and the values the count may
    keep: few enough, at times, that it cannot read a table."""
    setup, _ = draw(searches())
    alpha = tuple(
        draw(hst.lists(hst.integers(0, 40), min_size=setup.k, max_size=setup.k))
    )
    memo = draw(hst.sampled_from([grading._COUNT_MEMO, 0, 3, 50]))
    return setup, alpha, draw(hst.integers(1, 20_000)), memo


@settings(max_examples=200, deadline=None)
@given(deep_searches())
def test_cap_trips_where_the_full_search_passes_it(case):
    """The cap trips exactly when the full search passes it, however
    deep."""
    setup, alpha, cap, memo = case
    want, _ = oracles.monomials_by_full_search(alpha, setup, range(setup.r),
                                               limit=cap)
    with mock.patch.multiple(grading, MONOMIAL_SEARCH_CAP=cap, _COUNT_MEMO=memo):
        if want is None:
            with pytest.raises(CapExceededError):
                grading._enumerate_solutions(alpha, setup)
        else:
            assert grading._enumerate_solutions(alpha, setup) == want


@settings(max_examples=200, deadline=None)
@given(hst.lists(hst.integers(1, 6), min_size=1, max_size=5),
       hst.integers(0, 40), hst.integers(0, 60))
def test_count_without_a_table_reads_the_table(ws, budget, memo):
    """Summed over the budgets it reaches, keeping at most `memo`
    values, the count gives every entry of the table."""
    table = grading._count_table(ws, budget)
    with mock.patch.object(grading, "_COUNT_MEMO", memo):
        below = grading._counter(ws)
        for i in reversed(range(len(ws))):
            for c in range(budget + 1):
                assert below(i, c, 10**9) == table[i][c]


@pytest.mark.parametrize("make", [make_h2, make_p113], ids=["h2", "p113"])
@pytest.mark.parametrize("order", ["ascending", "shuffled"])
def test_one_count_table_per_setup_reads_fresh_tables(make, order):
    """Budgets 0..300 read from the setup's one growing table give the
    node counts of a table built for each budget alone."""
    setup = make()
    ws = setup._plan[2]
    budgets = list(range(301))
    if order == "shuffled":
        random.Random(7).shuffle(budgets)
    for b in budgets:
        fresh = grading._count_table(ws, b)
        assert grading._full_count(setup, b) == 1 + fresh[0][b]
    assert len(setup._counts[0]) >= 301


def test_count_table_grows_by_doubling(monkeypatch):
    """Over the 961 degrees (i, j) with 0 <= i, j <= 30 the table is
    rebuilt only when a budget passes its end, at least twice as wide
    each time: 7 builds, where a table per degree made 961."""
    built = []
    table = grading._count_table

    def spy(ws, top):
        built.append(top)
        return table(ws, top)

    monkeypatch.setattr(grading, "_count_table", spy)
    setup = make_h2()
    for i in range(31):
        for j in range(31):
            monomial_basis(Degree(free=(i, j)), setup)
    # w = (1, 3): the budgets run up to 120
    assert positive_functional(setup) == [1, 3]
    assert built == [0, 3, 7, 15, 31, 63, 127]


def test_cap_split_on_a_grown_table():
    """On the h2_q11 fixture, the (32, 32) / (33, 33) cap split holds with
    the table grown over the smaller degrees first, and with neither."""
    doc = load_json("h2_q11.json")
    grown, fresh = cli._load_setup(doc), cli._load_setup(doc)
    for i in range(32):
        monomial_basis(Degree(free=(i, i)), grown)
    for setup in (grown, fresh):
        with pytest.raises(CapExceededError):
            monomial_basis(Degree(free=(33, 33)), setup)
        assert len(monomial_basis(Degree(free=(32, 32)), setup)) == 2145


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
    def test_huge_degrees_need_no_count(self, monkeypatch, name, alpha, want):
        def refuse(*args):
            raise AssertionError("monomial search counted")

        monkeypatch.setattr(grading, "_full_count", refuse)
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
