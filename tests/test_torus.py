"""Torus points, canonical forms, subgroups and their structure."""

import random
from functools import lru_cache
from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import oracles
from conftest import make_h2, make_p113, random_homogeneous_lattice, rows_to_lattice
from torilat import codes, intlin, torus
from torilat.grading import Degree, degree_of, setup_from_beta, setup_from_rays
from torilat.errors import CapExceededError, InternalError, ValidationError
from torilat.torus import (
    PointSet,
    TorusPoint,
    all_torus_points,
    canonical_form,
    degenerate_torus,
    group_structure,
    point_from_canon,
    point_from_rep,
    points_from_parameterization,
    subgroup_closure,
    vanishing_lattice,
    zero_set_in_torus,
)


class TestCanonicalForm:
    def test_invariant_under_lattice_shifts(self, h2):
        # shifting the representative by any column of (q-1)-scaled
        # relations of G leaves the point fixed; conversely adding a
        # multiple of q-1 in any coordinate does nothing
        rng = random.Random(7)
        for _ in range(25):
            s = [rng.randrange(10) for _ in range(4)]
            p = point_from_rep(s, h2)
            shifted = [x + 10 * rng.randint(-2, 2) for x in s]
            assert point_from_rep(shifted, h2) == p

    def test_group_kernel_directions(self, h2):
        # exponent vectors of elements of G: beta^T applied to anything;
        # points s and s + beta^T(c) coincide in T_X
        rng = random.Random(11)
        betaT = intlin.transpose(h2.beta_free)
        for _ in range(25):
            s = [rng.randrange(10) for _ in range(4)]
            c = [rng.randrange(10) for _ in range(2)]
            shift = intlin.mat_vec(betaT, c)
            moved = [a + b for a, b in zip(s, shift)]
            assert point_from_rep(moved, h2) == point_from_rep(s, h2)

    def test_distinct_points_differ(self, h2):
        assert point_from_rep([1, 0, 0, 0], h2) != point_from_rep([0, 0, 0, 0], h2)

    def test_round_trip_from_canon(self, h2, p113):
        rng = random.Random(3)
        for st in (h2, p113):
            for _ in range(20):
                s = [rng.randrange(10) for _ in range(st.r)]
                p = point_from_rep(s, st)
                assert point_from_canon(p.canon, st) == p

    def test_wrong_length_rejected(self, h2):
        with pytest.raises(ValidationError):
            canonical_form([0, 0], h2)


class TestEnumeration:
    def test_torus_cardinality(self, h2, p113):
        assert len(all_torus_points(h2)) == 100
        assert len(all_torus_points(p113)) == 1000

    def test_cap(self):
        # 1008^3 points: the subgroup is built, and only reading its points
        # meets the cap
        Y = all_torus_points(make_p113(q=1009))
        assert len(Y) == 1008**3
        message = f"subgroup has {1008**3} points, cap is 1000000"
        for read in (lambda: Y.canon, lambda: Y.reps, lambda: next(iter(Y))):
            with pytest.raises(CapExceededError, match=message):
                read()
        assert "_arrays" not in vars(Y)

    def test_over_cap_subgroup_equals_no_listed_set(self):
        # the P^2 torus at q = 999983 has 999982^2 points: it differs in
        # size from a one-point set, so neither set's points are read
        st = setup_from_rays([[1, 0], [0, 1], [-1, -1]], 999983)
        Y = all_torus_points(st)
        listed = PointSet([oracles.identity_point(st)])
        assert (Y == listed) is False and (listed == Y) is False
        assert "_arrays" not in vars(Y)

    def test_identity_present(self, h2):
        assert oracles.identity_point(h2) in all_torus_points(h2)


class TestDegenerateTorus:
    def test_published_orders(self, h2):
        Y50, pred50 = degenerate_torus([2, 5, 4, 5], 10, h2)
        Y10, pred10 = degenerate_torus([5, 2, 5, 4], 10, h2)
        assert len(Y50) == 50
        assert len(Y10) == 10
        # d = (5,2,5,2) and (2,5,2,5) are not pairwise coprime, so no
        # product prediction applies
        assert pred50 is None and pred10 is None

    def test_full_torus(self, h2):
        Y, _ = degenerate_torus([1, 1, 1, 1], 10, h2)
        assert Y == all_torus_points(h2)

    def test_pairwise_coprime_order_formula(self):
        rng = random.Random(2024)
        qs = [5, 7, 11]
        from math import gcd

        count = 0
        while count < 100:
            q = rng.choice(qs)
            st = make_h2(q=q)
            h = rng.choice([d for d in range(1, q) if (q - 1) % d == 0])
            a = [rng.randint(1, q - 1) for _ in range(4)]
            d = [h // gcd(h, ai) for ai in a]
            if not all(
                gcd(d[i], d[j]) == 1
                for i in range(4)
                for j in range(i + 1, 4)
            ):
                continue
            Y, predicted = degenerate_torus(a, h, st)
            expected = d[0] * d[1] * d[2] * d[3]
            assert predicted == expected
            assert len(Y) == expected
            count += 1

    def test_bad_subgroup_order(self, h2):
        with pytest.raises(ValidationError):
            degenerate_torus([1, 1, 1, 1], 3, h2)

    @given(hst.lists(hst.integers(-6, 6), min_size=3, max_size=4),
           hst.sampled_from([7, 13, 31]), hst.data())
    @settings(max_examples=60, deadline=None)
    def test_order_formula_on_rays_that_are_not_primitive(self, row, q, data):
        # setup_from_beta keeps kernel rows such as (0, 3) for beta =
        # (2, 3, -3); such a ray fixes lambda in its coordinate whenever
        # lambda^{c_i} = 1, c_i the gcd of the ray
        try:
            st = setup_from_beta([row], q)
        except ValidationError:
            assume(False)
        c = [gcd(*ray) for ray in st.phi]
        assume(max(c) > 1)
        # hand each prime-power factor of q-1 to one coordinate or to none,
        # so the orders d_i are pairwise coprime
        h = q - 1
        d = [1] * st.r
        for f in {7: [2, 3], 13: [4, 3], 31: [2, 3, 5]}[q]:
            i = data.draw(hst.integers(-1, st.r - 1))
            if i >= 0:
                d[i] *= f
        a = [h // di for di in d]
        Y, predicted = degenerate_torus(a, h, st)
        assert predicted == len(Y) == prod(di // gcd(di, ci) for di, ci in zip(d, c))
        gens = [point_from_rep([ai if i == j else 0 for j in range(st.r)], st)
                for i, ai in enumerate(a)]
        assert oracles.bfs_closure(gens, st) == Y


class TestSubgroups:
    def test_zero_sets_are_subgroups(self, h2, p113):
        rng = random.Random(5)
        for st in (h2, p113):
            for _ in range(10):
                L = random_homogeneous_lattice(st, rng, contain_full=False)
                Y = zero_set_in_torus(L, st)
                assert oracles.identity_point(st) in Y
                assert Y.is_group

    def test_parameterization_of_the_wrong_width(self, h2):
        with pytest.raises(ValidationError,
                           match="parameterization matrix has wrong column count"):
            points_from_parameterization([[1, 2, 3]], 10, h2)

    def test_closure_contains_generators(self, h2):
        g = point_from_rep([1, 2, 3, 4], h2)
        Y = subgroup_closure([g], h2)
        assert g in Y
        assert oracles.identity_point(h2) in Y
        qm = h2.q - 1
        canons = {p.canon for p in Y}
        for p in Y:
            assert tuple((x + y) % qm for x, y in zip(p.canon, g.canon)) in canons

    def test_structure_of_published_examples(self, h2):
        Y50, _ = degenerate_torus([2, 5, 4, 5], 10, h2)
        Y10, _ = degenerate_torus([5, 2, 5, 4], 10, h2)
        gs50 = group_structure(Y50, h2)
        gs10 = group_structure(Y10, h2)
        assert gs50.orders == (5, 10)
        assert gs10.orders == (10,)

    def test_round_trip(self, h2, p113):
        rng = random.Random(17)
        for st in (h2, p113):
            for _ in range(10):
                gens = [
                    point_from_rep(
                        [rng.randrange(st.q - 1) for _ in range(st.r)], st
                    )
                    for _ in range(rng.randint(1, 2))
                ]
                Y = subgroup_closure(gens, st)
                gs = group_structure(Y, st)
                back = points_from_parameterization(gs.Q, gs.h, st)
                assert back == Y
                order = 1
                for d in gs.orders:
                    order *= d
                assert order == len(Y)

    def test_structure_requires_group(self, h2):
        Y = PointSet([point_from_rep([1, 0, 0, 0], h2)])
        with pytest.raises(ValidationError):
            group_structure(Y, h2)


class TestVanishingLattice:
    def test_degenerate_cases_recover_algorithm_output(self, h2):
        from torilat.lattice import degenerate_lattice

        for a in ([2, 5, 4, 5], [5, 2, 5, 4]):
            Y, _ = degenerate_torus(a, 10, h2)
            L1 = vanishing_lattice(Y, h2)
            L2 = degenerate_lattice(a, 10, h2).L
            assert intlin.lattice_equal(L1, L2)

    def test_full_torus_gives_scaled_lattice(self, h2):
        Y = all_torus_points(h2)
        L = vanishing_lattice(Y, h2)
        phi = h2.phi
        scaled = [[10 * x for x in row] for row in phi]
        assert intlin.lattice_equal(L, scaled)

    def test_identity_only_gives_full_homogeneity_lattice(self, h2):
        Y = subgroup_closure([], h2)
        L = vanishing_lattice(Y, h2)
        assert intlin.lattice_equal(L, h2.phi)


class TestZeroSet:
    def test_published_lattice_point_count(self, h2):
        L = rows_to_lattice([[10, 0, -10, 0], [0, 5, 10, -5]], 4)
        Y = zero_set_in_torus(L, h2)
        assert len(Y) == 50

    def test_inhomogeneous_rejected(self, h2):
        with pytest.raises(ValidationError):
            zero_set_in_torus(rows_to_lattice([[1, 0, 0, 0]], 4), h2)


# The lattice path against the point-by-point oracles -------------------

FIELDS = [5, 7, 11, 13]


@lru_cache(maxsize=None)
def setup_for(variety, q):
    if variety == "p3":
        return setup_from_beta([[1, 1, 1, 1]], q)
    return make_h2(q=q) if variety == "h2" else make_p113(q=q)


setups = hst.builds(
    setup_for, hst.sampled_from(["h2", "p113"]), hst.sampled_from(FIELDS)
)
exponents = hst.integers(min_value=-15, max_value=15)


def exponent_rows(st, max_rows):
    return hst.lists(
        hst.lists(exponents, min_size=st.r, max_size=st.r), max_size=max_rows
    )


def assert_subgroup(Y, st):
    """Y claims to be a group, and every stored representative
    represents its own point."""
    assert Y.is_group
    assert all(point_from_rep(p.rep, st).canon == p.canon for p in Y)
    if len(Y) <= 200:
        assert oracles.is_closed_group(Y, st)


class TestAgainstOracles:
    @given(setups, hst.data())
    @settings(max_examples=40, deadline=None)
    def test_parameterization_matches_the_tuple_sweep(self, st, data):
        h = data.draw(hst.sampled_from(
            [d for d in range(1, st.q) if (st.q - 1) % d == 0]
        ))
        Q = data.draw(exponent_rows(st, 3))
        Y = points_from_parameterization(Q, h, st)
        assert Y == oracles.sweep_parameterization(Q, h, st)
        assert_subgroup(Y, st)

    @given(setups, hst.data())
    @settings(max_examples=40, deadline=None)
    def test_closure_matches_the_bfs(self, st, data):
        reps = data.draw(exponent_rows(st, 3))
        gens = [point_from_rep(s, st) for s in reps]
        Y = subgroup_closure(gens, st)
        assert Y == oracles.bfs_closure(gens, st)
        assert_subgroup(Y, st)

    @given(setups, hst.integers(0, 2**32), hst.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_zero_set_matches_the_filtered_sweep(self, st, seed, extra):
        # up to extra + n = 7 columns: more than r = 4
        rng = random.Random(seed)
        L = random_homogeneous_lattice(
            st, rng, extra=extra, contain_full=rng.random() < 0.5
        )
        Y = zero_set_in_torus(L, st)
        assert Y == oracles.sweep_zero_set(L, st)
        assert_subgroup(Y, st)

    @pytest.mark.parametrize("variety", ["h2", "p113"])
    @pytest.mark.parametrize("q", FIELDS)
    def test_full_torus_matches_the_canonical_sweep(self, variety, q):
        st = setup_for(variety, q)
        Y = all_torus_points(st)
        assert Y == oracles.sweep_torus(st)
        assert_subgroup(Y, st)

    @given(setups, hst.data())
    @settings(max_examples=30, deadline=None)
    def test_vanishing_lattice_cuts_out_the_subgroup(self, st, data):
        reps = data.draw(exponent_rows(st, 2))
        Y = subgroup_closure([point_from_rep(s, st) for s in reps], st)
        assert zero_set_in_torus(vanishing_lattice(Y, st), st) == Y

    def test_zero_set_above_two_thousand_points(self):
        # 2178 of the 4356 points of T_X at q = 67: the half with even
        # first canonical coordinate.  Also a set of this size at q = 61:
        # the whole 3600-point torus from a five-column basis.
        for q, cols, size in [
            (67, [[33, 0, -33, 0], [0, 66, 132, -66]], 2178),
            (61, [[60, 0, -60, 0], [0, 60, 120, -60], [60, 60, 60, -60],
                  [120, 0, -120, 0], [0, 0, 0, 0]], 3600),
        ]:
            st = make_h2(q=q)
            L = intlin.from_columns(cols, 4)
            Y = zero_set_in_torus(L, st)
            assert len(Y) == size
            assert Y == oracles.sweep_zero_set(L, st)
            assert_subgroup(Y, st)


def draw_subgroup(st, data):
    """A subgroup of T_X from one of the five constructors, drawn by
    hypothesis."""
    divisors = [d for d in range(1, st.q) if (st.q - 1) % d == 0]
    kind = data.draw(hst.sampled_from(
        ["torus", "parameterization", "zero_set", "closure", "degenerate"]
    ))
    if kind == "torus":
        return all_torus_points(st)
    if kind == "parameterization":
        return points_from_parameterization(
            data.draw(exponent_rows(st, 3)),
            data.draw(hst.sampled_from(divisors)), st,
        )
    if kind == "zero_set":
        rng = random.Random(data.draw(hst.integers(0, 2**32)))
        L = random_homogeneous_lattice(st, rng, contain_full=rng.random() < 0.5)
        return zero_set_in_torus(L, st)
    if kind == "closure":
        reps = data.draw(exponent_rows(st, 3))
        return subgroup_closure([point_from_rep(s, st) for s in reps], st)
    a = data.draw(hst.lists(exponents, min_size=st.r, max_size=st.r))
    return degenerate_torus(a, data.draw(hst.sampled_from(divisors)), st)[0]


class TestStoredLattice:
    """A subgroup keeps the Hermite basis it was built from; its points
    are enumerated only when read."""

    @given(setups, hst.data())
    @settings(max_examples=60, deadline=None)
    def test_basis_and_order_match_the_rebuild_from_points(self, st, data):
        Y = draw_subgroup(st, data)
        assert "_arrays" not in vars(Y)
        size = len(Y)
        qm = st.q - 1
        # membership reads the basis; a form out of range or of the wrong
        # width is no point of Y, though (q-1, 0, ...) lies in the lattice
        pts = [point_from_rep([x % qm for x in s], st)
               for s in data.draw(exponent_rows(st, 4))]
        member = [p in Y for p in pts]
        rep = (0,) * st.r
        assert TorusPoint(canon=(qm,) + (0,) * (st.n - 1), rep=rep) not in Y
        assert TorusPoint(canon=(0,) * (st.n + 1), rep=rep) not in Y
        assert "_arrays" not in vars(Y)
        B = oracles.exponent_lattice_from_points(Y, st)
        assert len(list(Y)) == size
        assert intlin.lattice_equal(Y.basis, B)
        assert size == prod(qm // B[i][i] for i in range(st.n))
        # and agrees with the rebuilt lattice and the row match on the
        # enumerated forms
        reducer = oracles.HermiteReducer.from_basis(B)
        for p, found in zip(pts, member):
            assert found == reducer.contains(p.canon)
            assert found == bool((Y.canon == p.canon).all(axis=1).any())

    def test_capped_torus_is_not_enumerated(self):
        # P(1,1,1,3) at q = 101: (q-1)^3 = 10^6 points, the cap
        st = make_p113(q=101)
        Y = all_torus_points(st)
        assert len(Y) == 10**6
        assert group_structure(Y, st).orders == (100, 100, 100)
        L = vanishing_lattice(Y, st)
        assert intlin.lattice_equal(
            L, [[100 * x for x in row] for row in st.phi]
        )
        assert Y == all_torus_points(st)
        assert "_arrays" not in vars(Y)

    @given(setups, hst.data())
    @settings(max_examples=40, deadline=None)
    def test_cap_bounds_the_points_read_not_the_subgroup(self, st, data):
        """With the cap below |Y|, every constructor builds Y and every
        question answered from its lattice gets the answer the listed
        points give; only the reads of points raise."""
        alpha = degree_of(data.draw(hst.lists(
            hst.integers(0, 2), min_size=st.r, max_size=st.r)), st)
        pts = [point_from_rep(s, st) for s in data.draw(exponent_rows(st, 4))]
        # every subgroup holds the identity, so a cap of 0 is below |Y|
        with mock.patch.object(torus, "TORUS_ENUM_CAP", 0):
            Y = draw_subgroup(st, data)
            size = len(Y)
            gs = group_structure(Y, st)
            again = points_from_parameterization(gs.Q, gs.h, st)
            same = Y == again
            member = [p in Y for p in pts]
            L = vanishing_lattice(Y, st)
            H = codes.hilbert_function(Y, alpha, st)
            summary = codes.code_parameters(Y, alpha, st)
            assert "_arrays" not in vars(Y) and "_arrays" not in vars(again)
            message = f"subgroup has {size} points, cap is 0"
            for read in (
                lambda: Y.canon,
                lambda: Y.reps,
                lambda: next(iter(Y)),
                lambda: codes.evaluation_matrix(Y, alpha, st),
                lambda: codes.code_parameters(Y, alpha, st, compute_d=True,
                                              cap=st.q**summary.k),
            ):
                with pytest.raises(CapExceededError, match=message):
                    read()
        listed = PointSet(list(Y))
        assert size == len(listed) and prod(gs.orders) == size
        assert same and again == listed
        assert member == [p in listed for p in pts]
        assert zero_set_in_torus(L, st) == listed
        assert H == codes.hilbert_function(listed, alpha, st) >= 1
        assert (summary.N, summary.k) == (size, H)


class TestHermiteReads:
    """The right inverse, C = (q-1) B^{-1} and the structure generators
    are read off Hermite and Smith forms already at hand; the general
    integer solver and unimodular inverse they replaced must agree."""

    @given(setups, hst.data())
    @settings(max_examples=60, deadline=None)
    def test_match_the_general_solver(self, st, data):
        Y = draw_subgroup(st, data)
        qm, n, B = st.q - 1, st.n, Y.basis

        def unit(i, c=1):
            return [c if j == i else 0 for j in range(n)]

        phit = intlin.transpose(st.phi)
        assert st.right_inverse() == intlin.from_columns(
            [oracles.solve_integer(phit, unit(i)) for i in range(n)], st.r
        )
        C = Y._dual
        assert C == intlin.from_columns(
            [oracles.solve_integer(B, unit(i, qm)) for i in range(n)], n
        )
        res = intlin.snf(C)
        Uinv = oracles.inverse_unimodular(res.U)
        gs = group_structure(Y, st)
        kept = [i for i, d in enumerate(res.diagonal) if d > 1]
        assert list(gs.orders) == [res.diagonal[i] for i in kept]
        assert [p.canon for p in gs.generators] == [
            tuple(x % qm for x in intlin.mat_vec(B, [row[i] for row in Uinv]))
            for i in kept
        ]

    def test_inexact_division_is_an_internal_error(self, h2):
        # a basis whose lattice misses (q-1)e_1 = (10, 0): 10/3 is not exact
        Y = PointSet._from_lattice([[3, 0], [0, 1]], [[0] * 4] * 2, 10, 4)
        with pytest.raises(InternalError):
            group_structure(Y, h2)


class TestEquality:
    """Two subgroups compare by their Hermite bases, any other pair by
    its canonical forms; both must agree with the point lists."""

    @given(setups, hst.data())
    @settings(max_examples=80, deadline=None)
    def test_basis_equality_matches_the_point_lists(self, st, data):
        Y1 = draw_subgroup(st, data)
        kind = data.draw(hst.sampled_from(["zero_set", "structure", "other"]))
        if kind == "zero_set":
            Y2 = zero_set_in_torus(vanishing_lattice(Y1, st), st)
        elif kind == "structure":
            gs = group_structure(Y1, st)
            Y2 = points_from_parameterization(gs.Q, gs.h, st)
        else:
            Y2 = draw_subgroup(st, data)
        same = Y1 == Y2
        assert "_arrays" not in vars(Y1) and "_arrays" not in vars(Y2)
        assert same == ([p.canon for p in Y1] == [p.canon for p in Y2])
        if kind != "other":
            assert same
        for Y in (Y1, Y2):
            listed = PointSet(list(Y))
            assert Y == listed
            assert listed == Y

    def test_subgroups_of_different_fields_differ(self):
        # the full torus has basis I for every q
        assert all_torus_points(make_h2(q=5)) != all_torus_points(make_h2(q=7))


class TestPointSetFromPoints:
    def test_duplicates_keep_the_first_representative(self, h2):
        # [1,0,0,0], [11,0,0,0] and [2,8,1,0] all have canonical form (1, 0)
        reps = [[3, 0, 0, 0], [11, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0],
                [2, 8, 1, 0], [0, 0, 0, 0], [3, 0, 0, 0]]
        Y = PointSet(point_from_rep(s, h2) for s in reps)
        assert len(Y) == 4
        assert [p.canon for p in Y] == [(0, 0), (0, 1), (1, 0), (3, 0)]
        assert [p.rep for p in Y] == [
            (0, 0, 0, 0), (0, 1, 0, 0), (11, 0, 0, 0), (3, 0, 0, 0)
        ]
        assert Y.canon.tolist() == [[0, 0], [0, 1], [1, 0], [3, 0]]
        assert point_from_rep([2, 8, 1, 0], h2) in Y
        assert point_from_rep([0, 2, 0, 0], h2) not in Y

    def test_empty(self, h2):
        Y = PointSet([])
        assert len(Y) == 0
        assert list(Y) == []
        assert oracles.identity_point(h2) not in Y
        assert Y == PointSet([])
        # unlike the torus of the empty fan: one point, the empty form
        empty_fan = setup_from_rays([], 7)
        T = all_torus_points(empty_fan)
        assert len(T) == 1
        assert oracles.identity_point(empty_fan) in T


class TestArraysAreReadOnly:
    @pytest.mark.parametrize("listed", [False, True])
    def test_points_cannot_be_overwritten(self, listed):
        st = make_h2()
        Y, _ = degenerate_torus([2, 5, 4, 5], 10, st)
        if listed:
            Y = PointSet(list(Y))
        alpha = Degree(free=(1, 1))
        for name in ("canon", "reps"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(Y, name)[:] = 0
        assert codes.code_parameters(Y, alpha, st, compute_d=True).d == 20

    def test_subgroup_basis_cannot_be_overwritten(self):
        # the class count reads basis_reps: six classes at (1, 1), two
        # if the first representative could be zeroed in place
        st = make_h2()
        Y, _ = degenerate_torus([2, 5, 4, 5], 10, st)
        for name in ("basis", "basis_reps"):
            with pytest.raises(TypeError):
                getattr(Y, name)[0][:] = [0] * len(getattr(Y, name)[0])
        assert codes.hilbert_function(Y, Degree(free=(1, 1)), st) == 6


class TestTorsion:
    """Rays whose class group has torsion Z/2: no integer right inverse of
    phi^T exists, and the sizes below are the ones the tuple sweep and
    BFS gave."""

    @pytest.fixture(scope="class")
    def st(self):
        return setup_from_rays([[1, 1], [1, -1], [-1, -1], [-1, 1]], 7)

    def test_frozen_orders(self, st):
        Y, _ = degenerate_torus([1, 1, 1, 1], 6, st)
        assert len(Y) == 18
        assert len(subgroup_closure([point_from_rep([1, 0, 0, 0], st)], st)) == 6
        assert len(points_from_parameterization(
            [[1, 0, 0, 0], [0, 1, 0, 0]], 6, st)) == 18

    def test_constructors_agree_with_the_sweeps(self, st):
        Y, _ = degenerate_torus([1, 1, 1, 1], 6, st)
        diag = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        assert Y == oracles.sweep_parameterization(diag, 6, st)
        assert Y == all_torus_points(st)
        g = [point_from_rep([1, 0, 0, 0], st)]
        assert subgroup_closure(g, st) == oracles.bfs_closure(g, st)
        assert_subgroup(Y, st)

    def test_vanishing_lattice_cuts_out_the_subgroup(self, st):
        Y = subgroup_closure([point_from_rep([1, 2, 0, 0], st)], st)
        assert zero_set_in_torus(vanishing_lattice(Y, st), st) == Y
