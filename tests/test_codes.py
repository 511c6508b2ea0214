"""Evaluation codes: matrices, ranks, Hilbert tables, parameters."""

import random
import sys
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import oracles
from conftest import load_json, make_h2
from oracles import degree_leq, injectivity_certified, injectivity_check
from test_torus import FIELDS, draw_subgroup, setup_for, setups
from torilat import cli, codes, grading
from torilat.codes import (
    code_parameters,
    evaluation_matrix,
    hilbert_function,
    hilbert_table,
    injectivity_exact,
    minimum_distance,
    rank_mod_q,
    row_space_basis,
)
from torilat.errors import CapExceededError, ValidationError
from torilat.grading import (
    Degree,
    degree_of,
    in_semigroup_Khat,
    monomial_basis,
    setup_from_beta,
    setup_from_rays,
)
from torilat.lattice import degenerate_lattice, hilbert_of_lattice
from torilat.torus import (
    PointSet,
    TorusPoint,
    all_torus_points,
    degenerate_torus,
    point_from_rep,
    vanishing_lattice,
    zero_set_in_torus,
)


@pytest.fixture(scope="module")
def y10(h2):
    return degenerate_torus([5, 2, 5, 4], 10, h2)[0]


@pytest.fixture(scope="module")
def y50(h2):
    return degenerate_torus([2, 5, 4, 5], 10, h2)[0]


class TestRank:
    def test_rank_known(self):
        A = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
        assert rank_mod_q(A, 7) == 2
        # mod 2 the first two rows vanish
        assert rank_mod_q(A, 2) == 2

    def test_row_space_basis_spans(self):
        rng = np.random.default_rng(5)
        A = rng.integers(0, 11, size=(6, 8))
        B = row_space_basis(A, 11)
        assert rank_mod_q(B, 11) == rank_mod_q(A, 11) == B.shape[0]
        stacked = np.vstack([A, B])
        assert rank_mod_q(stacked, 11) == B.shape[0]

    @given(hst.sampled_from([2, 3, 5, 7, 11]), hst.integers(1, 6),
           hst.integers(1, 7), hst.data())
    @settings(max_examples=100, deadline=None)
    def test_echelon_against_list_elimination(self, q, m, n, data):
        rows = data.draw(hst.lists(
            hst.lists(hst.integers(-20, 20), min_size=n, max_size=n),
            min_size=m, max_size=m,
        ))
        A = np.array(rows, dtype=np.int64)
        rank = oracles.rank_mod_q(rows, q)
        assert rank_mod_q(A, q) == rank
        B = row_space_basis(A, q)
        assert B.shape[0] == rank
        assert oracles.rank_mod_q(B.tolist() + rows, q) == rank
        # row echelon: each leading entry is 1, right of the one above,
        # with zeros below it
        leads = [int(np.flatnonzero(row)[0]) for row in B]
        assert leads == sorted(set(leads))
        for i, c in enumerate(leads):
            assert B[i, c] == 1 and not B[i + 1 :, c].any()


class TestEvaluationMatrix:
    def test_degree_zero_is_all_ones(self, h2, y10):
        mat, mons, a0 = evaluation_matrix(y10, degree_of([0, 0, 0, 0], h2), h2)
        assert mons == [(0, 0, 0, 0)]
        assert a0 == (0, 0, 0, 0)
        assert (mat == 1).all()

    def test_shape_and_rank(self, h2, y10):
        mat, mons, _ = evaluation_matrix(y10, Degree(free=(0, 1)), h2)
        assert mat.shape == (4, 10)
        assert rank_mod_q(mat, 11) == 3

    def test_f0_invariance(self, h2, y10):
        # scaling columns by another monomial's values permutes nothing
        # and changes no rank or weight spectrum
        alpha = Degree(free=(0, 1))
        mat, mons, a0 = evaluation_matrix(y10, alpha, h2)
        q = h2.q
        f = h2.field
        other = mons[-1]
        scale = np.array(
            [
                f.eta_pow(sum((a0[i] - other[i]) * p.rep[i] for i in range(4)))
                for p in y10
            ],
            dtype=np.int64,
        )
        rescaled = mat * scale % q
        assert rank_mod_q(rescaled, q) == rank_mod_q(mat, q)
        w1 = sorted(int((row != 0).sum()) for row in row_space_basis(mat, q))
        w2 = sorted(int((row != 0).sum()) for row in row_space_basis(rescaled, q))
        assert w1 == w2

    def test_empty_point_set_rejected(self, h2):
        from torilat.torus import PointSet

        with pytest.raises(ValidationError):
            evaluation_matrix(PointSet([]), degree_of([0, 0, 0, 0], h2), h2)


class TestHilbert:
    def test_order50_dimension_at_5_10(self, h2, y50):
        assert hilbert_function(y50, Degree(free=(5, 10)), h2) == 50

    def test_published_table(self, h2, y10):
        fixture = load_json("hilbert_table_6x18.json")
        grid = hilbert_table(
            y10, fixture["alpha1_values"], fixture["alpha2_values"], h2
        )
        assert grid == fixture["grid"]

    def test_trivial_1x1(self, h2, y10):
        assert hilbert_table(y10, [0], [0], h2) == [[1]]

    def test_stabilizes_at_cardinality(self, h2, y10, y50):
        # degrees deep in the stabilization region
        assert hilbert_function(y10, Degree(free=(20, 10)), h2) == 10
        assert hilbert_function(y50, Degree(free=(5, 10)), h2) == 50

    def test_never_exceeds_cardinality(self, h2, y10):
        rng = random.Random(31)
        for _ in range(15):
            alpha = Degree(free=(rng.randint(-5, 12), rng.randint(0, 5)))
            assert hilbert_function(y10, alpha, h2) <= len(y10)

    def test_table_requires_rank_two_grading(self, p113):
        Y = zero_set_in_torus(p113.phi, p113)
        with pytest.raises(ValidationError):
            hilbert_table(Y, [0], [0], p113)

    def test_empty_table_of_a_grading_that_is_not_pointed(self):
        # x1 x2 has degree 0: a grid answers only when it has no cell
        st = setup_from_beta([[1, -1, 0, 0], [0, 0, 1, -1]], 7)
        Y = degenerate_torus([1, 1, 1, 1], 6, st)[0]
        assert hilbert_table(Y, [], [0], st) == [[]]
        with pytest.raises(ValidationError, match="grading is not pointed"):
            hilbert_table(Y, [0], [0], st)

    def test_table_builds_the_enumeration_plan_once(self, monkeypatch):
        # the solved block, the weights and the slopes depend on the setup
        # alone: the 6 x 18 table builds them once, not once per cell
        built = []
        solved_block = grading._solved_block

        def counting(*args):
            built.append(args)
            return solved_block(*args)

        monkeypatch.setattr(grading, "_solved_block", counting)
        st = make_h2()
        Y = degenerate_torus([5, 2, 5, 4], 10, st)[0]
        fixture = load_json("hilbert_table_6x18.json")
        grid = hilbert_table(Y, fixture["alpha1_values"],
                             fixture["alpha2_values"], st)
        assert grid == fixture["grid"]
        assert len(built) == 1
        # the plan serves every later degree of the setup
        for alpha in [(-1, 0), (0, 0), (3, 2), (-2, 4), (12, 5), (0, 9)]:
            want, _ = oracles.monomials_by_full_search(alpha, st, range(st.r))
            assert monomial_basis(Degree(free=alpha), st) == want
        assert len(built) == 1

    def test_saturated_cells_list_no_monomials(self, h2, y10):
        # a cell is listed only when two of its cells alpha - deg(x_j)
        # lie in the degree cone and outside the table: of the 108 cells
        # of the 6 x 18 table, the three of the first column that x1 and
        # x3 step into from (-6, b), which hold 2, 6 and 12 monomials
        fixture = load_json("hilbert_table_6x18.json")
        with mock.patch.object(codes, "_code", wraps=codes._code) as listed:
            grid = hilbert_table(y10, fixture["alpha1_values"],
                                 fixture["alpha2_values"], h2)
        assert grid == fixture["grid"]
        cells = [call.args[1].free for call in listed.call_args_list]
        assert cells == [(-5, 3), (-5, 4), (-5, 5)]
        assert sum(len(monomial_basis(Degree(free=c), h2)) for c in cells) == 20

    def test_class_sets_past_the_cap_are_not_kept(self, h2, y10, monkeypatch):
        # at a cap of 100 the class sets of the cells met first fill it,
        # and the listing of each cell stays within it: 40 cells are
        # listed, all of them among those that saturation alone lists,
        # and the values stay the same
        monkeypatch.setattr(grading, "MONOMIAL_SEARCH_CAP", 100)
        fixture = load_json("hilbert_table_6x18.json")
        with mock.patch.object(codes, "_code", wraps=codes._code) as listed:
            grid = hilbert_table(y10, fixture["alpha1_values"],
                                 fixture["alpha2_values"], h2)
        assert grid == fixture["grid"]
        cells = {call.args[1].free for call in listed.call_args_list}
        assert len(cells) == listed.call_count == 40
        assert cells < saturation_listed(h2, y10, fixture["alpha1_values"],
                                         fixture["alpha2_values"], grid)

    def test_saturated_cell_past_the_monomial_cap(self, monkeypatch):
        # (33, 33) (work 2,412) is past the cap, but (32, 33) (work 2,377)
        # has value |Y| and (33, 33) = (32, 33) + deg(x_1)
        monkeypatch.setattr(grading, "MONOMIAL_SEARCH_CAP", 2400)
        st = make_h2()
        Y = zero_set_in_torus([[10, 0], [0, 5], [-10, 10], [0, -5]], st)
        assert hilbert_table(Y, [32, 33], [33], st) == [[50, 50]]
        with pytest.raises(CapExceededError):
            hilbert_table(Y, [33], [33], st)

    def test_table_of_a_grading_that_is_not_pointed(self):
        # no positive functional orders the cells: the first cell raises
        # as it did before the cells were ordered
        st = setup_from_beta([[1, -1, 0, 0], [0, 0, 1, 1]], 11)
        Y = all_torus_points(st)
        with pytest.raises(ValidationError, match="not pointed"):
            hilbert_table(Y, [0, 1], [0], st)


def table_degrees(data):
    """The first and second values of a table, each shuffled: a run of
    consecutive integers, so that the steps deg(x_j) join its cells, or a
    sparse draw with gaps."""
    def values(low, high, most):
        if data.draw(hst.booleans()):
            start = data.draw(hst.integers(low, high))
            run = range(start, start + data.draw(hst.integers(1, most)))
        else:
            run = data.draw(hst.sets(hst.integers(low, high + most), min_size=1,
                                     max_size=most))
        return data.draw(hst.permutations(sorted(run)))

    return values(-4, 8, 6), values(0, 5, 4)


def saturation_listed(setup, Y, first, second, grid):
    """The cells whose monomials a table lists when only a cell one step
    deg(x_j) above a table cell of value |Y| is skipped."""
    value = {(a, b): v for row, b in zip(grid, second) for v, a in zip(row, first)}
    steps = list(zip(*setup.beta_free))
    return {(a, b) for a, b in value
            if all(value.get((a - x, b - y)) != len(Y) for x, y in steps)}


TABLE_GRADINGS = {
    "h2": make_h2,
    "h3": lambda q: make_h2(q, ell=3),
    "p1xp1": lambda q: setup_from_beta([[1, 1, 0, 0], [0, 0, 1, 1]], q),
    "r5": lambda q: setup_from_beta([[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]], q),
}


@lru_cache(maxsize=None)
def table_setup(name, q):
    return TABLE_GRADINGS[name](q)


def draw_table_subgroup(st, data):
    """A subgroup drawn as in test_torus, or the full torus, or the one
    point of h = 1."""
    kind = data.draw(hst.sampled_from(["drawn", "torus", "h1"]))
    if kind == "torus":
        return all_torus_points(st)
    if kind == "h1":
        a = data.draw(hst.lists(hst.integers(-9, 9), min_size=st.r, max_size=st.r))
        return degenerate_torus(a, 1, st)[0]
    return draw_subgroup(st, data)


class TestSaturatedTable:
    """hilbert_table lists the monomials of a cell only when neither a
    cell one step deg(x_j) below it of value |Y| nor the class sets of
    those cells give its classes; cell by cell, every value stays what
    hilbert_function and the oracles give."""

    @given(hst.sampled_from(sorted(TABLE_GRADINGS)), hst.sampled_from(FIELDS),
           hst.data())
    @settings(max_examples=100, deadline=None)
    def test_subgroups(self, name, q, data):
        st = table_setup(name, q)
        Y = draw_table_subgroup(st, data)
        first, second = table_degrees(data)
        with mock.patch.object(codes, "_code", wraps=codes._code) as listed:
            grid = hilbert_table(Y, first, second, st)
        L = vanishing_lattice(Y, st)
        for row, b in zip(grid, second):
            for value, a in zip(row, first):
                alpha = Degree(free=(a, b))
                assert value == hilbert_function(Y, alpha, st)
                assert value == hilbert_of_lattice(L, alpha, st)
        cells = [call.args[1].free for call in listed.call_args_list]
        assert len(set(cells)) == len(cells)
        assert set(cells) <= saturation_listed(st, Y, first, second, grid)

    @given(hst.data())
    @settings(max_examples=30, deadline=None)
    def test_point_set_of_no_subgroup(self, h2, data):
        # three points, no subgroup: the rank path saturates at 3
        Y = PointSet([oracles.identity_point(h2), point_from_rep([1, 0, 0, 0], h2),
                      point_from_rep([0, 3, 1, 0], h2)])
        assert not Y.is_group
        first, second = table_degrees(data)
        grid = hilbert_table(Y, first, second, h2)
        for row, b in zip(grid, second):
            for value, a in zip(row, first):
                alpha = Degree(free=(a, b))
                assert value == hilbert_function(Y, alpha, h2)
                mat = evaluation_matrix(Y, alpha, h2)[0]
                assert value == oracles.rank_mod_q(mat.tolist(), h2.q)


class TestOracleEquivalence:
    def test_published_cases(self, h2):
        for a in ([2, 5, 4, 5], [5, 2, 5, 4]):
            Y, _ = degenerate_torus(a, 10, h2)
            L = degenerate_lattice(a, 10, h2).L
            for i in range(-5, 13, 3):
                for j in range(0, 6, 2):
                    alpha = Degree(free=(i, j))
                    rank = rank_mod_q(evaluation_matrix(Y, alpha, h2)[0], 11)
                    assert hilbert_function(Y, alpha, h2) == rank
                    assert rank == hilbert_of_lattice(L, alpha, h2)

    @given(setups, hst.data())
    @settings(max_examples=80, deadline=None)
    def test_class_count_against_the_rank(self, st, data):
        # on a subgroup k counts monomial classes; the rank of the full
        # evaluation matrix, the coset count modulo L(Y) and the search
        # on an echelon basis are its oracles
        Y = draw_subgroup(st, data)
        alpha = draw_degree(st, data)
        q = st.q
        k = hilbert_function(Y, alpha, st)
        assert "_arrays" not in vars(Y)
        mat = evaluation_matrix(Y, alpha, st)[0]
        assert k == rank_mod_q(mat, q)
        assert k == hilbert_of_lattice(vanishing_lattice(Y, st), alpha, st)
        if k == 0:
            return
        # one row per class: independent, and they span every row
        rows = codes._code(Y, alpha, st)[2]()
        assert rows.shape == (k, len(Y))
        assert rank_mod_q(rows, q) == k
        assert rank_mod_q(np.vstack([rows, mat]), q) == k
        if (q**k - 1) // (q - 1) <= 10**4:
            cs = code_parameters(Y, alpha, st, compute_d=True, cap=10**4)
            assert cs.d == minimum_distance(row_space_basis(mat, q), q)

    @given(setups, hst.data())
    @settings(max_examples=80, deadline=None)
    def test_classes_in_the_order_first_met(self, st, data):
        # the first-seen listing gives the classes of the listing by
        # np.unique, in the same order and with the same labels
        Y = draw_subgroup(st, data)
        alpha = draw_degree(st, data)
        k, _, generator, got = codes._code(Y, alpha, st)
        mons = monomial_basis(alpha, st)
        if not mons:
            assert k == 0
            return
        labels = codes._exponents(mons, Y.basis_reps, st.q)
        first = oracles.first_of_each_class(labels)
        assert k == len(first)
        assert np.array_equal(got, labels[first])
        assert np.array_equal(
            generator(), codes._evaluate([mons[i] for i in first], Y, st)
        )


def draw_degree(st, data):
    if st.k == 2:
        return Degree(free=(data.draw(hst.integers(-4, 12)),
                            data.draw(hst.integers(0, 6))))
    return Degree(free=(data.draw(hst.integers(0, 12)),))


class TestDegreeLeq:
    def test_reflexive(self, h2):
        alpha = Degree(free=(3, 2))
        assert degree_leq(alpha, alpha, h2)

    def test_known_comparisons(self, h2):
        assert degree_leq(Degree(free=(1, 0)), Degree(free=(-6, 10)), h2)
        assert not degree_leq(Degree(free=(1, 0)), Degree(free=(0, 0)), h2)

    def test_injectivity_anchor(self, h2, y10):
        assert injectivity_check([5, 2, 5, 4], 10, Degree(free=(1, 0)), h2)
        k = hilbert_function(y10, Degree(free=(1, 0)), h2)
        assert k == len(monomial_basis(Degree(free=(1, 0)), h2)) == 2

    def test_injectivity_false_at_5_10(self, h2):
        assert not injectivity_check([5, 2, 5, 4], 10, Degree(free=(5, 10)), h2)

    def test_degree_bound_is_not_sufficient(self, h2):
        """Frozen counterexample: a = (2,10,7,4), h = 2 gives orders
        d = (1,1,2,1), so the bound is sum d_i beta_i = (1, 2) and
        alpha = (-2, 2) passes the degree test via (3, 0) = 3 beta_1.
        But Y has only 2 points while dim S_alpha = 4, and the binomial
        x1^2 x2^2 - x2 x4 (exponent difference (2,1,0,-1), which lies in
        the vanishing lattice) sits in I(Y)_alpha.  So the published
        degree bound does not certify injectivity."""
        a, h = [2, 10, 7, 4], 2
        alpha = Degree(free=(-2, 2))
        Y, _ = degenerate_torus(a, h, h2)
        assert len(Y) == 2
        assert injectivity_check(a, h, alpha, h2)  # the bound passes ...
        assert len(monomial_basis(alpha, h2)) == 4
        assert hilbert_function(Y, alpha, h2) == 2  # ... yet k < dim S_alpha
        assert not injectivity_exact(a, h, alpha, h2)
        assert not injectivity_certified(a, h, alpha, h2)

    def test_certified_condition_implies_exact(self, h2):
        rng = random.Random(47)
        from math import gcd

        for _ in range(30):
            a = [rng.randint(1, 10) for _ in range(4)]
            h = rng.choice([1, 2, 5, 10])
            alpha = Degree(free=(rng.randint(-4, 6), rng.randint(0, 4)))
            if injectivity_certified(a, h, alpha, h2):
                assert injectivity_exact(a, h, alpha, h2)

    @pytest.mark.parametrize("free", [(1,), (1, 0, 7)])
    def test_wrong_degree_rank_rejected(self, h2, free):
        """A degree whose free rank is not k is rejected, in either place
        of degree_leq, before a zip can cut it short or the search can
        index past it."""
        bad, good = Degree(free=free), Degree(free=(3, 3))
        calls = [
            lambda: degree_leq(bad, good, h2),
            lambda: degree_leq(good, bad, h2),
            lambda: injectivity_check([5, 2, 5, 4], 10, bad, h2),
            lambda: injectivity_certified([5, 2, 5, 4], 10, bad, h2),
            lambda: injectivity_exact([5, 2, 5, 4], 10, bad, h2),
            lambda: in_semigroup_Khat(bad, h2),
            lambda: monomial_basis(bad, h2),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="free rank"):
                call()

    @pytest.mark.parametrize(
        "test", [injectivity_check, injectivity_certified, injectivity_exact]
    )
    def test_short_exponent_vector_rejected(self, h2, test):
        with pytest.raises(ValidationError):
            test([2, 5], 10, Degree(free=(1, 0)), h2)

    def test_torsion_grading_rejected(self):
        # the class group of these rays has Z/2 torsion: no monomial
        # enumeration, so no decision
        st = setup_from_rays([[1, 1], [1, -1], [-1, -1], [-1, 1]], 7)
        with pytest.raises(ValidationError, match="torsion-free"):
            injectivity_exact([1, 1, 1, 1], 6, Degree(free=(1, 1)), st)

    @given(hst.sampled_from(["h2", "p3", "p113"]), hst.sampled_from([7, 11, 13]),
           hst.data())
    @settings(max_examples=150, deadline=None)
    def test_exact_matches_the_lattice_route(self, variety, q, data):
        """The class count on Y_{A,H} decides as the coset count of the
        degenerate lattice does, and the certified condition implies it;
        degrees with a negative coordinate have no monomials."""
        st = setup_for(variety, q)
        h = data.draw(hst.sampled_from([d for d in range(1, q) if (q - 1) % d == 0]))
        a = data.draw(hst.lists(hst.integers(-12, 12), min_size=st.r, max_size=st.r))
        alpha = Degree(free=tuple(data.draw(
            hst.lists(hst.integers(-2, 7), min_size=st.k, max_size=st.k))))
        exact = injectivity_exact(a, h, alpha, st)
        assert exact == oracles.injectivity_by_lattice(a, h, alpha, st)
        if injectivity_certified(a, h, alpha, st):
            assert exact


class TestCodeParameters:
    def test_basic_parameters(self, h2, y10):
        cs = code_parameters(y10, Degree(free=(0, 1)), h2)
        assert (cs.N, cs.k) == (10, 3)
        assert cs.d is None

    def test_minimum_distance_small(self, h2, y10):
        cs = code_parameters(y10, Degree(free=(0, 1)), h2, compute_d=True)
        assert cs.N == 10 and cs.k == 3
        # d is a true codeword weight and satisfies the Singleton bound
        assert 1 <= cs.d <= cs.N - cs.k + 1

    def test_repetition_like_degree_zero(self, h2, y10):
        cs = code_parameters(y10, degree_of([0, 0, 0, 0], h2), h2, compute_d=True)
        assert (cs.N, cs.k, cs.d) == (10, 1, 10)

    def test_point_cap_met_before_the_power_table(self):
        # the P^2 torus at q = 999983 has about 10^12 points: evaluation
        # reads them and meets the cap before the power table is built
        Y, st = projective_torus(3, 999983)
        with pytest.raises(CapExceededError):
            code_parameters(Y, Degree(free=(0,)), st, compute_d=True)
        with pytest.raises(CapExceededError):
            evaluation_matrix(Y, Degree(free=(1,)), st)
        assert "_pow" not in vars(st.field)

    def test_zero_code(self, h2, y10):
        cs = code_parameters(y10, Degree(free=(-1, 0)), h2, compute_d=True)
        assert cs.k == 0 and cs.d is None
        assert "zero code" in cs.note

    def test_cap_skips_distance(self, h2, y50):
        cs = code_parameters(
            y50, Degree(free=(5, 10)), h2, compute_d=True, cap=10
        )
        assert cs.k == 50 and cs.d is None
        assert "cap" in cs.note

    def test_negative_cap_rejected(self, h2, y10):
        with pytest.raises(ValidationError, match="cap"):
            code_parameters(y10, Degree(free=(0, 1)), h2, compute_d=True, cap=-1)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="no limit on int-to-str conversion before Python 3.11",
    )
    def test_skip_note_beyond_the_digit_limit(self):
        # (q^k - 1)/(q - 1) has more decimal digits than str() may convert
        st = make_h2(q=999961)
        Y = degenerate_torus([1, 7, 11, 13], 30, st)[0]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            cs = code_parameters(Y, Degree(free=(8, 8)), st, compute_d=True)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (cs.N, cs.k, cs.d) == (900, 153, None)
        assert cs.note == (
            "minimum distance skipped: (999961^153 - 1)/999960 projective "
            "messages exceed cap 1000000"
        )

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="no limit on int-to-str conversion before Python 3.11",
    )
    def test_cap_beyond_the_digit_limit(self):
        # a cap with more decimal digits than str() may convert is
        # written in hexadecimal, in the skip note and in the error
        st = make_h2(q=999961)
        Y = degenerate_torus([1, 7, 11, 13], 30, st)[0]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            cs = code_parameters(Y, Degree(free=(8, 8)), st, compute_d=True,
                                 cap=10**700)
            with pytest.raises(ValidationError) as err:
                code_parameters(Y, Degree(free=(8, 8)), st, compute_d=True,
                                cap=-10**700)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (cs.N, cs.k, cs.d) == (900, 153, None)
        assert cs.note == (
            "minimum distance skipped: (999961^153 - 1)/999960 projective "
            f"messages exceed cap {10**700:#x}"
        )
        assert str(err.value) == (
            f"message cap must be nonnegative, got {-10**700:#x}"
        )

    @pytest.mark.parametrize(
        "alpha, params", [((0, 1), (50, 4, 30)), ((1, 1), (50, 6, 20))]
    )
    def test_published_degenerate_torus_codes(self, h2, y50, alpha, params):
        cs = code_parameters(y50, Degree(free=alpha), h2, compute_d=True)
        assert (cs.N, cs.k, cs.d) == params

    def test_length_formula_for_coprime_orders(self):
        from math import gcd

        st = make_h2(q=11)
        a, h = [2, 5, 10, 10], 10  # orders d = (5, 2, 1, 1)
        d = [h // gcd(h, ai) for ai in a]
        assert all(
            gcd(d[i], d[j]) == 1 for i in range(4) for j in range(i + 1, 4)
        )
        Y, predicted = degenerate_torus(a, h, st)
        cs = code_parameters(Y, Degree(free=(0, 1)), st)
        assert cs.N == predicted == d[0] * d[1] * d[2] * d[3]


def projective_torus(s, q):
    """The torus of P^{s-1}: rays e_1, ..., e_{s-1}, -(e_1 + ... + e_{s-1})."""
    rays = [[int(i == j) for j in range(s - 1)] for i in range(s - 1)]
    setup = setup_from_rays(rays + [[-1] * (s - 1)], q)
    return all_torus_points(setup), setup


def projective_torus_distance(s, q, t):
    """Sarmiento, Vaz Pinto and Villarreal (AAECC 2011): with
    t = j(q-2) + l and 1 <= l <= q-2, the degree-t code on the torus of
    P^{s-1} has d = (q-1)^{s-j-2} (q-1-l) for t < (s-1)(q-2), else 1."""
    if t >= (s - 1) * (q - 2):
        return 1
    j, r = divmod(t - 1, q - 2)
    ell = r + 1
    return (q - 1) ** (s - j - 2) * (q - 1 - ell)


class TestMinimumDistance:
    @given(hst.sampled_from([2, 3, 5, 7, 11, 13]), hst.integers(1, 4),
           hst.integers(1, 30), hst.booleans(), hst.data())
    @settings(max_examples=150, deadline=None)
    def test_batched_search_matches_the_message_loop(self, q, m, n, unit, data):
        A = np.array(data.draw(hst.lists(
            hst.lists(hst.integers(0, q - 1), min_size=n, max_size=n),
            min_size=m, max_size=m,
        )), dtype=np.int64)
        A[:, data.draw(hst.lists(hst.integers(0, n - 1), max_size=n))] = 0
        if unit:  # a weight-1 word: d = 1
            A[0] = 0
            A[0, data.draw(hst.integers(0, n - 1))] = 1
        basis = row_space_basis(A, q)
        assume(basis.shape[0] > 0)
        d = minimum_distance(basis, q)
        assert d == oracles.min_distance_by_messages(basis, q)
        if unit:
            assert d == 1

    @pytest.mark.parametrize("name", ["h2_a2455", "h2_a5254", "h2_q11", "p113_q11"])
    def test_fixture_codes_match_the_message_loop(self, name):
        # every distinct code with k <= 6 on the fixture's point set; these
        # degrees reach all of them
        doc = load_json(f"{name}.json")
        setup = cli._load_setup(doc)
        Y = cli._point_set_from_task(doc["task"], setup)
        if setup.k == 1:
            degrees = [(i,) for i in range(4)]
        else:
            degrees = [(i, j) for i in range(4) for j in range(3)]
        seen = set()
        for alpha in degrees:
            mat = evaluation_matrix(Y, Degree(free=alpha), setup)[0]
            basis = row_space_basis(mat, setup.q)
            key = basis.tobytes()
            if not 1 <= basis.shape[0] <= 6 or key in seen:
                continue
            seen.add(key)
            assert minimum_distance(basis, setup.q) == (
                oracles.min_distance_by_messages(basis, setup.q)
            )
        assert seen

    @pytest.mark.parametrize("q, k", [(3, 5), (5, 4), (2, 6)])
    def test_search_refused_past_the_index_limit(self, monkeypatch, q, k):
        # a search of more projective messages than the index limit is
        # refused; at the limit itself it runs and matches the oracle
        rng = np.random.default_rng(q * k)
        basis = row_space_basis(rng.integers(0, q, size=(k, 12)), q)
        assert basis.shape[0] == k
        n_msgs = (q**k - 1) // (q - 1)
        monkeypatch.setattr(codes, "_INDEX_LIMIT", n_msgs - 1)
        with pytest.raises(CapExceededError):
            minimum_distance(basis, q)
        monkeypatch.setattr(codes, "_INDEX_LIMIT", n_msgs)
        assert minimum_distance(basis, q) == oracles.min_distance_by_messages(
            basis, q
        )

    def test_identity_63_over_f2_refused_at_once(self):
        # 2^63 - 1 projective messages: more than 2^62, refused before
        # any block is formed
        with pytest.raises(CapExceededError, match=r"\(2\^63 - 1\)/1"):
            minimum_distance(np.eye(63, dtype=np.int64), 2)

    @pytest.mark.parametrize("low", [0, 1, 2])
    @given(hst.sampled_from([2, 3, 5, 7, 11, 13]), hst.data())
    @settings(max_examples=60, deadline=None)
    def test_table_search_matches_the_message_loop(self, low, q, data):
        # the entry bound is set so that lead 0 tabulates at most `low`
        # tail digits (fewer where its head messages do not pay for the
        # table) and takes blocks of rows < q head messages, hence
        # several blocks per lead
        k = data.draw(hst.integers(low + 2, 5))
        n = data.draw(hst.integers(k, 30))
        rows = data.draw(hst.integers(1, q - 1))
        A = np.array(data.draw(hst.lists(
            hst.lists(hst.integers(0, q - 1), min_size=n, max_size=n),
            min_size=k, max_size=k,
        )), dtype=np.int64)
        A[:, data.draw(hst.lists(hst.integers(0, n - 1), max_size=n // 2))] = 0
        if data.draw(hst.booleans()):  # a weight-1 word: d = 1
            A[-1] = 0
            A[-1, data.draw(hst.integers(0, n - 1))] = 1
        basis = row_space_basis(A, q)
        assume(basis.shape[0] > 0)
        with mock.patch.object(codes, "SEARCH_ENTRIES", q**low * n * rows):
            d = minimum_distance(basis, q)
        assert d == oracles.min_distance_by_messages(basis, q)

    def test_long_code_against_the_table(self):
        # P^2 at q = 23: N = 484, and lead 0 tabulates its last tail row
        Y, setup = projective_torus(3, 23)
        basis = row_space_basis(evaluation_matrix(Y, Degree(free=(1,)), setup)[0], 23)
        assert basis.shape == (3, 484)
        assert 23 * 484 <= codes.SEARCH_ENTRIES
        assert minimum_distance(basis, 23) == 462
        assert oracles.min_distance_by_messages(basis, 23) == 462

    def test_no_tail_row_fits_the_table(self):
        # q N is over the entry bound, so no tail digit is tabulated and
        # the zeros of each word are counted
        q, N = 101, 700
        assert q * N > codes.SEARCH_ENTRIES
        basis = row_space_basis(np.random.default_rng(7).integers(0, q, (3, N)), q)
        assert basis.shape == (3, N)
        assert minimum_distance(basis, q) == oracles.min_distance_by_messages(
            basis, q
        )

    @pytest.mark.parametrize("basis, q", [
        ([[1, 2, 3], [2, 4, 6]], 7),  # dependent rows
        ([[7, 0, 14]], 7),  # a zero row mod q
        (np.zeros((0, 4), dtype=np.int64), 7),  # no rows
        ([1, 2, 3], 7),  # not a matrix
        ([[1, 0, 1], [0, 1, 1]], 8),  # composite q
        ([[1, 0, 1], [0, 1, 1]], 1),
    ])
    def test_bad_input_is_refused_before_the_search(self, basis, q):
        with mock.patch.object(codes, "_search", side_effect=AssertionError):
            with pytest.raises(ValidationError):
                minimum_distance(np.asarray(basis, dtype=np.int64), q)

    def test_entries_mod_q_and_the_field_cap(self):
        assert minimum_distance(np.array([[8, -1, 0, 7]]), 7) == 2
        # a field past the size cap is a cap, as for a problem document
        with pytest.raises(CapExceededError):
            minimum_distance(np.eye(2, dtype=np.int64), 1000003)

    @pytest.mark.parametrize("q, k, N", [
        (251, 3, 7),  # residues in uint8
        (257, 3, 7),  # q - 1 = 256: residues in uint16
        (65537, 2, 3),  # q - 1 = 2^16: uint32 residues, uint64 head words
    ])
    def test_residue_dtype_boundaries(self, q, k, N):
        basis = row_space_basis(np.random.default_rng(q).integers(0, q, (k, N)), q)
        assert basis.shape == (k, N)
        assert minimum_distance(basis, q) == oracles.min_distance_by_messages(
            basis, q
        )
        # the words (1, c, c - 1) weigh 2 at c = 0, 1 and 3 otherwise, and
        # (0, 1, 1) weighs 2; d = 1 would mean q - 1 was read as 0
        assert minimum_distance(np.array([[1, 0, q - 1], [0, 1, 1]]), q) == 2

    @pytest.mark.parametrize("N", [255, 256, 65535, 65536])
    @pytest.mark.parametrize("unit", [False, True])
    def test_zero_count_dtype_boundaries(self, N, unit):
        # zeros are counted in uint8 up to N = 255 and in uint16 up to
        # 2^16 - 1; a weight-1 word has N - 1 zeros
        q, k = (3, 3) if N < 2**16 - 1 else (2, 2)
        A = np.random.default_rng(N).integers(0, q, (k, N))
        if unit:
            A[-1] = 0
            A[-1, N // 2] = 1
        basis = row_space_basis(A, q)
        assert basis.shape == (k, N)
        d = minimum_distance(basis, q)
        assert d == oracles.min_distance_by_messages(basis, q)
        assert (d == 1) == unit

    @pytest.mark.parametrize("q, k, N, entries, axes", [
        (5, 3, 40, 400, (0, 1, 2)),  # N innermost
        (7, 3, 3, 42, (2, 0, 1)),  # N outermost, table rows innermost
        (13, 2, 4, 20, (2, 1, 0)),  # N outermost, head words innermost
    ])
    @pytest.mark.parametrize("seed", range(4))
    def test_compare_layouts_match_the_message_loop(self, q, k, N, entries,
                                                    axes, seed):
        # the entry bound gives lead 0 several spans or blocks in the
        # named memory order of the compare
        A = np.random.default_rng(seed).integers(0, q, (k, N))
        if seed == 3:  # a weight-1 word: d = 1
            A[-1] = 0
            A[-1, 0] = 1
        basis = row_space_basis(A, q)
        assert basis.shape == (k, N)
        used = []
        order = codes._memory_order

        def recording(*shape):
            used.append(order(*shape))
            return used[-1]

        with mock.patch.object(codes, "SEARCH_ENTRIES", entries), \
                mock.patch.object(codes, "_memory_order", recording):
            d = minimum_distance(basis, q)
        assert used[0] == axes
        assert d == oracles.min_distance_by_messages(basis, q)

    @pytest.mark.parametrize("s, q, t", (
        [(3, 3, t) for t in (1, 2, 3)]
        + [(3, q, t) for q in (5, 7, 11) for t in (1, 2)]
        + [(4, 3, t) for t in (1, 2, 3, 4)]
        + [(4, q, 1) for q in (5, 7, 11)]
        + [(5, 3, t) for t in (1, 2)]
        + [(5, q, 1) for q in (5, 7)]
        + [(3, 13, 2), (3, 97, 1)]
    ))
    def test_projective_torus_closed_form(self, s, q, t):
        Y, setup = projective_torus(s, q)
        cs = code_parameters(Y, Degree(free=(t,)), setup, compute_d=True)
        assert cs.N == (q - 1) ** (s - 1)
        assert cs.d == projective_torus_distance(s, q, t)


class TestOrbitSearch:
    """On a subgroup the distance search draws the first tail digit of each
    lead from one coset representative per orbit; d must not change."""

    @given(setups, hst.data())
    @settings(max_examples=120, deadline=None)
    def test_orbit_search_matches_the_message_loop(self, st, data):
        Y = draw_subgroup(st, data)
        if st.k == 2:
            alpha = Degree(free=(data.draw(hst.integers(-2, 8)),
                                 data.draw(hst.integers(0, 4))))
        else:
            alpha = Degree(free=(data.draw(hst.integers(0, 8)),))
        q = st.q
        k, _, generator, labels = codes._code(Y, alpha, st)
        assume(k >= 2)
        assert labels.shape == (k, len(Y.basis_reps))
        # any subset of the class rows spans a group code too: search the
        # first ones, as many as the message loop can take
        kk = max(j for j in range(2, k + 1) if (q**j - 1) // (q - 1) <= 3000)
        rows, labels = generator()[:kk], labels[:kk]
        # lead 0 tabulates `low` tail digits and takes blocks of `block`
        # head messages; the table always leaves the first tail digit,
        # the restricted one, to the head, here over one or more blocks
        low = data.draw(hst.integers(0, kk - 2))
        block = data.draw(hst.integers(1, q - 1))
        entries = q**low * len(Y) * block
        with mock.patch.object(codes, "SEARCH_ENTRIES", entries):
            d = codes._search(rows, q, labels, st.field._pow)
            if kk == k:
                assert code_parameters(Y, alpha, st, compute_d=True).d == d
        assert d == oracles.min_distance_by_messages(rows, q)

    def test_point_set_that_is_not_a_group_takes_the_plain_search(self, h2, y50):
        # half the points of a subgroup: no labels, so the first tail
        # digit runs over all of F_q
        P = PointSet(list(y50)[::2])
        assert not P.is_group
        alpha = Degree(free=(0, 1))
        k, _, generator, labels = codes._code(P, alpha, h2)
        assert labels is None and k == 4
        searched = []
        search = codes._search

        def recording(basis, q, labels=None, pows=None):
            searched.append(labels)
            return search(basis, q, labels, pows)

        with mock.patch.object(codes, "_search", recording):
            cs = code_parameters(P, alpha, h2, compute_d=True)
        assert searched == [None]
        assert cs.d == oracles.min_distance_by_messages(generator(), 11)


def no_elimination(*args):
    raise AssertionError("elimination on a subgroup")


class TestNoPointObjects:
    def test_codes_read_the_arrays(self, h2, monkeypatch):
        # k on a fresh subgroup reads its basis: no point is enumerated and
        # nothing is eliminated; evaluation reads the representative
        # array, and only iteration builds TorusPoint objects
        Y = degenerate_torus([2, 5, 4, 5], 10, h2)[0]
        built = []
        init = TorusPoint.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TorusPoint, "__init__", counting_init)
        monkeypatch.setattr(codes, "_echelon", no_elimination)
        alpha = Degree(free=(5, 10))
        assert len(Y) == 50
        assert Y == degenerate_torus([2, 5, 4, 5], 10, h2)[0]
        assert hilbert_function(Y, alpha, h2) == 50
        assert code_parameters(Y, alpha, h2).k == 50
        assert hilbert_table(Y, [5], [10], h2) == [[50]]
        assert "_arrays" not in vars(Y)
        assert evaluation_matrix(Y, alpha, h2)[0].shape == (176, 50)
        assert built == []
        assert len(list(Y)) == 50
        assert len(built) == 50

    def test_k_on_a_subgroup_eliminates_nothing(self, monkeypatch):
        # the q = 101 torus of H_2: 10^4 points, 861 monomials of degree
        # (20, 20), all in distinct classes
        monkeypatch.setattr(codes, "_echelon", no_elimination)
        st = make_h2(q=101)
        Y = all_torus_points(st)
        alpha = Degree(free=(20, 20))
        assert hilbert_function(Y, alpha, st) == 861
        cs = code_parameters(Y, alpha, st)
        assert (cs.N, cs.k, cs.d) == (10**4, 861, None)
        assert "_arrays" not in vars(Y)


class TestPointSetOfNoSubgroup:
    def test_rank_below_the_distinct_rows(self, h2):
        # I(Y) is a lattice ideal only if Y is a subgroup: on these two
        # points the 3 monomials of degree (2, 0) give 3 distinct
        # evaluation rows, but of rank 2
        Y = PointSet([oracles.identity_point(h2), point_from_rep([1, 0, 0, 0], h2)])
        assert not Y.is_group
        alpha = Degree(free=(2, 0))
        mat = evaluation_matrix(Y, alpha, h2)[0]
        assert mat.shape == (3, 2)
        assert len(np.unique(mat, axis=0)) == 3
        assert hilbert_function(Y, alpha, h2) == 2
        cs = code_parameters(Y, alpha, h2, compute_d=True)
        assert (cs.N, cs.k, cs.d) == (2, 2, 1)
