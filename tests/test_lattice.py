"""Lattice ideals: parameterization, degenerate lattices, CI decisions,
torus/point ideals, coset-counting Hilbert oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from conftest import make_h2, make_p113, rows_to_lattice
from torilat import intlin, lattice
from torilat.errors import CapExceededError, ValidationError
from torilat.grading import Degree, ToricSetup, setup_from_beta
from torilat.intlin import sign_normalize
from torilat.lattice import (
    Binomial,
    complete_intersection,
    degenerate_lattice,
    hilbert_of_lattice,
    is_dominating,
    is_mixed,
    lattice_ideal_generators,
    parameterize_zero_set,
    point_ideal,
    torus_ideal,
)
from torilat.torus import (
    all_torus_points,
    degenerate_torus,
    point_from_rep,
    points_from_parameterization,
    vanishing_lattice,
    zero_set_in_torus,
)

PUBLISHED_L_ROWS = [[10, 0, -10, 0], [0, 5, 10, -5]]
PUBLISHED_A = [[0, 1, 0, 1], [1, 0, 0, 0], [0, 2, -1, 0], [-1, 0, -1, 0]]


class TestBinomial:
    def test_text_rendering(self):
        assert Binomial(m=(5, 0, -5, 0)).text() == "x1^5 - x3^5"
        assert Binomial(m=(20, 10, 0, -10)).text() == "x1^20*x2^10 - x4^10"
        assert Binomial(m=(1, 0, 0, -1), scale=3).text() == "x1 - 3*x4"

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            Binomial(m=(0, 0))

    def test_sign_normalize(self):
        assert sign_normalize([-1, 2, 0]) == (1, -2, 0)
        assert sign_normalize([0, 3, -1]) == (0, 3, -1)


class TestParameterize:
    def test_point_set_contract_h2(self, h2):
        L = rows_to_lattice(PUBLISHED_L_ROWS, 4)
        A = parameterize_zero_set(L, h2)
        Y_param = points_from_parameterization(
            intlin.transpose(A), h2.q - 1, h2
        )
        Y_direct = zero_set_in_torus(L, h2)
        assert Y_param == Y_direct

    def test_matches_published_parameterization(self, h2):
        # rows of the published matrix are the generator exponent vectors
        L = rows_to_lattice(PUBLISHED_L_ROWS, 4)
        A = parameterize_zero_set(L, h2)
        Y_param = points_from_parameterization(
            intlin.transpose(A), h2.q - 1, h2
        )
        Y_published = points_from_parameterization(PUBLISHED_A, h2.q - 1, h2)
        assert Y_param == Y_published

    def test_point_set_contract_p113(self, p113):
        L = rows_to_lattice(PUBLISHED_L_ROWS, 4)
        A = parameterize_zero_set(L, p113)
        Y_param = points_from_parameterization(
            intlin.transpose(A), p113.q - 1, p113
        )
        assert Y_param == zero_set_in_torus(L, p113)

    def test_empty_lattice_gives_identity_matrix(self, h2):
        A = parameterize_zero_set([[], [], [], []], h2)
        assert A == intlin.identity(4)

    def test_inhomogeneous_rejected(self, h2):
        with pytest.raises(ValidationError):
            parameterize_zero_set(rows_to_lattice([[1, 0, 0, 0]], 4), h2)


class TestDegenerateLattice:
    def test_a2455(self, h2):
        res = degenerate_lattice([2, 5, 4, 5], 10, h2)
        assert res.D == [5, 2, 5, 2]
        published = rows_to_lattice([[-5, 0, 5, 0], [20, 10, 0, -10]], 4)
        assert intlin.lattice_equal(res.L, published)
        assert [b.text() for b in lattice_ideal_generators(res.L)] == [
            "x1^5 - x3^5", "x1^20*x2^10 - x4^10"]

    def test_a5254(self, h2):
        res = degenerate_lattice([5, 2, 5, 4], 10, h2)
        assert res.D == [2, 5, 2, 5]
        assert [b.text() for b in lattice_ideal_generators(res.L)] == [
            "x1^2 - x3^2", "x1^10*x2^5 - x4^5"]

    def test_generators_vanish_on_the_torus_points(self, h2):
        from torilat.torus import degenerate_torus

        for a in ([2, 5, 4, 5], [5, 2, 5, 4]):
            res = degenerate_lattice(a, 10, h2)
            Y, _ = degenerate_torus(a, 10, h2)
            for b in lattice_ideal_generators(res.L):
                assert all(oracles.binomial_value(b, p, h2) == 0 for p in Y)

    def test_builds_no_binomials(self, h2, monkeypatch):
        # L is the answer; its binomials are built only where they are used
        cases = [([2, 5, 4, 5], 10), ([5, 2, 5, 4], 10), ([1, 1, 1, 1], 1)]
        before = [degenerate_lattice(a, h, h2) for a, h in cases]

        def refuse(L):
            raise AssertionError("degenerate_lattice built the binomials")

        monkeypatch.setattr(lattice, "lattice_ideal_generators", refuse)
        assert [degenerate_lattice(a, h, h2) for a, h in cases] == before

    def test_trivial_subgroup(self, h2):
        # h = 1 collapses to the identity point: L = L_beta itself
        res = degenerate_lattice([1, 1, 1, 1], 1, h2)
        assert res.D == [1, 1, 1, 1]
        assert intlin.lattice_equal(res.L, h2.phi)

    def test_no_beta_rows(self):
        # with no degree rows ker(beta D) is Z^r, so L = D Z^r = 6 Z^2
        st = ToricSetup([[1, 0], [0, 1]], [], [], 7)
        res = degenerate_lattice([1, 1], 6, st)
        assert res.L == [[0, 6], [6, 0]]
        assert [b.text() for b in lattice_ideal_generators(res.L)] == [
            "x2^6 - 1", "x1^6 - 1"]
        Y, _ = degenerate_torus([1, 1], 6, st)
        assert intlin.lattice_equal(res.L, vanishing_lattice(Y, st))


@pytest.mark.parametrize("check", [
    complete_intersection,
    lambda L, st: hilbert_of_lattice(L, Degree(free=(1, 1)), st),
], ids=["complete_intersection", "hilbert_of_lattice"])
def test_inhomogeneous_lattice_rejected(h2, check):
    # e_1 has degree (1, 0) on H_2
    with pytest.raises(ValidationError, match="lattice is not homogeneous"):
        check(rows_to_lattice([[1, 0, 0, 0]], 4), h2)


class TestMixedDominating:
    def test_published_8x2_matrix(self):
        rows = [[0, 1], [1, 1], [1, 0], [1, -1], [0, -1], [-1, -1], [-1, 0], [-1, 1]]
        assert is_mixed(rows)
        assert not is_dominating(rows)

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_hirzebruch_kernels_are_mixed_dominating(self, ell):
        st = make_h2(ell=ell)
        gamma = st.phi
        assert is_mixed(gamma)
        assert is_dominating(gamma)

    def test_not_mixed(self):
        assert not is_mixed([[1, 1], [1, -1]])

    def test_empty_matrix_is_vacuously_ci(self):
        assert is_mixed([[], []])
        assert is_dominating([[], []])

    @given(hst.integers(1, 7).flatmap(
        lambda m: hst.lists(
            hst.lists(hst.integers(-2, 2), min_size=m, max_size=m),
            min_size=0, max_size=7,
        ).map(lambda cols: [list(r) for r in zip(*cols)] if cols else [[]] * m)
    ))
    @settings(max_examples=400, deadline=None)
    def test_row_subsets_match_the_submatrix_scan(self, gamma):
        # m x n with m, n <= 7, built from its columns; n = 0 included
        assert is_dominating(gamma) == oracles.is_dominating_by_submatrices(gamma)

    def test_subset_cap(self, monkeypatch):
        # the 12 x 11 incidence matrix of a directed path is dominating and
        # tests every row subset of sizes 2..11: 2^12 - 1 - 12 - 1 = 4082
        path = [[(i == j) - (i == j + 1) for j in range(11)] for i in range(12)]
        monkeypatch.setattr(lattice, "DOMINATING_SUBSET_CAP", 4081)
        with pytest.raises(CapExceededError):
            is_dominating(path)
        monkeypatch.setattr(lattice, "DOMINATING_SUBSET_CAP", 4082)
        assert is_dominating(path)
        # columns of one sign are never mixed on a subset and add no level
        assert is_dominating([row + [1, 0, -1] for row in path])
        # a witness on rows {0, 1} is found before the cap is reached
        path[0][1] = -1
        monkeypatch.setattr(lattice, "DOMINATING_SUBSET_CAP", 66)
        assert not is_dominating(path)

    def test_ci_verdicts(self, h2):
        for a in ([2, 5, 4, 5], [5, 2, 5, 4]):
            res = degenerate_lattice(a, 10, h2)
            assert complete_intersection(res.L, h2)

    def test_false_is_no_proof_of_the_contrary(self):
        # the Hermite basis of this degenerate lattice on P^3 is not mixed
        # dominating, but another basis of the same lattice is, so I_L is
        # a complete intersection all the same
        st = setup_from_beta([[1, 1, 1, 1]], 7)
        L = degenerate_lattice([1, 2, 2, 1], 6, st).L
        assert not complete_intersection(L, st)
        other = intlin.from_columns(
            [[0, 3, -3, 0], [6, 0, 0, -6], [0, 0, 6, -6]], 4)
        assert intlin.lattice_equal(L, other)
        assert is_mixed(other) and is_dominating(other)

    def test_ci_requires_pointed_grading_when_certifying(self):
        from torilat.grading import ToricSetup

        st = ToricSetup([[1], [1]], [[1, -1]], [], 5)
        with pytest.raises(ValidationError):
            complete_intersection([[1], [1]], st)


class TestTorusIdeal:
    @pytest.mark.parametrize("q", [3, 5, 7, 11])
    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_generator_shapes(self, q, ell):
        st = make_h2(q=q, ell=ell)
        texts = [b.text() for b in torus_ideal(st)]
        e = q - 1
        assert texts == [
            f"x1^{e} - x3^{e}",
            f"x2^{e}*x3^{ell * e} - x4^{e}",
        ]

    @pytest.mark.parametrize("q", [3, 5, 7, 11])
    def test_generators_vanish_on_whole_torus(self, q):
        st = make_h2(q=q)
        pts = all_torus_points(st)
        assert len(pts) == (q - 1) ** 2
        for b in torus_ideal(st):
            assert all(oracles.binomial_value(b, p, st) == 0 for p in pts)


class TestPointIdeal:
    def test_vanishes_at_the_point(self, h2):
        rng = random.Random(23)
        for _ in range(20):
            P = point_from_rep([rng.randrange(10) for _ in range(4)], h2)
            for b in point_ideal(P, h2):
                assert oracles.binomial_value(b, P, h2) == 0

    def test_separates_points(self, h2):
        pts = list(all_torus_points(h2))
        P = pts[37]
        gens = point_ideal(P, h2)
        for Q in pts:
            if Q == P:
                continue
            assert any(oracles.binomial_value(b, Q, h2) != 0 for b in gens)

    def test_scale_is_representative_independent(self, h2):
        s = [3, 1, 4, 1]
        shift = intlin.mat_vec(intlin.transpose(h2.beta_free), [2, 7])
        s2 = [(a + b) % 10 for a, b in zip(s, shift)]
        g1 = point_ideal(point_from_rep(s, h2), h2)
        g2 = point_ideal(point_from_rep(s2, h2), h2)
        assert [(b.m, b.scale) for b in g1] == [(b.m, b.scale) for b in g2]


class TestHilbertOracle:
    def test_desk_anchors(self, h2):
        L = degenerate_lattice([5, 2, 5, 4], 10, h2).L
        assert hilbert_of_lattice(L, Degree(free=(0, 1)), h2) == 3
        assert hilbert_of_lattice(L, Degree(free=(-5, 5)), h2) == 6

    def test_order50_length_anchor(self, h2):
        L = degenerate_lattice([2, 5, 4, 5], 10, h2).L
        assert hilbert_of_lattice(L, Degree(free=(5, 10)), h2) == 50

    def test_zero_lattice_counts_monomials(self, h2, p113):
        # an r x 0 basis reduces nothing: every monomial is its own class,
        # also in a degree that has no monomials at all
        from torilat.grading import monomial_basis

        for setup, degrees in ((h2, [(0, 1), (5, 10), (0, -1)]),
                               (p113, [(4,), (7,), (-1,)])):
            empty = [[] for _ in range(setup.r)]
            counts = []
            for free in degrees:
                alpha = Degree(free=free)
                counts.append(len(monomial_basis(alpha, setup)))
                assert hilbert_of_lattice(empty, alpha, setup) == counts[-1]
            assert counts[-1] == 0 < min(counts[:-1])


class TestGenerators:
    def test_dependent_basis_rejected(self, h2):
        L = rows_to_lattice([[10, 0, -10, 0], [20, 0, -20, 0]], 4)
        with pytest.raises(ValidationError):
            lattice_ideal_generators(L)

    def test_builders_return_tuples_of_binomials(self, h2):
        P = point_from_rep([1, 2, 3, 4], h2)
        for gens in (lattice_ideal_generators(h2.phi), torus_ideal(h2),
                     point_ideal(P, h2)):
            assert type(gens) is tuple and len(gens) == 2
            assert all(type(b) is Binomial for b in gens)

    def test_sign_normalized_output(self):
        gens = lattice_ideal_generators([[-2], [0], [2], [0]])
        assert [b.text() for b in gens] == ["x1^2 - x3^2"]
