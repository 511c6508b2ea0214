"""End-to-end acceptance suite.

Ten criteria, one test each; every test prints a single PASS/FAIL line
(visible with pytest -s / in captured output) in addition to the usual
pytest verdict.
"""

import random
from math import gcd

import oracles
from conftest import (
    load_json,
    make_h2,
    make_p113,
    random_homogeneous_lattice,
    rows_to_lattice,
)
from oracles import degree_leq, injectivity_certified
from torilat import intlin
from torilat.codes import hilbert_function, hilbert_table, injectivity_exact
from torilat.grading import Degree, degree_of, monomial_basis
from torilat.lattice import (
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
    group_structure,
    point_from_rep,
    points_from_parameterization,
    subgroup_closure,
    zero_set_in_torus,
)

PUBLISHED_L_ROWS = [[10, 0, -10, 0], [0, 5, 10, -5]]
PUBLISHED_A = [[0, 1, 0, 1], [1, 0, 0, 0], [0, 2, -1, 0], [-1, 0, -1, 0]]


def report(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_parameterization_h2():
    st = make_h2()
    L = rows_to_lattice(PUBLISHED_L_ROWS, 4)
    A = parameterize_zero_set(L, st)
    Y_param = points_from_parameterization(intlin.transpose(A), 10, st)
    Y_direct = zero_set_in_torus(L, st)
    Y_published = points_from_parameterization(PUBLISHED_A, 10, st)
    ok = Y_param == Y_direct == Y_published
    report(1, "Hirzebruch parameterization matches the zero set", ok)


def test_criterion_02_parameterization_weighted():
    st = make_p113()
    displayed = intlin.transpose([[1, -1, 0, 0], [-1, 0, 1, 0], [0, 3, 0, -1]])
    kernel_ok = intlin.lattice_equal(
        intlin.integer_kernel([[1, 1, 1, 3]]), displayed
    )
    L = rows_to_lattice(PUBLISHED_L_ROWS, 4)
    A = parameterize_zero_set(L, st)
    Y_param = points_from_parameterization(intlin.transpose(A), 10, st)
    contract_ok = Y_param == zero_set_in_torus(L, st)
    report(2, "weighted P(1,1,1,3) kernel and parameterization", kernel_ok and contract_ok)


def test_criterion_03_degenerate_lattices():
    st = make_h2()
    res = degenerate_lattice([2, 5, 4, 5], 10, st)
    published = rows_to_lattice([[-5, 0, 5, 0], [20, 10, 0, -10]], 4)
    ok = (
        res.D == [5, 2, 5, 2]
        and intlin.lattice_equal(res.L, published)
        and [b.text() for b in lattice_ideal_generators(res.L)]
        == ["x1^5 - x3^5", "x1^20*x2^10 - x4^10"]
    )
    from torilat.lattice import complete_intersection

    ok = ok and complete_intersection(res.L, st)
    res2 = degenerate_lattice([5, 2, 5, 4], 10, st)
    ok = (
        ok
        and [b.text() for b in lattice_ideal_generators(res2.L)]
        == ["x1^2 - x3^2", "x1^10*x2^5 - x4^5"]
        and complete_intersection(res2.L, st)
    )
    report(3, "degenerate-torus lattices, generators and CI verdicts", ok)


def test_criterion_04_orders():
    st = make_h2()
    ok = len(degenerate_torus([2, 5, 4, 5], 10, st)[0]) == 50
    ok = ok and len(degenerate_torus([5, 2, 5, 4], 10, st)[0]) == 10
    rng = random.Random(404)
    setups = {q: make_h2(q=q) for q in (5, 7, 11)}
    count = 0
    while count < 100 and ok:
        q = rng.choice([5, 7, 11])
        stq = setups[q]
        h = rng.choice([d for d in range(1, q) if (q - 1) % d == 0])
        a = [rng.randint(1, q - 1) for _ in range(4)]
        d = [h // gcd(h, ai) for ai in a]
        if not all(
            gcd(d[i], d[j]) == 1 for i in range(4) for j in range(i + 1, 4)
        ):
            continue
        Y, predicted = degenerate_torus(a, h, stq)
        expected = d[0] * d[1] * d[2] * d[3]
        ok = ok and predicted == expected and len(Y) == expected
        count += 1
    report(4, "degenerate-torus orders and the coprime product formula", ok)


def test_criterion_05_hilbert_values():
    st = make_h2()
    Y50, _ = degenerate_torus([2, 5, 4, 5], 10, st)
    ok = hilbert_function(Y50, Degree(free=(5, 10)), st) == 50
    Y10, _ = degenerate_torus([5, 2, 5, 4], 10, st)
    fixture = load_json("hilbert_table_6x18.json")
    grid = hilbert_table(
        Y10, fixture["alpha1_values"], fixture["alpha2_values"], st
    )
    ok = ok and grid == fixture["grid"]
    L10 = degenerate_lattice([5, 2, 5, 4], 10, st).L
    ok = ok and hilbert_of_lattice(L10, Degree(free=(-5, 5)), st) == 6
    ok = ok and hilbert_of_lattice(L10, Degree(free=(0, 1)), st) == 3
    report(5, "Hilbert anchors and the published 6x18 table", ok)


def test_criterion_06_oracle_equivalence():
    rng = random.Random(606)
    ok = True

    def agree(st, L, Y, alphas):
        for alpha in alphas:
            if hilbert_function(Y, alpha, st) != hilbert_of_lattice(L, alpha, st):
                return False
        return True

    # the two published cases over the full grid
    st11 = make_h2()
    grid_alphas = [
        Degree(free=(i, j)) for i in range(-5, 13) for j in range(5, -1, -1)
    ]
    for a in ([2, 5, 4, 5], [5, 2, 5, 4]):
        Y, _ = degenerate_torus(a, 10, st11)
        L = degenerate_lattice(a, 10, st11).L
        ok = ok and agree(st11, L, Y, grid_alphas)

    # 25 random homogeneous lattices on Hirzebruch setups
    h2_setups = {q: make_h2(q=q) for q in (3, 5, 7, 11)}
    small_grid = [
        Degree(free=(i, j)) for i in range(-3, 6) for j in range(0, 4)
    ]
    for _ in range(25):
        st = h2_setups[rng.choice([3, 5, 7, 11])]
        L = random_homogeneous_lattice(st, rng, contain_full=True)
        Y = zero_set_in_torus(L, st)
        ok = ok and agree(st, L, Y, small_grid)

    # 25 random homogeneous lattices on the weighted surface; its grading
    # has rank 1, so the grid is a degree interval
    p_setups = {q: make_p113(q=q) for q in (3, 5, 7, 11)}
    line_grid = [Degree(free=(i,)) for i in range(-2, 10)]
    for _ in range(25):
        st = p_setups[rng.choice([3, 5, 7, 11])]
        L = random_homogeneous_lattice(st, rng, contain_full=True)
        Y = zero_set_in_torus(L, st)
        ok = ok and agree(st, L, Y, line_grid)

    report(6, "rank oracle equals coset-count oracle on all tested degrees", ok)


def test_criterion_07_ci_criterion():
    ok = True
    for ell in (1, 2, 3, 4, 5):
        st = make_h2(ell=ell)
        gamma = st.phi
        ok = ok and is_mixed(gamma) and is_dominating(gamma)
    rows = [[0, 1], [1, 1], [1, 0], [1, -1], [0, -1], [-1, -1], [-1, 0], [-1, 1]]
    ok = ok and is_mixed(rows) and not is_dominating(rows)
    for q in (3, 5, 7, 11):
        for ell in (1, 2, 3, 4, 5):
            st = make_h2(q=q, ell=ell)
            e = q - 1
            gens = torus_ideal(st)
            ok = ok and [b.text() for b in gens] == [
                f"x1^{e} - x3^{e}",
                f"x2^{e}*x3^{ell * e} - x4^{e}",
            ]
            pts = all_torus_points(st)
            ok = ok and len(pts) == e * e
            for b in gens:
                ok = ok and all(oracles.binomial_value(b, p, st) == 0 for p in pts)
    report(7, "mixed-dominating verdicts and torus ideal generators", ok)


def test_criterion_08_subgroup_lattice_correspondence():
    rng = random.Random(808)
    ok = True
    setups = [make_h2(q=q) for q in (5, 7, 11)] + [
        make_p113(q=q) for q in (5, 7, 11)
    ]
    for i in range(50):
        st = setups[i % len(setups)]
        L = random_homogeneous_lattice(st, rng, contain_full=False)
        Y = zero_set_in_torus(L, st)
        qm = st.q - 1
        canons = {p.canon for p in Y}
        ok = ok and oracles.identity_point(st).canon in canons
        closed = all(
            tuple((x + y) % qm for x, y in zip(p.canon, s.canon)) in canons
            for p in Y
            for s in Y
        )
        ok = ok and closed
    for i in range(50):
        st = setups[i % len(setups)]
        gens = [
            point_from_rep([rng.randrange(st.q - 1) for _ in range(st.r)], st)
            for _ in range(rng.randint(1, 2))
        ]
        Y = subgroup_closure(gens, st)
        gs = group_structure(Y, st)
        ok = ok and points_from_parameterization(gs.Q, gs.h, st) == Y
    report(8, "zero sets are subgroups; structure round-trip is exact", ok)


def test_criterion_09_injectivity():
    # NOTE (amended criterion): the published degree bound
    # "alpha <= sum d_i beta_i implies injective evaluation" is false in
    # general; tests/test_codes.py freezes a counterexample
    # (a = (2,10,7,4), h = 2, alpha = (-2,2)).  The anchor case below is
    # kept verbatim; the random sweep additionally requires the provable
    # sufficient condition (no d_i beta_i precedes alpha).
    st = make_h2()
    Y10, _ = degenerate_torus([5, 2, 5, 4], 10, st)
    alpha = Degree(free=(1, 0))
    ok = degree_leq(alpha, degree_of([2, 5, 2, 5], st), st)
    ok = ok and hilbert_function(Y10, alpha, st) == len(monomial_basis(alpha, st)) == 2

    rng = random.Random(909)
    found = 0
    while found < 20:
        a = [rng.randint(1, 10) for _ in range(4)]
        h = rng.choice([1, 2, 5, 10])
        dd = [h // gcd(h, ai) for ai in a]
        b = degree_of(dd, st)
        c = [rng.randint(0, 2) for _ in range(4)]
        alpha_r = degree_of(c, st)
        if not degree_leq(alpha_r, b, st):
            continue
        if not injectivity_certified(a, h, alpha_r, st):
            continue
        Y, _ = degenerate_torus(a, h, st)
        ok = ok and hilbert_function(Y, alpha_r, st) == len(
            monomial_basis(alpha_r, st)
        )
        ok = ok and injectivity_exact(a, h, alpha_r, st)
        found += 1
    report(9, "injective-evaluation regime gives k = dim S_alpha (amended)", ok)


def test_criterion_10_point_ideals():
    st = make_h2()
    rng = random.Random(1010)
    pts = list(all_torus_points(st))
    ok = True
    for _ in range(50):
        s = [rng.randrange(10) for _ in range(4)]
        P = point_from_rep(s, st)
        gens = point_ideal(P, st)
        ok = ok and all(oracles.binomial_value(b, P, st) == 0 for b in gens)
        # another representative of the same point gives identical scales
        shift = intlin.mat_vec(
            intlin.transpose(st.beta_free), [rng.randrange(10), rng.randrange(10)]
        )
        s2 = [(x + y) % 10 for x, y in zip(s, shift)]
        gens2 = point_ideal(point_from_rep(s2, st), st)
        ok = ok and [(b.m, b.scale) for b in gens] == [
            (b.m, b.scale) for b in gens2
        ]
        for Q in pts:
            if Q == P:
                continue
            ok = ok and any(oracles.binomial_value(b, Q, st) != 0 for b in gens)
    report(10, "point ideals vanish only at their point", ok)
