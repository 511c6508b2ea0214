import json
from pathlib import Path

import pytest

from torilat import intlin
from torilat.grading import ToricSetup, setup_from_beta

DATA = Path(__file__).parent / "data"

H2_CONES = [[0, 1], [1, 2], [2, 3], [3, 0]]


def load_json(name):
    with open(DATA / name) as fh:
        return json.load(fh)


def hirzebruch_rays(ell):
    return [[1, 0], [0, 1], [-1, ell], [0, -1]]


def make_h2(q=11, ell=2):
    """Hirzebruch surface with the conventional degree matrix
    [[1, -ell, 1, 0], [0, 1, 0, 1]]."""
    beta = [[1, -ell, 1, 0], [0, 1, 0, 1]]
    return ToricSetup(hirzebruch_rays(ell), beta, [], q, H2_CONES)


def make_p113(q=11):
    return setup_from_beta([[1, 1, 1, 3]], q)


@pytest.fixture(scope="session")
def h2():
    return make_h2()


@pytest.fixture(scope="session")
def p113():
    return make_p113()


def rows_to_lattice(rows, r):
    """JSON convention: lattice basis vectors as rows -> column matrix."""
    return intlin.transpose(rows) if rows else [[] for _ in range(r)]


def random_int_vector(rng, n, span=3):
    return [rng.randint(-span, span) for _ in range(n)]


def random_homogeneous_lattice(setup, rng, extra=2, span=3, contain_full=True):
    """Random sublattice of L_beta as a column matrix.

    With contain_full=True the lattice also contains (q-1) L_beta, which
    is exactly the condition under which it is the vanishing lattice of
    its own zero set.
    """
    phi = setup.phi
    cols = [
        intlin.mat_vec(phi, random_int_vector(rng, setup.n, span))
        for _ in range(extra)
    ]
    if contain_full:
        cols += [[(setup.q - 1) * x for x in c] for c in intlin.columns(phi)]
    cols = [c for c in cols if any(c)]
    if not cols:
        cols = [[(setup.q - 1) * x for x in intlin.columns(phi)[0]]]
    return intlin.from_columns(cols, setup.r)
