"""Prime-field arithmetic and discrete-log tables."""

import numpy as np
import pytest

import oracles
from conftest import make_h2
from torilat.errors import CapExceededError, ValidationError
from torilat.gfield import FIELD_SIZE_CAP, PrimeField, is_prime, primitive_root

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_is_prime_small_range():
    primes = {p for p in range(2, 60) if is_prime(p)}
    assert primes == {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}


def test_primitive_root_known_values():
    assert primitive_root(11) == 2
    assert primitive_root(7) == 3
    assert primitive_root(5) == 2
    assert primitive_root(3) == 2


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_primitive_root_has_full_order(q):
    g = primitive_root(q)
    seen = {pow(g, e, q) for e in range(q - 1)}
    assert len(seen) == q - 1


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_log_is_group_isomorphism(q):
    f = PrimeField(q)
    for x in range(1, q):
        assert f.eta_pow(oracles.discrete_log(f, x)) == x
        for y in range(1, q):
            assert (
                oracles.discrete_log(f, x * y % q)
                == (oracles.discrete_log(f, x) + oracles.discrete_log(f, y)) % (q - 1)
            )


@pytest.mark.parametrize(
    "q", [q for q in range(2, 200) if is_prime(q)] + [999983]
)
def test_power_table_matches_the_product_loop(q):
    # below 64 powers the table is the loop's; above, it doubles; the
    # tables are built when first read
    f = PrimeField(q)
    assert "_pow" not in vars(f) and "_log" not in vars(f)
    assert f._pow.dtype == np.int64
    assert f._pow.tolist() == oracles.powers_by_products(f)


def test_rejects_composite():
    with pytest.raises(ValidationError):
        PrimeField(9)
    with pytest.raises(ValidationError):
        primitive_root(1)


def test_log_of_zero_rejected():
    f = PrimeField(5)
    with pytest.raises(ValidationError):
        oracles.discrete_log(f, 0)


@pytest.mark.parametrize("q", [2**31 - 1, 1000003])
def test_field_size_cap_checked_before_the_tables(q):
    # both are primes above the cap; the check comes before trial
    # division and before any length-q table
    assert q > FIELD_SIZE_CAP
    with pytest.raises(CapExceededError):
        PrimeField(q)
    with pytest.raises(CapExceededError):
        make_h2(q=q)
