"""Arithmetic in the prime field F_q: power and discrete-log tables.

The primitive root eta is fixed per q as the smallest one, so every
exponent-space computation in the rest of the package is deterministic.
Each field builds its own power and log tables when they are first read;
q is desk scale (<= 10^6).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import CapExceededError, ValidationError

FIELD_SIZE_CAP = 10**6
# powers of eta computed one product at a time before the table doubles;
# at the smallest fields a numpy step costs more than the Python loop
_FIRST_POWERS = 64


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def primitive_root(q: int) -> int:
    """Smallest positive integer of multiplicative order q-1 in F_q."""
    if not is_prime(q):
        raise ValidationError(f"{q} is not prime")
    if q == 2:
        return 1
    order = q - 1
    checks = [order // p for p in _prime_factors(order)]
    for g in range(2, q):
        if all(pow(g, c, q) != 1 for c in checks):
            return g
    raise ValidationError(f"no primitive root found for q={q}")  # unreachable


class PrimeField:
    """F_q with a fixed primitive root; its power and discrete-log tables
    are built when first read."""

    def __init__(self, q: int):
        # checked before trial division and before any length-q table
        if q > FIELD_SIZE_CAP:
            raise CapExceededError(f"field size {q} exceeds cap {FIELD_SIZE_CAP}")
        if not is_prime(q):
            raise ValidationError(f"field size {q} is not prime")
        self.q = q
        self.eta = primitive_root(q)

    # int64 tables, so evaluation indexes them without a conversion; only
    # the tests' discrete_log and the benchmark's counter read _log
    @cached_property
    def _pow(self):
        """eta^e for 0 <= e < q-1: a first block by products, then by
        doubling: eta^{n+i} = eta^i eta^n for i < n, below q^2 <= 10^12
        before the reduction."""
        q = self.q
        table = np.empty(q - 1, dtype=np.int64)
        n = min(q - 1, _FIRST_POWERS)
        pows = [1] * n
        for i in range(1, n):
            pows[i] = pows[i - 1] * self.eta % q
        table[:n] = pows
        while n < q - 1:
            step = min(n, q - 1 - n)
            table[n : n + step] = table[:step] * pow(self.eta, n, q) % q
            n += step
        return table

    @cached_property
    def _log(self):
        """log_eta x for 0 < x < q; entry 0 is 0."""
        table = np.zeros(self.q, dtype=np.int64)
        table[self._pow] = np.arange(self.q - 1)
        return table

    def eta_pow(self, e: int) -> int:
        return int(self._pow[e % (self.q - 1)])

    def __repr__(self):
        return f"PrimeField(q={self.q}, eta={self.eta})"

