"""Arithmetic in the prime field F_q: power and discrete-log tables.

The primitive root eta is fixed per q as the smallest one, so every
exponent-space computation in the rest of the package is deterministic.
Each field builds its own power and log tables; q is desk scale
(<= 10^6).
"""

from __future__ import annotations

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
    """F_q with a fixed primitive root and a full discrete-log table."""

    def __init__(self, q: int):
        # checked before trial division and the length-q tables
        if q > FIELD_SIZE_CAP:
            raise CapExceededError(f"field size {q} exceeds cap {FIELD_SIZE_CAP}")
        if not is_prime(q):
            raise ValidationError(f"field size {q} is not prime")
        self.q = q
        self.eta = primitive_root(q)
        # int64 tables, so evaluation indexes them without a conversion;
        # only the tests' discrete_log and the benchmark's counter read _log
        self._pow = np.empty(q - 1, dtype=np.int64)
        # a first block by products, then by doubling: eta^{n+i} =
        # eta^i eta^n for i < n, below q^2 <= 10^12 before the reduction
        n = min(q - 1, _FIRST_POWERS)
        pows = [1] * n
        for i in range(1, n):
            pows[i] = pows[i - 1] * self.eta % q
        self._pow[:n] = pows
        while n < q - 1:
            step = min(n, q - 1 - n)
            self._pow[n : n + step] = self._pow[:step] * pow(self.eta, n, q) % q
            n += step
        self._log = np.zeros(q, dtype=np.int64)
        self._log[self._pow] = np.arange(q - 1)

    def eta_pow(self, e: int) -> int:
        return int(self._pow[e % (self.q - 1)])

    def __repr__(self):
        return f"PrimeField(q={self.q}, eta={self.eta})"

