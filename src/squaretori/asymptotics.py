"""Asymptotics of the cyclic proportion among square-tiled tori.

The proportion rho(n) = psi(n)/sigma(n) always lies in [6/pi^2, 1], is 1
exactly on the square-free integers, and dips toward 6/pi^2 = 1/zeta(2)
along powered primorials. In the mean the cyclic count is 1/zeta(4) of
the total: sum(psi)/sum(sigma) -> 90/pi^4. This module holds the zeta
constants, the exact ratio, the extremal sequence as an Euler product,
the exact mean-order sums and the census sweep over the prime-power sieve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Iterator, NamedTuple

from .arith import (
    MultiplicativeSieve,
    PrimeFactorization,
    _sieve_block,
    _sieve_domain,
    _word,
    dedekind_psi,
    is_prime,
    sieve_multiplicative,
    sigma,
)


_Z2, _Z4 = math.pi**2 / 6, math.pi**4 / 90  # closed forms of zeta(2), zeta(4)
INV_ZETA2 = 1 / _Z2  # the liminf of rho(n)
INV_ZETA4 = 1 / _Z4  # the limit of sum psi / sum sigma
ZETA2_OVER_ZETA4 = _Z2 / _Z4  # sum of 1/d^2 over square-free d; not 15/pi^2 bitwise


@dataclass(frozen=True)
class RatioValue:
    """psi(n)/sigma(n) with its exact integer numerator and denominator."""

    psi: int
    sigma: int
    value: float = field(init=False)  # psi / sigma in binary64

    def __post_init__(self) -> None:
        object.__setattr__(self, "psi", _word(self.psi, "psi"))
        object.__setattr__(self, "sigma", _word(self.sigma, "sigma"))
        if self.sigma < self.psi:
            raise ValueError("need psi <= sigma")
        object.__setattr__(self, "value", self.psi / self.sigma)


def rho(f: PrimeFactorization) -> RatioValue:
    """Cyclic proportion at n from exact psi and sigma."""
    return RatioValue(dedekind_psi(f), sigma(f))


_PRIMES = tuple(islice(filter(is_prime, count(2)), 50))  # bounds the extremal k


def extremal_sequence_rho(k: int) -> float:
    """rho along the extremal sequence: first k primes, each to the k-th power.

    These are the k-th powers of primorials; their ratio decreases toward
    1/zeta(2) as k grows. The integer overflows 64 bits from k = 6 on, so
    the ratio is the Euler product of (1 - p^-2) / (1 - p^-(k+1)). Once
    p^(k+1) passes 2^54 the divisor rounds to exactly 1.0.
    """
    if (k := _word(k, "k")) > len(_PRIMES):  # floats raise TypeError, k < 1 ValueError
        raise ValueError(f"k must be in [1, {len(_PRIMES)}], got {k}")
    value = 1.0
    for p in _PRIMES[:k]:
        value *= 1.0 - 1.0 / (p * p)
        value /= 1.0 - 1.0 / float(p) ** (k + 1)
    return value


class MeanOrderSums(NamedTuple):
    """psi and sigma summed exactly over 1..limit, and their ratio."""

    cum_psi: int
    cum_sigma: int
    cum_ratio: float


def _sigma_sum(x: int) -> int:
    """sigma(1) + ... + sigma(x), the sum of k over the pairs k * m <= x."""
    r = math.isqrt(x)  # each pair has k <= r or m <= r (Dirichlet's hyperbola)
    total = -r * (r * (r + 1) // 2)  # pairs with k, m <= r come twice: their k sum
    for k in range(1, r + 1):
        q = x // k
        total += k * q + q * (q + 1) // 2  # the pairs (k, m <= q), then (m <= q, k)
    return total


def partial_sums(limit: int, sieve: MultiplicativeSieve | None = None) -> MeanOrderSums:
    """psi and sigma summed exactly over 1..limit, and their ratio.

    cum_psi/cum_sigma converges to 1/zeta(4) with an O(log(limit)/limit) error.
    As psi's Dirichlet series is zeta(s)zeta(s-1)/zeta(2s), cum_psi sums
    mu(d) * cum_sigma(limit // d^2) over d <= sqrt(limit). `sieve` is ignored.
    """
    limit, primes = _sieve_domain(limit)  # until a command of its own widens it
    r = math.isqrt(limit)
    mu = [0] + [1] * r  # mu[d] for d <= r; index 0 is padding
    for p in primes:
        mu[p::p] = [-m for m in mu[p::p]]
        mu[p * p :: p * p] = [0] * (r // (p * p))
    cum_psi = sum(m * _sigma_sum(limit // (d * d)) for d, m in enumerate(mu) if m)
    cum_sigma = _sigma_sum(limit)
    return MeanOrderSums(cum_psi, cum_sigma, cum_psi / cum_sigma)


# Rows per sieved block of a sweep, two int64 columns (1 MB), and terms per
# float64 leaf of qd2_partial_sum (512 KB); each holds one at a time.
_BLOCK = 2**16


def sweep_stream(limit: int) -> Iterator[tuple]:
    """All census rows 1..limit in order, sieved in blocks of _BLOCK rows.

    Each row is a plain tuple (n, psi, sigma, rho, cum_psi, cum_sigma,
    cum_ratio) of exact Python ints and floats, and row[4:] equals
    partial_sums(n). The first block is sieved at the call, so a bad limit,
    the budget and its failed allocation are refused before the first row.
    Each later block is sieved when its first row is asked for, after the
    one before is freed.
    """
    limit, primes = _sieve_domain(limit)
    block = _BLOCK
    sv = sieve_multiplicative(min(limit, block))

    def generate(lo, psi, sig) -> Iterator[tuple]:
        # the block comes in as arguments: a closure over sv would keep it alive
        cum_psi = cum_sigma = 0
        while True:
            # a memoryview hands out one Python int per int64 entry and buffers none
            for n, p, s in zip(count(lo), memoryview(psi), memoryview(sig)):
                cum_psi += p
                cum_sigma += s
                yield n, p, s, p / s, cum_psi, cum_sigma, cum_psi / cum_sigma
            lo += len(psi)
            del psi, sig  # freed before the next block is sieved
            if lo > limit:
                return
            psi, sig = _sieve_block(lo, min(lo + block, limit + 1), primes)

    return generate(1, sv.psi[1:], sv.sigma[1:])


def _qd2_sum(squarefree, lo: int, n: int) -> float:
    """squarefree[d] / d^2 summed over d in [lo, lo + n); see qd2_partial_sum."""
    if n > _BLOCK:  # numpy's own split of a pairwise float64 sum of n > 128 terms
        h = n // 2 - (n // 2) % 8
        return _qd2_sum(squarefree, lo, h) + _qd2_sum(squarefree, lo + h, n - h)
    import numpy as np

    d = np.arange(lo, lo + n, dtype=np.float64)
    d *= d
    return float(np.divide(squarefree[lo : lo + n], d, out=d).sum())  # in d's buffer


def qd2_partial_sum(limit: int, sieve: MultiplicativeSieve | None = None) -> float:
    """Partial sum of 1/d^2 over square-free d <= limit; `sieve` is ignored.

    Converges to zeta(2)/zeta(4) = 15/pi^2, with an omitted tail below 1/limit.
    Holds a 1-byte mask per d and one float64 leaf of _BLOCK terms: numpy sums
    n > 128 float64 terms as its first h = n//2 - (n//2) % 8 plus the rest, so
    leaves split there match its one-array sum bit for bit. A closure in place
    of _qd2_sum would keep its masks alive in a reference cycle until gc ran.
    """
    limit, primes = _sieve_domain(limit)
    import numpy as np

    squarefree = np.ones(limit + 1, dtype=bool)
    for p in primes:
        squarefree[p * p :: p * p] = False
    return _qd2_sum(squarefree, 1, limit)
