"""Exact multiplicative arithmetic functions on prime factorizations.

Dedekind psi and the sum-of-divisors function, evaluated exactly in
integer arithmetic from a prime factorization. Dedekind psi gets two
additional, independent evaluation routes (a divisor-pair sum over
cylinder shapes and a square-free divisor sum) so the closed form can
be cross-checked, plus a numpy prime-power sieve for ranges and blocks.

All values live in the signed 64-bit range; a result that would leave it
raises OverflowError naming that value, as an input past the range does.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod
from operator import index
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Largest admissible input and output value. Results above this raise.
WORD_BOUND = 2**63 - 1

# sieve_multiplicative(limit) peaks at two int64 columns of limit + 1 entries,
# about 160 MB at this cap. A sweep sieves fixed blocks, so the cap bounds its
# work, not its memory. qd2_partial_sum holds a 1-byte mask per entry: 10 MB.
MAX_SIEVE = 10_000_000


class BudgetError(RuntimeError):
    """An operation would exceed a declared resource budget."""


def _shown(x: int) -> str:
    """x for a message: in decimal up to 128 bits, else by its sign and bit length."""
    bits = x.bit_length()  # str() of an int over 4300 digits raises ValueError
    return str(x) if bits <= 128 else f"{'-' if x < 0 else ''}<{bits}-bit integer>"


def _word(x: int, name: str = "n") -> int:
    """x as an exact int in [1, WORD_BOUND]: the one check of every count and size."""
    x = index(x)
    if x < 1:
        raise ValueError(f"{name} must be >= 1, got {_shown(x)}")
    if x > WORD_BOUND:
        raise OverflowError(f"{name} = {_shown(x)} leaves the 64-bit range")
    return x


def _budget(asked: int, budget: int, name: str, what: str) -> None:
    """BudgetError if asked > budget; what holds a %s for the asked amount."""
    if asked > budget:
        request = what % _shown(asked)
        raise BudgetError(f"{request}, over the {name} budget of {_shown(budget)}")


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for integers n <= 2**63 - 1."""
    if index(n) < 2:
        return False
    n = _word(n)  # the witnesses are proven exact only below 3.18e23
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        # no factor among the witnesses and below their square
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeFactorization:
    """A positive integer together with its ordered prime decomposition.

    ``factors`` holds (prime, exponent) pairs with strictly increasing
    primes and exponents >= 1; the empty tuple encodes n = 1. Instances
    are validated on construction, so holding one is proof that the
    decomposition is genuine.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # non-integers raise TypeError, a prime or exponent > WORD_BOUND OverflowError
        factors = tuple((index(p), index(a)) for p, a in self.factors)
        previous = 1
        for p, a in factors:
            if not is_prime(p):
                raise ValueError(f"{_shown(p)} is not a valid prime factor")
            _word(a, "exponent")
            if p <= previous:
                raise ValueError("primes must be strictly increasing")
            previous = p
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "n", _word(self.n))
        # p**63 > WORD_BOUND >= n, so an exponent capped at 63 still mismatches
        if prod(p ** min(a, 63) for p, a in self.factors) != self.n:
            raise ValueError(f"the factors do not multiply to {self.n}")


def factorize(n: int) -> PrimeFactorization:
    """Factor n by deterministic trial division up to sqrt(n).

    Accepts 1 <= n <= 2**63 - 1; factorize(1) has an empty factor list.
    """
    n = _word(n)  # a float raises TypeError here, before any trial division
    factors = []
    m = n
    if m % 2 == 0:
        a = 0
        while m % 2 == 0:
            m //= 2
            a += 1
        factors.append((2, a))
    d = 3
    while d * d <= m:
        if m % d == 0:
            a = 0
            while m % d == 0:
                m //= d
                a += 1
            factors.append((d, a))
        d += 2
    if m > 1:
        factors.append((m, 1))
    return PrimeFactorization(n, tuple(factors))


def dedekind_psi(f: PrimeFactorization) -> int:
    """n * prod(1 + 1/p) over the distinct primes p | n, exactly.

    This counts the sublattices of Z^2 of index n with cyclic quotient,
    i.e. the cyclic n-square-tiled tori.
    """
    value = f.n
    for p, _ in f.factors:
        value = value * (p + 1) // p
    return _word(value, f"psi({f.n})")


def sigma(f: PrimeFactorization) -> int:
    """Sum of all divisors of n (geometric series per prime power)."""
    value = 1
    for p, a in f.factors:
        value *= (p ** (a + 1) - 1) // (p - 1)
    return _word(value, f"sigma({f.n})")


def squarefree_indicator(f: PrimeFactorization) -> int:
    """1 if no prime divides n twice, else 0."""
    return 1 if all(a == 1 for _, a in f.factors) else 0


def divisors(f: PrimeFactorization) -> list[int]:
    """All divisors of n, strictly ascending (length = prod(a_i + 1))."""
    divs = [1]
    for p, a in f.factors:
        block = []
        pk = 1
        for _ in range(a):
            pk *= p
            block.extend(d * pk for d in divs)
        divs.extend(block)
    divs.sort()
    return divs


def psi_via_cylinders(n: int) -> int:
    """Cyclic-torus count as a sum over horizontal cylinder shapes.

    Each factorization n = w*h contributes (w / gcd(w,h)) * phi(gcd(w,h))
    twists whose quotient is cyclic; summing over all divisor pairs must
    reproduce dedekind_psi. phi(g) is the product formula over the primes
    dividing n at least twice (g^2 | n, so no other prime divides g), so
    n is factored once and dedekind_psi is never called.
    """
    f = factorize(n)
    repeated = [p for p, a in f.factors if a > 1]
    total = 0
    for w in divisors(f):
        g = gcd(w, n // w)
        phi = g
        for p in repeated:
            if g % p == 0:
                phi = phi // p * (p - 1)
        total += w // g * phi
    return _word(total, f"psi({n})")


def psi_prime(n: int) -> int:
    """Square-free divisor sum: n * sum of q(d)/d over divisors d of n.

    q is the square-free indicator. The square-free divisors of n are
    exactly the divisors of its radical (the product of the distinct
    primes dividing n), so the sum is evaluated literally as n//d over
    those, giving a third independent route to dedekind_psi.
    """
    f = factorize(n)
    primes = [p for p, _ in f.factors]
    radical = PrimeFactorization(prod(primes), tuple((p, 1) for p in primes))
    total = sum(n // d for d in divisors(radical))
    return _word(total, f"psi({n})")


@dataclass(frozen=True)
class MultiplicativeSieve:
    """Batch values psi[n] and sigma[n] for n <= limit, as read-only int64 arrays.

    Index 0 is zero padding, so array[n] is the value at n and the limit is
    len(psi) - 1; n >= 1 is square-free exactly where psi[n] == sigma[n].
    """

    psi: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        kinds = {(c.dtype.name, c.ndim, c.size) for c in (self.psi, self.sigma)}
        if len(kinds) != 1 or kinds.pop()[:2] != ("int64", 1):
            raise ValueError("psi and sigma must be 1-D int64 arrays of one length")
        self.psi.flags.writeable = self.sigma.flags.writeable = False


def sieve_multiplicative(limit: int) -> MultiplicativeSieve:
    """Batch values over [1, limit] from strided numpy passes over prime powers.

    One call of the sieve kernel on [0, limit + 1): at its peak it holds
    two int64 columns of limit + 1 entries. Each value on the way is at
    most n or sigma(n), below 2**31 for n <= MAX_SIEVE by Robin's bound,
    so all arithmetic is exact: the arrays agree entrywise with the
    single-value functions, and psi == sigma exactly at square-free n.
    Deterministic; raises BudgetError when limit > MAX_SIEVE.
    """
    limit, primes = _sieve_domain(limit)
    return MultiplicativeSieve(*_sieve_block(0, limit + 1, primes))


def _sieve_domain(limit: int) -> tuple[int, list[int]]:
    """limit as a word within MAX_SIEVE, then the primes up to sqrt(limit)."""
    limit = _word(limit, "limit")  # a float raises TypeError
    _budget(limit, MAX_SIEVE, "MAX_SIEVE", "a sieve of %s entries")
    return limit, list(filter(is_prime, range(2, isqrt(limit) + 1)))


def _sieve_block(lo: int, hi: int, primes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """psi and sigma at n in [lo, hi) as two int64 columns; n = 0 reads 0.

    primes come from _sieve_domain(limit), for a limit >= hi - 1.
    Each one scales every multiple of p by p + 1, and multiplies p into a
    record of n's small-prime part at every multiple of p^k. One division
    of n by that part leaves 1 or the one prime factor above sqrt(limit)
    that an n <= limit can have, applied next. Then each multiple of p^k
    takes the step from p^(k-1) to p^k. Every pass starts at the block's
    first multiple and runs in int32 on the halves of the two int64
    result columns, which are widened in place at the end.
    """
    import numpy as np  # loaded here, so paths without a sieve never import it

    size = hi - lo
    # each value below is at most n or sigma(n) < 2**31, so int32 holds it
    sigma_col = np.empty(size, dtype=np.int64)
    sig, small = sigma_col.view(np.int32).reshape(2, size)
    sig.fill(1)
    small.fill(1)  # small[n]: the p^k parts of n with p <= sqrt(limit)
    for p in primes:
        sig[-lo % p :: p] *= p + 1  # the square-free factor that psi and sigma share
        q = p
        while q < hi:
            small[-lo % q :: q] *= p
            q *= p
    # 1, or the one prime factor of n above sqrt(limit); 0 at n = 0
    rem = np.floor_divide(np.arange(lo, hi, dtype=np.int32), small, out=small)
    rem += rem > 1  # a prime q left over becomes q + 1
    sig *= rem
    psi_col = np.empty(size, dtype=np.int64)
    psi = psi_col.view(np.int32)[:size]
    psi[:] = sig
    for p in primes:
        q, below, upto = p * p, p + 1, p * p + p + 1
        while q < hi:
            # on multiples of p^k: sigma's p-factor 1+..+p^(k-1) becomes 1+..+p^k
            first = -lo % q
            psi[first::q] *= p
            sig[first::q] //= below
            sig[first::q] *= upto
            q, below, upto = q * p, upto, upto * p + 1
    for column in (psi_col, sigma_col):
        # widen from the top half down: column[mid:top], narrow[mid:top] share no bytes
        narrow, top = column.view(np.int32), size
        while top > 1:
            mid = (top + 1) // 2
            column[mid:top] = narrow[mid:top]
            top = mid
        column[0] = narrow[0]
    return psi_col, sigma_col
