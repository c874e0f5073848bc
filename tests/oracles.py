"""Brute-force reference implementations used as independent oracles.

Everything here is deliberately naive -- linear scans, Cramer solves,
group closures -- so the fast library paths can be checked against slow
honest ones. Nothing in this file imports from squaretori.
"""

from math import gcd, isqrt, lcm

import numpy as np


def brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def brute_sigma(n):
    return sum(brute_divisors(n))


def brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def brute_is_squarefree(n):
    return all(n % (d * d) for d in range(2, isqrt(n) + 1))


def squarefree_mask(limit):
    """Boolean array: entry n is True for square-free n >= 1, entry 0 False.

    Built by striking the multiples of p^2 for every prime p <= sqrt(limit).
    """
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for p in filter(brute_is_prime, range(2, isqrt(limit) + 1)):
        mask[p * p :: p * p] = False
    return mask


def brute_factor_map(n):
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def brute_psi_triples(n):
    """Count triples (w, h, t) with wh = n, 0 <= t < w, gcd(w, h, t) = 1."""
    count = 0
    for w in range(1, n + 1):
        if n % w:
            continue
        h = n // w
        for t in range(w):
            if gcd(gcd(w, h), t) == 1:
                count += 1
    return count


def linear_sieve(limit):
    """Smallest-prime-factor linear sieve: (psi, sigma, phi, squarefree).

    Every composite is struck exactly once (O(limit) work). Multiplicative
    values extend along the sieve by tracking the power of the smallest
    prime factor. Arrays have length limit + 1 with index 0 zero; the
    first three are int64, squarefree is uint8.
    """
    spf = [0] * (limit + 1)
    low = [0] * (limit + 1)  # p^v where p = spf(n) and p^v || n
    psi = [0] * (limit + 1)
    sig = [0] * (limit + 1)
    phi = [0] * (limit + 1)
    sqf = [0] * (limit + 1)
    psi[1] = sig[1] = phi[1] = sqf[1] = low[1] = 1
    primes: list[int] = []
    for i in range(2, limit + 1):
        if spf[i] == 0:
            spf[i] = i
            primes.append(i)
            psi[i] = i + 1
            sig[i] = i + 1
            phi[i] = i - 1
            sqf[i] = 1
            low[i] = i
        for p in primes:
            ip = i * p
            if p > spf[i] or ip > limit:
                break
            spf[ip] = p
            if i % p == 0:
                low[ip] = low[i] * p
                psi[ip] = psi[i] * p
                phi[ip] = phi[i] * p
                # peel the p-power part: sigma(i*p) = p*sigma(i) + sigma(i/p^v)
                sig[ip] = sig[i] * p + sig[i // low[i]]
                sqf[ip] = 0
            else:
                low[ip] = p
                psi[ip] = psi[i] * (p + 1)
                phi[ip] = phi[i] * (p - 1)
                sig[ip] = sig[i] * (p + 1)
                sqf[ip] = sqf[i]
    return (
        np.array(psi, dtype=np.int64),
        np.array(sig, dtype=np.int64),
        np.array(phi, dtype=np.int64),
        np.array(sqf, dtype=np.uint8),
    )


def _floor_blocks(x):
    """Maximal runs lo..hi of k <= x sharing q = floor(x/k), as (lo, hi, q)."""
    lo = 1
    while lo <= x:
        q = x // lo
        hi = x // q
        yield lo, hi, q
        lo = hi + 1


def _mobius_upto(m):
    mu = [1] * (m + 1)
    composite = bytearray(m + 1)
    for p in range(2, m + 1):
        if not composite[p]:
            for k in range(p, m + 1, p):
                composite[k] = 1
                mu[k] = -mu[k]
            for k in range(p * p, m + 1, p * p):
                mu[k] = 0
    return mu


def divisor_sum_sigma(x):
    """sigma(1) + ... + sigma(x) = sum of k * floor(x/k), in O(sqrt x) blocks."""
    return sum(q * (lo + hi) * (hi - lo + 1) // 2 for lo, hi, q in _floor_blocks(x))


def divisor_sum_psi(x):
    """psi(1) + ... + psi(x) = sum of mu^2(d) * T(floor(x/d)), T(y) = y(y+1)/2.

    psi(n) is the sum of n/d over square-free d | n, so each square-free d
    contributes m for every multiple n = d*m <= x. Within a block of equal
    floor(x/d) the square-free d are counted by differences of
    Q(y) = sum of mu(k) * floor(y/k^2) over k <= sqrt(y).
    """
    mu = _mobius_upto(isqrt(x))
    total = below = 0
    for _, hi, q in _floor_blocks(x):
        upto = sum(mu[k] * (hi // (k * k)) for k in range(1, isqrt(hi) + 1))
        total += (upto - below) * (q * (q + 1) // 2)
        below = upto
    return total


# --- integer lattices in Z^2 ------------------------------------------

def det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def lattice_contains(u, v, point):
    """Solve a*u + b*v = point by Cramer's rule and check integrality."""
    d = det(u, v)
    num_a = point[0] * v[1] - point[1] * v[0]
    num_b = u[0] * point[1] - u[1] * point[0]
    return num_a % d == 0 and num_b % d == 0


def same_lattice(pair_a, pair_b):
    """Mutual membership of the generators decides lattice equality."""
    (u1, v1), (u2, v2) = pair_a, pair_b
    return (
        lattice_contains(u2, v2, u1)
        and lattice_contains(u2, v2, v1)
        and lattice_contains(u1, v1, u2)
        and lattice_contains(u1, v1, v2)
    )


def all_hnf_matches(u, v):
    """Every triple (w, h, t), wh = |det|, whose basis spans the lattice.

    Uniqueness of the canonical form means this list should have exactly
    one entry; returning all candidates lets the tests check that too.
    """
    n = abs(det(u, v))
    matches = []
    for w in range(1, n + 1):
        if n % w:
            continue
        h = n // w
        for t in range(w):
            if same_lattice(((u, v)), (((w, 0), (t, h)))):
                matches.append((w, h, t))
    return matches


# --- permutation groups ------------------------------------------------

def compose(p, q):
    """Permutation p applied after q: (p.q)[i] = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def perm_order(p):
    order = 1
    seen = [False] * len(p)
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = lcm(order, length)
    return order


def perms_commute(p, q):
    return compose(p, q) == compose(q, p)


def is_transitive(p, q):
    n = len(p)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in (p[x], q[x]):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def group_closure(p, q):
    """Full closure of <p, q> as a set of tuples. Small degrees only."""
    p, q = tuple(p), tuple(q)
    identity = tuple(range(len(p)))
    group = {identity}
    stack = [identity]
    while stack:
        g = stack.pop()
        for s in (p, q):
            h = compose(s, g)
            if h not in group:
                group.add(h)
                stack.append(h)
    return group


def group_is_cyclic_closure(p, q):
    """Brute force: some element's order equals the group size."""
    group = group_closure(p, q)
    size = len(group)
    return any(perm_order(g) == size for g in group)


def group_is_cyclic_exponent(p, q):
    """Cyclicity for a commuting transitive pair, without closure.

    A transitive abelian permutation group is regular, so its order equals
    the degree; an abelian group generated by two elements has exponent
    lcm(ord p, ord q), and a finite abelian group is cyclic exactly when
    its exponent equals its order.
    """
    assert perms_commute(p, q) and is_transitive(p, q)
    return lcm(perm_order(p), perm_order(q)) == len(p)


def zeta_series(s: int) -> float:
    """Direct series for zeta(s), s >= 2, with an Euler-Maclaurin tail.

    Sums the first 50 terms 1/k^s, k < M = 51, and estimates the rest by
    M^(1-s)/(s-1) + M^-s/2 + s M^(-s-1)/12 - s(s+1)(s+2) M^(-s-3)/720;
    the first omitted correction is below 3e-14. Used to cross-validate
    the closed-form constants.
    """
    if s < 2:
        raise ValueError("series evaluation requires s >= 2")
    m = 51
    head = sum(1.0 / k**s for k in range(1, m))
    tail = (
        m ** (1 - s) / (s - 1)
        + m**-s / 2
        + s * m ** (-s - 1) / 12
        - s * (s + 1) * (s + 2) * m ** (-s - 3) / 720
    )
    return head + tail
