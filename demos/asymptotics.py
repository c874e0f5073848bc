"""How often is a random square-tiled torus cyclic?

The proportion at a single n is rho(n) = psi(n)/sigma(n). It equals 1
exactly on the square-free integers, never drops below 6/pi^2 = 0.6079...,
and gets arbitrarily close to that floor along the powered primorials
n_k = (2*3*...*p_k)^k. Averaged over all n the proportion settles at
90/pi^4 = 0.9239...: most tori are cyclic. Everything below is computed
exactly, from the prime-power sieve or from sums over divisors in about
sqrt(N) steps, and compared to the pi constants.

Run:  python3 demos/asymptotics.py
"""

import numpy as np

from squaretori.arith import sieve_multiplicative
from squaretori.asymptotics import (
    INV_ZETA2,
    INV_ZETA4,
    ZETA2_OVER_ZETA4,
    extremal_sequence_rho,
    partial_sums,
    qd2_partial_sum,
)

LIMIT = 200_000
sv = sieve_multiplicative(LIMIT)
ratios = sv.psi[1:] / sv.sigma[1:]

print(f"rho(n) over 1 <= n <= {LIMIT}:")
print(f"  smallest value   {ratios.min():.9f}   (floor 1/zeta(2) = {INV_ZETA2:.9f})")
print(f"  largest value    {ratios.max():.1f}")
share = float(np.count_nonzero(sv.psi[1:] == sv.sigma[1:])) / LIMIT
print(f"  rho = 1 exactly on square-free n: {share:.4f} of the range")
print()

print("Marching down to the floor along n_k = (p_1 ... p_k)^k:")
print(f"{'k':>3} {'rho(n_k)':>14} {'above 1/zeta(2)':>16}")
for k in (1, 2, 3, 5, 10, 20, 40):
    value = extremal_sequence_rho(k)
    print(f"{k:>3} {value:>14.10f} {value - INV_ZETA2:>16.3e}")
print()
print("(The integer n_40 has 2729 digits; only its factor list is used.)")
print()

print("Mean order: cumulative psi over cumulative sigma approaches")
print(f"1/zeta(4) = {INV_ZETA4:.10f} like log(N)/N:")
print(f"{'N':>8} {'cum_ratio':>13} {'deviation':>11}")
for limit in (10**3, 10**4, 10**5, 2 * 10**5):
    record = partial_sums(limit)
    dev = abs(record.cum_ratio - INV_ZETA4)
    print(f"{limit:>8} {record.cum_ratio:>13.10f} {dev:>11.3e}")
print()

value = qd2_partial_sum(LIMIT)
print("Behind that limit sits the square-free zeta identity:")
print(f"  sum of 1/d^2 over square-free d <= {LIMIT}  =  {value:.10f}")
print(f"  zeta(2)/zeta(4) = 15/pi^2                 =  {ZETA2_OVER_ZETA4:.10f}")
