"""A walk through counting square-tiled tori.

A torus tiled by n unit squares is the same thing as a sublattice of Z^2
of index n, and every such sublattice has a unique cylinder form: a basis
(w, 0), (t, h) with wh = n and 0 <= t < w. Listing those triples counts
all tori; keeping the ones with gcd(w, h, t) = 1 counts the cyclic ones.
This script builds the census for small n and shows that three very
different formulas for the cyclic count agree.

Run:  python3 demos/counting.py
"""

from squaretori.arith import (
    dedekind_psi,
    factorize,
    psi_prime,
    psi_via_cylinders,
    sigma,
    squarefree_indicator,
)
from squaretori.lattice import enumerate_lattices, is_cyclic

print("Every torus with 4 squares, as cylinder triples (w, h, t):")
for lat in enumerate_lattices(4):
    tag = "cyclic" if is_cyclic(lat) else "NOT cyclic"
    print(f"  w={lat.width} h={lat.height} t={lat.twist}   {tag}")
print()
print("Only (2, 2, 0) fails: its quotient group is Z/2 x Z/2.")
print()

print("Census for n <= 20:  psi counts cyclic tori, sigma counts all")
print(f"{'n':>3} {'psi':>5} {'sigma':>6} {'square-free':>12}")
for n in range(1, 21):
    f = factorize(n)
    psi = dedekind_psi(f)
    total = sigma(f)
    enumerated = sum(1 for lat in enumerate_lattices(n) if is_cyclic(lat))
    assert enumerated == psi
    mark = "yes" if squarefree_indicator(f) else ""
    print(f"{n:>3} {psi:>5} {total:>6} {mark:>12}")
print()
print("Whenever n is square-free the two columns agree: every torus is")
print("cyclic there, because the content r of a sublattice obeys r^2 | n.")
print()

print("Three routes to psi(n), all exact integers:")
print("  closed form      n * prod(1 + 1/p) over primes p | n")
print("  cylinder sum     sum over wh = n of (w/gcd(w,h)) * phi(gcd(w,h))")
print("  divisor sum      n * sum of 1/d over square-free divisors d")
print()
print(f"{'n':>5} {'closed':>8} {'cylinders':>10} {'divisors':>9}")
for n in (12, 360, 9973, 50000):
    a = dedekind_psi(factorize(n))
    b = psi_via_cylinders(n)
    c = psi_prime(n)
    assert a == b == c
    print(f"{n:>5} {a:>8} {b:>10} {c:>9}")
