"""Square-tiled tori: exact counts, canonical forms, and asymptotics.

A torus tiled by n unit squares is an index-n sublattice of Z^2. This
package enumerates them through their cylinder coordinates, decides
whether the covering is cyclic, evaluates the counting functions psi
(cyclic tori, the Dedekind psi function) and sigma (all tori, the sum of
divisors) by independent routes, and verifies the asymptotic behavior of
their ratio numerically.

The package root exports nothing: each public name lives in one module,
squaretori.arith, squaretori.lattice or squaretori.asymptotics.
"""
