"""Square-tiled tori: exact counts, canonical forms, and asymptotics.

A torus tiled by n unit squares is an index-n sublattice of Z^2. This
package enumerates them through their cylinder coordinates, decides
whether the covering is cyclic, evaluates the counting functions psi
(cyclic tori, the Dedekind psi function) and sigma (all tori, the sum of
divisors) by independent routes, and verifies the asymptotic behavior of
their ratio numerically.
"""

from .arith import (
    BudgetError,
    MultiplicativeSieve,
    PrimeFactorization,
    dedekind_psi,
    divisors,
    factorize,
    is_prime,
    psi_prime,
    psi_via_cylinders,
    sieve_multiplicative,
    sigma,
    squarefree_indicator,
)
from .asymptotics import (
    ZETA,
    RatioValue,
    SweepRecord,
    ZetaConstants,
    extremal_sequence_rho,
    partial_sums,
    qd2_partial_sum,
    rho,
    rho_factored,
    sweep_stream,
    zeta_series,
)
from .lattice import (
    GeneratorPair,
    HnfLattice,
    QuotientShape,
    RankError,
    content,
    enumerate_lattices,
    hnf_reduce,
    is_cyclic,
    lattice_index,
    permutation_pair_json,
    random_unimodular,
    smith_shape,
    to_permutation_pair,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "GeneratorPair",
    "HnfLattice",
    "MultiplicativeSieve",
    "PrimeFactorization",
    "QuotientShape",
    "RankError",
    "RatioValue",
    "SweepRecord",
    "ZETA",
    "ZetaConstants",
    "content",
    "dedekind_psi",
    "divisors",
    "enumerate_lattices",
    "extremal_sequence_rho",
    "factorize",
    "hnf_reduce",
    "is_cyclic",
    "is_prime",
    "lattice_index",
    "partial_sums",
    "permutation_pair_json",
    "psi_prime",
    "psi_via_cylinders",
    "qd2_partial_sum",
    "random_unimodular",
    "rho",
    "rho_factored",
    "sieve_multiplicative",
    "sigma",
    "smith_shape",
    "squarefree_indicator",
    "sweep_stream",
    "to_permutation_pair",
    "zeta_series",
]
