import math
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    brute_divisors,
    brute_factor_map,
    brute_is_prime,
    brute_is_squarefree,
    brute_psi_triples,
    brute_sigma,
    linear_sieve,
    squarefree_mask,
)
from squaretori.arith import (
    MAX_SIEVE,
    BudgetError,
    PrimeFactorization,
    WORD_BOUND,
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


def psi_of(n):
    return dedekind_psi(factorize(n))


def sigma_of(n):
    return sigma(factorize(n))


# --- primality and factorization ---------------------------------------

def test_is_prime_matches_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == brute_is_prime(n), n


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)          # Mersenne prime
    assert not is_prime(2**61 + 1)
    assert is_prime(9973)


def test_is_prime_contract():
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to bases 2..37
    for n in (7.0, 2.5):
        with pytest.raises(TypeError):
            is_prime(n)
    for n in (2**63, 318665857834031151167461):
        with pytest.raises(OverflowError):
            is_prime(n)
    assert is_prime(2**63 - 25)  # the largest prime in the 64-bit range


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(9973).factors == ((9973, 1),)
    assert brute_is_prime(9973)


def test_factorize_matches_brute_force():
    for n in range(1, 600):
        assert dict(factorize(n).factors) == brute_factor_map(n)


def test_factorize_domain_errors():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-12)
    with pytest.raises(OverflowError):
        factorize(2**63)
    factorize(WORD_BOUND)  # the bound itself is fine


def test_factorize_refuses_a_float_before_trial_division():
    # 9007199254740881 is a prime below 2**53: trial division would take seconds
    start = time.perf_counter()
    with pytest.raises(TypeError):
        factorize(9007199254740881.0)
    assert time.perf_counter() - start < 0.1


def test_factorization_validation():
    # a factor list is refused for its factors, whatever n it claims to make
    for n, factors, message in (
        (4, ((4, 1),), "4 is not a valid prime factor"),
        (36, ((6, 2),), "6 is not a valid prime factor"),
        (1, ((1, 1),), "1 is not a valid prime factor"),
        (1, ((0, 1),), "0 is not a valid prime factor"),
        (6, ((3, 1), (2, 1)), "primes must be strictly increasing"),  # out of order
        (8, ((2, 1), (2, 2)), "primes must be strictly increasing"),  # duplicate
        (2, ((2, 0),), "exponent must be >= 1, got 0"),
        # each pair is checked in turn: its prime, its exponent, then the order
        (20, ((4, 1), (5, 0)), "4 is not a valid prime factor"),
        (3, ((3, 1), (2, 0)), "exponent must be >= 1, got 0"),
        (6, ((2, 1),), "the factors do not multiply to 6"),
        (0, (), "n must be >= 1, got 0"),
    ):
        with pytest.raises(ValueError) as refusal:
            PrimeFactorization(n, factors)
        assert str(refusal.value) == message, (n, factors)


def test_factorization_must_be_integers():
    # non-integers are refused, not truncated: 2.9 is not the prime 2
    with pytest.raises(TypeError):
        PrimeFactorization(4, ((2.9, 2),))
    with pytest.raises(TypeError):
        PrimeFactorization(4, ((2, 2.0),))
    with pytest.raises(TypeError):
        PrimeFactorization(4.0, ((2, 2),))  # would make dedekind_psi return 6.0
    for pair, error, message in (
        ((2.9, 2), TypeError, "'float' object cannot be interpreted as an integer"),
        ((2, 1.5), TypeError, "'float' object cannot be interpreted as an integer"),
        ((2.0, 1), TypeError, "'float' object cannot be interpreted as an integer"),
        ((4, 1), ValueError, "4 is not a valid prime factor"),
        ((2, 0), ValueError, "exponent must be >= 1, got 0"),
        ((2, 2**63), OverflowError, f"exponent = {2**63} leaves the 64-bit range"),
    ):
        with pytest.raises(error) as refusal:
            PrimeFactorization(4, (pair,))
        assert str(refusal.value) == message, pair
    f = PrimeFactorization(np.int64(4), ((np.int64(2), 2),))
    assert type(f.n) is int and f.factors == ((2, 2),) and dedekind_psi(f) == 6


def test_factor_lists_stay_in_64_bits():
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to bases 2..37,
    # so only the 64-bit bound keeps it out of a factor list
    psi_12 = 318665857834031151167461
    for n in (psi_12, 2):  # refused as a factor, whatever n the list claims
        with pytest.raises(OverflowError):
            PrimeFactorization(n, ((psi_12, 1),))
    with pytest.raises(OverflowError):
        PrimeFactorization(2**70, ((2, 70),))


def test_factor_list_exponents_cannot_outgrow_n(within):
    # an exponent above 62 cannot match an n below 2**63, so no such power is
    # taken: 2**(2**40) would need 128 GiB, and 2**20000 has 6021 digits,
    # past the int-to-str limit of an error message that printed it
    first_100 = [p for p in range(2, 542) if is_prime(p)]
    assert len(first_100) == 100
    for factors in (((2, 2**40),), ((2, 20000),), tuple((p, 62) for p in first_100)):
        with within(0.1), pytest.raises(ValueError, match="do not multiply to 2"):
            PrimeFactorization(2, factors)


# --- single-value functions ---------------------------------------------

def test_psi_examples():
    assert psi_of(1) == 1
    assert psi_of(8) == 12        # p^a: p^(a-1) * (p+1)
    assert psi_of(12) == 24
    assert brute_psi_triples(12) == 24


def test_psi_prime_power_law():
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(1, 9):
            assert psi_of(p**a) == p ** (a - 1) * (p + 1)


def test_psi_counts_cyclic_triples():
    for n in range(1, 200):
        assert psi_of(n) == brute_psi_triples(n), n


def test_sigma_examples():
    assert sigma_of(1) == 1
    assert sigma_of(6) == 12 == brute_sigma(6)
    assert sigma_of(16) == 31 == brute_sigma(16)


def test_sigma_equals_sum_of_divisors():
    # cross-check against the divisor list route for all n <= 10^4
    for n in range(1, 10_001):
        f = factorize(n)
        assert sigma(f) == sum(divisors(f)), n


def test_squarefree_indicator_examples():
    assert squarefree_indicator(factorize(1)) == 1
    assert squarefree_indicator(factorize(30)) == 1
    assert squarefree_indicator(factorize(12)) == 0
    for n in range(1, 500):
        expected = 1 if brute_is_squarefree(n) else 0
        assert squarefree_indicator(factorize(n)) == expected


def test_divisors_examples():
    assert divisors(factorize(1)) == [1]
    assert divisors(factorize(12)) == [1, 2, 3, 4, 6, 12]
    assert divisors(factorize(9973)) == [1, 9973]


def test_divisors_sorted_and_complete():
    for n in range(1, 500):
        f = factorize(n)
        divs = divisors(f)
        assert divs == brute_divisors(n)
        assert len(divs) == math.prod(a + 1 for _, a in f.factors)


# --- alternate psi routes ------------------------------------------------

def test_psi_via_cylinders_examples():
    assert psi_via_cylinders(1) == 1
    # n=4 terms: w=1 gives 1, w=2 gives phi(2)=1, w=4 gives 4*phi(1)=4
    assert psi_via_cylinders(4) == 6
    assert psi_via_cylinders(12) == 24


def test_psi_prime_examples():
    assert psi_prime(1) == 1
    assert psi_prime(8) == 8 + 4
    assert psi_prime(3**5) == 3**5 + 3**4
    assert psi_prime(12) == 24  # 12 + 6 + 4 + 2 over d = 1, 2, 3, 6


def test_three_psi_routes_agree():
    for n in range(1, 5000):
        expected = psi_of(n)
        assert psi_via_cylinders(n) == expected, n
        assert psi_prime(n) == expected, n


# --- multiplicativity ------------------------------------------------------

def test_multiplicative_on_all_coprime_pairs():
    limit = 100_000
    psi_t = [0, 1]
    sig_t = [0, 1]
    for n in range(2, limit + 1):
        f = factorize(n)
        psi_t.append(dedekind_psi(f))
        sig_t.append(sigma(f))
    for a in range(2, limit + 1):
        for b in range(a, limit // a + 1):
            if math.gcd(a, b) != 1:
                continue
            ab = a * b
            assert psi_t[ab] == psi_t[a] * psi_t[b], (a, b)
            assert sig_t[ab] == sig_t[a] * sig_t[b], (a, b)


# --- overflow handling ------------------------------------------------------

def test_psi_overflow_is_reported():
    n = 3 * 2**61  # psi(n) = 2n, past the 64-bit bound
    assert n <= WORD_BOUND
    with pytest.raises(OverflowError):
        dedekind_psi(factorize(n))


def test_sigma_overflow_is_reported():
    with pytest.raises(OverflowError):
        sigma(factorize(3 * 2**61))


@pytest.mark.parametrize(
    "route", [lambda n: dedekind_psi(factorize(n)), psi_via_cylinders, psi_prime]
)
def test_every_psi_route_reports_overflow_alike(route):
    message = "psi(6917529027641081856) = 13835058055282163712 leaves the 64-bit range"
    with pytest.raises(OverflowError) as info:
        route(3 * 2**61)
    assert str(info.value) == message


def test_large_values_still_exact_below_bound():
    n = 2**62
    assert psi_of(n) == 2**61 * 3
    assert sigma_of(n) == 2**63 - 1


# --- sieve -------------------------------------------------------------------

def test_sieve_tiny():
    sv = sieve_multiplicative(1)
    assert sv.psi.tolist() == [0, 1]
    assert sv.sigma.tolist() == [0, 1]


def test_sieve_first_ten():
    sv = sieve_multiplicative(10)
    assert sv.psi[1:].tolist() == [1, 3, 4, 6, 6, 12, 8, 12, 12, 18]
    assert sv.sigma[1:].tolist() == [1, 3, 4, 7, 6, 12, 8, 15, 13, 18]


def test_sieve_matches_single_values(sieve_100k):
    sv = sieve_100k
    for n in range(1, len(sv.psi)):
        f = factorize(n)
        assert sv.psi[n] == dedekind_psi(f), n
        assert sv.sigma[n] == sigma(f), n
        assert (sv.psi[n] == sv.sigma[n]) == bool(squarefree_indicator(f)), n


def assert_matches_linear_sieve(sv, reference):
    psi, sig, _phi, sqf = reference  # the sieve keeps no phi column
    for got, want in zip((sv.psi, sv.sigma), (psi, sig)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want[: len(sv.psi)]), len(sv.psi) - 1
    # square-free is read off the sieve as psi == sigma
    equal = sv.psi[1:] == sv.sigma[1:]
    assert np.array_equal(equal, sqf[1 : len(sv.psi)] == 1), len(sv.psi) - 1


def test_sieve_matches_linear_sieve_small_limits():
    for limit in range(1, 301):
        assert_matches_linear_sieve(sieve_multiplicative(limit), linear_sieve(limit))


@pytest.fixture(scope="module")
def linear_reference():
    # entries of the linear sieve do not depend on its limit, so one long
    # run serves every shorter comparison as a prefix
    return linear_sieve(997**2 + 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 997])
def test_sieve_matches_linear_sieve_at_prime_squares(p, linear_reference):
    for limit in (p * p - 1, p * p, p * p + 1):
        assert_matches_linear_sieve(sieve_multiplicative(limit), linear_reference)


def test_sieve_100k_matches_linear_sieve(sieve_100k, linear_reference):
    assert_matches_linear_sieve(sieve_100k, linear_reference)


# the int32 halves widen into their int64 columns in runs that halve the
# range each time, so limits at and around powers of two test every split
WIDENING_EDGES = sorted({2**k + d - 1 for k in range(1, 20) for d in (-1, 0, 1)} - {0})


def test_sieve_widens_exactly_around_powers_of_two(linear_reference):
    for limit in WIDENING_EDGES:
        sv = sieve_multiplicative(limit)
        assert_matches_linear_sieve(sv, linear_reference)
        for column in (sv.psi, sv.sigma):
            assert column.dtype == np.int64 and column.flags.c_contiguous, limit
            # a column that owns its data leaves no writable int32 view behind
            assert not column.flags.writeable and column.base is None, limit


@given(st.data())
def test_sieve_entry_matches_single_values(data):
    limit = data.draw(st.integers(1, 20_000), label="limit")
    n = data.draw(st.integers(1, limit), label="n")
    sv = sieve_multiplicative(limit)
    f = factorize(n)
    assert sv.psi[n] == dedekind_psi(f)
    assert sv.sigma[n] == sigma(f)
    assert (sv.psi[n] == sv.sigma[n]) == bool(squarefree_indicator(f))


SIEVE_REFUSAL = "a sieve of 10000001 entries, over the MAX_SIEVE budget of 10000000"


def test_sieve_budget(within):
    assert MAX_SIEVE == 10**7
    with within(0.1), pytest.raises(BudgetError) as refusal:
        sieve_multiplicative(MAX_SIEVE + 1)
    assert str(refusal.value) == SIEVE_REFUSAL
    with pytest.raises(ValueError):
        sieve_multiplicative(0)


def test_the_budget_fits_the_int32_scratch():
    assert MAX_SIEVE < 2**31, "the sieve's int32 scratch must hold every n <= MAX_SIEVE"
    # Robin's bound holds from n = 3 (where it is 21.2) and increases from
    # n = 4 on; sigma(1) = 1 and sigma(2) = 3, so its value at the cap bounds
    # sigma(n), and psi(n) <= sigma(n), at every n <= MAX_SIEVE
    loglog = math.log(math.log(MAX_SIEVE))
    robin = math.exp(np.euler_gamma) * MAX_SIEVE * loglog + 0.6483 * MAX_SIEVE / loglog
    assert robin < 2**31 - 1, (
        "sigma(n) < e^gamma n ln ln n + 0.6483 n / ln ln n for n >= 3 (G. Robin, "
        "J. Math. Pures Appl. 63 (1984) 187-213) must keep sigma in int32"
    )


def test_sieve_at_the_budget_matches_single_values(within):
    # the int32 passes hold their largest entries here: 9999991, the largest
    # prime below the cap, 2^23, 3^14, the last 1000 entries up to 2^7 * 5^7,
    # the largest sigma (at 9979200) and the largest psi (at 9699690 = 19#)
    assert is_prime(9_999_991) and not any(map(is_prime, range(9_999_992, MAX_SIEVE)))
    peaks = (9_979_200, 9_699_690)
    with within(5):
        sv = sieve_multiplicative(MAX_SIEVE)
        last = range(MAX_SIEVE - 999, MAX_SIEVE + 1)
        for n in (9_999_991, 2**23, 3**14, *peaks, *last):
            f = factorize(n)
            assert sv.psi[n] == dedekind_psi(f), n
            assert sv.sigma[n] == sigma(f), n
        assert sv.sigma.max() == sv.sigma[9_979_200] == 45_732_192
        assert sv.psi.max() == sv.psi[9_699_690] == 34_836_480


# refuses one entry over the budget in a fresh interpreter, then reports the
# time the refusal took, whether numpy was imported, and the message
_REFUSE = """\
import sys, time
from squaretori.arith import MAX_SIEVE, BudgetError, sieve_multiplicative
start = time.perf_counter()
try:
    sieve_multiplicative(MAX_SIEVE + 1)
except BudgetError as exc:
    print(time.perf_counter() - start, "numpy" in sys.modules, exc, sep="\\n")
"""


def test_the_sieve_budget_is_refused_before_numpy_loads(src_env):
    result = subprocess.run(
        [sys.executable, "-c", _REFUSE],
        capture_output=True,
        env=src_env,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0 and result.stderr == ""
    elapsed, loads_numpy, message = result.stdout.splitlines()
    assert float(elapsed) < 0.1
    assert (loads_numpy, message) == ("False", SIEVE_REFUSAL)


def test_bound_ordering(sieve_100k):
    sv = sieve_100k
    n = np.arange(len(sv.psi), dtype=np.int64)
    assert (n[1:] <= sv.psi[1:]).all()
    assert (sv.psi[1:] <= sv.sigma[1:]).all()
    equal = sv.psi[1:] == sv.sigma[1:]
    assert (equal == squarefree_mask(len(sv.psi) - 1)[1:]).all()


def test_sieve_peak_memory():
    # the int32 passes run in the halves of two int64 columns (sigma, psi); the
    # int32 arange of the one division is freed before the psi column is made;
    # numpy is imported above, so its start-up allocations are not counted
    limit = 10**6
    tracemalloc.start()
    try:
        sieve_multiplicative(limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * (limit + 1), peak / (8 * (limit + 1))
