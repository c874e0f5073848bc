import gc
import math
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import count, islice

import numpy as np
import pytest

from oracles import (
    brute_is_prime,
    brute_is_squarefree,
    brute_psi_triples,
    brute_sigma,
    divisor_sum_psi,
    divisor_sum_sigma,
    linear_sieve,
    squarefree_mask,
    zeta_series,
)
from squaretori import asymptotics
from squaretori.arith import (
    MAX_SIEVE,
    BudgetError,
    MultiplicativeSieve,
    _sieve_domain,
    factorize,
    sieve_multiplicative,
)
from squaretori.asymptotics import (
    INV_ZETA2,
    INV_ZETA4,
    ZETA2_OVER_ZETA4,
    RatioValue,
    extremal_sequence_rho,
    partial_sums,
    qd2_partial_sum,
    rho,
    sweep_stream,
)

# the first 50 primes by trial division, independent of the library's is_prime
FIRST_PRIMES = list(islice(filter(brute_is_prime, count(2)), 50))


def test_zeta_closed_forms():
    assert INV_ZETA2 == 1 / (math.pi**2 / 6)
    assert INV_ZETA4 == 1 / (math.pi**4 / 90)
    assert ZETA2_OVER_ZETA4 == (math.pi**2 / 6) / (math.pi**4 / 90)


def test_zeta_series_agrees_with_closed_forms():
    assert abs(zeta_series(2) - 1 / INV_ZETA2) <= 1e-12
    assert abs(zeta_series(4) - 1 / INV_ZETA4) <= 1e-12
    with pytest.raises(ValueError):
        zeta_series(1)


# extremal_sequence_rho(k).hex() for k = 1..50: the CLI prints these values,
# so a change in any bit is a change in behaviour
EXTREMAL_HEX = (
    "0x1.0000000000000p+0",
    "0x1.9519519519518p-1",
    "0x1.6276276276277p-1",
    "0x1.4cd7bf7a56072p-1",
    "0x1.43dc57fe0ce1fp-1",
    "0x1.3f192c52e08a7p-1",
    "0x1.3ca5a11839a5bp-1",
    "0x1.3b1e8314c0bd6p-1",
    "0x1.3a348c7f93cf5p-1",
    "0x1.39acbe4a89ea4p-1",
    "0x1.39454aa2710c3p-1",
    "0x1.3900d379a998cp-1",
    "0x1.38cc3cb3b8231p-1",
    "0x1.389e79c12db85p-1",
    "0x1.387905a006c0bp-1",
    "0x1.385beee93fe24p-1",
    "0x1.3844a805fd3eap-1",
    "0x1.382f0526aab79p-1",
    "0x1.381d23fcab72ap-1",
    "0x1.380d4090dfba2p-1",
    "0x1.37fe3e145d77fp-1",
    "0x1.37f16f706f256p-1",
    "0x1.37e5d6a9c9303p-1",
    "0x1.37dbc1811af4ep-1",
    "0x1.37d34507765a4p-1",
    "0x1.37cb7190bb6c6p-1",
    "0x1.37c3eb68e405fp-1",
    "0x1.37bcf2c64f0bbp-1",
    "0x1.37b63b32a127dp-1",
    "0x1.37affb5959a3ep-1",
    "0x1.37ab08e2267d0p-1",
    "0x1.37a662a77fccfp-1",
    "0x1.37a22275d6952p-1",
    "0x1.379e0169b0591p-1",
    "0x1.379a69899b490p-1",
    "0x1.3796e9e8abdbcp-1",
    "0x1.3793ad76d870ap-1",
    "0x1.3790aceb0877bp-1",
    "0x1.378dd0c673249p-1",
    "0x1.378b268f827bep-1",
    "0x1.3788a955f841bp-1",
    "0x1.37863a22909f2p-1",
    "0x1.37840a7fe892fp-1",
    "0x1.3781e66af8840p-1",
    "0x1.377fd861a09e8p-1",
    "0x1.377dd4e0ec6bcp-1",
    "0x1.377c0a5affac8p-1",
    "0x1.377a6fdc907e0p-1",
    "0x1.3778e3b706bcfp-1",
    "0x1.37775e771a26ep-1",
)


def test_first_primes():
    # the extremal sequence reads a fixed prime table; each k pins its first k
    assert FIRST_PRIMES[39] == 173
    for k in range(1, 51):
        by_table = 1.0
        for p in FIRST_PRIMES[:k]:
            by_table *= 1.0 - 1.0 / (p * p)
            by_table /= 1.0 - 1.0 / float(p) ** (k + 1)
        assert extremal_sequence_rho(k) == by_table, k


@pytest.mark.parametrize(
    "k, bits", enumerate(EXTREMAL_HEX, 1), ids=[f"k={k}" for k in range(1, 51)]
)
def test_extremal_sequence_bits_are_pinned(k, bits):
    assert extremal_sequence_rho(k).hex() == bits


def test_extremal_sequence_matches_the_exact_euler_product():
    # prod over the first k primes of (1 - p^-2) / (1 - p^-(k+1)), in rationals
    for k in range(1, 51):
        exact = Fraction(1)
        for p in FIRST_PRIMES[:k]:
            exact *= (1 - Fraction(1, p * p)) / (1 - Fraction(1, p ** (k + 1)))
        value = extremal_sequence_rho(k)
        assert abs(Fraction(value) - exact) <= Fraction(1e-13) * exact, k


def test_extremal_sequence_matches_rho_while_n_fits_64_bits():
    for k in range(1, 6):
        exact = rho(factorize(math.prod(p**k for p in FIRST_PRIMES[:k]))).value
        assert abs(extremal_sequence_rho(k) - exact) <= 1e-13 * exact, k


# --- rho ------------------------------------------------------------------

def test_rho_examples():
    one = rho(factorize(1))
    assert (one.psi, one.sigma, one.value) == (1, 1, 1.0)
    four = rho(factorize(4))
    assert (four.psi, four.sigma) == (6, 7)
    assert four.value == 6 / 7


def test_rho_is_one_exactly_on_squarefree():
    for n in range(1, 2001):
        r = rho(factorize(n))
        if brute_is_squarefree(n):
            assert r.psi == r.sigma
            assert r.value == 1.0
        else:
            assert r.psi < r.sigma


def test_ratio_value_validation():
    with pytest.raises(ValueError):
        RatioValue(7, 6)  # psi above sigma
    with pytest.raises(TypeError):
        RatioValue(6.0, 7)
    with pytest.raises(TypeError):
        RatioValue(6, 7.0)
    with pytest.raises(TypeError):
        RatioValue(6, 7, 6 / 7)  # value is derived, never passed
    with pytest.raises(OverflowError):
        RatioValue(1, 2**64)  # the quotient is exact, sigma is not 64-bit
    four = RatioValue(6, 7)
    assert four.value == 6 / 7
    assert repr(four) == f"RatioValue(psi=6, sigma=7, value={6 / 7!r})"
    assert four == rho(factorize(4))


# --- extremal sequence -------------------------------------------------------

def test_extremal_examples():
    assert extremal_sequence_rho(1) == 1.0
    k2 = extremal_sequence_rho(2)
    assert k2 == pytest.approx(72 / 91, rel=1e-12)
    assert k2 == pytest.approx(rho(factorize(36)).value, rel=1e-12)


def test_extremal_sequence_stays_above_liminf():
    values = [extremal_sequence_rho(k) for k in range(1, 41)]
    assert all(v >= INV_ZETA2 for v in values)
    deviations = [v - INV_ZETA2 for v in values]
    # strictly decreasing from k = 2 onward
    for k in range(2, 40):
        assert deviations[k] < deviations[k - 1], k


def primes_up_to(m):
    """Primes <= m by a plain sieve of Eratosthenes, independent of the library."""
    marks = bytearray([1]) * (m + 1)
    marks[:2] = b"\0\0"
    for p in range(2, math.isqrt(m) + 1):
        if marks[p]:
            marks[p * p :: p] = bytes(len(range(p * p, m + 1, p)))
    return [p for p in range(m + 1) if marks[p]]


def test_extremal_gap_lies_in_a_proven_bracket():
    """gap(k) = rho(n_k) - 6/pi^2 = (6/pi^2) * expm1(A + B), where

    B = sum over p <= p_k of -log(1 - p^-(k+1)) and
    A = sum over p > p_k of -log(1 - p^-2), summed exactly up to M = 10^6.
    The rest of A lies in [0, 1/(M (1 - M^-2))): -log(1 - x) <= x/(1 - x),
    and the sum over n > M of n^-2 is below 1/M. Criterion 8 asks for a
    gap below 1e-6 at k = 40; the bracket puts it near 5.56e-4.
    """
    m = 10**6
    primes = primes_up_to(m)
    below_m = [-math.log1p(-(p**-2.0)) for p in primes]
    tail = 1 / (m * (1 - m**-2.0))
    inv_zeta2 = 6 / math.pi**2
    for k in range(1, 51):
        b = math.fsum(-math.log1p(-(p ** -(k + 1.0))) for p in primes[:k])
        a = math.fsum(below_m[k:])
        low = inv_zeta2 * math.expm1(a + b)
        high = inv_zeta2 * math.expm1(a + tail + b)
        gap = extremal_sequence_rho(k) - inv_zeta2
        assert low <= gap <= high, k
        assert high - low < 2e-3 * gap, k  # the bracket pins the gap to 0.2%
        if k == 40:
            assert 5.5636e-4 < low < gap < high < 5.5698e-4


def test_extremal_domain():
    with pytest.raises(ValueError):
        extremal_sequence_rho(0)
    with pytest.raises(ValueError):
        extremal_sequence_rho(51)
    with pytest.raises(TypeError):
        extremal_sequence_rho(2.0)


# --- partial sums ---------------------------------------------------------------

def test_partial_sums_examples():
    first = partial_sums(1)
    assert (first.cum_psi, first.cum_sigma, first.cum_ratio) == (1, 1, 1.0)
    ten = partial_sums(10)
    assert (ten.cum_psi, ten.cum_sigma) == (82, 87)
    assert ten.cum_ratio == 82 / 87


def test_partial_sums_against_brute_force():
    cum_psi = 0
    cum_sigma = 0
    for n in range(1, 121):
        cum_psi += brute_psi_triples(n)
        cum_sigma += brute_sigma(n)
        record = partial_sums(n)
        assert (record.cum_psi, record.cum_sigma) == (cum_psi, cum_sigma)
        assert record.cum_ratio == cum_psi / cum_sigma


def test_divisor_sums_match_small_sieve_sums():
    sv = sieve_multiplicative(500)
    cum_psi = sv.psi.cumsum()
    cum_sigma = sv.sigma.cumsum()
    for x in range(1, 501):
        assert divisor_sum_psi(x) == cum_psi[x], x
        assert divisor_sum_sigma(x) == cum_sigma[x], x


# MAX_SIEVE, the top of the domain, costs no sieve
@pytest.mark.parametrize("x", [10, 10**3, 10**4, 10**5, 10**6, MAX_SIEVE])
def test_partial_sums_match_divisor_sums(x):
    record = partial_sums(x)
    assert record.cum_psi == divisor_sum_psi(x)
    assert record.cum_sigma == divisor_sum_sigma(x)


def test_sieve_sums_match_sublinear_sums(sieve_million, within):
    # two independent routes to the same sums: the sieve's columns added up,
    # and the hyperbola method's mu-weighted divisor sums. Its r * T(r) term
    # counts the pairs up to isqrt(N) twice, so an off-by-one there shows at
    # a square; k stays below 1000 so that k^2 + 1 is inside the sieve
    sv = sieve_million
    cum_psi, cum_sigma = sv.psi.cumsum(), sv.sigma.cumsum()
    ks = random.Random(2601).sample(range(2, 1000), 100)
    limits = [*range(1, 2001), *(k * k + e for k in ks for e in (-1, 0, 1)), 10**6]
    with within(3):
        for n in limits:
            record = partial_sums(n)
            assert (record.cum_psi, record.cum_sigma) == (cum_psi[n], cum_sigma[n]), n


_NO_NUMPY = """\
import sys
from squaretori.asymptotics import partial_sums
print(partial_sums(10**6).cum_ratio, "numpy" in sys.modules)
"""


def test_partial_sums_loads_no_numpy(src_env):
    result = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY],
        capture_output=True,
        env=src_env,
        text=True,
        timeout=60,
    )
    assert result.stderr == ""
    assert result.stdout == f"{partial_sums(10**6).cum_ratio} False\n"


def test_sweep_stream_matches_partial_sums():
    records = list(sweep_stream(10))
    assert [psi for _, psi, *_ in records] == [1, 3, 4, 6, 6, 12, 8, 12, 12, 18]
    assert [sigma for _, _, sigma, *_ in records] == [1, 3, 4, 7, 6, 12, 8, 15, 13, 18]
    assert records[-1][4:] == partial_sums(10)
    for n, psi, sigma, ratio, cum_psi, cum_sigma, cum_ratio in records:
        assert cum_ratio == cum_psi / cum_sigma
        assert ratio == psi / sigma


# limits on and around powers of two, where a row generator that reads the
# sieve in blocks would turn one over; 65536 is an edge for every block size
# up to 2**16, and 196609 = 3 * 2**16 + 1 opens a fourth block of 2**16
BLOCK_EDGES = (8191, 8192, 8193, 16385, 65535, 65536, 65537, 131073, 196609)


@pytest.mark.parametrize("limit", BLOCK_EDGES)
def test_sweep_stream_across_block_edges(limit):
    sv = sieve_multiplicative(limit)
    expected = []
    cum_psi = cum_sigma = 0
    for n in range(1, limit + 1):
        p, s = int(sv.psi[n]), int(sv.sigma[n])
        cum_psi += p
        cum_sigma += s
        expected.append((n, p, s, p / s, cum_psi, cum_sigma, cum_psi / cum_sigma))
    records = list(sweep_stream(limit))
    assert records == expected
    for n in {*BLOCK_EDGES, 65538, limit}:
        if n <= limit:
            assert records[n - 1][4:] == partial_sums(n)


# limits around squares of primes (961 = 31^2, 2401 = 7^4) and powers of two,
# where a block's first multiple of p^k or the primes up to sqrt(limit) change
OFFSET_LIMITS = (1, 2, 3, 4, 63, 64, 65, 960, 961, 962, 2047, 2048, 2049, 2401, 2999)


@pytest.fixture(scope="module")
def oracle_rows():
    psi, sig, _, _ = linear_sieve(max(OFFSET_LIMITS))
    rows = []
    cum_psi = cum_sigma = 0
    for n in range(1, len(psi)):
        p, s = int(psi[n]), int(sig[n])
        cum_psi += p
        cum_sigma += s
        rows.append((n, p, s, p / s, cum_psi, cum_sigma, cum_psi / cum_sigma))
    return rows


@pytest.mark.parametrize("block", [1, 2, 3, 64, 997])
def test_every_block_offset_matches_the_linear_sieve(monkeypatch, oracle_rows, block):
    # read at each call: blocks this small put every offset of every prime
    # power against some block's start
    monkeypatch.setattr(asymptotics, "_BLOCK", block)
    for limit in OFFSET_LIMITS:
        records = list(sweep_stream(limit))
        assert records == oracle_rows[:limit], (block, limit)
        assert records[-1][4:] == partial_sums(limit)


@pytest.mark.parametrize("limit", [1, 8193, 131073])
def test_sweep_rows_are_plain_tuples_of_exact_python_numbers(limit):
    # int64 scalars would print alike but overflow silently; the rows hold
    # Python ints, and their ratios Python floats
    kinds = (int, int, int, float, int, int, float)
    for row in sweep_stream(limit):
        assert type(row) is tuple
        assert tuple(map(type, row)) == kinds, row


def test_mean_order_deviation_shrinks():
    devs = []
    for limit in (10**3, 10**4, 10**5, 10**6):
        record = partial_sums(limit)
        devs.append(abs(record.cum_ratio - INV_ZETA4))
    assert devs == sorted(devs, reverse=True)
    assert devs[1] < devs[0] and devs[2] < devs[1] and devs[3] < devs[2]
    # one constant C <= 10 covers every scale: |dev| <= C log(N)/N
    fitted = max(
        dev * limit / math.log(limit)
        for dev, limit in zip(devs, (10**3, 10**4, 10**5, 10**6))
    )
    assert fitted <= 10.0


def test_rho_bounds_over_sieved_range(sieve_million):
    sv = sieve_million
    ratios = sv.psi[1:] / sv.sigma[1:]
    assert float(ratios.min()) >= INV_ZETA2 - 1e-12
    assert float(ratios.max()) <= 1.0
    exact_ones = sv.psi[1:] == sv.sigma[1:]
    assert bool((exact_ones == squarefree_mask(len(sv.psi) - 1)[1:]).all())


def plain_primes(limit):
    """The primes up to limit by the sieve of Eratosthenes on a bytearray."""
    is_prime = bytearray([1]) * (limit + 1)
    is_prime[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p, flag in enumerate(is_prime) if flag]


def test_the_mean_of_rho_is_an_euler_product(sieve_million):
    # the second average of rho: (1/N) sum rho(n) -> M = prod over p of
    # (1 - 1/p)(1 + sum_a rho(p^a)/p^a) (Wintner 1943), with
    # rho(p^a)/p^a = (p^2 - 1)/(p (p^(a+1) - 1)); rho(p)/p is 1/p, so each
    # factor is 1 + (1 - 1/p) tail - 1/p^2, tail the sum over a >= 2.
    # The factors of p > 10^6 differ from 1 by O(p^-4): M is exact to 1e-12
    n = len(sieve_million.psi) - 1
    logs = []
    for p in plain_primes(n):
        tail, q = 0.0, p**3
        while q < 2**80:  # a term below 2^-80 cannot move M at 1e-12
            tail += 1 / (q - 1)
            q *= p
        tail *= (p * p - 1) / p
        logs.append(math.log1p((1 - 1 / p) * tail - 1 / (p * p)))
    euler = math.exp(math.fsum(logs))
    assert abs(euler - 0.944214657921) < 1e-11
    # rho = 1 * g with g multiplicative, g(p) = 0 and |g(p^a)| <= p^-a, so g
    # lives on the square-full d with |g(d)| <= 1/d. Then
    # |mean - M| <= (1/N) sum over square-full d of 1/d = zeta(2)zeta(3)/zeta(6)/N,
    # 1.944e-6 here; the deviation reads 6.32e-9
    ratios = sieve_million.psi[1:] / sieve_million.sigma[1:]
    mean = math.fsum(ratios.tolist()) / n
    assert abs(mean - euler) <= 1.9436 / n
    assert mean > INV_ZETA4 + 0.02  # the ratio of sums weighs the small rho more


def test_the_atom_of_rho_at_one_is_the_square_free_share(sieve_million):
    # rho(n) = 1 exactly at square-free n, so rho's limit law has an atom of
    # 6/pi^2 at 1 (Erdos and Wintner 1939). Cohen, Dress and El Marraki
    # (Funct. Approx. 37, 2007) bound the count Q(x) of square-free n <= x by
    # |Q(x) - 6x/pi^2| <= 0.02767 sqrt(x) for x >= 438653; Q(10^6) is 607926
    n = len(sieve_million.psi) - 1
    share = int((sieve_million.psi[1:] == sieve_million.sigma[1:]).sum()) / n
    assert abs(share - INV_ZETA2) <= 0.02767 / math.sqrt(n)


# --- square-free zeta sum ----------------------------------------------------

def test_qd2_examples():
    assert qd2_partial_sum(1) == 1.0
    assert qd2_partial_sum(4) == pytest.approx(1 + 1 / 4 + 1 / 9, abs=1e-15)


def test_qd2_converges_with_tail_bound():
    target = ZETA2_OVER_ZETA4
    for limit in (10**3, 10**4, 10**5):
        value = qd2_partial_sum(limit)
        assert abs(value - target) <= 1.0 / limit
    assert qd2_partial_sum(10**4) <= qd2_partial_sum(10**5)


def qd2_reference(limit):
    # the same IEEE operations as qd2_partial_sum, through three temporaries,
    # on the oracle's square-free mask, whose primes come from trial division
    d = np.arange(limit + 1, dtype=np.float64)
    d[0] = 1.0
    terms = squarefree_mask(limit).astype(np.float64) / (d * d)
    return float(terms[1:].sum())


@pytest.mark.parametrize("limit", [10**6, 10**7])
def test_qd2_extra_peak_memory(limit):
    # the bool square-free mask plus one float64 leaf of _BLOCK terms
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        qd2_partial_sum(limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    extra = peak - before
    bound = 1.25 * ((limit + 1) + 8 * asymptotics._BLOCK)
    assert extra <= bound, extra / bound


def test_qd2_retains_nothing_without_the_cyclic_collector():
    # a self-calling closure would keep its masks in a reference cycle
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(3):
            qd2_partial_sum(10**6)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert after - before <= 64 * 1024, after - before


# past 2**16 the sum is split into leaves; at 65546 and 99999 a split at n//2,
# a few terms off numpy's own, already changes the last bit
@pytest.mark.parametrize(
    "limit",
    [1, 2, 10, 999, 65536, 65537, 65546, 99999, 131072, 131073, 299999]
    + [10**6, 1003456, 2**20 + 3],
)
def test_qd2_is_bit_identical_to_the_reference(limit):
    assert qd2_partial_sum(limit) == qd2_reference(limit)


def test_qd2_values_are_pinned():
    # the whole-array reference at 10**7 would build about 240 MB
    assert qd2_partial_sum(10**6).hex() == "0x1.8512bc8d015ecp+0"
    assert qd2_partial_sum(10**7).hex() == "0x1.8512c5baef8b4p+0"


@pytest.mark.parametrize("n", [2**16 - 1, 2**16 + 1, 2**17, 2**17 + 3, 10**6, 10**6 + 5])
def test_numpy_sums_float64_along_its_pairwise_split(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    h = n // 2 - (n // 2) % 8
    assert a.sum() == a[:h].sum() + a[h:].sum(), (
        "numpy's float64 sum no longer splits at n//2 - (n//2) % 8; "
        "qd2_partial_sum's grouping relies on numpy's pairwise split"
    )
    # the data is fine enough that moving the split can change the sum
    moved = [a[: h + k].sum() + a[h + k :].sum() for k in (-64, -8, 8, 64)]
    assert any(a.sum() != other for other in moved)


def test_partial_sums_domain(sieve_100k):
    with pytest.raises(ValueError):
        partial_sums(0)
    # the ignored sieve never stands in for the limit check
    for limit in (0, -1):
        for call in (partial_sums, qd2_partial_sum):
            with pytest.raises(ValueError, match=f"limit must be >= 1, got {limit}"):
                call(limit, sieve=sieve_100k)
    # a sieve of any length is ignored, never read past its end
    assert partial_sums(200, sieve=sieve_multiplicative(100)) == partial_sums(200)


def test_a_checked_sieve_cannot_be_changed_after_its_check():
    # sv.psi[3] = 99 once went through, and partial_sums then gave cum_ratio 2.034
    sv = sieve_multiplicative(10)
    ones = MultiplicativeSieve(np.ones(11, np.int64), np.ones(11, np.int64))
    for column in (sv.psi, sv.sigma, ones.psi, ones.sigma):
        with pytest.raises(ValueError, match="read-only"):
            column[3] = 99
    assert (sv.psi[3], sv.sigma[3], ones.psi[3], ones.sigma[3]) == (4, 4, 1, 1)


@pytest.mark.parametrize(
    "psi, sigma",
    [
        (np.ones(2, np.int64), np.ones(7, np.int64)),
        (np.ones(7, np.int64), np.ones(7, np.float32)),
        (np.ones((2, 3), np.int64), np.ones((2, 3), np.int64)),
    ],
    ids=["length-mismatch", "float32", "2-D"],
)
def test_a_sieve_holds_two_int64_columns_of_one_length(psi, sigma):
    # MultiplicativeSieve(np.ones(2, np.int64), np.ones(7, np.float32)) once
    # constructed, and len(sv.psi) - 1 was then no limit of sv.sigma
    with pytest.raises(ValueError, match="1-D int64 arrays of one length"):
        MultiplicativeSieve(psi, sigma)
    with pytest.raises(ValueError, match="1-D int64 arrays of one length"):
        MultiplicativeSieve(sigma, psi)
    assert psi.flags.writeable and sigma.flags.writeable  # refused before marking


@pytest.mark.parametrize(
    "read", [partial_sums, qd2_partial_sum], ids=["partial_sums", "qd2"]
)
def test_a_hand_built_sieve_is_never_read(read):
    # a view taken before the sieve was built stays writable, and through it
    # the sums once read psi[3] = 99: partial_sums gave cum_ratio 2.034
    sv = sieve_multiplicative(10)
    psi, sig = sv.psi.copy(), sv.sigma.copy()
    v = psi[:]
    hb = MultiplicativeSieve(psi, sig)
    v[3] = 99
    assert read(10, sieve=hb) == read(10)
    assert round(partial_sums(10, sieve=hb).cum_ratio, 3) == 0.943


NOT_AN_INTEGER = "'float' object cannot be interpreted as an integer"
# each sized entry point handed a float, with and without a prebuilt sieve sv
FLOAT_SIZES = {
    "sieve": lambda sv: sieve_multiplicative(10.0),
    "sieve-over-budget": lambda sv: sieve_multiplicative(float(MAX_SIEVE + 1)),
    "partial_sums": lambda sv: partial_sums(10.5),
    "partial_sums-sv": lambda sv: partial_sums(10.5, sieve=sv),
    "qd2": lambda sv: qd2_partial_sum(10.5),
    "qd2-sv": lambda sv: qd2_partial_sum(10.5, sieve=sv),
    "sweep_stream": lambda sv: list(sweep_stream(3.5)),
}


@pytest.mark.parametrize("call", FLOAT_SIZES.values(), ids=FLOAT_SIZES.keys())
def test_sizes_must_be_integers(call, sieve_100k):
    # refused by operator.index before numpy sees the value, sieve or no sieve
    with pytest.raises(TypeError, match=NOT_AN_INTEGER):
        call(sieve_100k)


# each refused by _sieve_domain inside the call, before a generator exists
STREAM_REFUSALS = {
    "float": (3.5, TypeError, NOT_AN_INTEGER),
    "zero": (0, ValueError, "limit must be >= 1, got 0"),
    "2**63": (2**63, OverflowError, f"limit = {2**63} leaves the 64-bit range"),
    "MAX_SIEVE+1": (MAX_SIEVE + 1, BudgetError, "over the MAX_SIEVE budget"),
}


@pytest.mark.parametrize(
    "limit, refusal, message", STREAM_REFUSALS.values(), ids=STREAM_REFUSALS.keys()
)
def test_sweep_stream_refuses_at_the_call(limit, refusal, message):
    with pytest.raises(refusal, match=re.escape(message)):
        sweep_stream(limit)  # never iterated: the refusal comes before any row


# both sides of the squares of 2, 31, 1000 and 3162, and the top of the domain
SQUARE_EDGES = sorted({k * k + e for k in (2, 31, 1000, 3162) for e in (-1, 0, 1)})


@pytest.mark.parametrize("limit", [*SQUARE_EDGES, MAX_SIEVE])
def test_the_sieve_domain_lists_the_primes_up_to_the_root(limit):
    primes = list(filter(brute_is_prime, range(2, math.isqrt(limit) + 1)))
    assert _sieve_domain(limit) == (limit, primes)


SIEVE_SIZED = {
    "sieve_multiplicative": sieve_multiplicative,
    "partial_sums": partial_sums,
    "sweep_stream": sweep_stream,
    "qd2_partial_sum": qd2_partial_sum,
}


@pytest.mark.parametrize("limit", [0, 2.5, 2**63, MAX_SIEVE + 1])
@pytest.mark.parametrize("entry", SIEVE_SIZED.values(), ids=SIEVE_SIZED.keys())
def test_every_sieve_sized_entry_refuses_as_the_shared_domain(entry, limit):
    with pytest.raises(Exception) as shared:
        _sieve_domain(limit)
    with pytest.raises(Exception) as refused:
        entry(limit)  # a sweep is never iterated: the refusal comes at the call
    assert type(refused.value) is type(shared.value)
    assert str(refused.value) == str(shared.value)
