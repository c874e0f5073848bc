"""One integer contract at every public entry, as a table.

Each integer parameter of a public callable gets a float, -1, 0, 2**63 and
+-10**5000. Each probe must be refused at once, unless the table gives its
documented value: the float with TypeError, any other probe with ValueError,
OverflowError or BudgetError.
An integer past str()'s 4300-digit limit fails like its 64-bit neighbour,
with the library's own message. A public name with neither a row here nor
a place in NO_INTEGER fails the test, so the contract cannot drift as
names come and go. Every resource budget is refused the same way, by one
helper, with a message that names the request, its size and the budget.
A result past 2**63 - 1 is refused by the check every input passes, with
its exact value in the message.
"""

import ast
from math import prod

import pytest
from hypothesis import given, strategies as st

from squaretori.arith import (
    MAX_SIEVE,
    WORD_BOUND,
    BudgetError,
    PrimeFactorization,
    dedekind_psi,
    factorize,
    is_prime,
    psi_prime,
    psi_via_cylinders,
    sieve_multiplicative,
    sigma,
)
from squaretori.asymptotics import (
    RatioValue,
    extremal_sequence_rho,
    partial_sums,
    qd2_partial_sum,
    rho,
    sweep_stream,
)
from squaretori.lattice import (
    GeneratorPair,
    HnfLattice,
    QuotientShape,
    enumerate_lattices,
    lattice_index,
    random_unimodular,
    to_permutation_pair,
)
from test_style import SOURCE, public_names

HUGE = 10**5000  # past str()'s 4300-digit limit: no message may print it whole
PROBES = (2.5, -1, 0, 2**63, HUGE, -HUGE)
REFUSALS = (TypeError, ValueError, OverflowError, BudgetError)
G = GeneratorPair((2, 1), (1, 3))  # index 5; any one coordinate -1 or 0 keeps rank 2
SV = sieve_multiplicative(10)  # loads numpy, which no probe should pay


def index_of(u, v):
    return lattice_index(GeneratorPair(u, v))


# (public name, parameter, call with x in that parameter, {probe: documented value}),
# optionally followed by the probes that apply when not all of PROBES do
CONTRACTS = [
    ("is_prime", "n", is_prime, {-1: False, 0: False, -HUGE: False}),  # False below 2
    ("factorize", "n", factorize, {}),
    ("PrimeFactorization", "n", lambda x: PrimeFactorization(x, ()), {}),
    ("PrimeFactorization", "prime", lambda x: PrimeFactorization(2, ((x, 1),)), {}),
    ("PrimeFactorization", "exponent", lambda x: PrimeFactorization(2, ((2, x),)), {}),
    ("psi_via_cylinders", "n", psi_via_cylinders, {}),
    ("psi_prime", "n", psi_prime, {}),
    ("sieve_multiplicative", "limit", sieve_multiplicative, {}),
    # a coordinate may be negative or zero
    ("GeneratorPair", "u0", lambda x: index_of((x, 1), (1, 3)), {-1: 4, 0: 1}),
    ("GeneratorPair", "u1", lambda x: index_of((2, x), (1, 3)), {-1: 7, 0: 6}),
    ("GeneratorPair", "v0", lambda x: index_of((2, 1), (x, 3)), {-1: 7, 0: 6}),
    ("GeneratorPair", "v1", lambda x: index_of((2, 1), (1, x)), {-1: 3, 0: 1}),
    ("HnfLattice", "width", lambda x: HnfLattice(x, 2, 0), {}),
    ("HnfLattice", "height", lambda x: HnfLattice(3, x, 1), {}),
    ("HnfLattice", "twist", lambda x: HnfLattice(3, 2, x), {0: (3, 2, 0)}),
    ("QuotientShape", "d1", lambda x: QuotientShape(x, 6), {}),
    ("QuotientShape", "d2", lambda x: QuotientShape(1, x), {}),
    ("enumerate_lattices", "n", enumerate_lattices, {}),
    (  # any seed random.Random takes; the basis changes, the lattice does not
        "random_unimodular",
        "seed",
        lambda x: lattice_index(random_unimodular(G, x, 5)),
        dict.fromkeys(PROBES, 5),
    ),
    (  # 2**63 steps is a real request for 2**63 moves, not an off-domain input
        "random_unimodular",
        "steps",
        lambda x: random_unimodular(G, 1, x),
        {0: G},
        (2.5, -1, 0, -HUGE),
    ),
    ("RatioValue", "psi", lambda x: RatioValue(x, 3), {}),
    ("RatioValue", "sigma", lambda x: RatioValue(2, x), {}),
    ("extremal_sequence_rho", "k", extremal_sequence_rho, {}),
    ("partial_sums", "limit", partial_sums, {}),
    ("sweep_stream", "limit", sweep_stream, {}),  # refused before a row is asked for
    ("qd2_partial_sum", "limit", qd2_partial_sum, {}),
    # the ignored sieve= keyword, still accepted, never stands in for the limit check
    ("partial_sums", "limit+sieve", lambda x: partial_sums(x, sieve=SV), {}),
    ("qd2_partial_sum", "limit+sieve", lambda x: qd2_partial_sum(x, sieve=SV), {}),
]

# public names that take no integer from a caller, with what they are or take
NO_INTEGER = {
    "WORD_BOUND": "a constant",
    "MAX_SIEVE": "a constant",
    "MAX_TRIPLES": "a constant",
    "INV_ZETA2": "a constant",
    "INV_ZETA4": "a constant",
    "ZETA2_OVER_ZETA4": "a constant",
    "BudgetError": "an exception: any message",
    "dedekind_psi": "a PrimeFactorization",
    "sigma": "a PrimeFactorization",
    "squarefree_indicator": "a PrimeFactorization",
    "divisors": "a PrimeFactorization",
    "rho": "a PrimeFactorization",
    "lattice_index": "a GeneratorPair",
    "content": "a GeneratorPair",
    "hnf_reduce": "a GeneratorPair",
    "smith_shape": "a GeneratorPair",
    "is_cyclic": "an HnfLattice",
    "to_permutation_pair": "an HnfLattice",
    "permutation_pair_json": "an HnfLattice",
    "MultiplicativeSieve": "sieve_multiplicative's output; no function reads one",
    "MeanOrderSums": "an output record; no function takes one back",
}


def probe_id(name, parameter, x):
    shown = {HUGE: "10**5000", -HUGE: "-10**5000"}.get(x) or repr(x)
    return f"{name}.{parameter}={shown}"


def probes():
    for name, parameter, call, documented, *only in CONTRACTS:
        for x in only[0] if only else PROBES:
            yield pytest.param(call, x, documented, id=probe_id(name, parameter, x))


@pytest.mark.parametrize("call, x, documented", probes())
def test_off_domain_integers_are_refused_at_once(call, x, documented, within):
    with within(0.1):
        if x in documented:
            assert call(x) == documented[x]
            return
        with pytest.raises(REFUSALS) as refusal:
            call(x)
    assert "Exceeds the limit" not in str(refusal.value)
    # a float is refused for its type by operator.index, any other probe for its value
    if isinstance(x, float):
        assert refusal.type is TypeError
        assert "cannot be interpreted as an integer" in str(refusal.value)
    else:
        assert refusal.type is not TypeError


def huge_probes():
    """Each undocumented +-10**5000 probe, with the 64-bit probe it must fail like.

    That is 2**63 for the positive one. For the negative one it is -1, unless
    -1 is a valid value (a coordinate), where only the size can fail.
    """
    for name, parameter, call, documented, *only in CONTRACTS:
        for x in (HUGE, -HUGE):
            if x in (only[0] if only else PROBES) and x not in documented:
                near = -1 if x < 0 and -1 not in documented else 2**63
                yield pytest.param(call, x, near, id=probe_id(name, parameter, x))


@pytest.mark.parametrize("call, x, near", huge_probes())
def test_integers_of_any_length_fail_like_their_64_bit_neighbour(call, x, near):
    with pytest.raises(REFUSALS) as expected:
        call(near)
    with pytest.raises(REFUSALS) as refusal:
        call(x)
    assert type(refusal.value) is type(expected.value)


OVER_MAX_SIEVE = "a sieve of 10000001 entries, over the MAX_SIEVE budget of 10000000"
# (call, what its message names: the request, the amount asked and the budget)
BUDGETS = {
    "MAX_SIEVE": (  # refused before numpy allocates anything
        lambda: sieve_multiplicative(MAX_SIEVE + 1),
        OVER_MAX_SIEVE,
    ),
    # the mean-order sums build no psi/sigma sieve but keep its budget, and
    # the ignored sieve= keyword changes neither the budget nor the message
    "MAX_SIEVE-partial_sums": (lambda: partial_sums(MAX_SIEVE + 1), OVER_MAX_SIEVE),
    "MAX_SIEVE-partial_sums-sv": (
        lambda: partial_sums(MAX_SIEVE + 1, sieve=SV),
        OVER_MAX_SIEVE,
    ),
    "MAX_SIEVE-sweep_stream": (
        lambda: next(sweep_stream(MAX_SIEVE + 1)),
        OVER_MAX_SIEVE,
    ),
    "MAX_SIEVE-qd2": (lambda: qd2_partial_sum(MAX_SIEVE + 1), OVER_MAX_SIEVE),
    "MAX_TRIPLES-enumerate": (  # 2**62 is refused before it is factored
        lambda: enumerate_lattices(2**62),
        f"index {2**62} needs at least {2**62 + 1} triples, "
        "over the MAX_TRIPLES budget of 10000000",
    ),
    "MAX_TRIPLES-squares": (
        lambda: to_permutation_pair(HnfLattice(10**4, 10**3 + 1, 0)),
        "a torus of 10010000 squares, over the MAX_TRIPLES budget of 10000000",
    ),
}


@pytest.mark.parametrize("call, message", BUDGETS.values(), ids=BUDGETS.keys())
def test_every_budget_is_refused_by_one_helper(call, message):
    with pytest.raises(BudgetError) as refusal:
        call()
    assert str(refusal.value) == message


OVER = 3 * 2**61  # psi = 2 * OVER and sigma = 2**64 - 4 both pass WORD_BOUND
PSI_OVER = f"psi({OVER}) = 13835058055282163712 leaves the 64-bit range"
# (call, its message): a result past the bound names its exact value
RESULTS = {
    "dedekind_psi": (lambda: dedekind_psi(factorize(OVER)), PSI_OVER),
    "sigma": (
        lambda: sigma(factorize(OVER)),
        f"sigma({OVER}) = 18446744073709551612 leaves the 64-bit range",
    ),
    "psi_via_cylinders": (lambda: psi_via_cylinders(OVER), PSI_OVER),
    "psi_prime": (lambda: psi_prime(OVER), PSI_OVER),
    "rho": (lambda: rho(factorize(OVER)), PSI_OVER),  # psi is taken first
}


@pytest.mark.parametrize("call, message", RESULTS.values(), ids=RESULTS.keys())
def test_every_result_past_the_bound_is_refused_with_its_value(call, message):
    with pytest.raises(OverflowError) as refusal:
        call()
    assert str(refusal.value) == message


def test_a_result_at_the_bound_is_kept():
    assert sigma(factorize(2**62)) == 2**63 - 1 == WORD_BOUND


ODD_PRIMES = (3, 5, 7, 11, 13)


@given(st.lists(st.integers(0, 2), min_size=5, max_size=5), st.data())
def test_every_result_route_is_exact_or_names_its_value(exponents, data):
    """n = 2**k times small odd prime powers, drawn in [2**58, 2**63 - 1]."""
    odd = prod(p**a for p, a in zip(ODD_PRIMES, exponents))
    lowest = (-(-(2**58) // odd) - 1).bit_length()  # least k with odd << k >= 2**58
    k = data.draw(st.integers(lowest, (WORD_BOUND // odd).bit_length() - 1), label="k")
    n = odd << k
    factors = ((2, k),) + tuple((p, a) for p, a in zip(ODD_PRIMES, exponents) if a)
    psi = prod(p ** (a - 1) * (p + 1) for p, a in factors)
    sig = prod((p ** (a + 1) - 1) // (p - 1) for p, a in factors)
    f = factorize(n)
    assert f.factors == factors
    routes = (
        ("psi", psi, lambda: dedekind_psi(f)),
        ("psi", psi, lambda: psi_via_cylinders(n)),
        ("psi", psi, lambda: psi_prime(n)),
        ("sigma", sig, lambda: sigma(f)),
    )
    for name, value, route in routes:
        if value <= WORD_BOUND:
            got = route()
            assert type(got) is int and got == value
            continue
        with pytest.raises(OverflowError) as refusal:
            route()
        assert str(refusal.value) == f"{name}({n}) = {value} leaves the 64-bit range"
    if max(psi, sig) <= WORD_BOUND:
        assert rho(f) == RatioValue(psi, sig)
        return
    name, value = ("psi", psi) if psi > WORD_BOUND else ("sigma", sig)
    with pytest.raises(OverflowError) as refusal:
        rho(f)  # psi's value is refused first, then sigma's
    assert str(refusal.value) == f"{name}({n}) = {value} leaves the 64-bit range"


def test_every_public_name_has_a_contract_row():
    listed = {row[0] for row in CONTRACTS} | set(NO_INTEGER)
    names = set()
    for module in ("arith", "lattice", "asymptotics"):
        tree = ast.parse((SOURCE / f"{module}.py").read_text())
        names |= public_names(tree)
    assert sorted(names - listed) == []
    assert sorted(listed - names) == []  # no row outlives its name
