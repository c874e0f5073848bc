import pickle
import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from oracles import (
    all_hnf_matches,
    brute_is_squarefree,
    group_closure,
    group_is_cyclic_closure,
    group_is_cyclic_exponent,
    is_transitive,
    perm_order,
    perms_commute,
    same_lattice,
)
from squaretori import lattice
from squaretori.arith import BudgetError, dedekind_psi, divisors, factorize, sigma
from squaretori.lattice import (
    GeneratorPair,
    HnfLattice,
    QuotientShape,
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


def random_pairs(count, span=50, seed=12345):
    """Deterministic corpus of rank-2 generator pairs with entries in [-span, span]."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        u = (rng.randint(-span, span), rng.randint(-span, span))
        v = (rng.randint(-span, span), rng.randint(-span, span))
        if u[0] * v[1] - u[1] * v[0] != 0:
            pairs.append(GeneratorPair(u, v))
    return pairs


# --- basic invariants ----------------------------------------------------

def test_lattice_index_examples():
    assert lattice_index(GeneratorPair((1, 0), (0, 1))) == 1
    assert lattice_index(GeneratorPair((3, 0), (1, 2))) == 6
    assert lattice_index(GeneratorPair((2, 4), (1, 5))) == 6


def test_content_examples():
    assert content(GeneratorPair((1, 0), (0, 1))) == 1
    assert content(GeneratorPair((2, 0), (0, 2))) == 2
    assert content(GeneratorPair((2, 4), (6, 2))) == 2
    assert lattice_index(GeneratorPair((2, 4), (6, 2))) == 20


def test_content_squared_divides_index():
    for g in random_pairs(300):
        assert lattice_index(g) % content(g) ** 2 == 0


def test_rank_errors():
    with pytest.raises(ValueError, match="linearly dependent"):
        GeneratorPair((0, 0), (1, 2))
    with pytest.raises(ValueError, match="linearly dependent"):
        GeneratorPair((2, 4), (1, 2))  # parallel
    with pytest.raises(ValueError, match="linearly dependent"):
        GeneratorPair((0, 0), (0, 0))


def test_generators_outside_64_bits_overflow():
    with pytest.raises(OverflowError):
        GeneratorPair((2**40, 0), (0, 2**40))  # index 2^80
    with pytest.raises(OverflowError):
        GeneratorPair((2**63, 1), (2**63 + 1, 1))  # index 1, coordinate 2^63
    assert lattice_index(GeneratorPair((2**62, 1), (2**62 + 1, 1))) == 1
    # |coordinate| <= 2^63 - 1: -2^63 is refused in each place, at index 1
    low = -(2**63)
    for u, v in (
        ((low, 1), (low + 1, 1)),
        ((1, low), (1, low + 1)),
        ((low + 1, 1), (low, 1)),
        ((1, low + 1), (1, low)),
    ):
        with pytest.raises(OverflowError, match="generators leave the 64-bit range"):
            GeneratorPair(u, v)
    assert lattice_index(GeneratorPair((low + 1, 1), (low + 2, 1))) == 1
    assert lattice_index(GeneratorPair((2**31, 0), (0, 2**31 - 1))) == 2**62 - 2**31


def test_generators_must_be_integers():
    # a float coordinate is refused, not truncated: (1.5, 2) is not (1, 2)
    for u, v in (((1.5, 2), (0, 1)), ((1, 2), (0, 1.0)), (("1", 2), (0, 1))):
        with pytest.raises(TypeError):
            GeneratorPair(u, v)
    # exactly two coordinates per vector: a third is refused, not dropped
    for u, v in (((1, 2, 3), (0, 1, 99)), ((1,), (0, 1)), ((1, 2), ())):
        with pytest.raises(ValueError):
            GeneratorPair(u, v)


def test_hnf_lattice_must_be_integers_within_64_bits():
    # like GeneratorPair: floats are refused and the index stays in 64 bits
    for fields in ((2.5, 1, 0), (3, 2, 1.5), (3, 2.0, 1), ("3", 2, 1)):
        with pytest.raises(TypeError):
            HnfLattice(*fields)
    with pytest.raises(OverflowError):
        HnfLattice(2**40, 2**40, 0)
    with pytest.raises(OverflowError):
        HnfLattice(3, 2, 1)._replace(height=2**62)
    lat = HnfLattice(2**31, 2**31, 5)  # index 2**62 is inside the bound
    assert lat.index == 2**62


def test_type_validation():
    with pytest.raises(ValueError):
        HnfLattice(0, 1, 0)
    with pytest.raises(ValueError):
        HnfLattice(2, 1, 2)  # twist out of range
    with pytest.raises(ValueError):
        QuotientShape(2, 3)  # 2 does not divide 3
    assert HnfLattice(3, 2, 1).index == 6
    with pytest.raises(TypeError):
        QuotientShape(1.5, 3.0)
    with pytest.raises(TypeError):
        QuotientShape(1, 6.0)
    with pytest.raises(OverflowError):
        QuotientShape(1, 2**64)  # d1 | d2 bounds d1 once d2 is in 64 bits
    assert QuotientShape(1, 2**63 - 1).d2 == 2**63 - 1


def test_hnf_lattice_is_an_immutable_named_tuple():
    lat = HnfLattice(3, 2, 1)
    assert lat == (3, 2, 1) and tuple(lat) == (3, 2, 1)
    assert repr(lat) == "HnfLattice(width=3, height=2, twist=1)"
    with pytest.raises(AttributeError):
        lat.twist = 0
    with pytest.raises(AttributeError):
        lat.label = "x"
    copy = pickle.loads(pickle.dumps(lat))
    assert type(copy) is HnfLattice and copy == lat
    assert hash(copy) == hash(lat) == hash((3, 2, 1))
    assert lat._replace(twist=2) == HnfLattice(3, 2, 2)
    with pytest.raises(ValueError):
        lat._replace(twist=3)  # _replace validates like the constructor


# --- canonical form -------------------------------------------------------

def test_hnf_examples():
    assert hnf_reduce(GeneratorPair((1, 0), (0, 1))) == HnfLattice(1, 1, 0)
    assert hnf_reduce(GeneratorPair((2, 0), (0, 2))) == HnfLattice(2, 2, 0)
    # verified against the mutual-membership oracle below
    assert hnf_reduce(GeneratorPair((0, 2), (3, 1))) == HnfLattice(6, 1, 3)
    assert all_hnf_matches((0, 2), (3, 1)) == [(6, 1, 3)]


def test_hnf_is_idempotent():
    for w in range(1, 13):
        for h in range(1, 9):
            for t in range(w):
                g = GeneratorPair((w, 0), (t, h))
                assert hnf_reduce(g) == HnfLattice(w, h, t)


def test_hnf_matches_membership_oracle():
    for g in random_pairs(120, span=9, seed=99):
        if lattice_index(g) > 64:
            continue
        lat = hnf_reduce(g)
        assert all_hnf_matches(g.u, g.v) == [(lat.width, lat.height, lat.twist)]


def test_hnf_generates_the_same_lattice():
    for g in random_pairs(200, span=30, seed=7):
        lat = hnf_reduce(g)
        hnf_basis = ((lat.width, 0), (lat.twist, lat.height))
        assert same_lattice((g.u, g.v), hnf_basis)


def test_basis_invariance_under_unimodular_moves():
    for i, g in enumerate(random_pairs(150)):
        moved = random_unimodular(g, seed=i, steps=10)
        assert content(moved) == content(g)
        assert lattice_index(moved) == lattice_index(g)
        assert hnf_reduce(moved) == hnf_reduce(g)


def test_random_unimodular_zero_steps():
    g = GeneratorPair((2, 4), (1, 5))
    assert random_unimodular(g, seed=3, steps=0) == g


# --- Smith form -------------------------------------------------------------

def test_smith_examples():
    assert smith_shape(GeneratorPair((1, 0), (0, 1))) == QuotientShape(1, 1)
    assert smith_shape(GeneratorPair((2, 0), (0, 2))) == QuotientShape(2, 2)
    assert smith_shape(GeneratorPair((2, 0), (1, 2))) == QuotientShape(1, 4)


def test_smith_agrees_with_content_and_index():
    # d1 = content and d1*d2 = index, computed by a different reduction
    for g in random_pairs(300, seed=17):
        shape = smith_shape(g)
        assert shape.d1 == content(g)
        assert shape.d1 * shape.d2 == lattice_index(g)


# consecutive Fibonacci numbers, Euclid's worst case; Cassini's identity makes det 1
CASSINI = GeneratorPair(
    (4660046610375530309, 2880067194370816120),
    (2880067194370816120, 1779979416004714189),
)


def test_smith_on_every_small_pair_and_the_euclid_worst_case(within):
    # a reduction that does not end fails here instead of hanging the suite
    with within(5):
        span = range(-6, 7)
        pairs = [
            GeneratorPair((a, c), (b, d))
            for a, b, c, d in product(span, repeat=4)
            if a * d != b * c
        ]
        assert len(pairs) == 27_248
        for g in pairs:
            d1 = content(g)
            assert smith_shape(g) == QuotientShape(d1, lattice_index(g) // d1), g
        # reducing the pivot by the entry instead looped forever on this pair
        assert smith_shape(GeneratorPair((-6, -6), (-6, -3))) == QuotientShape(3, 6)
        assert smith_shape(CASSINI) == QuotientShape(1, 1)


# --- cyclicity ----------------------------------------------------------------

def test_is_cyclic_examples():
    assert is_cyclic(HnfLattice(2, 2, 1))
    assert not is_cyclic(HnfLattice(2, 2, 0))
    assert not is_cyclic(HnfLattice(6, 2, 4))
    assert smith_shape(GeneratorPair((6, 0), (4, 2))).d1 == 2


def test_is_primitive_examples():
    assert content(GeneratorPair((1, 0), (0, 1))) == 1
    assert content(GeneratorPair((2, 0), (0, 2))) == 2
    assert content(GeneratorPair((3, 0), (1, 2))) == 1


def test_three_oracle_agreement_small():
    for n in range(1, 101):
        for lat in enumerate_lattices(n):
            pair = GeneratorPair((lat.width, 0), (lat.twist, lat.height))
            by_gcd = is_cyclic(lat)
            assert (content(pair) == 1) == by_gcd
            assert (smith_shape(pair).d1 == 1) == by_gcd


# --- enumeration -----------------------------------------------------------

def test_enumerate_examples():
    assert list(enumerate_lattices(1)) == [HnfLattice(1, 1, 0)]
    two = list(enumerate_lattices(2))
    assert two == [HnfLattice(1, 2, 0), HnfLattice(2, 1, 0), HnfLattice(2, 1, 1)]
    assert all(is_cyclic(lat) for lat in two)
    four = list(enumerate_lattices(4))
    assert len(four) == 7
    non_cyclic = [lat for lat in four if not is_cyclic(lat)]
    assert non_cyclic == [HnfLattice(2, 2, 0)]


def test_enumerate_ordering_and_validity():
    for n in (12, 36, 60):
        lats = list(enumerate_lattices(n))
        keys = [(lat.width, lat.twist) for lat in lats]
        assert keys == sorted(keys)
        assert len(set(lats)) == len(lats)
        assert all(lat.index == n for lat in lats)


def test_enumerate_counts_match_arith():
    for n in range(1, 401):
        lats = list(enumerate_lattices(n))
        f = factorize(n)
        assert len(lats) == sigma(f)
        assert sum(1 for lat in lats if is_cyclic(lat)) == dedekind_psi(f)


def test_square_free_indices_are_all_cyclic():
    for n in range(1, 501):
        if brute_is_squarefree(n):
            assert all(is_cyclic(lat) for lat in enumerate_lattices(n)), n


@given(st.integers(min_value=1, max_value=5000))
def test_enumerate_matches_validated_construction(n):
    validated = [
        HnfLattice(w, n // w, t) for w in divisors(factorize(n)) for t in range(w)
    ]
    lats = list(enumerate_lattices(n))
    assert lats == validated
    assert all(type(lat) is HnfLattice for lat in lats)


def test_enumerate_checks_every_lattice_it_builds(monkeypatch):
    # a shape no index has: width 2 over height 0 must not pass as (2, 0, 0)
    monkeypatch.setattr(lattice, "_shapes", lambda n: [(2, 0)])
    with pytest.raises(ValueError, match="height must be >= 1, got 0"):
        list(enumerate_lattices(4))


def test_enumerate_budget():
    # refused before the first row: 2**62 has sigma = 2**63 - 1 triples, and
    # 3 * 2**61, whose sigma leaves 64 bits, is refused before it is factored
    for n in (2**62, 3 * 2**61):
        with pytest.raises(BudgetError):
            enumerate_lattices(n)
    with pytest.raises(TypeError):
        enumerate_lattices(12, max_triples=3)  # the budget is a constant


def test_enumerate_refuses_a_large_index_before_factoring(within):
    # both are prime: trial division alone took 2.2 s and about 3.5 minutes
    for n in (10**15 + 37, 2**63 - 25):
        with within(0.1), pytest.raises(BudgetError):
            enumerate_lattices(n)


# --- permutation pairs --------------------------------------------------------

def test_permutation_pair_examples():
    assert to_permutation_pair(HnfLattice(1, 1, 0)) == ([0], [0])
    assert to_permutation_pair(HnfLattice(2, 1, 1)) == ([1, 0], [1, 0])
    hp, vp = to_permutation_pair(HnfLattice(2, 2, 0))
    group = group_closure(hp, vp)
    assert len(group) == 4
    assert all(perm_order(g) <= 2 for g in group)  # Z/2 x Z/2, no 4-cycle


def test_permutation_pair_exact_arrays():
    # the group oracles miss a twist-sign slip such as (i - t) % w: it keeps the
    # group order and the cyclicity, so twisted multi-row pairs are pinned here
    assert to_permutation_pair(HnfLattice(3, 2, 1)) == (
        [1, 2, 0, 4, 5, 3],
        [3, 4, 5, 1, 2, 0],
    )
    assert to_permutation_pair(HnfLattice(3, 3, 2)) == (
        [1, 2, 0, 4, 5, 3, 7, 8, 6],
        [3, 4, 5, 6, 7, 8, 2, 0, 1],
    )


def test_permutation_pair_structure():
    for n in range(1, 61):
        for lat in enumerate_lattices(n):
            hp, vp = to_permutation_pair(lat)
            assert sorted(hp) == list(range(n))
            assert sorted(vp) == list(range(n))
            assert perms_commute(hp, vp)
            assert is_transitive(hp, vp)


def test_permutation_group_order_and_cyclicity():
    for n in range(1, 25):
        for lat in enumerate_lattices(n):
            hp, vp = to_permutation_pair(lat)
            group = group_closure(hp, vp)
            assert len(group) == n
            by_closure = group_is_cyclic_closure(hp, vp)
            assert by_closure == group_is_cyclic_exponent(hp, vp)
            assert by_closure == is_cyclic(lat)


def test_permutation_pair_round_trip_through_hnf():
    # the permutation group is the quotient group, so its cyclicity must
    # match the twist-gcd criterion well past closure-friendly sizes
    for n in range(25, 73):
        for lat in enumerate_lattices(n):
            hp, vp = to_permutation_pair(lat)
            assert group_is_cyclic_exponent(hp, vp) == is_cyclic(lat)


def test_permutation_pair_json_golden():
    assert (
        permutation_pair_json(HnfLattice(2, 2, 0))
        == '{"n":4,"h":[1,0,3,2],"v":[2,3,0,1]}'
    )
    assert permutation_pair_json(HnfLattice(1, 1, 0)) == '{"n":1,"h":[0],"v":[0]}'


def test_permutation_budget():
    with pytest.raises(BudgetError):
        # 10,010,000 squares, refused before any list is built
        to_permutation_pair(HnfLattice(10**4, 10**3 + 1, 0))
