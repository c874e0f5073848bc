"""Acceptance suite: the numbered end-to-end checks for this package.

Each criterion prints one PASS/FAIL line (visible with `pytest -s`) and
then asserts, so a red test still reports its measured numbers. Stated
runtime budgets are asserted as measured on the local machine.

Criterion 8 pins |rho(n_40) - 6/pi^2| < 1e-6 for the extremal sequence.
That target is not reachable: the gap at k = 40 is the Euler-product tail
over primes above p_40 = 173, about 5.6e-4, and within the allowed domain
k <= 50 it never drops near 1e-6 (that takes k in the thousands). The
check is kept at its stated tolerance and fails honestly rather than
being loosened; every other criterion passes.
"""

import io
import math
import random
import time
from contextlib import redirect_stdout

from oracles import group_is_cyclic_exponent, squarefree_mask
from squaretori.arith import (
    dedekind_psi,
    factorize,
    psi_prime,
    psi_via_cylinders,
    sieve_multiplicative,
    sigma,
    squarefree_indicator,
)
from squaretori.asymptotics import (
    INV_ZETA2,
    INV_ZETA4,
    ZETA2_OVER_ZETA4,
    extremal_sequence_rho,
    partial_sums,
    qd2_partial_sum,
)
from squaretori.cli import main
from squaretori.lattice import (
    GeneratorPair,
    content,
    enumerate_lattices,
    hnf_reduce,
    is_cyclic,
    lattice_index,
    random_unimodular,
    smith_shape,
    to_permutation_pair,
)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_01_closed_form_vs_enumeration():
    start = time.perf_counter()
    checked = 0
    ok = True
    for n in range(1, 2001):
        f = factorize(n)
        lattices = list(enumerate_lattices(n))
        cyclic = sum(1 for lat in lattices if is_cyclic(lat))
        if cyclic != dedekind_psi(f) or len(lattices) != sigma(f):
            ok = False
            break
        checked += len(lattices)
    elapsed = time.perf_counter() - start
    within_budget = elapsed < 10.0
    report(
        1,
        "closed form vs enumeration",
        ok and within_budget,
        f"n <= 2000, {checked} triples, {elapsed:.1f}s",
    )
    assert ok
    assert within_budget, f"{elapsed:.1f}s over the 10s budget"


def test_02_three_formula_agreement():
    start = time.perf_counter()
    ok = True
    for n in range(1, 100_001):
        expected = dedekind_psi(factorize(n))
        if psi_via_cylinders(n) != expected or psi_prime(n) != expected:
            ok = False
            break
    elapsed = time.perf_counter() - start
    within_budget = elapsed < 30.0
    report(2, "three psi formulas", ok and within_budget, f"n <= 1e5, {elapsed:.1f}s")
    assert ok
    assert within_budget, f"{elapsed:.1f}s over the 30s budget"


def test_03_multiplicativity_random_pairs():
    rng = random.Random(20260809)
    pairs = []
    while len(pairs) < 10_000:
        if len(pairs) % 2:
            a = rng.randint(1, 31622)
            b = rng.randint(1, 10**9 // a)
        else:
            a = rng.randint(1, 1000)
            b = rng.randint(1, 10**6)
        if math.gcd(a, b) == 1:
            pairs.append((a, b))
    largest = 0
    ok = True
    for a, b in pairs:
        largest = max(largest, a * b)
        psi_ab = dedekind_psi(factorize(a * b))
        if psi_ab != dedekind_psi(factorize(a)) * dedekind_psi(factorize(b)):
            ok = False
            break
    report(3, "psi multiplicativity", ok, f"10^4 coprime pairs, max product {largest}")
    assert ok


def test_04_cyclicity_oracle_triangle():
    start = time.perf_counter()
    ok = True
    lattices_checked = 0
    for n in range(1, 301):
        for lat in enumerate_lattices(n):
            pair = GeneratorPair((lat.width, 0), (lat.twist, lat.height))
            by_gcd = is_cyclic(lat)
            agree = (
                (content(pair) == 1) == by_gcd
                and (smith_shape(pair).d1 == 1) == by_gcd
            )
            if agree and n <= 200:
                agree = group_is_cyclic_exponent(*to_permutation_pair(lat)) == by_gcd
            if not agree:
                ok = False
                break
            lattices_checked += 1
        if not ok:
            break
    elapsed = time.perf_counter() - start
    within_budget = elapsed < 60.0
    report(
        4,
        "cyclicity oracle triangle",
        ok and within_budget,
        f"{lattices_checked} lattices, n <= 300, {elapsed:.1f}s",
    )
    assert ok
    assert within_budget, f"{elapsed:.1f}s over the 60s budget"


def test_05_basis_invariance():
    rng = random.Random(1357)
    checked = 0
    ok = True
    while checked < 500:
        u = (rng.randint(-50, 50), rng.randint(-50, 50))
        v = (rng.randint(-50, 50), rng.randint(-50, 50))
        if u[0] * v[1] - u[1] * v[0] == 0:
            continue
        g = GeneratorPair(u, v)
        moved = random_unimodular(g, seed=checked, steps=10)
        r = content(g)
        if not (
            content(moved) == r
            and lattice_index(moved) == lattice_index(g)
            and hnf_reduce(moved) == hnf_reduce(g)
            and lattice_index(g) % (r * r) == 0
        ):
            ok = False
            break
        checked += 1
    report(5, "basis invariance", ok, f"{checked} pairs x 10 unimodular moves")
    assert ok


def test_06_square_free_always_cyclic():
    ok = True
    square_free_count = 0
    for n in range(1, 2001):
        f = factorize(n)
        if not squarefree_indicator(f):
            continue
        square_free_count += 1
        if dedekind_psi(f) != sigma(f):
            ok = False
            break
        if not all(is_cyclic(lat) for lat in enumerate_lattices(n)):
            ok = False
            break
    report(6, "square-free implies cyclic", ok, f"{square_free_count} square-free n <= 2000")
    assert ok


def test_07_ratio_bounds_sieved():
    start = time.perf_counter()
    sv = sieve_multiplicative(1_000_000)
    ratios = sv.psi[1:] / sv.sigma[1:]
    low = float(ratios.min())
    high = float(ratios.max())
    bounds_ok = low >= INV_ZETA2 - 1e-12 and high <= 1.0
    # rho = 1 exactly on square-free n, against a mask struck by p^2 multiples
    ones_match = bool(
        ((sv.psi[1:] == sv.sigma[1:]) == squarefree_mask(1_000_000)[1:]).all()
    )
    elapsed = time.perf_counter() - start
    within_budget = elapsed < 10.0
    ok = bounds_ok and ones_match and within_budget
    report(
        7,
        "ratio bounds over n <= 1e6",
        ok,
        f"min {low:.9f}, max {high:.1f}, {elapsed:.1f}s",
    )
    assert bounds_ok and ones_match
    assert within_budget, f"{elapsed:.1f}s over the 10s budget"


def test_08_liminf_extremal_sequence():
    values = [extremal_sequence_rho(k) for k in range(1, 41)]
    above = all(v >= INV_ZETA2 for v in values)
    start = time.perf_counter()
    at_40 = extremal_sequence_rho(40)
    elapsed = time.perf_counter() - start
    deviation = abs(at_40 - INV_ZETA2)
    close = deviation < 1e-6
    within_budget = elapsed < 1e-3
    ok = above and close and within_budget
    report(
        8,
        "liminf via powered primorials",
        ok,
        f"rho(n_40)={at_40:.10f}, |dev|={deviation:.3e} vs 1e-6, {elapsed*1e6:.0f}us",
    )
    assert above, "sequence dipped below 6/pi^2"
    assert within_budget
    assert close, (
        f"|rho(n_40) - 6/pi^2| = {deviation:.3e} cannot meet 1e-6: the "
        "Euler-product tail over primes > 173 contributes ~5.6e-4"
    )


def test_09_mean_order_sweep():
    start = time.perf_counter()
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["sweep", "1000000"])
    assert code == 0
    footer = buffer.getvalue().rstrip("\n").rsplit("\n", 1)[-1]
    fields = dict(item.split("=") for item in footer.replace("final ", "").split())
    final_dev = float(fields["deviation"])
    sv = sieve_multiplicative(100_000)
    devs = [
        abs(partial_sums(limit, sieve=sv).cum_ratio - INV_ZETA4)
        for limit in (10**3, 10**4, 10**5)
    ] + [final_dev]
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    elapsed = time.perf_counter() - start
    within_budget = elapsed < 30.0
    ok = final_dev < 1e-3 and decreasing and within_budget
    report(
        9,
        "mean order 1/zeta(4)",
        ok,
        f"final dev {final_dev:.3e}, chain {['%.2e' % d for d in devs]}, {elapsed:.1f}s",
    )
    assert final_dev < 1e-3
    assert decreasing
    assert within_budget, f"{elapsed:.1f}s over the 30s budget"


def test_10_squarefree_zeta_sum():
    start = time.perf_counter()
    value = qd2_partial_sum(1_000_000)
    elapsed = time.perf_counter() - start
    diff = abs(value - ZETA2_OVER_ZETA4)
    ok = diff < 2e-6
    within_budget = elapsed < 10.0
    report(
        10,
        "square-free zeta(2)/zeta(4) sum",
        ok and within_budget,
        f"sum {value:.9f}, diff {diff:.2e}, {elapsed:.1f}s",
    )
    assert ok
    assert within_budget, f"{elapsed:.1f}s over the 10s budget"
