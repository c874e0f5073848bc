"""Rank-2 sublattices of Z^2 viewed as square-tiled tori.

A sublattice arrives as a pair of integer generator vectors and is
canonicalized to cylinder coordinates (width, height, twist): the unique
basis (width, 0), (twist, height) with 0 <= twist < width. Cyclicity of
the quotient group Z^2/L can be decided four ways -- twist gcd, content
of any generating pair, Smith invariant factors, or the permutation pair
of the tiled torus -- and the routes are kept computationally independent
so they can check each other.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from operator import index
from typing import Iterator, NamedTuple

from .arith import WORD_BOUND, _budget, _shown, _word, divisors, factorize, sigma

# enumerate_lattices' budget in triples; to_permutation_pair's in squares
MAX_TRIPLES = 10_000_000


@dataclass(frozen=True)
class GeneratorPair:
    """Two integer vectors spanning a finite-index sublattice of Z^2.

    Each coordinate and the index need an absolute value <= 2**63 - 1, so a
    coordinate -2**63 is refused (OverflowError); linearly dependent vectors
    raise ValueError.
    """

    u: tuple[int, int]
    v: tuple[int, int]

    def __post_init__(self) -> None:
        (u0, u1), (v0, v1) = self.u, self.v
        object.__setattr__(self, "u", (index(u0), index(u1)))
        object.__setattr__(self, "v", (index(v0), index(v1)))
        det = self.u[0] * self.v[1] - self.u[1] * self.v[0]
        if max(map(abs, self.u + self.v)) > WORD_BOUND or abs(det) > WORD_BOUND:
            raise OverflowError("generators leave the 64-bit range")
        if det == 0:
            raise ValueError(
                f"generators {self.u} and {self.v} are linearly dependent"
            )


class _Cylinder(NamedTuple):
    width: int
    height: int
    twist: int


class HnfLattice(_Cylinder):
    """Cylinder coordinates of a square-tiled torus.

    width and height are the cylinder circumference and height, twist the
    horizontal offset used to glue top to bottom; the tiled torus has
    width * height squares, which must lie in the signed 64-bit range
    (OverflowError otherwise). A named tuple, so it equals the plain tuple
    (width, height, twist).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, width: int, height: int, twist: int) -> HnfLattice:
        width, height = _word(width, "width"), _word(height, "height")
        twist = index(twist)
        if not 0 <= twist < width:
            raise ValueError("twist must satisfy 0 <= twist < width")
        _word(width * height, "index")
        return tuple.__new__(cls, (width, height, twist))

    @property
    def index(self) -> int:
        """Index of the sublattice, i.e. the number of squares."""
        return self.width * self.height


@dataclass(frozen=True)
class QuotientShape:
    """Invariant factors (d1, d2), d1 | d2, of the quotient group Z^2/L.

    The quotient Z/d1 + Z/d2 is cyclic exactly when d1 = 1.
    """

    d1: int
    d2: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d1", _word(self.d1, "d1"))
        object.__setattr__(self, "d2", _word(self.d2, "d2"))
        if self.d2 % self.d1 != 0:
            raise ValueError(f"d1={self.d1} must divide d2={self.d2}")


def lattice_index(g: GeneratorPair) -> int:
    """Index of the sublattice in Z^2: |det(u, v)|."""
    return abs(g.u[0] * g.v[1] - g.u[1] * g.v[0])


def content(g: GeneratorPair) -> int:
    """gcd of all four generator coordinates (a basis-independent invariant).

    Its square always divides the index: dividing both generators by the
    content leaves an integer matrix.
    """
    return gcd(g.u[0], g.u[1], g.v[0], g.v[1])


def hnf_reduce(g: GeneratorPair) -> HnfLattice:
    """Canonical cylinder coordinates of the sublattice spanned by g.

    Euclidean column reduction: run the gcd algorithm on the second
    coordinates until one generator is horizontal, normalize signs so
    width and height are positive, then reduce the twist into [0, width).
    The result depends only on the lattice, not on the basis.
    """
    a1, a2 = g.u
    b1, b2 = g.v
    while b2 != 0:
        q = a2 // b2
        a1, a2 = a1 - q * b1, a2 - q * b2
        a1, a2, b1, b2 = b1, b2, a1, a2
    # b = (b1, 0) is horizontal; a2 = +-gcd of the original second coords
    width = abs(b1)
    height = abs(a2)
    twist = (a1 if a2 > 0 else -a1) % width
    return HnfLattice(width, height, twist)


def smith_shape(g: GeneratorPair) -> QuotientShape:
    """Invariant factors of Z^2/L by integer row and column reduction.

    Euclid's algorithm runs along the first row by column operations and
    down the first column by row operations: each step reduces the
    off-diagonal entry modulo the pivot, and a nonzero remainder is
    swapped in as the new pivot. When both off-diagonal entries are 0 but
    the pivot does not divide the last entry, the second row is added to
    the first and the reduction goes on. It ends because every swap makes
    the pivot smaller in absolute value, and a fold forces a swap. Works
    directly on the generator matrix without reusing content() or
    lattice_index(), so it serves as an independent cyclicity oracle;
    d1 = content and d1*d2 = index are checked as properties in the tests.
    """
    a, b = g.u[0], g.v[0]
    c, d = g.u[1], g.v[1]
    if a == 0:  # the generators span a lattice, so b != 0
        a, b, c, d = b, a, d, c
    while b or c or d % a:
        if not (b or c):  # a does not divide d: add the second row to the first
            b = d
        while b:  # Euclid along the first row
            q = b // a
            b, d = b - q * a, d - q * c
            if b:
                a, b, c, d = b, a, d, c
        while c:  # Euclid down the first column
            q = c // a
            c, d = c - q * a, d - q * b
            if c:
                a, b, c, d = c, d, a, b
    return QuotientShape(abs(a), abs(d))


def is_cyclic(lat: HnfLattice) -> bool:
    """True when the quotient group is cyclic: gcd(width, height, twist) = 1."""
    return gcd(lat.width, lat.height, lat.twist) == 1


def _shapes(n: int) -> list[tuple[int, int]]:
    """Index-n cylinder shapes (w, h) by ascending w, within the MAX_TRIPLES budget."""
    n = _word(n)
    # sigma(n) >= n + 1 for n > 1, so a larger n is refused before it is factored
    total = sigma(f := factorize(n)) if n < MAX_TRIPLES else n + 1
    _budget(total, MAX_TRIPLES, "MAX_TRIPLES", f"index {n} needs at least %s triples")
    return [(width, n // width) for width in divisors(f)]


def enumerate_lattices(n: int) -> Iterator[HnfLattice]:
    """All sublattices of index n as cylinder triples, lazily.

    Yields exactly sigma(n) lattices by ascending width, then twist; is_cyclic
    keeps psi(n) of them. Refuses at the call (BudgetError if sigma(n) >
    MAX_TRIPLES): a generator expression runs its first iterable, _shapes(n), at once.
    """
    return (HnfLattice(w, h, t) for w, h in _shapes(n) for t in range(w))


def to_permutation_pair(lat: HnfLattice) -> tuple[list[int], list[int]]:
    """Permutation encoding of the tiled torus on its squares.

    Squares sit at (i, j) with 0 <= i < width, 0 <= j < height and are
    numbered row-major (i + width * j). The horizontal permutation moves
    each square one step right around the cylinder; the vertical one moves
    up a row, wrapping the top row to the bottom shifted by the twist.
    Both are returned 0-based in image-of-index form. They commute, act
    transitively, and generate an abelian group of order width * height
    that is cyclic exactly when the lattice is. Refuses (BudgetError) a
    torus of more than MAX_TRIPLES squares.
    """
    n = lat.index
    _budget(n, MAX_TRIPLES, "MAX_TRIPLES", "a torus of %s squares")
    w, t, top = lat.width, lat.twist, n - lat.width
    horizontal = [k - k % w + (k + 1) % w for k in range(n)]
    vertical = [k + w if k < top else (k + t) % w for k in range(n)]
    return horizontal, vertical


def permutation_pair_json(lat: HnfLattice) -> str:
    """One-line JSON wire form of the permutation pair.

    Example: {"n":4,"h":[1,0,3,2],"v":[2,3,0,1]} for the 2x2 untwisted
    torus. Keys are the square count and the two image arrays.
    """
    horizontal, vertical = to_permutation_pair(lat)
    payload = {"n": lat.index, "h": horizontal, "v": vertical}
    return json.dumps(payload, separators=(",", ":"))


def random_unimodular(g: GeneratorPair, seed: int, steps: int) -> GeneratorPair:
    """A different basis of the same sublattice, by seeded elementary moves.

    Applies `steps` >= 0 random column operations (swap the generators,
    negate one, or add a small integer multiple of one to the other), driven
    deterministically by `seed`. Every move is unimodular, so the lattice,
    its index, and its content are unchanged.
    """
    if (steps := index(steps)) < 0:
        raise ValueError(f"steps must be >= 0, got {_shown(steps)}")
    rng = random.Random(seed)
    u = list(g.u)
    v = list(g.v)
    for _ in range(steps):
        move = rng.randrange(3)
        if move == 0:
            u, v = v, u
        elif move == 1:
            if rng.randrange(2):
                u = [-u[0], -u[1]]
            else:
                v = [-v[0], -v[1]]
        else:
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            if rng.randrange(2):
                u = [u[0] + k * v[0], u[1] + k * v[1]]
            else:
                v = [v[0] + k * u[0], v[1] + k * u[1]]
    return GeneratorPair((u[0], u[1]), (v[0], v[1]))
