"""Classifying one sublattice of Z^2 from a raw generator pair.

Any two independent integer vectors span a finite-index sublattice. This
script reduces a pair to its canonical cylinder triple, extracts the
basis-independent invariants (index, content, Smith factors), checks that
unimodular basis changes leave all of them alone, and encodes the torus
as a pair of commuting permutations of its squares.

Run:  python3 demos/classification.py
"""

from squaretori.lattice import (
    GeneratorPair,
    HnfLattice,
    content,
    hnf_reduce,
    is_cyclic,
    lattice_index,
    permutation_pair_json,
    random_unimodular,
    smith_shape,
    to_permutation_pair,
)

g = GeneratorPair((2, 4), (1, 5))
print(f"generators            u = {g.u}, v = {g.v}")
print(f"index [Z^2 : L]       {lattice_index(g)}")
print(f"content r(L)          {content(g)}")

lat = hnf_reduce(g)
print(f"cylinder form         (w, h, t) = ({lat.width}, {lat.height}, {lat.twist})")

shape = smith_shape(g)
print(f"quotient group        Z/{shape.d1} + Z/{shape.d2}")
print(f"cyclic cover?         {is_cyclic(lat)}")
print()

print("The invariants do not care which basis you hand in. Scrambling the")
print("generators with random unimodular moves:")
for seed in range(4):
    moved = random_unimodular(g, seed=seed, steps=10)
    assert hnf_reduce(moved) == lat
    assert content(moved) == content(g)
    assert lattice_index(moved) == lattice_index(g)
    print(f"  seed {seed}: u = {moved.u}, v = {moved.v}  ->  same triple")
print()

print("Permutation encoding: square (i, j) is number i + w*j; one")
print("permutation rotates each row of the cylinder, the other climbs a")
print("row and wraps the top to the bottom with the twist.")
for triple in ((2, 2, 0), (2, 2, 1), (3, 2, 1)):
    lat = HnfLattice(*triple)
    horizontal, vertical = to_permutation_pair(lat)
    print(f"  (w,h,t)={triple}  h={horizontal}  v={vertical}  "
          f"cyclic={is_cyclic(lat)}")
print()
print("On the wire the pair travels as one JSON line:")
print(" ", permutation_pair_json(HnfLattice(2, 2, 0)))
