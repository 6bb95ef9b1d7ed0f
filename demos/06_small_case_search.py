#!/usr/bin/env python3
"""Exact small cases and a heuristic search for extremal colourings.

The quantity of interest: over all q-colourings of K_n, the largest value of
the minimum monochromatic odd cycle length. An exact branch and bound over
the colourings settles tiny cases (the pentagon/pentagram colouring of K_5
is the unique style of optimum for q=2); simulated annealing over
single-edge recolours rediscovers the same optimum and probes sizes the
exact search cannot reach.
"""

import time

from oddcycle import (
    binary_colouring,
    colour_class,
    exhaustive_L,
    odd_girth,
)
from oddcycle.analysis import anneal_search

print("=" * 72)
print("Exact search (branch and bound)")
print("=" * 72)
t0 = time.perf_counter()
value, witness = exhaustive_L(1, 3)
print(f"  L(1,3) = {value} (the unique colouring is a triangle)")
value, witness = exhaustive_L(2, 5)
print(f"  L(2,5) = {value}")
for i in range(2):
    g = colour_class(witness, i)
    print(f"    witness class {i}: {g.edge_count()} edges, odd girth {odd_girth(g)[0]}")
value, witness = exhaustive_L(2, 4)
print(f"  L(2,4) = {value}: K_4 admits an all-bipartite 2-colouring")
print(f"  ({time.perf_counter() - t0:.2f}s)")

print()
print("=" * 72)
print("Simulated annealing over single-edge recolour moves")
print("=" * 72)
t0 = time.perf_counter()
objective, best = anneal_search(2, 5, iterations=100_000, seed=5)
print(f"  q=2, n=5, 10^5 iterations: objective {objective} (exhaustive optimum is 5)")
counts = [colour_class(best, i).edge_count() for i in range(2)]
print(f"  best colouring class sizes: {counts}")
print(f"  ({time.perf_counter() - t0:.1f}s)")

print()
print("Seeding the search at n = 2^q from the all-bipartite colouring:")
objective, best = anneal_search(3, 8, iterations=200, seed=0, init=binary_colouring(3))
print(f"  q=3, n=8: objective {objective} = n+1 sentinel (no monochromatic odd cycle)")
bip = [not isinstance(odd_girth(colour_class(best, i)), tuple) for i in range(3)]
print(f"  classes bipartite: {bip}")

print()
print("A reproducible probe beyond the exact search's guard:")
objective, best = anneal_search(3, 9, iterations=3000, seed=42)
print(f"  q=3, n=9, 3000 iterations, seed 42: objective {objective}")
print("  (rerunning with the same seed reproduces this byte for byte)")
