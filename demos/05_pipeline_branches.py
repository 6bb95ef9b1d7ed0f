#!/usr/bin/env python3
"""A tour of the end-to-end pipeline and its recursion branches.

With the default rules (k = 8q^3, small threshold 4q^10) every desk-scale
run resolves in the base or short-cycle branch, because 2k+1 already exceeds
n. The deeper machinery is reached by overriding the rules, exactly as the
test suite does. The run traces printed below record, per recursion level,
the branch taken, parameters, and observed set sizes.
"""

import json

from oddcycle import (
    InternalInconsistency,
    PipelineParams,
    binary_colouring,
    colouring_from_classes,
    find_mono_odd_cycle,
    hamilton_colouring,
    product_colouring,
    proposition_pipeline,
    random_colouring,
    verify_mono_odd_cycle,
)


def show(result, colouring):
    cert = result.certificate
    print(f"  cycle (colour {cert.colour}): {list(cert.vertices)}")
    print(f"  length {cert.length}, claimed bound {result.bound_claimed}")
    assert verify_mono_odd_cycle(colouring, cert) is None
    for line in result.trace.to_json_lines().splitlines():
        rec = json.loads(line)
        rec.pop("params", None)
        print(f"  trace: {rec}")


print("=" * 72)
print("Base branch: the bound is vacuous at this size, the oracle answers")
print("=" * 72)
c = random_colouring(9, 3, 7)
show(find_mono_odd_cycle(c), c)

print()
print("=" * 72)
print("Bipartite reduction: a bipartite colour is dropped, recurse on a side")
print("=" * 72)
pent = colouring_from_classes(
    5, [[(i, (i + 1) % 5) for i in range(5)], [(i, (i + 2) % 5) for i in range(5)]]
)
prod = product_colouring(pent, binary_colouring(1))
show(find_mono_odd_cycle(prod, PipelineParams(C=0.1)), prod)

print()
print("=" * 72)
print("Deep branches: K_81 = (K_9 Hamilton classes) x (K_9 Hamilton classes)")
print("every colour class has odd girth 9; overriding k to 3 hides them from")
print("the short-cycle probe and the run exits through the shortening branch")
print("=" * 72)
ham = hamilton_colouring(4)
big = product_colouring(ham, ham)
params = PipelineParams(eps=0.9, C=0.1, k_of_q=lambda q: 3, small_threshold_of_q=lambda q: 4)
show(find_mono_odd_cycle(big, params), big)

print()
print("=" * 72)
print("The selector branch as a bug detector: a deliberately incomplete")
print("colouring (three disjoint 11-cycles, everything else uncoloured)")
print("drives the run into the contradiction hunt, which surfaces the")
print("missing pair as an InternalInconsistency witness")
print("=" * 72)
classes = []
for b in range(3):
    base = b * 11
    classes.append([(base + i, base + (i + 1) % 11) for i in range(11)])
corrupt = colouring_from_classes(33, classes, validate=False)
try:
    find_mono_odd_cycle(corrupt, PipelineParams(eps=0.1, C=0.1,
                                               k_of_q=lambda q: 3,
                                               small_threshold_of_q=lambda q: 4))
    print("  unexpectedly succeeded")
except InternalInconsistency as exc:
    print(f"  witness edge: {exc.witness['edge']}, colour: {exc.witness['colour']}")

print()
print("=" * 72)
print("The wider-graph variant: n >= (1+delta) 2^q admits a cycle of length")
print("O(q^2/delta) via a single peel per colour")
print("=" * 72)
c8 = random_colouring(12, 3, 5)
result = proposition_pipeline(c8, 0.5)
show(result, c8)
