"""Odd-cycle shortening by splicing short intra-component paths.

Given an odd cycle and a family of low-radius components, repeatedly find a
target component holding two cycle vertices at cyclic distance >= 2r+1,
connect them inside the component by a path of length <= 2r, and replace the
cycle arc of matching parity (which is the longer of path and arc, so the
cycle strictly shrinks while staying odd). On exit no target component can
hold more than 4r+1 cycle vertices, which yields the length bound

    |active(F)| - |union of target components| + (4r+1) * (#targets).
"""

from __future__ import annotations

from itertools import islice

from .errors import InputError, InternalInconsistency
from .graph import (
    OddClosedWalk,
    OddCycleCertificate,
    _array_to_bits,
    _bfs,
    _iter_bits,
    _scalar_id,
    odd_cycle_from_walk,
    shortest_path_within,
)


def _validate_component(g, vertices, center, r):
    """Int mask of a component; InputError unless it is induced-connected
    with centre eccentricity <= r."""
    allowed = _array_to_bits(vertices, g.n)
    if not (g.is_active(center) and allowed >> center & 1):
        raise InputError(f"centre {center} is not an active vertex of its component")
    reached = 0
    for layer, _ in islice(_bfs(g.row_masks(), center, allowed), r + 1):
        reached |= layer
    if reached != allowed:
        raise InputError(
            f"component radius claim false: centre {center} does not reach "
            f"{list(islice(_iter_bits(allowed & ~reached), 5))} within {r} steps"
        )
    return allowed


def _validate_seed(g, seed):
    verts = seed.vertices
    if len(verts) < 3 or len(verts) % 2 == 0:
        raise InputError(f"seed must be an odd cycle of length >= 3, got {len(verts)}")
    if len(set(verts)) != len(verts):
        raise InputError("seed cycle repeats a vertex")
    for i, u in enumerate(verts):
        v = verts[(i + 1) % len(verts)]
        if not g.has_edge(u, v):
            raise InputError(f"seed cycle step {i}: {u} and {v} are not adjacent")


def _target_ids(target_ids, count):
    """Sorted distinct target ids; InputError for one outside [0, count)."""
    target_ids = sorted(set(_scalar_id(t) for t in target_ids))
    for t in target_ids:
        if not 0 <= t < count:
            raise InputError(f"target id {t} out of range")
    return target_ids


def shorten_bound(g, components, target_ids, r):
    """Length bound the shortened cycle satisfies on exit."""
    r = _scalar_id(r, "radius r must be an integer")
    target_ids = _target_ids(target_ids, len(components))
    target_union = 0
    for t in target_ids:
        target_union |= _array_to_bits(components[t][0], g.n)
    return g.active_count - target_union.bit_count() + (4 * r + 1) * len(target_ids)


def shorten_cycle(g, components, target_ids, r, seed):
    """Shorten ``seed`` until every target component sees at most 4r+1 of its
    vertices on the cycle.

    ``components`` is a sequence of (vertices, center) pairs, each
    induced-connected in g with centre eccentricity <= r (validated).
    ``target_ids`` indexes the components that must end up sparse on the
    cycle. Deterministic: targets are scanned in ascending id, the splice
    anchor is the first target vertex in cycle order and its partner the one
    at maximum cyclic distance.
    """
    r = _scalar_id(r, "radius r must be an integer")
    if r < 0:
        raise InputError("radius must be >= 0")
    comp_masks = [_validate_component(g, verts, _scalar_id(center), r)
                  for verts, center in components]
    target_ids = _target_ids(target_ids, len(comp_masks))
    _validate_seed(g, seed)

    cycle = [int(v) for v in seed.vertices]
    min_gap = 2 * r + 1

    while True:
        length = len(cycle)
        splice = None
        for t in target_ids:
            members = comp_masks[t]
            positions = [idx for idx, v in enumerate(cycle) if members >> v & 1]
            if len(positions) < 2:
                continue
            anchor = positions[0]
            best_pos, best_gap = None, -1
            for p in positions[1:]:
                gap = min((p - anchor) % length, (anchor - p) % length)
                if gap > best_gap:
                    best_pos, best_gap = p, gap
            if best_gap >= min_gap:
                splice = (t, anchor, best_pos)
                break
        if splice is None:
            break
        t, a, b = splice
        x, y = cycle[a], cycle[b]
        path = shortest_path_within(g, components[t][0], x, y)
        plen = len(path) - 1
        if plen > 2 * r:
            raise InternalInconsistency(
                f"path {x}-{y} inside component {t} has length {plen} > 2r = {2 * r}",
                witness={"component": t, "path": tuple(path), "radius": r},
            )
        forward = (b - a) % length  # edges on the arc a -> b walking forward
        # Exactly one arc has the parity of the path (cycle length is odd);
        # that arc is >= 2r+1 > plen, so the walk below is odd and shorter.
        if forward % 2 == plen % 2:
            # drop the forward arc: walk the other arc y..x, return via path
            walk = [cycle[(b + i) % length] for i in range(length - forward + 1)]
            walk += path[1:plen]
        else:
            # drop the backward arc: walk the forward arc x..y, return via path
            walk = [cycle[(a + i) % length] for i in range(forward + 1)]
            walk += path[1:plen][::-1]
        shorter = odd_cycle_from_walk(OddClosedWalk(tuple(walk)), g)
        if shorter.length >= length:
            raise InternalInconsistency(
                f"splice through component {t} gave length {shorter.length}, "
                f"not shorter than {length}",
                witness={"component": t, "cycle": tuple(cycle), "walk": tuple(walk)},
            )
        cycle = list(shorter.vertices)

    return OddCycleCertificate(vertices=tuple(cycle), colour=seed.colour)
