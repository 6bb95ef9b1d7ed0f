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
    _integer_ids,
    _iter_bits,
    _scalar_id,
    odd_cycle_from_walk,
    shortest_path_within,
)


def _validate_component(g, vertices, center, r):
    """Component must be induced-connected with centre eccentricity <= r."""
    verts = set(int(v) for v in vertices)
    center = int(center)
    if center not in verts or not g.is_active(center):
        raise InputError(f"centre {center} is not an active vertex of its component")
    allowed = _array_to_bits(verts, g.n)
    reached = 0
    for layer, _ in islice(_bfs(g.row_masks(), center, allowed), r + 1):
        reached |= layer
    seen = set(_iter_bits(reached))
    if seen != verts:
        raise InputError(
            f"component radius claim false: centre {center} does not reach "
            f"{sorted(verts - seen)[:5]} within {r} steps"
        )


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


def shorten_bound(g, components, target_ids, r):
    """Length bound the shortened cycle satisfies on exit."""
    target_union = set()
    for t in target_ids:
        ids = _integer_ids(components[_scalar_id(t)][0], "component vertex ids must be integers")
        target_union.update(ids.tolist())
    return g.active_count - len(target_union) + (4 * r + 1) * len(set(target_ids))


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
    if r < 0:
        raise InputError("radius must be >= 0")
    comps = [(_integer_ids(verts, "component vertex ids must be integers"), _scalar_id(center))
             for verts, center in components]
    target_ids = sorted(set(_scalar_id(t) for t in target_ids))
    for t in target_ids:
        if not 0 <= t < len(comps):
            raise InputError(f"target id {t} out of range")
    for verts, center in comps:
        _validate_component(g, verts, center, r)
    _validate_seed(g, seed)

    comp_sets = [set(int(v) for v in verts) for verts, _ in comps]
    cycle = [int(v) for v in seed.vertices]
    min_gap = 2 * r + 1

    while True:
        length = len(cycle)
        splice = None
        for t in target_ids:
            members = comp_sets[t]
            positions = [idx for idx, v in enumerate(cycle) if v in members]
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
        path = shortest_path_within(g, comps[t][0], x, y)
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
