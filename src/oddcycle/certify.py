"""Independent verifiers for every certificate type.

Everything here recomputes from raw adjacency/colour tables with naive
algorithms on purpose: these functions are the test suite's ground truth and
share no code with the producers they check. Each verifier returns None for
a valid certificate or a :class:`Violation` naming what broke.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .colouring import EdgeColouring
from .errors import InputError
from .graph import Graph
from .peeling import PeelDecomposition, PeelParams, ShortCycle


class ViolationKind(Enum):
    PARITY = "parity"
    ADJACENCY = "adjacency"
    COLOUR_MISMATCH = "colour-mismatch"
    DUPLICATE_VERTEX = "duplicate-vertex"
    COVER = "cover"
    RADIUS = "radius"
    SIDE_CONFLICT = "side-conflict"
    BOUND = "bound"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    detail: tuple = field(default_factory=tuple)
    message: str = ""

    def __str__(self):
        msg = f" ({self.message})" if self.message else ""
        return f"{self.kind.value} at {self.detail}{msg}"


def _not_integer(ids):
    """Index and value of the first id that is not a Python or numpy integer
    (a bool is not one), or None; so ``int()`` truncates no id."""
    for idx, v in enumerate(ids):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            return idx, v
    return None


def verify_mono_odd_cycle(host, cert):
    """Check a cycle certificate against an EdgeColouring or a Graph.

    Integer vertex ids, odd length >= 3, all vertices distinct and in range,
    consecutive pairs (cyclically) adjacent, and uniformly of the stated
    colour when the host is a colouring and the certificate names one.
    """
    bad = _not_integer(cert.vertices)
    if bad is not None:
        return Violation(ViolationKind.ADJACENCY, (bad[0],), f"vertex {bad[1]!r} is not an integer")
    verts = [int(v) for v in cert.vertices]
    n = host.n
    if len(verts) < 3 or len(verts) % 2 == 0:
        return Violation(ViolationKind.PARITY, (len(verts),), "length must be odd and >= 3")
    seen = set()
    for idx, v in enumerate(verts):
        if not 0 <= v < n:
            return Violation(ViolationKind.ADJACENCY, (idx,), f"vertex {v} out of range")
        if v in seen:
            return Violation(ViolationKind.DUPLICATE_VERTEX, (idx,), f"vertex {v} repeats")
        seen.add(v)
    if isinstance(host, Graph):
        matrix = host.masked_matrix()
    elif not isinstance(host, EdgeColouring):
        raise TypeError(f"unsupported host {type(host)!r}")
    for idx, u in enumerate(verts):
        v = verts[(idx + 1) % len(verts)]
        if isinstance(host, EdgeColouring):
            colour = int(host.table[u, v])
            if colour < 0:
                return Violation(ViolationKind.ADJACENCY, (idx,), f"pair ({u},{v}) uncoloured")
            if cert.colour is not None and colour != cert.colour:
                return Violation(
                    ViolationKind.COLOUR_MISMATCH,
                    (idx,),
                    f"pair ({u},{v}) has colour {colour}, certificate claims {cert.colour}",
                )
        else:
            if not matrix[u, v]:
                return Violation(ViolationKind.ADJACENCY, (idx,), f"({u},{v}) is not an edge")
    return None


def _naive_eccentricity(matrix, inside, source):
    """BFS eccentricity of source within the vertex set ``inside``; math.inf
    when some member is unreachable."""
    inside = set(int(v) for v in inside)
    dist = {int(source): 0}
    frontier = [int(source)]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in np.flatnonzero(matrix[u]):
                w = int(w)
                if w in inside and w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    if set(dist) != inside:
        return math.inf
    return max(dist.values())


def verify_peel(g, k, outcome):
    """Check a peel outcome against the graph it came from.

    ShortCycle: a valid odd cycle of length <= 2k+1. Decomposition: the
    removed set and components partition the active vertices, no active edge
    joins two distinct components, every component bipartition is valid, each
    centre reaches its component within min(claimed radius, k), and the
    removed set respects ceil(factor * n). A budget k that is not an
    integer (a bool is not one) is an InputError.
    """
    if _not_integer([k]) is not None:
        raise InputError(f"radius budget k must be an integer, not {type(k).__name__}")
    matrix = g.masked_matrix()
    active = set(int(v) for v in np.flatnonzero(g.active_mask))
    if isinstance(outcome, ShortCycle):
        bad = verify_mono_odd_cycle(g, outcome.cycle)
        if bad is not None:
            return bad
        if outcome.cycle.length > 2 * k + 1:
            return Violation(
                ViolationKind.BOUND,
                (outcome.cycle.length,),
                f"cycle longer than 2k+1 = {2 * k + 1}",
            )
        return None
    if not isinstance(outcome, PeelDecomposition):
        raise TypeError(f"not a peel outcome: {type(outcome)!r}")

    removed = [int(v) for v in outcome.removed]
    claimed = [removed] + [[int(v) for v in comp.vertices] for comp in outcome.components]
    flat = [v for part in claimed for v in part]
    if len(flat) != len(set(flat)) or set(flat) != active:
        return Violation(ViolationKind.COVER, (), "removed set and components do not partition the active vertices")

    owner = {}
    for ci, comp in enumerate(outcome.components):
        for v in comp.vertices:
            owner[int(v)] = ci
    for u in sorted(owner):
        for w in np.flatnonzero(matrix[u]):
            w = int(w)
            if w in owner and owner[w] != owner[u]:
                return Violation(ViolationKind.COVER, (u, w), "edge joins two distinct components")

    for ci, comp in enumerate(outcome.components):
        verts = set(int(v) for v in comp.vertices)
        s0 = set(int(v) for v in comp.bipartition.side0)
        s1 = set(int(v) for v in comp.bipartition.side1)
        if s0 & s1 or (s0 | s1) != verts:
            return Violation(ViolationKind.COVER, (ci,), "bipartition does not partition the component")
        for side in (s0, s1):
            for u in sorted(side):
                hits = set(int(w) for w in np.flatnonzero(matrix[u])) & side
                if hits:
                    return Violation(ViolationKind.SIDE_CONFLICT, (u, min(hits)), "edge inside one side")
        if comp.radius > k:
            return Violation(ViolationKind.RADIUS, (ci,), f"claimed radius {comp.radius} exceeds k={k}")
        ecc = _naive_eccentricity(matrix, verts, comp.center)
        if ecc > comp.radius:
            return Violation(
                ViolationKind.RADIUS,
                (ci,),
                f"centre {comp.center} has eccentricity {ecc} > claimed {comp.radius}",
            )

    bound = PeelParams(k).removed_bound(len(active))
    if len(removed) > bound:
        return Violation(ViolationKind.BOUND, (len(removed),), f"removed set exceeds {bound}")
    return None


def verify_selector(inst, result, target):
    """Check a selector result: union matches the choices, survivors are the
    complement (both of integer ids), no pair has both sides surviving, and
    |survivors| >= target."""
    if len(result.choices) != inst.q or any(c not in (0, 1) for c in result.choices):
        return Violation(ViolationKind.COVER, (), "choices do not match the pair count")
    for name in ("chosen_union", "survivors"):
        bad = _not_integer(getattr(result, name))
        if bad is not None:
            return Violation(ViolationKind.COVER, (bad[0],),
                             f"{name} holds {bad[1]!r}, not an integer")
    union = set()
    for (a, b), c in zip(inst.pairs, result.choices):
        union.update(int(v) for v in (a if c == 0 else b))
    if set(int(v) for v in result.chosen_union) != union:
        return Violation(ViolationKind.COVER, (), "stated union does not match the choices")
    survivors = set(int(v) for v in result.survivors)
    if survivors != set(range(inst.n)) - union:
        return Violation(ViolationKind.COVER, (), "survivors are not the complement of the union")
    for i, (a, b) in enumerate(inst.pairs):
        hit_a = survivors & set(int(v) for v in a)
        hit_b = survivors & set(int(v) for v in b)
        if hit_a and hit_b:
            return Violation(ViolationKind.SIDE_CONFLICT, (i,), "both sides of a pair survive")
    if len(survivors) < target:
        return Violation(ViolationKind.BOUND, (len(survivors),), f"fewer than {target} survivors")
    return None
