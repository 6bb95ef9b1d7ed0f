"""Ball-peeling decomposition: delete thin BFS boundary layers so the residue
is bipartite with low-radius components, or trip over a short odd cycle.

Repeatedly grow BFS layers from the lowest-indexed active vertex and arrest
at the first depth j <= k whose layer is small relative to the ball grown so
far; the layer goes into the deleted set, the ball becomes a certified
component. Growth cannot beat the arrest factor for k straight steps without
overshooting n, so an arrest always exists.

The results are frozen dataclasses whose fields are what the peel computes:
one Python int mask per ball, per side of each ball and for the deleted
set. The id arrays (``vertices``, ``bipartition``, ``removed``) are cached
views of those masks, built on first read, so a caller that reads only
masks or sizes builds no array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InputError
from .graph import (
    Bipartition,
    OddCycleCertificate,
    _bfs,
    _bits_to_array,
    _conflict_cycle,
    _scalar_id,
)


@dataclass(frozen=True)
class PeelParams:
    """Radius budget k and the derived arrest factor.

    For k >= log2(n) the factor is log2(n)/k and the deleted set stays below
    ceil(factor * n). For smaller k the generalized factor n^(1/k) - 1 applies
    and the guarantee weakens to ceil((1 - n^(-1/k)) * n).
    """

    k: int

    def __post_init__(self):
        _scalar_id(self.k, "radius budget k must be an integer")
        if self.k < 1:
            raise InputError(f"radius budget must be >= 1, got {self.k}")

    def generalized_mode(self, n):
        return n > 1 and self.k < math.log2(n)

    def arrest_factor(self, n):
        if n <= 1:
            return 0.0
        if self.generalized_mode(n):
            return n ** (1.0 / self.k) - 1.0
        return math.log2(n) / self.k

    def removed_bound(self, n):
        """Certified bound on the deleted-set size for an n-vertex run."""
        if n <= 1:
            return 0
        if self.generalized_mode(n):
            return math.ceil((1.0 - n ** (-1.0 / self.k)) * n)
        return math.ceil(self.arrest_factor(n) * n)


@dataclass(frozen=True)
class PeelComponent:
    """One certified ball: connected, centre eccentricity <= radius, bipartite.

    ``ball``, ``side0`` and ``side1`` are int masks over the vertex ids;
    ``vertices`` and ``bipartition`` are their id arrays, built on first
    read."""

    ball: int
    side0: int
    side1: int
    center: int
    radius: int

    @cached_property
    def vertices(self):
        return _bits_to_array(self.ball)

    @cached_property
    def bipartition(self):
        return Bipartition(_bits_to_array(self.side0), _bits_to_array(self.side1))


@dataclass(frozen=True)
class PeelDecomposition:
    """Deleted set (an int mask) plus the bipartite low-radius components of
    G minus it; ``removed`` is the deleted ids, built on first read."""

    removed_mask: int
    components: tuple

    @cached_property
    def removed(self):
        return _bits_to_array(self.removed_mask)


@dataclass(frozen=True)
class ShortCycle:
    """Peeling ran into a parity conflict inside a ball: an odd cycle of
    length <= 2k+1. A success outcome, not an error."""

    cycle: OddCycleCertificate


def peel(g, k):
    """Peel the active subgraph with radius budget k.

    Returns :class:`ShortCycle` on the first ball parity conflict, else a
    :class:`PeelDecomposition`. Deterministic: roots are the lowest active
    index, arrest takes the smallest depth.
    """
    k = _scalar_id(k, "radius budget k must be an integer")
    params = PeelParams(k)
    n0 = g.active_count
    if n0 == 0:
        raise InputError("peel needs a nonempty graph")
    masks = g.row_masks()

    if params.generalized_mode(n0):
        factor = params.arrest_factor(n0)

        def arrested(layer, cum):
            return layer <= factor * cum

    else:
        log2n = math.log2(n0) if n0 > 1 else 0.0

        def arrested(layer, cum):
            return layer * k <= cum * log2n

    active = g._active
    removed = 0
    comps = []
    while active:
        root = (active & -active).bit_length() - 1
        layers = _bfs(masks, root, active)
        ball_layers = [next(layers)[0]]
        ball = ball_layers[0]
        for depth in range(1, k + 1):
            nxt, inner = next(layers, (0, 0))
            # Arrest at depth k is forced: growth past the factor for k
            # straight steps would overshoot n, so in exact arithmetic an
            # arrest exists by then; the depth==k clause only guards float
            # rounding at the boundary.
            if arrested(nxt.bit_count(), ball.bit_count()) or depth == k:
                boundary = nxt
                radius = depth - 1
                break
            # layer joins the ball: check it for a parity conflict first
            ball_layers.append(nxt)
            if inner:
                return ShortCycle(_conflict_cycle(masks, ball_layers, inner))
            ball |= nxt
        sides = [0, 0]
        for i, layer in enumerate(ball_layers):
            sides[i & 1] |= layer
        comps.append(PeelComponent(ball, *sides, center=root, radius=radius))
        removed |= boundary
        active &= ~(ball | boundary)
    return PeelDecomposition(removed, tuple(comps))


def independent_set_via_peel(g, k):
    """Independent set of size >= (n - |removed|)/2 from a peel decomposition.

    Takes the larger bipartition side of every component; sides from distinct
    components share no edges, so the union stays independent. When the peel
    finds a short odd cycle instead, that :class:`ShortCycle` is returned
    unchanged for the caller to handle.
    """
    outcome = peel(g, k)
    if isinstance(outcome, ShortCycle):
        return outcome
    picked = 0
    for comp in outcome.components:
        side0, side1 = comp.side0, comp.side1
        picked |= side0 if side0.bit_count() >= side1.bit_count() else side1
    return _bits_to_array(picked)
