"""Ball-peeling decomposition: delete thin BFS boundary layers so the residue
is bipartite with low-radius components, or trip over a short odd cycle.

Repeatedly grow BFS layers from the lowest-indexed active vertex and arrest
at the first depth j <= k whose layer is small relative to the ball grown so
far; the layer goes into the deleted set, the ball becomes a certified
component. Growth cannot beat the arrest factor for k straight steps without
overshooting n, so an arrest always exists.

The results hold what the peel computes, one Python int mask per ball, per
side of each ball and for the deleted set. Their numpy fields
(``vertices``, ``bipartition``, ``removed``) are built on first access and
then kept, so a caller that reads only masks or sizes builds no array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import (
    Bipartition,
    OddCycleCertificate,
    _array_to_bits,
    _bfs,
    _bits_to_array,
    _conflict_cycle,
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


class _FromMasks:
    """Base of the peel results. ``peel`` builds them with ``_from_masks``,
    which stores its int masks and leaves the array fields unset;
    ``__getattr__``, reached only for an unset attribute, builds such a field
    from the masks on first access and keeps it. A result built from arrays
    (the public constructor, ``dataclasses.replace``) holds no masks, so none
    can go stale; its ``_as_masks`` packs the arrays instead."""

    _masks = None  # the int masks, when peel built the result
    _arrays = {}  # array field name -> its value as a function of the masks

    @classmethod
    def _from_masks(cls, masks, **fields):
        result = cls.__new__(cls)
        result.__dict__.update(fields, _masks=masks)
        return result

    def __getattr__(self, name):
        if self._masks is None or name not in self._arrays:
            raise AttributeError(name)
        value = self.__dict__[name] = self._arrays[name](*self._masks)
        return value


@dataclass(frozen=True)
class PeelComponent(_FromMasks):
    """One certified ball: connected, centre eccentricity <= radius, bipartite."""

    vertices: np.ndarray
    center: int
    radius: int
    bipartition: Bipartition

    _arrays = {
        "vertices": lambda ball, side0, side1: _bits_to_array(ball),
        "bipartition": lambda ball, side0, side1: Bipartition(_bits_to_array(side0),
                                                              _bits_to_array(side1)),
    }

    def _as_masks(self, n):
        """(ball, side0, side1) as int masks over [0, n)."""
        if self._masks is not None:
            return self._masks
        bip = self.bipartition
        return tuple(_array_to_bits(ids, n) for ids in (self.vertices, bip.side0, bip.side1))


@dataclass(frozen=True)
class PeelDecomposition(_FromMasks):
    """Deleted set plus the bipartite low-radius components of G minus it."""

    removed: np.ndarray
    components: tuple

    _arrays = {"removed": _bits_to_array}

    def _removed_mask(self, n):
        """The deleted set as an int mask over [0, n)."""
        return self._masks[0] if self._masks is not None else _array_to_bits(self.removed, n)


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
            cycle = _conflict_cycle(masks, ball_layers, inner)
            if cycle is not None:
                return ShortCycle(cycle)
            ball |= nxt
        sides = [0, 0]
        for i, layer in enumerate(ball_layers):
            sides[i & 1] |= layer
        comps.append(PeelComponent._from_masks((ball, *sides), center=root, radius=radius))
        removed |= boundary
        active &= ~(ball | boundary)
    return PeelDecomposition._from_masks((removed,), components=tuple(comps))


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
        _, side0, side1 = comp._as_masks(g.n)
        picked |= side0 if side0.bit_count() >= side1.bit_count() else side1
    return _bits_to_array(picked)
