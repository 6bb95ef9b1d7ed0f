"""Compact undirected graphs and the BFS/parity kernel everything builds on.

A ``Graph`` is one Python-int bitmask per row (arbitrary-precision words)
holding the row's active neighbours, plus an int mask of the active
vertices. Subgraphs of the form "G minus a deleted set" are new row lists
cut down by one AND per row, so the peeling pipeline never touches a dense
matrix. Every BFS in the package runs through one kernel on these rows,
which keeps the inner loops at word speed for every size this package
targets (n <= 2^14 + 1, the dense-table limit). ``_bfs`` ORs each layer's
rows once; that union gives the next layer and the layer's *inner* mask,
its vertices with a neighbour in the layer (BFS parity conflicts), so no
layer is scanned twice, and a conflict cycle is built only for a nonzero
inner mask. ``_union_rows`` takes the frontier apart from its top set bit
in an inline loop, with no per-bit generator, so each step shortens it. The
kernel stores no parent: ``_walk_back`` recovers a witness path on demand,
the parent of a layer-d vertex being its lowest neighbour in layer d-1.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .errors import InputError, InternalInconsistency


def _iter_bits(mask):
    """Yield set-bit indices of a Python int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bits_to_array(mask):
    return np.fromiter(_iter_bits(mask), dtype=np.int64)


def _scalar_id(v, what="ids must be integers"):
    """One id as an int; InputError unless it is a Python or numpy integer
    (a bool is not), so no float or string is truncated into an id. Other
    integer arguments (radii, budgets) pass ``what``, naming themselves."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise InputError(f"{what}, not {type(v).__name__}")
    return int(v)


def _pair(entry):
    """An edge-list entry as two ids; InputError naming the entry unless it
    is a pair of integers."""
    try:
        u, v = entry
    except (TypeError, ValueError):  # not iterable, or not of length 2
        raise InputError(f"edge list entry {entry!r} is not a pair") from None
    return _scalar_id(u), _scalar_id(v)


def _real(x, name):
    """``x`` itself; InputError unless it is a real number (a bool is not)."""
    # int and float first: they skip the ABC's slower instance check
    if isinstance(x, bool) or not isinstance(x, (int, float, numbers.Real)):
        raise InputError(f"{name} must be a real number, not {type(x).__name__}")
    return x


def _size(n):
    """A graph size as an int; InputError unless it is an integer >= 0."""
    n = _scalar_id(n, "graph size must be an integer")
    if n < 0:
        raise InputError(f"graph size must be >= 0, got {n}")
    return n


def _integer_ids(ids, message):
    """A 1-D array or iterable of ids as an int64 array; InputError(message)
    unless its dtype is integer. Empty passes whatever its dtype, as
    ``np.asarray([])`` is float."""
    try:
        ids = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
    except (TypeError, ValueError):  # a scalar, or ragged nesting
        raise InputError(f"{message}, in a 1-D sequence") from None
    if ids.ndim != 1:
        raise InputError(f"{message}, in a 1-D sequence")
    if ids.size and ids.dtype.kind not in "iu":
        raise InputError(message)
    return ids.astype(np.int64)


def _array_to_bits(vertices, n):
    """Int mask of ``vertices``; InputError for a non-integer id or one
    outside [0, n)."""
    mask = 0
    for v in _integer_ids(vertices, "vertex ids must be integers").tolist():
        if not 0 <= v < n:
            raise InputError(f"vertex {v} out of range [0, {n})")
        mask |= 1 << v
    return mask


def _pack_rows(matrix):
    """One int per row of a bool matrix, bit j set iff column j is.

    The packed rows are converted at C speed: viewed as one fixed-width
    bytes item per row, listed, and mapped through ``int.from_bytes``.
    numpy strips an item's trailing NUL bytes, which in little-endian
    order are its high zero bytes, so no value changes. A zero-width
    matrix has no bytes to view: every row is 0."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    width = packed.shape[1]
    if width == 0:
        return [0] * len(packed)
    items = packed.view(f"S{width}").ravel().tolist()
    return list(map(int.from_bytes, items, repeat("little")))


def _unpack_rows(masks, n):
    """Fresh bool matrix whose row i holds bits 0..n-1 of ``masks[i]``."""
    width = (n + 7) // 8
    data = b"".join(mask.to_bytes(width, "little") for mask in masks)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(bool)


def _dense_ids(mask, n):
    """Sorted ids of the bits of ``mask`` below n, by one unpack: on a dense
    mask this beats a loop over its bits."""
    return np.flatnonzero(_unpack_rows([mask], n)[0])


class Graph:
    """Undirected graph on vertices 0..n-1 with an active-vertex mask.

    Immutable after construction; ``without``/``restricted_to`` return new
    graphs over the same vertex ids. Masked-out vertices have no incident
    active edges.
    """

    def __init__(self, adjacency, active=None):
        adj = np.asarray(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise InputError("adjacency must be a square matrix")
        if adj.diagonal().any():
            raise InputError("graph must be irreflexive (no self-loops)")
        if not np.array_equal(adj, adj.T):
            raise InputError("adjacency must be symmetric")
        n = adj.shape[0]
        if active is None:
            act = (1 << n) - 1
        else:
            act = np.array(active, dtype=bool)
            if act.shape != (n,):
                raise InputError("active mask has wrong shape")
            act = _pack_rows(act[None, :])[0]
        self._set(_pack_rows(adj), act)

    @classmethod
    def _from_rows(cls, rows, active):
        """Graph on ``rows``, taken as symmetric and irreflexive unchecked."""
        g = cls.__new__(cls)
        g._set(rows, active)
        return g

    def _set(self, rows, active):
        # The one place the row invariant is made: a row holds only active
        # neighbours, and an inactive vertex's row is 0. The rows are always
        # copied, so later changes to the caller's list cannot reach the graph.
        self.n = n = len(rows)
        self._active = active
        if active == (1 << n) - 1:
            self._rows = list(rows)
        else:
            flags = _unpack_rows([active], n)[0].tolist()
            self._rows = [row & active if on else 0 for row, on in zip(rows, flags)]

    @classmethod
    def from_edges(cls, n, edges):
        n = _size(n)
        rows = [0] * n
        for entry in edges:
            u, v = _pair(entry)
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._from_rows(rows, (1 << n) - 1)

    # -- views ------------------------------------------------------------

    def without(self, vertices):
        """View of this graph with ``vertices`` deactivated."""
        return Graph._from_rows(self._rows, self._active & ~_array_to_bits(vertices, self.n))

    def restricted_to(self, vertices):
        """View keeping only ``vertices`` (intersected with the current mask)."""
        return Graph._from_rows(self._rows, self._active & _array_to_bits(vertices, self.n))

    # -- queries ----------------------------------------------------------

    @property
    def active_mask(self):
        mask = _unpack_rows([self._active], self.n)[0]
        mask.setflags(write=False)
        return mask

    def active_vertices(self):
        return _bits_to_array(self._active)

    @property
    def active_count(self):
        return self._active.bit_count()

    def is_active(self, v):
        v = _scalar_id(v)
        return 0 <= v < self.n and bool(self._active >> v & 1)

    def has_edge(self, u, v):
        u, v = _scalar_id(u), _scalar_id(v)
        return 0 <= u < self.n and 0 <= v < self.n and bool(self._rows[u] >> v & 1)

    def neighbours(self, v):
        if not self.is_active(v):
            raise InputError(f"vertex {v} is not active")
        return _bits_to_array(self._rows[v])

    def degree(self, v):
        return int(self.neighbours(v).size)

    def edge_count(self):
        return sum(row.bit_count() for row in self._rows) // 2

    def masked_matrix(self):
        """Fresh boolean matrix of the active subgraph (verifier fodder)."""
        return _unpack_rows(self._rows, self.n)

    def row_masks(self):
        """Per-vertex int bitmask of active neighbours (0 for inactive rows)."""
        return self._rows

    def __repr__(self):
        return f"Graph(n={self.n}, active={self.active_count}, edges={self.edge_count()})"


@dataclass(frozen=True)
class LayeredBall:
    """BFS layers around a root: layer i holds exactly the vertices at distance i."""

    root: int
    layers: tuple  # tuple of np.ndarray, ascending vertex order per layer

    @property
    def depth(self):
        return len(self.layers) - 1

    def vertices(self):
        return np.concatenate([np.sort(layer) for layer in self.layers])


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint independent sides covering the vertices they were built for."""

    side0: np.ndarray
    side1: np.ndarray


@dataclass(frozen=True)
class OddCycleCertificate:
    """A vertex sequence claimed to be a simple odd cycle, optionally monochromatic."""

    vertices: tuple
    colour: int | None = None

    @property
    def length(self):
        return len(self.vertices)

    def with_colour(self, colour):
        return OddCycleCertificate(self.vertices, colour)


@dataclass(frozen=True)
class OddClosedWalk:
    """Cyclic vertex sequence of odd length; repeats allowed."""

    vertices: tuple

    @property
    def length(self):
        return len(self.vertices)


def _union_rows(masks, frontier):
    """OR of the rows of the frontier's vertices, taken top bit first: each
    step clears the frontier's top bit, so the frontier shrinks as it goes,
    where clearing the lowest bit keeps every step at its full width."""
    out = 0
    while frontier:
        v = frontier.bit_length() - 1
        out |= masks[v]
        frontier ^= 1 << v
    return out


def _bfs(masks, root, allowed=-1):
    """Yield ``(layer, inner)`` for the BFS layers from ``root``: layer 0 is
    the root alone, each later layer the unseen ``allowed`` neighbours of the
    one before, and ``inner`` the layer's vertices with a neighbour inside
    it. One row union per layer gives both ``inner`` and the next layer.
    Stops when a frontier comes out empty."""
    seen = frontier = 1 << root
    while frontier:
        union = _union_rows(masks, frontier)
        yield frontier, union & frontier
        frontier = union & allowed & ~seen
        seen |= frontier


def _walk_back(masks, layers, v):
    """The path ``v, p(v), ..., root`` from a vertex v of the last of
    ``layers``, where the parent of a layer-i vertex is its lowest neighbour
    in layer i-1."""
    path = [v]
    for layer in reversed(layers[:-1]):
        below = masks[v] & layer
        v = (below & -below).bit_length() - 1
        path.append(v)
    return path


def _conflict_cycle(masks, layers, inner):
    """Odd cycle through the first edge v-u inside the last of ``layers``
    (``inner`` its inner mask), or None if there is none: v is the lowest
    vertex of ``inner``, u its lowest neighbour in the layer. Both ends walk
    back to their first common vertex, so all cycle vertices are distinct."""
    if not inner:
        return None
    v = (inner & -inner).bit_length() - 1
    hit = masks[v] & layers[-1]
    u = (hit & -hit).bit_length() - 1
    pv, pu = _walk_back(masks, layers, v), _walk_back(masks, layers, u)
    t = 0
    while pv[t] != pu[t]:
        t += 1
    return OddCycleCertificate(vertices=tuple(pv[: t + 1] + pu[:t][::-1]))


def bfs_layers(g, root, max_depth):
    """Exact BFS layers from ``root``, stopping at ``max_depth`` or when the
    frontier empties."""
    if not g.is_active(root):
        raise InputError(f"root {root} is not an active vertex")
    max_depth = _scalar_id(max_depth, "max_depth must be an integer")
    if max_depth < 0:
        raise InputError("max_depth must be >= 0")
    layers = islice(_bfs(g.row_masks(), int(root)), max_depth + 1)
    return LayeredBall(root=root, layers=tuple(_bits_to_array(layer) for layer, _ in layers))


def check_bipartite(g):
    """Two-colour the active vertices or certify an odd cycle.

    Returns a global :class:`Bipartition` (per component, the lowest-index
    vertex lands in side0) when g is bipartite; otherwise returns the
    :class:`OddCycleCertificate` built from the first BFS parity conflict.
    The returned cycle is some odd cycle, not necessarily a shortest one.
    """
    masks = g.row_masks()
    left = g._active
    sides = [0, 0]
    while left:
        layers = []
        for layer, inner in _bfs(masks, (left & -left).bit_length() - 1):
            layers.append(layer)
            if inner:
                return _conflict_cycle(masks, layers, inner)
            sides[(len(layers) - 1) & 1] |= layer
            left &= ~layer
    # the two sides cover every active vertex, so together they are dense
    return Bipartition(side0=_dense_ids(sides[0], g.n), side1=_dense_ids(sides[1], g.n))


def _component_masks(g):
    """Yield the active subgraph's connected components as int masks, by minimum vertex."""
    masks = g.row_masks()
    left = g._active
    while left:
        comp = 0
        for layer, _ in _bfs(masks, (left & -left).bit_length() - 1):
            comp |= layer
        left &= ~comp
        yield comp


def components(g):
    """Connected components of the active subgraph, ordered by minimum vertex."""
    return [_bits_to_array(mask) for mask in _component_masks(g)]


def odd_girth(g):
    """Exact odd girth with a witness cycle, or None when g is bipartite.

    Sweeps the active vertices as BFS roots in ascending order, each BFS
    confined to the vertices not yet ruled out. If a shortest odd cycle has
    length 2m+1, the BFS from its first root finds an edge inside a layer
    at depth <= m (Itai & Rodeh), and the first such edge closes a simple
    odd cycle of length <= 2d+1 by walking both ends back. So each finished
    root can be dropped, a BFS stops before any depth d with 2d+1 >= the
    best length so far, and a BFS that exhausts its component without a
    conflict drops the whole (bipartite) component. The sweep stops at the
    first triangle, since no odd cycle is shorter.
    """
    masks = g.row_masks()
    allowed = g._active
    best = None
    cap = g.n + 1  # layers a BFS grows at most; once best is set, 2 * cap + 1 is its length
    while allowed:
        # every lower vertex is done or dropped, so the root is the lowest left
        root = (allowed & -allowed).bit_length() - 1
        layers = []
        for layer, inner in _bfs(masks, root, allowed):
            layers.append(layer)
            if inner:
                cycle = _conflict_cycle(masks, layers, inner)
                depth = len(layers) - 1
                if cycle.length % 2 == 0 or cycle.length > 2 * depth + 1:
                    raise InternalInconsistency(
                        f"odd-girth witness has length {cycle.length} at depth {depth}",
                        witness={"root": root, "cycle": cycle.vertices, "depth": depth},
                    )
                if best is None or cycle.length < best.length:
                    best = cycle
                    cap = best.length // 2
                break
            if len(layers) >= cap:
                break
        else:  # no conflict anywhere in the component: it is bipartite
            for layer in layers:
                allowed &= ~layer
        allowed &= ~(1 << root)
        if cap == 1:  # a triangle: no odd cycle is shorter
            break
    return None if best is None else (best.length, best)


def _twin_free(g):
    """View of g keeping the lowest active vertex of each set of active
    vertices with equal rows (false twins). Twins are non-adjacent, so
    mapping each vertex to its kept twin is a homomorphism onto the view:
    the view has g's odd girth, and its cycles are cycles of g. Only the
    active ids are read, so an inactive vertex, whose row is 0, never
    stands for an active isolated vertex."""
    rows = g._rows
    lowest = {}  # row -> bit of its lowest active vertex
    for v in np.flatnonzero(g.active_mask).tolist():
        lowest.setdefault(rows[v], 1 << v)
    return Graph._from_rows(rows, sum(lowest.values()))


def odd_cycle_from_walk(walk, g):
    """Extract a simple odd cycle (length <= |walk|) from an odd closed walk.

    Repeatedly splits the walk at its first repeated vertex into two closed
    subwalks and keeps the odd-length one.
    """
    verts = [_scalar_id(v) for v in walk.vertices]
    if len(verts) % 2 == 0 or not verts:
        raise InputError(f"closed walk must have odd length, got {len(verts)}")
    for i, u in enumerate(verts):
        v = verts[(i + 1) % len(verts)]
        if not g.has_edge(u, v):
            raise InputError(f"walk step {i}: vertices {u} and {v} are not adjacent")
    while True:
        first = {}
        dup = None
        for idx, v in enumerate(verts):
            if v in first:
                dup = (first[v], idx)
                break
            first[v] = idx
        if dup is None:
            break
        i, j = dup
        inner = verts[i:j]          # closed subwalk (verts[j] == verts[i])
        outer = verts[:i] + verts[j:]
        verts = inner if len(inner) % 2 == 1 else outer
    return OddCycleCertificate(vertices=tuple(verts))


def shortest_path_within(g, component, x, y):
    """Shortest x-y path using only ``component`` vertices; list of vertices."""
    comp_mask = _array_to_bits(component, g.n)
    x, y = _scalar_id(x), _scalar_id(y)
    for v in (x, y):
        if not ((comp_mask >> v) & 1) or not g.is_active(v):
            raise InputError(f"vertex {v} is not an active member of the component")
    masks = g.row_masks()
    layers = []
    for layer, _ in _bfs(masks, x, comp_mask):
        layers.append(layer)
        if (layer >> y) & 1:
            return _walk_back(masks, layers, y)[::-1]
    raise InputError(f"vertices {x} and {y} are not connected within the component")
