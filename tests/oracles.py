"""Independent test oracles and instance generators.

Everything here recomputes results with plain-Python brute force so the
package's optimized kernels have something honest to disagree with.
"""

from __future__ import annotations

import math

import numpy as np

from oddcycle import EdgeColouring, Graph, ParseError
from oddcycle import colouring as colouring_module
from oddcycle.colouring import FORMAT_MAGIC, colouring_from_classes


def adjacency_sets(g):
    """list[set[int]] view of a Graph's active adjacency."""
    matrix = g.masked_matrix()
    return [set(int(w) for w in np.flatnonzero(matrix[v])) for v in range(g.n)]


def odd_girth_by_enumeration(adj):
    """Minimum odd cycle length by anchored DFS over simple paths, or None.

    Cycles are enumerated once each by forcing the anchor to be the cycle's
    lowest vertex. Intended for graphs of <= 10 vertices.
    """
    n = len(adj)
    best = [None]

    def dfs(anchor, path, on_path):
        if best[0] is not None and len(path) >= best[0]:
            return
        v = path[-1]
        for w in sorted(adj[v]):
            if w == anchor and len(path) >= 3 and len(path) % 2 == 1:
                if best[0] is None or len(path) < best[0]:
                    best[0] = len(path)
            if w > anchor and w not in on_path:
                path.append(w)
                on_path.add(w)
                dfs(anchor, path, on_path)
                path.pop()
                on_path.remove(w)

    for a in range(n):
        if adj[a]:
            dfs(a, [a], {a})
    return best[0]


def naive_distance_matrix(g):
    """All-pairs distances by Floyd-Warshall over the masked matrix."""
    matrix = g.masked_matrix()
    n = g.n
    inf = math.inf
    active = g.active_mask
    dist = [[inf] * n for _ in range(n)]
    for v in range(n):
        if active[v]:
            dist[v][v] = 0
        for w in np.flatnonzero(matrix[v]):
            dist[v][int(w)] = 1
    for m in range(n):
        for u in range(n):
            dum = dist[u][m]
            if dum == inf:
                continue
            row = dist[u]
            mrow = dist[m]
            for w in range(n):
                cand = dum + mrow[w]
                if cand < row[w]:
                    row[w] = cand
    return dist


def brute_force_selector(inst):
    """(max |survivors| over all 2^q choice vectors, list per vector)."""
    sizes = []
    for bits in range(2**inst.q):
        union = set()
        for i, (a, b) in enumerate(inst.pairs):
            side = a if (bits >> i) & 1 == 0 else b
            union.update(int(x) for x in side)
        sizes.append(inst.n - len(union))
    return (max(sizes) if sizes else inst.n), sizes


def simulate_peel(adj, k, active=None):
    """Re-run the peeling procedure with plain sets.

    Returns ("cycle", (depth, v, u)) for the first in-ball parity conflict
    (v < u, the offending same-layer edge), else
    ("decomp", frozenset removed, ((frozenset vertices, center, radius), ...)).
    """
    n = len(adj)
    act = set(range(n)) if active is None else set(active)
    n0 = len(act)
    if n0 > 1 and k < math.log2(n0):
        fac = n0 ** (1.0 / k) - 1.0

        def arrest(layer, cum):
            return layer <= fac * cum

    else:
        l2 = math.log2(n0) if n0 > 1 else 0.0

        def arrest(layer, cum):
            return layer * k <= cum * l2

    removed = set()
    comps = []
    while act:
        root = min(act)
        layers = [{root}]
        ball = {root}
        boundary = set()
        radius = 0
        for depth in range(1, k + 1):
            nxt = set()
            for u in layers[-1]:
                nxt |= adj[u] & act
            nxt -= ball
            if arrest(len(nxt), len(ball)) or depth == k:
                boundary = nxt
                radius = depth - 1
                break
            for v in sorted(nxt):
                partners = sorted(w for w in adj[v] & nxt if w > v)
                if partners:
                    return ("cycle", (depth, v, partners[0]))
            ball |= nxt
            layers.append(nxt)
        comps.append((frozenset(ball), root, radius))
        removed |= boundary
        act -= ball | boundary
    return ("decomp", frozenset(removed), tuple(comps))


def random_adjacency_sets(n, p, rng):
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def blown_up_odd_cycle(m, s, p, seed):
    """C_m with each vertex replaced by s independent copies and each cycle
    edge by a random bipartite graph of density p, vertices shuffled: every
    odd closed walk winds around, so the odd girth is at least m."""
    rng = np.random.default_rng(seed)
    n = m * s
    adj = np.zeros((n, n), dtype=bool)
    for i in range(m):
        j = (i + 1) % m
        adj[i * s:(i + 1) * s, j * s:(j + 1) * s] = rng.random((s, s)) < p
    adj |= adj.T
    perm = rng.permutation(n)
    return Graph(adj[np.ix_(perm, perm)])


def grid_graph(rows, cols):
    """rows x cols grid, vertex i*cols + j; bipartite, with many equal-length
    shortest paths, so BFS tie-breaking shows in its outputs."""
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return Graph.from_edges(rows * cols, edges)


def graph_from_sets(adj):
    n = len(adj)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def hamilton_decomposition_classes(m):
    """Edge classes of the Walecki decomposition of K_{2m+1} into m
    Hamilton cycles (apex vertex 2m)."""
    n = 2 * m + 1
    classes = []
    for j in range(m):
        path = []
        for t in range(2 * m):
            off = (t + 1) // 2
            path.append((j + off) % (2 * m) if t % 2 == 1 else (j - off) % (2 * m))
        cyc = [2 * m] + path
        classes.append([(cyc[i], cyc[(i + 1) % n]) for i in range(n)])
    return classes


def hamilton_colouring(m):
    """Complete colouring of K_{2m+1} whose colour classes are all Hamilton
    cycles (odd girth 2m+1 each)."""
    return colouring_from_classes(2 * m + 1, hamilton_decomposition_classes(m))


def shifted_cycle_classes(m, copies):
    """copies disjoint m-cycles on consecutive vertex blocks; everything else
    uncoloured, so the result is deliberately non-complete."""
    classes = []
    for c in range(copies):
        base = c * m
        classes.append([(base + i, base + (i + 1) % m) for i in range(m)])
    return classes


def pentagon_colouring():
    """The 2-colouring of K_5 whose classes are the pentagon and pentagram."""
    pentagon = [(i, (i + 1) % 5) for i in range(5)]
    pentagram = [(i, (i + 2) % 5) for i in range(5)]
    return colouring_from_classes(5, [pentagon, pentagram])


def write_colouring_by_entries(c, stream):
    """The colouring writer formatting one entry at a time with ``str``."""
    stream.write(f"{FORMAT_MAGIC}\n")
    stream.write(f"{c.n} {c.q}\n")
    for u in range(c.n - 1):
        stream.write(" ".join(str(int(x)) for x in c.table[u, u + 1 :]))
        stream.write("\n")


def read_colouring_by_rows(stream):
    """The colouring reader parsing row by row with ``str.split`` and ``int``."""
    lines = stream.read().split("\n")
    if not lines or lines[0] != FORMAT_MAGIC:
        raise ParseError(f"expected header {FORMAT_MAGIC!r}", line=1)
    if len(lines) < 2:
        raise ParseError("missing dimension line", line=2)
    parts = lines[1].split()
    if len(parts) != 2:
        raise ParseError("dimension line must be '<n> <q>'", line=2)
    try:
        n, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("dimensions must be integers", line=2) from None
    if n < 1 or q < 0:
        raise ParseError(f"bad dimensions n={n} q={q}", line=2)
    max_n = colouring_module._MAX_N
    if n > max_n:
        raise ParseError(f"n={n} exceeds the dense-table limit of {max_n} vertices", line=2)
    for u in range(n - 1):
        if 2 + u >= len(lines):
            raise ParseError(f"truncated table: missing row for vertex {u}", line=3 + u)
        if len(lines[2 + u]) < 2 * (n - 1 - u) - 1:
            raise ParseError(f"row for vertex {u} has {len(lines[2 + u].split())} entries, "
                             f"expected {n - 1 - u}", line=3 + u)
    table = np.full((n, n), -1, dtype=np.int16)
    for u in range(n - 1):
        lineno = 3 + u
        row = lines[lineno - 1].split()
        expected = n - 1 - u
        if len(row) != expected:
            raise ParseError(
                f"row for vertex {u} has {len(row)} entries, expected {expected}",
                line=lineno,
            )
        for off, tok in enumerate(row):
            try:
                val = int(tok)
            except ValueError:
                raise ParseError(f"non-integer colour {tok!r}", line=lineno) from None
            if not 0 <= val < q:
                raise ParseError(f"colour {val} out of range [0, {q})", line=lineno)
            v = u + 1 + off
            table[u, v] = table[v, u] = val
    for idx, extra in enumerate(lines[n + 1 :]):
        if extra.strip():
            raise ParseError("unexpected trailing content", line=n + 2 + idx)
    return EdgeColouring(n, q, table)
