"""Independent test oracles and instance generators.

Everything here recomputes results with plain-Python brute force so the
package's optimized kernels have something honest to disagree with.
"""

from __future__ import annotations

import collections
import itertools
import math

import numpy as np

from oddcycle import EdgeColouring, Graph, ParseError, odd_girth, random_colouring
from oddcycle import analysis as analysis_module
from oddcycle import colouring as colouring_module
from oddcycle.colouring import FORMAT_MAGIC, colour_class, colouring_from_classes


def adjacency_sets(g):
    """list[set[int]] view of a Graph's active adjacency."""
    matrix = g.masked_matrix()
    return [set(int(w) for w in np.flatnonzero(matrix[v])) for v in range(g.n)]


def pack_rows_by_slices(matrix):
    """One int per row of a bool matrix, bit j set iff column j is: each
    packed row cut out of the packed bytes and converted on its own."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(len(packed))]


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


def odd_girth_by_double_cover(g):
    """Odd girth, or None, by the double-cover sweep ``odd_girth`` used to
    run: from every active vertex v, BFS over (vertex, parity) states until
    (v, odd) is reached; the minimum depth over v is the odd girth. Each
    depth's frontier holds only states of that depth's parity, so one mask
    per parity records what was seen. Stops at the first triangle."""
    masks = g.row_masks()
    best = None
    for v in (int(x) for x in g.active_vertices()):
        reach = [1 << v, 0]
        frontier = 1 << v
        depth = 0
        while True:
            depth += 1
            if best is not None and depth >= best - 1:
                break
            nxt, rest = 0, frontier
            while rest:
                low = rest & -rest
                nxt |= masks[low.bit_length() - 1]
                rest ^= low
            frontier = nxt & ~reach[depth & 1]
            if not frontier:
                break
            reach[depth & 1] |= frontier
            if (frontier >> v) & 1:
                best = depth
                break
        if best == 3:
            break
    return best


def layer_edge_by_scan(masks, layer):
    """First edge (v, u) inside one BFS layer by scanning it vertex by vertex,
    as the kernel did before it read conflicts off its row union: v the
    lowest vertex with a higher neighbour in the layer, u the lowest such
    neighbour; None if the layer is independent."""
    rest = layer
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        hit = masks[v] & rest
        if hit:
            return v, (hit & -hit).bit_length() - 1
    return None


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


def product_table_by_index(c1, c2):
    """``product_colouring``'s table gathered through n x n index arrays:
    c1's colour on {a, a'} where a != a', q1 + c2's colour on {b, b'} where
    a == a', for vertex (a, b) = a * n2 + b."""
    n1, n2 = c1.n, c2.n
    a = np.repeat(np.arange(n1), n2)
    b = np.tile(np.arange(n2), n1)
    t1 = c1.table[np.ix_(a, a)].astype(np.int32)
    t2 = c2.table[np.ix_(b, b)].astype(np.int32)
    lifted = np.where(t2 >= 0, c1.q + t2, -1)
    return np.where(a[:, None] == a[None, :], lifted, t1).astype(np.int16)


def hamilton_colouring_by_edges(m):
    """``hamilton_colouring`` from Walecki's zigzag walked edge by edge:
    class j is the cycle 2m, j, j+1, j-1, j+2, ..., j+m (mod 2m), listed as
    edges and checked by ``colouring_from_classes``."""
    n = 2 * m + 1
    classes = []
    for j in range(m):
        path = []
        for t in range(2 * m):
            off = (t + 1) // 2
            path.append((j + off) % (2 * m) if t % 2 == 1 else (j - off) % (2 * m))
        cyc = [2 * m] + path
        classes.append([(cyc[i], cyc[(i + 1) % n]) for i in range(n)])
    return colouring_from_classes(n, classes)


def random_table_by_triu_indices(n, q, seed):
    """``random_colouring``'s table written through ``np.triu_indices``: one
    seeded draw of n(n-1)/2 colours over the pairs u < v, row-major."""
    rng = np.random.default_rng(seed)
    table = np.full((n, n), -1, dtype=np.int16)
    iu = np.triu_indices(n, 1)
    table[iu] = rng.integers(0, q, size=iu[0].size, dtype=np.int16)
    table.T[iu] = table[iu]
    return table


def binary_table_by_bits(q):
    """``binary_colouring``'s table from its definition: the pair {u, v}
    takes the lowest bit where u and v differ, one bit at a time over 256
    rows, the higher bits written first so that the lowest one stays."""
    n = 1 << q
    ids = np.arange(n)
    table = np.full((n, n), -1, dtype=np.int16)
    for u0 in range(0, n, 256):
        differ = ids[u0 : u0 + 256, None] ^ ids
        rows = table[u0 : u0 + 256]
        for i in reversed(range(q)):
            rows[(differ >> i) & 1 == 1] = i
    return table


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
    max_q = colouring_module._MAX_Q
    if q > max_q:
        raise ParseError(f"q={q} exceeds the colour limit of {max_q}", line=2)
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


def min_colour_odd_cycle_by_full_classes(c):
    """``min_colour_odd_cycle`` sweeping every colour's whole class: the
    first colour of least odd girth, its length and certificate, stopping
    at a triangle."""
    best = None
    for i in range(c.q):
        got = odd_girth(colour_class(c, i))
        if got is None:
            continue
        length, cert = got
        if best is None or length < best[1]:
            best = (i, length, cert.with_colour(i))
            if length == 3:
                break
    return best


def table_girth(table, i):
    """Odd girth of ``table == i`` through the validating ``Graph``, or n+1
    when the class is bipartite."""
    got = odd_girth(Graph(table == i))
    return len(table) + 1 if got is None else got[0]


def table_girth_by_bfs(table, i):
    """Odd girth of ``table == i`` by a breadth-first search of (vertex,
    parity) states from each vertex back to itself at odd parity, on plain
    Python lists and none of the package's kernels; n+1 when the class is
    bipartite."""
    n = len(table)
    nbrs = [[w for w in range(n) if table[v][w] == i] for v in range(n)]
    best = n + 1
    for root in range(n):
        dist = {(root, 0): 0}
        queue = collections.deque([(root, 0)])
        while queue and (root, 1) not in dist:
            v, p = queue.popleft()
            for w in nbrs[v]:
                if (w, 1 - p) not in dist:
                    dist[w, 1 - p] = dist[v, p] + 1
                    queue.append((w, 1 - p))
        best = min(best, dist.get((root, 1), best))
    return best


def exhaustive_L_by_tables(q, n):
    """``exhaustive_L`` as a numpy table per candidate colouring: the same
    enumeration order, value and witness, for small (q, n) only."""
    n_edges = n * (n - 1) // 2
    edges = list(itertools.combinations(range(n), 2))
    best_val, best_table = -1, None
    for rest in itertools.product(range(q), repeat=n_edges - 1):
        table = np.full((n, n), -1, dtype=np.int16)
        for (u, v), colour in zip(edges, (0,) + rest):
            table[u, v] = table[v, u] = colour
        val = min(table_girth(table, i) for i in range(q))
        if val > best_val:
            best_val, best_table = val, table
            if best_val == n + 1:
                break
    witness = EdgeColouring(n, q, best_table, provenance=f"exhaustive q={q} n={n}")
    return (None if best_val == n + 1 else best_val), witness


def anneal_search_by_tables(q, n, iterations, seed, init=None):
    """``anneal_search`` on a numpy table that each move edits and each
    re-girthed class is cut from: the same RNG draws, accept test and best
    colouring, for a complete ``init``. The draws are batched by the
    package's ``_BATCH``, read when the search starts, so a test may set it."""
    rng = np.random.default_rng(seed)
    start = init if init is not None else random_colouring(n, q, rng)
    table = np.array(start.table, dtype=np.int16)
    girths = [table_girth(table, i) for i in range(q)]
    objective = best_objective = min(girths)
    best_table = table.copy()
    edges = list(itertools.combinations(range(n), 2))
    t_hot, t_cold = 1.0, 0.05
    batch = analysis_module._BATCH
    for step in range(iterations):
        if q < 2:
            break
        at = step % batch
        if at == 0:
            size = min(batch, iterations - step)
            picks = rng.integers(len(edges), size=size)
            shifts = rng.integers(1, q, size=size)
            coins = rng.random(size)
        temperature = t_hot * (t_cold / t_hot) ** (step / max(iterations - 1, 1))
        u, v = edges[int(picks[at])]
        old = int(table[u, v])
        new = (old + int(shifts[at])) % q
        table[u, v] = table[v, u] = new
        changed = {}
        for i in (old, new):
            changed[i] = girths[i]
            girths[i] = table_girth(table, i)
        proposed = min(girths)
        delta = proposed - objective
        if delta >= 0 or coins[at] < math.exp(delta / temperature):
            objective = proposed
            if proposed > best_objective:
                best_objective, best_table = proposed, table.copy()
        else:
            table[u, v] = table[v, u] = old
            for i, g in changed.items():
                girths[i] = g
    best = EdgeColouring(n, q, best_table, provenance=f"anneal q={q} n={n} seed={seed}")
    return best_objective, best
