import functools
import operator
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oddcycle import (
    Bipartition,
    EdgeColouring,
    Graph,
    InputError,
    OddClosedWalk,
    OddCycleCertificate,
    bfs_layers,
    binary_colouring,
    check_bipartite,
    colour_class,
    complete_bipartite_graph,
    complete_graph,
    components,
    cycle_graph,
    empty_graph,
    hamilton_colouring,
    odd_cycle_from_walk,
    odd_girth,
    path_graph,
    petersen_graph,
    product_colouring,
    random_bipartite_graph,
    random_colouring,
    random_graph,
    shortest_path_within,
    verify_mono_odd_cycle,
)
from oddcycle.graph import _bfs, _conflict_cycle, _pack_rows, _twin_free, _union_rows
from oracles import (
    adjacency_sets,
    blown_up_odd_cycle,
    grid_graph,
    layer_edge_by_scan,
    naive_distance_matrix,
    odd_girth_by_double_cover,
    odd_girth_by_enumeration,
    pack_rows_by_slices,
    pentagon_colouring,
)


def layer_lists(ball):
    return [sorted(int(v) for v in layer) for layer in ball.layers]


class TestBfsLayers:
    def test_path(self):
        ball = bfs_layers(path_graph(4), 0, 2)
        assert layer_lists(ball) == [[0], [1], [2]]

    def test_isolated_vertex(self):
        ball = bfs_layers(empty_graph(3), 1, 5)
        assert layer_lists(ball) == [[1]]

    def test_petersen_cumulative(self):
        # frozen from direct BFS on the standard Petersen labelling
        ball = bfs_layers(petersen_graph(), 0, 2)
        sizes = [len(layer) for layer in ball.layers]
        assert [sum(sizes[: i + 1]) for i in range(len(sizes))] == [1, 4, 10]

    def test_depth_zero(self):
        ball = bfs_layers(cycle_graph(5), 2, 0)
        assert layer_lists(ball) == [[2]]

    def test_numpy_root_past_word_size(self):
        # a numpy int root must not overflow the shift that seeds the BFS
        ball = bfs_layers(cycle_graph(100), np.int64(70), 1)
        assert layer_lists(ball) == [[70], [69, 71]]

    def test_inactive_root_rejected(self):
        g = cycle_graph(5).without([2])
        with pytest.raises(InputError):
            bfs_layers(g, 2, 1)
        with pytest.raises(InputError):
            bfs_layers(g, 0, -1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 64))
    def test_layers_are_exact_distances(self, seed, n):
        rng = np.random.default_rng(seed)
        g = random_graph(n, float(rng.uniform(0.02, 0.3)), seed)
        if rng.random() < 0.3:
            g = g.without(rng.choice(n, size=n // 5, replace=False))
        roots = g.active_vertices()
        if roots.size == 0:
            return
        root = int(roots[int(rng.integers(roots.size))])
        dist = naive_distance_matrix(g)
        depth = int(rng.integers(0, n))
        ball = bfs_layers(g, root, depth)
        for i, layer in enumerate(ball.layers):
            expect = sorted(v for v in range(n) if dist[root][v] == i)
            assert sorted(int(v) for v in layer) == expect
        # the BFS stopped only because the frontier emptied or depth ran out
        if ball.depth < depth:
            assert not any(dist[root][v] == ball.depth + 1 for v in range(n))


class TestCheckBipartite:
    def test_even_cycle_sides(self):
        got = check_bipartite(cycle_graph(6))
        assert isinstance(got, Bipartition)
        assert sorted(got.side0) == [0, 2, 4]
        assert sorted(got.side1) == [1, 3, 5]

    def test_odd_cycle_certified(self):
        got = check_bipartite(cycle_graph(7))
        assert isinstance(got, OddCycleCertificate)
        assert got.length == 7
        assert verify_mono_odd_cycle(cycle_graph(7), got) is None

    def test_k4_gives_triangle(self):
        got = check_bipartite(complete_graph(4))
        assert isinstance(got, OddCycleCertificate)
        assert got.length == 3
        assert verify_mono_odd_cycle(complete_graph(4), got) is None

    @pytest.mark.parametrize(
        "n,seed,vertices",
        [
            (50, 0, (25, 13, 2, 11, 0, 3, 46, 28, 41)),
            (100, 1, (51, 48, 50, 15, 74, 27, 52)),
            (150, 2, (25, 54, 120, 10, 41)),
            (200, 3, (42, 172, 52, 154, 186, 0, 20, 120, 86, 99, 109)),
            (300, 4, (61, 120, 195, 87, 170, 54, 20, 160, 1, 13, 138, 218, 66, 251, 74, 9, 175)),
        ],
    )
    def test_seeded_odd_cycle_pinned(self, n, seed, vertices):
        # seeded runs are byte-reproducible, so the exact conflict cycle
        # (lowest-index parents, first conflict edge) is pinned
        assert check_bipartite(random_graph(n, 1.5 / n, seed)).vertices == vertices

    def test_blown_up_c7_pinned(self):
        got = check_bipartite(blown_up_odd_cycle(7, 6, 0.3, 7))
        assert got.vertices == (7, 11, 24, 0, 36, 16, 33)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 10))
    def test_agrees_with_odd_girth(self, seed, n):
        rng = np.random.default_rng(seed)
        g = random_graph(n, float(rng.uniform(0.1, 0.9)), seed + 1)
        got = check_bipartite(g)
        girth = odd_girth(g)
        if isinstance(got, Bipartition):
            assert girth is None
            sides = sorted(int(v) for v in got.side0) + sorted(int(v) for v in got.side1)
            assert sorted(sides) == sorted(int(v) for v in g.active_vertices())
            matrix = g.masked_matrix()
            for side in (got.side0, got.side1):
                idx = [int(v) for v in side]
                assert not matrix[np.ix_(idx, idx)].any()
        else:
            assert girth is not None
            assert verify_mono_odd_cycle(g, got) is None
            assert got.length >= girth[0]


class TestOddGirth:
    def test_small_cases(self):
        assert odd_girth(cycle_graph(5))[0] == 5
        assert odd_girth(complete_graph(4))[0] == 3
        assert odd_girth(cycle_graph(8)) is None

    def test_petersen(self):
        # frozen from the enumeration oracle
        adj = adjacency_sets(petersen_graph())
        assert odd_girth_by_enumeration(adj) == 5
        length, cert = odd_girth(petersen_graph())
        assert length == 5
        assert verify_mono_odd_cycle(petersen_graph(), cert) is None

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 10))
    def test_matches_enumeration(self, seed, n):
        rng = np.random.default_rng(seed)
        g = random_graph(n, float(rng.uniform(0.05, 0.95)), seed + 7)
        expected = odd_girth_by_enumeration(adjacency_sets(g))
        got = odd_girth(g)
        if expected is None:
            assert got is None
        else:
            length, cert = got
            assert length == expected
            assert cert.length == expected
            assert verify_mono_odd_cycle(g, cert) is None

    def test_masked_graph(self):
        # deactivating one vertex of K_4 leaves a triangle
        g = complete_graph(4).without([3])
        assert odd_girth(g)[0] == 3
        # deactivating two leaves a single edge
        assert odd_girth(complete_graph(4).without([2, 3])) is None


def networkx_odd_girth(g):
    """Minimum over v of dist((v,0), (v,1)) in the bipartite double cover."""
    nx = pytest.importorskip("networkx")
    cover = nx.Graph()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                cover.add_edge((u, 0), (v, 1))
                cover.add_edge((u, 1), (v, 0))
    best = None
    for v in range(g.n):
        if (v, 0) not in cover:
            continue
        try:
            d = nx.shortest_path_length(cover, (v, 0), (v, 1))
        except nx.NetworkXNoPath:
            continue
        best = d if best is None else min(best, d)
    return best


class TestOddGirthAgainstNetworkx:
    def check(self, g):
        expected = networkx_odd_girth(g)
        got = odd_girth(g)
        if expected is None:
            assert got is None
            return None
        length, cert = got
        assert length == expected
        assert cert.length == expected
        assert verify_mono_odd_cycle(g, cert) is None
        return length

    def test_sparse_random(self):
        girths = []
        for seed in range(12):
            n = int(np.random.default_rng(seed).integers(50, 301))
            girths.append(self.check(random_graph(n, 1.5 / n, seed)))
        # the mix holds triangles, longer odd girths and a bipartite graph
        assert {3, None} <= set(girths)
        assert max(x for x in girths if x is not None) >= 5

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_random(self, seed):
        assert self.check(random_graph(60 + 40 * seed, 0.2, seed)) == 3

    @pytest.mark.parametrize("m,s,p", [(5, 12, 0.3), (7, 20, 0.15), (11, 10, 0.4), (21, 14, 0.2)])
    def test_blown_up_odd_cycles(self, m, s, p):
        assert self.check(blown_up_odd_cycle(m, s, p, m)) >= 5

    def test_bipartite(self):
        assert self.check(random_bipartite_graph(120, 0.1, 3)) is None


def _masked(g, rng, frac):
    """g with a random ``frac`` of its vertices deactivated."""
    return g.without(np.flatnonzero(rng.random(g.n) < frac))


def _girth_corpus():
    rng = np.random.default_rng(2024)
    cases = []
    for seed in range(16):
        n = int(rng.integers(40, 241))
        g = random_graph(n, 1.5 / n, seed)
        cases += [(f"sparse-{seed}", g), (f"sparse-{seed}-masked", _masked(g, rng, 0.2))]
    for seed in range(6):
        g = random_graph(30 + 20 * seed, 0.3, 100 + seed)
        cases += [(f"dense-{seed}", g), (f"dense-{seed}-masked", _masked(g, rng, 0.5))]
    for m in range(5, 23, 2):
        g = blown_up_odd_cycle(m, 6, 0.4, m)
        cases += [(f"C{m}-blown-up", g), (f"C{m}-blown-up-masked", _masked(g, rng, 0.1))]
    colourings = [(f"hamilton-{m}", hamilton_colouring(m)) for m in range(2, 9)]
    colourings += [(f"binary3-x-hamilton-{m}",
                    product_colouring(binary_colouring(3), hamilton_colouring(m)))
                   for m in range(1, 5)]
    colourings += [(f"random-q{q}-s{s}", random_colouring(2**q + 1, q, s))
                   for q in range(1, 9) for s in range(2)]
    for name, c in colourings:
        for i in range(c.q):
            g = colour_class(c, i)
            cases += [(f"{name}-c{i}", g), (f"{name}-c{i}-masked", _masked(g, rng, 0.3))]
    return cases


class TestOddGirthAgainstDoubleCover:
    """The root sweep against the double-cover sweep it replaced."""

    def test_corpus(self):
        girths = set()
        for name, g in _girth_corpus():
            expected = odd_girth_by_double_cover(g)
            got = odd_girth(g)
            if expected is None:
                assert got is None, name
            else:
                length, cert = got
                assert length == expected == cert.length, name
                assert verify_mono_odd_cycle(g, cert) is None, name
            girths.add(expected)
        # triangles, long odd girths and bipartite graphs are all in the mix
        assert {None, 3, 5, 7, 17, 21} <= girths


def _relabelled(c, rng):
    perm = rng.permutation(c.n)
    return EdgeColouring(c.n, c.q, c.table[np.ix_(perm, perm)])


def _random_blow_up(k, p, seed):
    """A random graph on k vertices with vertex v replaced by 0-4 pairwise
    non-adjacent copies (each copy joined to every copy of v's neighbours),
    plus three isolated vertices, shuffled: false twins everywhere."""
    rng = np.random.default_rng(seed)
    base = np.triu(rng.random((k, k)) < p, 1)
    base |= base.T
    owner = np.repeat(np.arange(k), rng.integers(0, 5, size=k))
    n = owner.size + 3
    adj = np.zeros((n, n), dtype=bool)
    adj[: owner.size, : owner.size] = base[np.ix_(owner, owner)]
    perm = rng.permutation(n)
    return Graph(adj[np.ix_(perm, perm)])


def _twin_corpus():
    rng = np.random.default_rng(99)
    colourings = [(f"ham{m}xham{m}", _relabelled(
        product_colouring(hamilton_colouring(m), hamilton_colouring(m)), rng))
        for m in range(1, 7)]
    colourings += [(f"binary{b}xC5", _relabelled(
        product_colouring(binary_colouring(b), pentagon_colouring()), rng))
        for b in range(1, 5)]
    colourings += [(f"binary3xham{m}", _relabelled(
        product_colouring(binary_colouring(3), hamilton_colouring(m)), rng))
        for m in range(1, 5)]
    cases = []
    for name, c in colourings:
        for i in range(c.q):
            g = colour_class(c, i)
            cases += [(f"{name}-c{i}", g), (f"{name}-c{i}-masked", _masked(g, rng, 0.3))]
    for seed in range(12):
        g = _random_blow_up(int(rng.integers(4, 16)), 0.3, seed)
        cases += [(f"blow-up-{seed}", g), (f"blow-up-{seed}-masked", _masked(g, rng, 0.3))]
    return cases


class TestTwinFree:
    """Odd girth over one vertex per twin class against the double-cover
    sweep on the whole graph."""

    def test_corpus(self):
        girths = set()
        collapsed = 0
        for name, g in _twin_corpus():
            view = _twin_free(g)
            matrix = g.masked_matrix()
            active = [int(v) for v in g.active_vertices()]
            lowest = {}
            for v in active:
                lowest.setdefault(matrix[v].tobytes(), v)
            assert sorted(lowest.values()) == [int(v) for v in view.active_vertices()], name
            collapsed += len(lowest) < len(active)
            expected = odd_girth_by_double_cover(g)
            got = odd_girth(view)
            if expected is None:
                assert got is None, name
            else:
                length, cert = got
                assert length == expected == cert.length, name
                assert verify_mono_odd_cycle(g, cert) is None, name
            girths.add(expected)
        assert {None, 3, 5, 7, 9, 11, 13} <= girths
        assert collapsed > 100

    def test_inactive_vertex_never_stands_for_an_isolated_one(self):
        # vertex 0 is inactive and vertex 1 active and isolated: both rows
        # are 0, and only 1 may be kept. Vertices 2 and 4 are twins (row {3})
        g = Graph.from_edges(6, [(0, 3), (2, 3), (3, 4), (4, 5)]).without([0, 5])
        view = _twin_free(g)
        assert view.row_masks()[0] == view.row_masks()[1] == 0
        assert view.active_vertices().tolist() == [1, 2, 3]
        assert view.edge_count() == 1
        # with every zero-row vertex inactive, no zero row is kept at all
        assert _twin_free(g.without([1])).active_vertices().tolist() == [2, 3]


class TestConflictCycleAgainstLayerScan:
    """The kernel's inner masks and same-layer edges against the per-layer
    scan they replaced, on every layer of a BFS from every root, with and
    without an ``allowed`` mask cutting off the vertices below the root."""

    def test_corpus(self):
        hits = misses = 0
        for name, g in _girth_corpus():
            if name.startswith(("binary3", "random-q")):
                continue
            masks = g.row_masks()
            for root in (int(v) for v in g.active_vertices()):
                for allowed in (-1, g._active >> root << root):
                    layers = []
                    for layer, inner in _bfs(masks, root, allowed):
                        layers.append(layer)
                        where = (name, root, allowed, len(layers) - 1)
                        scanned = sum(1 << v for v in range(g.n)
                                      if (layer >> v) & 1 and masks[v] & layer)
                        assert inner == scanned, where
                        edge = layer_edge_by_scan(masks, layer)
                        cycle = _conflict_cycle(masks, layers, inner)
                        got = None if cycle is None else (cycle.vertices[0], cycle.vertices[-1])
                        assert got == edge, where
                        hits += edge is not None
                        misses += edge is None
        assert hits > 1000 and misses > 1000


def _mask_of(vertices):
    return sum(1 << v for v in vertices)


class TestBfsKernelAgainstDistances:
    """Each BFS layer of the kernel is the set of vertices at that distance
    (Floyd-Warshall), each inner mask the layer's vertices with a neighbour
    in it, and the conflict edge the per-layer scan's, from every root of
    random graphs whose widest layers hold 64 or more vertices."""

    @pytest.mark.parametrize("seed,frac", [(0, 0.0), (1, 0.2)])
    def test_layers_and_inner_masks(self, seed, frac):
        rng = np.random.default_rng(seed)
        g = _masked(random_graph(130, 0.08, seed), rng, frac)
        dist = naive_distance_matrix(g)
        masks = g.row_masks()
        widest = conflicts = 0
        for root in (int(v) for v in g.active_vertices()):
            layers = []
            for layer, inner in _bfs(masks, root):
                depth = len(layers)
                layers.append(layer)
                where = (seed, root, depth)
                assert layer == _mask_of(v for v in range(g.n) if dist[root][v] == depth), where
                members = [v for v in range(g.n) if layer >> v & 1]
                assert inner == _mask_of(v for v in members if masks[v] & layer), where
                edge = layer_edge_by_scan(masks, layer)
                cycle = _conflict_cycle(masks, layers, inner) if inner else None
                assert (cycle and (cycle.vertices[0], cycle.vertices[-1])) == edge, where
                conflicts += cycle is not None
                widest = max(widest, len(members))
            reachable = _mask_of(v for v in range(g.n) if dist[root][v] < np.inf)
            assert sum(layers) == reachable, (seed, root)
        assert widest >= 64 and conflicts > 100


class TestUnionRowsAgainstReduce:
    """``_union_rows`` against a plain OR of the frontier's rows, on random
    graphs whose rows span several of Python's 30-bit int digits."""

    @pytest.mark.parametrize("n,p,seed", [(1, 0.0, 0), (2, 1.0, 1), (61, 0.5, 2),
                                          (130, 0.08, 3), (300, 0.3, 4)])
    def test_matches_reduce(self, n, p, seed):
        masks = random_graph(n, p, seed).row_masks()
        rng = np.random.default_rng(seed)
        frontiers = [[], list(range(n))]  # the empty frontier and every vertex
        frontiers += [[v] for v in (0, n - 1, 29, 30, 59, 60) if v < n]  # digit edges
        frontiers += [rng.choice(n, size=k, replace=False).tolist()
                      for k in (2, 3, 10, n // 2, n - 1) if 0 < k <= n]
        for ids in frontiers:
            want = functools.reduce(operator.or_, (masks[v] for v in ids), 0)
            assert _union_rows(masks, _mask_of(ids)) == want, (n, ids)


def _disjoint_cycles(lengths, seed):
    """Disjoint cycles of the given lengths, vertices shuffled."""
    perm = np.random.default_rng(seed).permutation(sum(lengths)).tolist()
    edges, start = [], 0
    for m in lengths:
        edges += [(perm[start + i], perm[start + (i + 1) % m]) for i in range(m)]
        start += m
    return Graph.from_edges(start, edges)


class TestOddGirthOnStructuredClasses:
    """The root sweep against the double-cover sweep on disjoint cycles and
    on whole (not twin-free) classes of Hamilton products, where each BFS
    must run to a long odd cycle."""

    @pytest.mark.parametrize("lengths,girth", [
        ((9, 7, 11), 7), ((8, 13, 6, 9), 9), ((4, 6, 10), None), ((5,) * 6, 5),
        ((21, 3), 3), ((15, 17, 19), 15),
    ])
    def test_disjoint_cycles(self, lengths, girth):
        for seed in range(3):
            g = _disjoint_cycles(lengths, seed)
            assert odd_girth_by_double_cover(g) == girth
            got = odd_girth(g)
            assert (got and got[0]) == girth
            if girth is not None:
                assert got[1].length == girth
                assert verify_mono_odd_cycle(g, got[1]) is None

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_hamilton_product_classes(self, m):
        rng = np.random.default_rng(m)
        c = _relabelled(product_colouring(hamilton_colouring(m), hamilton_colouring(m)), rng)
        for i in range(c.q):
            g = colour_class(c, i)
            expected = odd_girth_by_double_cover(g)
            assert expected == 2 * m + 1
            length, cert = odd_girth(g)
            assert length == cert.length == expected
            assert verify_mono_odd_cycle(g, cert) is None


class TestOddCycleFromWalk:
    def test_identity_triangle(self):
        g = complete_graph(3)
        cert = odd_cycle_from_walk(OddClosedWalk((0, 1, 2)), g)
        assert cert.vertices == (0, 1, 2)

    def test_figure_eight_keeps_odd_lobe(self):
        # 3-cycle 0-1-2 and 4-cycle 0-3-4-5 sharing vertex 0
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 0)])
        walk = OddClosedWalk((0, 1, 2, 0, 3, 4, 5))
        cert = odd_cycle_from_walk(walk, g)
        assert sorted(cert.vertices) == [0, 1, 2]

    def test_random_walks_on_k7(self):
        g = complete_graph(7)
        rng = np.random.default_rng(11)
        for _ in range(50):
            walk = [int(rng.integers(7))]
            while len(walk) < 9:
                nxt = int(rng.integers(7))
                if nxt != walk[-1] and not (len(walk) == 8 and nxt == walk[0]):
                    walk.append(nxt)
            cert = odd_cycle_from_walk(OddClosedWalk(tuple(walk)), g)
            assert cert.length <= 9
            assert verify_mono_odd_cycle(g, cert) is None

    def test_even_walk_rejected(self):
        g = complete_graph(4)
        with pytest.raises(InputError):
            odd_cycle_from_walk(OddClosedWalk((0, 1, 2, 3)), g)

    def test_nonadjacent_step_rejected(self):
        g = cycle_graph(5)
        with pytest.raises(InputError):
            odd_cycle_from_walk(OddClosedWalk((0, 2, 4)), g)


class TestShortestPathWithin:
    def test_trivial(self):
        g = cycle_graph(5)
        assert shortest_path_within(g, [0, 1, 2], 0, 0) == [0]

    def test_star(self):
        g = Graph.from_edges(4, [(3, 0), (3, 1), (3, 2)])
        assert shortest_path_within(g, [0, 1, 3], 0, 1) == [0, 3, 1]

    def test_apex_instance(self):
        edges = [(i, (i + 1) % 11) for i in range(11)] + [(11, 0), (11, 5)]
        g = Graph.from_edges(12, edges)
        assert shortest_path_within(g, [0, 5, 11], 0, 5) == [0, 11, 5]

    @pytest.mark.parametrize(
        "x,y,path",
        [
            (0, 39, [0, 1, 2, 3, 4, 5, 6, 7, 15, 23, 31, 39]),
            (39, 0, [39, 31, 23, 15, 7, 6, 5, 4, 3, 2, 1, 0]),
            (7, 32, [7, 6, 5, 4, 3, 2, 1, 0, 8, 16, 24, 32]),
            (12, 27, [12, 11, 19, 27]),
        ],
    )
    def test_grid_paths_pinned(self, x, y, path):
        # many shortest paths tie on a grid; the lowest-index parent decides
        assert shortest_path_within(grid_graph(5, 8), range(40), x, y) == path

    def test_paths_pinned(self):
        grid = grid_graph(5, 8)
        # column 3 removed except its bottom cell: paths detour through it
        detour = [v for v in range(40) if v % 8 != 3 or v >= 32]
        assert shortest_path_within(grid, detour, 0, 7) == [
            0, 1, 2, 10, 18, 26, 34, 35, 36, 28, 20, 12, 4, 5, 6, 7
        ]
        assert shortest_path_within(grid, detour, 16, 23) == [
            16, 17, 18, 26, 34, 35, 36, 28, 20, 21, 22, 23
        ]
        g = random_graph(80, 0.05, 11)
        comp = max(components(g), key=len)
        assert len(comp) == 80
        assert shortest_path_within(g, comp, 67, 50) == [67, 51, 71, 79, 35, 50]
        assert shortest_path_within(g, comp, 24, 21) == [24, 54, 21]
        assert shortest_path_within(g, comp, 1, 5) == [1, 40, 0, 3, 5]
        assert shortest_path_within(g, comp, 64, 51) == [64, 68, 62, 14, 51]

    def test_disconnected_rejected(self):
        g = cycle_graph(6)
        with pytest.raises(InputError):
            shortest_path_within(g, [0, 3], 0, 3)
        with pytest.raises(InputError):
            shortest_path_within(g, [0, 1], 0, 5)

    @pytest.mark.parametrize("component", [[-1, 0, 1], [0, 1, 5], [0, 1, 9]])
    def test_out_of_range_component_rejected(self, component):
        with pytest.raises(InputError):
            shortest_path_within(cycle_graph(5), component, 0, 1)

    @pytest.mark.parametrize("component", [[0.2, 1.7, 2], np.array([0.0, 1.0, 2.0]),
                                           [False, True, True]])
    def test_non_integer_component_rejected(self, component):
        with pytest.raises(InputError, match="must be integers"):
            shortest_path_within(cycle_graph(5), component, 0, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_path_lengths_match_distances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 32))
        g = random_graph(n, 0.25, seed)
        comps = components(g)
        comp = max(comps, key=len)
        if len(comp) < 2:
            return
        x, y = (int(v) for v in rng.choice(comp, size=2, replace=False))
        path = shortest_path_within(g, comp, x, y)
        sub = g.restricted_to(comp)
        dist = naive_distance_matrix(sub)
        assert len(path) - 1 == dist[x][y]
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)


class TestViews:
    def test_masked_vertices_lose_edges(self):
        g = complete_graph(5).without([0, 1])
        assert g.active_count == 3
        assert not g.has_edge(0, 2)
        assert sorted(g.neighbours(2)) == [3, 4]
        assert g.edge_count() == 3

    def test_views_do_not_mutate(self):
        g = complete_graph(4)
        h = g.without([0])
        assert g.active_count == 4 and h.active_count == 3
        with pytest.raises(ValueError):
            g.active_mask[0] = False

    def test_components_ordering(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]).without([1])
        comps = components(g)
        assert [sorted(int(v) for v in c) for c in comps] == [[0], [2, 3], [4, 5]]

    @pytest.mark.parametrize("ids", [[-1], [0, -5], [5], [7]])
    def test_out_of_range_ids_rejected(self, ids):
        g = cycle_graph(5)
        with pytest.raises(InputError):
            g.without(ids)
        with pytest.raises(InputError):
            g.restricted_to(ids)

    @pytest.mark.parametrize("ids", [[0.5], [1.9], np.array([0.0, 2.0]), [True], ["1"]])
    def test_non_integer_ids_rejected(self, ids):
        g = cycle_graph(5)
        for view in (g.without, g.restricted_to):
            with pytest.raises(InputError, match="must be integers"):
                view(ids)

    @pytest.mark.parametrize("ids", [3, np.int64(3), np.array(3), [[0, 1]], [[0]],
                                     np.zeros((1, 2), dtype=int), [[0], [1, 2]]],
                             ids=["int", "numpy-int", "0-d", "nested", "nested-one", "2-d",
                                  "ragged"])
    def test_scalar_and_nested_ids_rejected(self, ids):
        g = cycle_graph(5)
        for view in (g.without, g.restricted_to):
            with pytest.raises(InputError, match="1-D"):
                view(ids)
        with pytest.raises(InputError, match="1-D"):
            shortest_path_within(g, ids, 0, 1)

    @pytest.mark.parametrize("ids", [[], np.array([]), np.array([], dtype=bool), set(), range(0)])
    def test_empty_ids_of_any_dtype_accepted(self, ids):
        g = cycle_graph(5)
        assert g.without(ids).active_count == 5
        assert g.restricted_to(ids).active_count == 0

    def test_sets_ranges_and_unsigned_ids_accepted(self):
        g = cycle_graph(5)
        assert g.without({0, 3}).active_vertices().tolist() == [1, 2, 4]
        assert g.restricted_to(range(1, 4)).active_vertices().tolist() == [1, 2, 3]
        assert g.without(np.array([4], dtype=np.uint8)).active_vertices().tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("active", [0b11111, 0b10110])
    def test_rows_are_copied_from_the_caller(self, active):
        # a full mask keeps the rows as given, any other mask cuts them; in
        # both cases later changes to the caller's list do not reach the graph
        rows = list(cycle_graph(5).row_masks())
        g = Graph._from_rows(rows, active)
        before = list(g.row_masks())
        rows[1] ^= 0b100
        rows[2] = 0
        rows.append(0)
        assert g.n == 5
        assert g.row_masks() == before


class TestScalarIds:
    """A float, bool or string is never truncated onto a vertex id."""

    @pytest.mark.parametrize("bad", [1.5, np.float64(1.0), True, np.bool_(True), "1", None],
                             ids=["fractional", "numpy-float", "bool", "numpy-bool", "str",
                                  "none"])
    def test_non_integer_ids_rejected(self, bad):
        g = cycle_graph(5)
        calls = [
            lambda: g.is_active(bad),
            lambda: g.has_edge(bad, 2),
            lambda: g.has_edge(0, bad),
            lambda: g.neighbours(bad),
            lambda: g.degree(bad),
            lambda: bfs_layers(g, bad, 2),
            lambda: shortest_path_within(g, [0, 1, 2], bad, 2),
            lambda: shortest_path_within(g, [0, 1, 2], 0, bad),
            lambda: Graph.from_edges(3, [(0, bad)]),
            lambda: Graph.from_edges(3, [(bad, 2)]),
        ]
        for call in calls:
            with pytest.raises(InputError, match="must be integers"):
                call()

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), True, np.bool_(True), "2", None],
                             ids=["fractional", "numpy-float", "bool", "numpy-bool", "str",
                                  "none"])
    def test_non_integer_depth_rejected(self, bad):
        # islice would reject 1.5 with a ValueError, and True would pass as 1
        g = cycle_graph(5)
        with pytest.raises(InputError, match="max_depth must be an integer"):
            bfs_layers(g, 0, bad)
        assert layer_lists(bfs_layers(g, 0, np.int64(1))) == [[0], [1, 4]]

    @pytest.mark.parametrize("bad", [0.5, np.float64(0.0), True, "0", None],
                             ids=["fractional", "numpy-float", "bool", "str", "none"])
    def test_non_integer_walk_rejected(self, bad):
        # int() would take the walk (0.5, 1, 2) as the triangle (0, 1, 2)
        walk = OddClosedWalk((bad, 1, 2))
        with pytest.raises(InputError, match="must be integers"):
            odd_cycle_from_walk(walk, complete_graph(3))
        walk = OddClosedWalk((np.int64(0), np.uint8(1), 2))
        assert odd_cycle_from_walk(walk, complete_graph(3)).vertices == (0, 1, 2)

    @pytest.mark.parametrize("v", [1, np.int64(1), np.int16(1), np.uint8(1)])
    def test_python_and_numpy_integers_accepted(self, v):
        g = cycle_graph(5)
        assert g.is_active(v) and g.has_edge(0, v) and g.has_edge(v, 2)
        assert g.neighbours(v).tolist() == [0, 2]
        assert layer_lists(bfs_layers(g, v, 1)) == [[1], [0, 2]]
        assert shortest_path_within(g, [0, 1, 2], 0, v) == [0, 1]
        assert not g.is_active(-1) and not g.has_edge(0, 5)


@pytest.mark.parametrize("entry", [(0, 1, 2), 5, (0,), None],
                         ids=["triple", "int", "single", "none"])
def test_from_edges_rejects_entries_that_are_not_pairs(entry):
    # a triple once raised ValueError from the unpacking, an int TypeError
    with pytest.raises(InputError, match=rf"edge list entry {re.escape(repr(entry))} is not a pair"):
        Graph.from_edges(3, [(0, 1), entry])


NEGATIVE_SIZES = {
    "from_edges": lambda: Graph.from_edges(-1, []),
    "cycle": lambda: cycle_graph(-2),
    "path": lambda: path_graph(-2),
    "complete": lambda: complete_graph(-1),
    "complete_bipartite_a": lambda: complete_bipartite_graph(-1, 3),
    "complete_bipartite_b": lambda: complete_bipartite_graph(3, -1),
    "empty": lambda: empty_graph(-3),
    "random": lambda: random_graph(-1, 0.5, 0),
    "random_bipartite": lambda: random_bipartite_graph(-1, 0.5, 0),
}


@pytest.mark.parametrize("builder", NEGATIVE_SIZES)
def test_builders_reject_negative_sizes(builder):
    with pytest.raises(InputError, match="graph size must be >= 0"):
        NEGATIVE_SIZES[builder]()


NON_INTEGER_SIZES = {
    "from_edges_bool": lambda: Graph.from_edges(True, []),  # was a 1-vertex graph
    "from_edges_float": lambda: Graph.from_edges(5.0, []),
    "cycle": lambda: cycle_graph(5.0),
    "path": lambda: path_graph("5"),
    "complete": lambda: complete_graph(True),
    "complete_bipartite_a": lambda: complete_bipartite_graph(2.0, 3),
    "complete_bipartite_b": lambda: complete_bipartite_graph(2, None),
    "empty": lambda: empty_graph(np.float64(3)),
    "random": lambda: random_graph(5.0, 0.5, 0),
    "random_bipartite": lambda: random_bipartite_graph(False, 0.5, 0),
}


@pytest.mark.parametrize("builder", NON_INTEGER_SIZES)
def test_builders_reject_non_integer_sizes(builder):
    with pytest.raises(InputError, match="graph size must be an integer"):
        NON_INTEGER_SIZES[builder]()


def test_builders_take_numpy_integer_sizes():
    assert cycle_graph(np.int64(5)).n == 5 and Graph.from_edges(np.int32(3), [(0, 1)]).n == 3
    assert complete_bipartite_graph(np.uint8(2), np.int16(3)).edge_count() == 6
    assert random_graph(np.int64(6), 0.5, 0).n == empty_graph(np.int8(6)).n == 6


def assert_matches_dense(g, adj, active):
    """Every query of g against dense numpy on the input matrix and mask."""
    n = len(adj)
    sub = adj & active[:, None] & active[None, :]
    assert g.n == n
    got = g.masked_matrix()
    assert got.dtype == bool and np.array_equal(got, sub)
    assert g.row_masks() == [sum(1 << int(j) for j in np.flatnonzero(row)) for row in sub]
    assert g.edge_count() == int(sub.sum()) // 2
    assert g.active_mask.dtype == bool and np.array_equal(g.active_mask, active)
    assert g.active_count == int(active.sum())
    assert np.array_equal(g.active_vertices(), np.flatnonzero(active))
    for v in range(n):
        if active[v]:
            assert np.array_equal(g.neighbours(v), np.flatnonzero(sub[v]))
            assert g.degree(v) == int(sub[v].sum())
        else:
            with pytest.raises(InputError):
                g.neighbours(v)
    rng = np.random.default_rng(n)
    for u, v in rng.integers(-1, n + 1, size=(300, 2)):
        expect = 0 <= u < n and 0 <= v < n and bool(sub[u, v])
        assert g.has_edge(int(u), int(v)) == expect


class TestRowsAgainstDense:
    """The packed rows against dense numpy computed from the input matrix.
    ``masked_matrix`` comes from the same rows the BFS kernel reads, so this
    is what keeps the verifier's Graph-host checks independent of the
    packing."""

    @pytest.mark.parametrize("seed", range(16))
    def test_random_view_chains(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 201)) if seed > 1 else (1, 200)[seed]
        upper = np.triu(rng.random((n, n)) < rng.random(), 1)
        adj = upper | upper.T
        active = rng.random(n) < 0.8 if seed % 2 else np.ones(n, dtype=bool)
        g = Graph(adj, active if seed % 2 else None)
        for _ in range(5):
            assert_matches_dense(g, adj, active)
            ids = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            picked = np.zeros(n, dtype=bool)
            picked[ids] = True
            if rng.random() < 0.5:
                g, active = g.without(ids), active & ~picked
            else:
                g, active = g.restricted_to(ids.tolist()), active & picked
        assert_matches_dense(g, adj, active)

    @pytest.mark.parametrize("seed", range(8))
    def test_edge_lists(self, seed):
        # from_edges sets the rows edge by edge; pairs repeat, in both orders
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        adj = np.zeros((n, n), dtype=bool)
        adj[pairs[:, 0], pairs[:, 1]] = adj[pairs[:, 1], pairs[:, 0]] = True
        assert_matches_dense(Graph.from_edges(n, pairs.tolist()), adj, np.ones(n, dtype=bool))


class TestPackRows:
    """``_pack_rows`` converts all rows at once through a bytes view, which
    drops each row's high zero bytes; the slice-by-slice oracle does not."""

    @pytest.mark.parametrize("width", [*range(1, 18), 63, 64, 65, 2560])
    @pytest.mark.parametrize("density", [0, 0.01, 0.5, 1])
    def test_matches_slices(self, width, density):
        rng = np.random.default_rng(width)
        matrix = rng.random((7, width)) < density
        assert _pack_rows(matrix) == pack_rows_by_slices(matrix)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0), (0, 5), (0, 64)])
    def test_empty_matrices(self, shape):
        matrix = np.zeros(shape, dtype=bool)
        assert _pack_rows(matrix) == pack_rows_by_slices(matrix) == [0] * shape[0]

    def test_zero_vertex_graph(self):
        g = Graph(np.zeros((0, 0)))
        assert g.n == 0 and g.edge_count() == 0


def test_from_edges_memory_follows_the_rows():
    # an n x n bool matrix for the 8000 edges of C_8000 peaked near 123 MiB;
    # the rows themselves take about 4 MiB
    tracemalloc.start()
    try:
        g = cycle_graph(8000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert g.edge_count() == 8000 and g.has_edge(7999, 0)
