import dataclasses
import math

import numpy as np
import pytest

from oddcycle import (
    InputError,
    PeelComponent,
    PeelDecomposition,
    PeelParams,
    ShortCycle,
    binary_colouring,
    colour_class,
    complete_graph,
    cycle_graph,
    empty_graph,
    hamilton_colouring,
    independent_set_via_peel,
    peel,
    product_colouring,
    random_bipartite_graph,
    random_graph,
    verify_mono_odd_cycle,
    verify_peel,
)
from oracles import (
    adjacency_sets,
    blown_up_odd_cycle,
    graph_from_sets,
    grid_graph,
    pentagon_colouring,
    random_adjacency_sets,
    simulate_peel,
)


class TestPeelParams:
    def test_modes(self):
        p = PeelParams(4)
        assert not p.generalized_mode(9)  # 4 >= log2(9)
        assert p.generalized_mode(17)     # 4 < log2(17)
        assert p.arrest_factor(9) == pytest.approx(math.log2(9) / 4)
        assert PeelParams(3).arrest_factor(27) == pytest.approx(27 ** (1 / 3) - 1)

    def test_bounds(self):
        assert PeelParams(4).removed_bound(16) == 16  # factor 1, ceil(1*16)
        assert PeelParams(3).removed_bound(27) == math.ceil((1 - 27 ** (-1 / 3)) * 27)
        assert PeelParams(5).removed_bound(1) == 0

    def test_k_validation(self):
        with pytest.raises(InputError):
            PeelParams(0)

    @pytest.mark.parametrize("k", [2.5, True, 4.0, "4"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(InputError, match="radius budget k must be an integer"):
            PeelParams(k)
        assert PeelParams(np.int64(4)).removed_bound(16) == 16


class TestPeelExamples:
    def test_even_cycle_decomposes(self):
        g = cycle_graph(16)
        out = peel(g, 4)
        assert isinstance(out, PeelDecomposition)
        assert len(out.removed) <= 16
        assert verify_peel(g, 4, out) is None

    def test_c9_k4(self):
        # Note: odd girth 9 equals 2k+1 here, so the no-conflict guarantee
        # does not apply; the procedure's arrest fires at depth 2 and the
        # balls stay clean. Frozen from the independent simulation.
        g = cycle_graph(9)
        out = peel(g, 4)
        assert isinstance(out, PeelDecomposition)
        assert sorted(int(v) for v in out.removed) == [2, 5, 7]
        assert [sorted(int(v) for v in c.vertices) for c in out.components] == [
            [0, 1, 8],
            [3, 4],
            [6],
        ]
        assert verify_peel(g, 4, out) is None

    def test_k4_short_cycle(self):
        g = complete_graph(4)
        out = peel(g, 2)
        assert isinstance(out, ShortCycle)
        assert out.cycle.length == 3
        assert verify_peel(g, 2, out) is None

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), True, np.bool_(True), "2", None],
                             ids=["fractional", "numpy-float", "bool", "numpy-bool", "str",
                                  "none"])
    def test_non_integer_budget_rejected(self, bad):
        # range() would reject 2.0 with a TypeError, and True would pass as 1
        with pytest.raises(InputError, match="budget k must be an integer"):
            peel(cycle_graph(9), bad)
        assert peel(cycle_graph(9), np.int64(4)) == peel(cycle_graph(9), 4)

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            peel(complete_graph(3).without([0, 1, 2]), 2)


class TestPeelAgainstSimulation:
    def check(self, adj, k, g=None):
        g = g if g is not None else graph_from_sets(adj)
        sim = simulate_peel(adj, k, active=[int(v) for v in g.active_vertices()])
        out = peel(g, k)
        if sim[0] == "cycle":
            _, (_, v, u) = sim
            assert isinstance(out, ShortCycle)
            # same conflict edge, endpoints in the same discovery order
            assert (out.cycle.vertices[0], out.cycle.vertices[-1]) == (v, u)
            assert verify_peel(g, k, out) is None
        else:
            _, removed, comps = sim
            assert isinstance(out, PeelDecomposition)
            assert frozenset(int(x) for x in out.removed) == removed
            got = tuple(
                (frozenset(int(x) for x in c.vertices), c.center, c.radius)
                for c in out.components
            )
            assert got == comps
            assert verify_peel(g, k, out) is None

    def test_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            n = int(rng.integers(2, 40))
            p = float(rng.uniform(0.05, 0.6))
            adj = random_adjacency_sets(n, p, rng)
            k = int(rng.integers(1, 10))
            self.check(adj, k)

    def test_masked_random_graphs(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(6, 40))
            adj = random_adjacency_sets(n, 0.3, rng)
            g = graph_from_sets(adj)
            drop = [int(v) for v in rng.choice(n, size=n // 4, replace=False)]
            g = g.without(drop)
            masked = [s - set(drop) if v not in drop else set() for v, s in enumerate(adj)]
            self.check(masked, int(rng.integers(1, 8)), g=g)


class TestPeelPinned:
    # seeded runs are byte-reproducible, so the exact outcome is pinned

    @pytest.mark.parametrize(
        "n,p,seed,k,vertices",
        [
            (200, 0.01, 3, 8, (99, 86, 120, 20, 106, 182, 109)),
            (300, 2 / 300, 4, 9, (98, 150, 4, 117, 178)),
            (120, 2 / 120, 5, 6, (41, 112, 0, 31, 46)),
            (80, 0.05, 2, 4, (12, 6, 1, 61, 26)),
        ],
    )
    def test_short_cycle_pinned(self, n, p, seed, k, vertices):
        out = peel(random_graph(n, p, seed), k)
        assert isinstance(out, ShortCycle)
        assert out.cycle.vertices == vertices

    def test_grid_decomposition_pinned(self):
        out = peel(grid_graph(5, 8), 6)
        assert isinstance(out, PeelDecomposition)
        assert [int(v) for v in out.removed] == [
            3, 7, 10, 14, 17, 19, 21, 24, 28, 30, 33, 35, 39
        ]
        got = [
            (c.center, c.radius, [int(v) for v in c.bipartition.side0],
             [int(v) for v in c.bipartition.side1])
            for c in out.components
        ]
        assert got == [
            (0, 2, [0, 2, 9, 16], [1, 8]),
            (4, 2, [4, 6, 11, 13, 20], [5, 12]),
            (15, 2, [15, 22, 31], [23]),
            (18, 2, [18, 25, 27, 34], [26]),
            (29, 2, [29, 36, 38], [37]),
            (32, 0, [32], []),
        ]


class TestPeelAgainstNetworkx:
    """Every peel outcome re-derived with networkx on 50-300 vertices."""

    def check(self, g, k):
        nx = pytest.importorskip("networkx")
        out = peel(g, k)
        assert verify_peel(g, k, out) is None
        if isinstance(out, ShortCycle):
            assert out.cycle.length <= 2 * k + 1
            assert verify_mono_odd_cycle(g, out.cycle) is None
            return out
        us, vs = np.nonzero(np.triu(g.masked_matrix()))
        host = nx.Graph()
        host.add_nodes_from(g.active_vertices().tolist())
        host.add_edges_from(zip(us.tolist(), vs.tolist()))
        for comp in out.components:
            sub = host.subgraph(int(v) for v in comp.vertices)
            assert nx.is_connected(sub)
            assert nx.is_bipartite(sub)
            assert nx.eccentricity(sub, comp.center) <= comp.radius
        assert len(out.removed) <= PeelParams(k).removed_bound(g.active_count)
        return out

    def test_sparse_random(self):
        outcomes = []
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(50, 301))
            k = int(rng.integers(2, 10))
            outcomes.append(type(self.check(random_graph(n, 2.0 / n, seed), k)))
        assert {ShortCycle, PeelDecomposition} <= set(outcomes)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_bipartite(self, seed):
        n = 50 + 80 * seed
        assert isinstance(self.check(random_bipartite_graph(n, 3.0 / n, seed), 3 + seed),
                          PeelDecomposition)

    @pytest.mark.parametrize("m,s,p,k", [(7, 8, 0.3, 2), (11, 10, 0.3, 4), (21, 12, 0.2, 6)])
    def test_blown_up_odd_cycles(self, m, s, p, k):
        # odd girth >= m > 2k+1: no ball can hold a parity conflict
        assert isinstance(self.check(blown_up_odd_cycle(m, s, p, m), k), PeelDecomposition)

    def test_masked_grid(self):
        g = grid_graph(12, 20).without(range(0, 240, 7))
        assert isinstance(self.check(g, 5), PeelDecomposition)


class TestPeelGuarantees:
    def test_high_odd_girth_never_short_cycles(self):
        # odd girth > 2k+1 makes a ball conflict impossible
        for m in (11, 15, 21, 33):
            for k in (1, 2, 3, (m - 3) // 2):
                g = cycle_graph(m)
                out = peel(g, k)
                assert isinstance(out, PeelDecomposition), (m, k)
                assert verify_peel(g, k, out) is None

    def test_short_cycle_length_bound(self):
        rng = np.random.default_rng(7)
        found = 0
        for _ in range(60):
            n = int(rng.integers(5, 40))
            g = random_graph(n, 0.4, int(rng.integers(1 << 30)))
            k = int(rng.integers(1, 8))
            out = peel(g, k)
            if isinstance(out, ShortCycle):
                found += 1
                assert out.cycle.length <= 2 * k + 1
                assert verify_mono_odd_cycle(g, out.cycle) is None
        assert found > 10

    def test_removed_bound_generalized_mode(self):
        # k below log2(n): the weaker (1 - n^(-1/k)) * n bound applies
        g = cycle_graph(33)
        out = peel(g, 3)
        assert isinstance(out, PeelDecomposition)
        assert len(out.removed) <= PeelParams(3).removed_bound(33)
        assert verify_peel(g, 3, out) is None


class TestIndependentSet:
    def test_even_cycle(self):
        g = cycle_graph(16)
        got = independent_set_via_peel(g, 4)
        assert not isinstance(got, ShortCycle)
        removed = len(peel(g, 4).removed)
        assert len(got) >= (16 - removed) / 2
        for u in got:
            for v in got:
                assert not g.has_edge(int(u), int(v))

    def test_edgeless(self):
        got = independent_set_via_peel(empty_graph(7), 3)
        assert sorted(int(v) for v in got) == list(range(7))

    def test_random_bipartite(self):
        g = random_bipartite_graph(64, 0.15, 3)
        got = independent_set_via_peel(g, 6)
        assert not isinstance(got, ShortCycle)
        removed = len(peel(g, 6).removed)
        assert len(got) >= (64 - removed) / 2
        matrix = g.masked_matrix()
        idx = [int(v) for v in got]
        assert not matrix[np.ix_(idx, idx)].any()

    def test_short_cycle_passthrough(self):
        got = independent_set_via_peel(complete_graph(4), 2)
        assert isinstance(got, ShortCycle)
        assert got.cycle.length == 3


def _peel_corpus():
    """(graph, k) for k = 1..6 over the colour classes of ham(m) x ham(m) and
    binary(b) x C5, blown-up odd cycles, sparse random graphs and two graphs
    with inactive vertices."""
    graphs = []
    for m in (2, 3, 4):
        ham = hamilton_colouring(m)
        prod = product_colouring(ham, ham)
        graphs += [colour_class(prod, i) for i in range(prod.q)]
    for b in (1, 2, 3, 4):
        prod = product_colouring(binary_colouring(b), pentagon_colouring())
        graphs += [colour_class(prod, i) for i in range(prod.q)]
    graphs += [blown_up_odd_cycle(m, s, 0.3, m) for m, s in ((5, 6), (7, 8), (11, 6))]
    graphs += [random_graph(n, 2.0 / n, seed) for seed, n in enumerate((40, 80, 120, 160))]
    graphs += [grid_graph(6, 8).without(range(0, 48, 5)), empty_graph(7).without([3])]
    for g in graphs:
        for k in range(1, 7):
            yield g, k


def _depths(adj, ball, center):
    """BFS depth of every ball vertex from the centre, inside the ball."""
    depth, frontier = {center: 0}, [center]
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(adj[u] & ball):
                if w not in depth:
                    depth[w] = depth[u] + 1
                    nxt.append(w)
        frontier = nxt
    return depth


def _assert_ids(array, ids):
    assert array.dtype == np.int64
    assert array.tolist() == sorted(ids)


class TestMaskBackedResults:
    """peel results are their int masks, and the numpy views are built on first read;
    they must equal arrays built eagerly by the plain-set simulation."""

    def test_lazy_fields_equal_eager_arrays(self):
        decompositions = short = 0
        for g, k in _peel_corpus():
            out = peel(g, k)
            if isinstance(out, ShortCycle):
                short += 1
                assert verify_peel(g, k, out) is None
                continue
            decompositions += 1
            # nothing is built until a caller reads it
            assert "removed" not in vars(out)
            assert all({"vertices", "bipartition"}.isdisjoint(vars(c)) for c in out.components)
            adj = adjacency_sets(g)
            sim = simulate_peel(adj, k, active=g.active_vertices().tolist())
            assert sim[0] == "decomp"
            _, removed, comps = sim
            _assert_ids(out.removed, removed)
            assert out.removed is out.removed  # built once, then kept
            assert len(out.components) == len(comps)
            for comp, (ball, center, radius) in zip(out.components, comps):
                assert (comp.center, comp.radius) == (center, radius)
                _assert_ids(comp.vertices, ball)
                depth = _depths(adj, ball, center)
                _assert_ids(comp.bipartition.side0, [v for v in ball if depth[v] % 2 == 0])
                _assert_ids(comp.bipartition.side1, [v for v in ball if depth[v] % 2 == 1])
                assert comp.vertices is comp.vertices
                assert comp.bipartition is comp.bipartition
            assert verify_peel(g, k, out) is None
        assert decompositions > 200 and short > 10

    def test_independent_set_matches_the_array_form(self):
        for g, k in _peel_corpus():
            out = peel(g, k)
            got = independent_set_via_peel(g, k)
            if isinstance(out, ShortCycle):
                assert got == out
                continue
            picks = [c.bipartition.side0 if len(c.bipartition.side0) >= len(c.bipartition.side1)
                     else c.bipartition.side1 for c in out.components]
            want = np.sort(np.concatenate(picks)) if picks else np.array([], dtype=np.int64)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_results_compare_and_hash_by_their_masks(self):
        for g, k in _peel_corpus():
            out, again = peel(g, k), peel(g, k)
            if isinstance(out, PeelDecomposition):
                # the cached views take no part in equality or hashing
                assert all(len(c.bipartition.side0) for c in out.components)
                assert len(out.removed) == out.removed_mask.bit_count()
            assert out == again
            assert hash(out) == hash(again)
        out = peel(cycle_graph(16), 4)
        assert dataclasses.replace(out, removed_mask=out.removed_mask | 1) != out

    def test_replaced_masks_give_fresh_arrays(self):
        out = peel(cycle_graph(16), 4)
        comp = out.components[0]
        before = comp.bipartition
        swapped = dataclasses.replace(comp, side0=comp.side1, side1=comp.side0)
        assert swapped.bipartition.side0.tolist() == before.side1.tolist()
        assert swapped.bipartition.side1.tolist() == before.side0.tolist()
        assert comp.bipartition is before
        assert out.removed.tolist() != [2, 5]
        assert dataclasses.replace(out, removed_mask=0b100100).removed.tolist() == [2, 5]
        built = PeelComponent(ball=0b111, side0=0b001, side1=0b110, center=0, radius=1)
        _assert_ids(built.vertices, [0, 1, 2])
        _assert_ids(built.bipartition.side0, [0])
        _assert_ids(built.bipartition.side1, [1, 2])
        _assert_ids(PeelDecomposition(removed_mask=0, components=()).removed, [])
