import numpy as np
import pytest

from oddcycle import (
    Graph,
    InputError,
    OddCycleCertificate,
    bfs_layers,
    check_bipartite,
    cycle_graph,
    odd_girth,
    petersen_graph,
    shorten_bound,
    shorten_cycle,
    verify_mono_odd_cycle,
)


def apex_instance():
    """C_11 plus an apex adjacent to vertices 0 and 5."""
    edges = [(i, (i + 1) % 11) for i in range(11)] + [(11, 0), (11, 5)]
    g = Graph.from_edges(12, edges)
    seed = OddCycleCertificate(tuple(range(11)))
    return g, [([0, 5, 11], 11)], seed


class TestWorkedInstance:
    def test_single_splice_gives_seven_cycle(self):
        g, comps, seed = apex_instance()
        cert = shorten_cycle(g, comps, [0], 1, seed)
        assert cert.vertices == (0, 1, 2, 3, 4, 5, 11)
        assert verify_mono_odd_cycle(g, cert) is None
        assert cert.length <= shorten_bound(g, comps, [0], 1) == 14
        assert cert.length >= odd_girth(g)[0]

    def test_empty_targets_returns_seed(self):
        g, comps, seed = apex_instance()
        cert = shorten_cycle(g, comps, [], 1, seed)
        assert cert.vertices == seed.vertices
        assert shorten_bound(g, comps, [], 1) == g.active_count

    def test_deterministic(self):
        g, comps, seed = apex_instance()
        a = shorten_cycle(g, comps, [0], 1, seed)
        b = shorten_cycle(g, comps, [0], 1, seed)
        assert a == b


class TestWholeGraphComponent:
    def test_low_radius_host_pins_cycle_length(self):
        # one target component covering the whole graph: the bound collapses
        # to 4r+1, and the output can never beat the odd girth
        g = petersen_graph()
        ball = bfs_layers(g, 0, 2)
        assert sum(len(layer) for layer in ball.layers) == 10  # radius 2 from vertex 0
        comps = [(list(range(10)), 0)]
        seed = check_bipartite(g)
        assert isinstance(seed, OddCycleCertificate)
        cert = shorten_cycle(g, comps, [0], 2, seed)
        assert odd_girth(g)[0] <= cert.length <= 4 * 2 + 1
        assert verify_mono_odd_cycle(g, cert) is None


def planted_instance(seed):
    """Random bipartite-ish host plus planted odd cycles, with disjoint
    radius-r ball components grown inside it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(24, 60))
    side = rng.integers(0, 2, size=n)
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if side[u] != side[v] and rng.random() < 0.15:
                adj[u].add(v)
                adj[v].add(u)
    length = int(rng.choice([3, 5, 7, 9]))
    cyc = rng.choice(n, size=length, replace=False)
    for i in range(length):
        u, v = int(cyc[i]), int(cyc[(i + 1) % length])
        adj[u].add(v)
        adj[v].add(u)
    g = Graph.from_edges(n, [(u, v) for u in range(n) for v in adj[u] if u < v])

    r = int(rng.integers(1, 4))
    used = set()
    comps = []
    for _ in range(int(rng.integers(1, 5))):
        free = [v for v in range(n) if v not in used]
        if not free:
            break
        center = int(rng.choice(free))
        ball = bfs_layers(g.without(used), center, r)
        verts = sorted(int(v) for v in ball.vertices())
        comps.append((verts, center))
        used.update(verts)
    targets = [i for i in range(len(comps)) if rng.random() < 0.7]
    return g, comps, targets, r


class TestSyntheticInstances:
    def test_planted_components(self):
        checked = 0
        for seed in range(30):
            g, comps, targets, r = planted_instance(seed)
            seed_cycle = check_bipartite(g)
            if not isinstance(seed_cycle, OddCycleCertificate):
                continue
            cert = shorten_cycle(g, comps, targets, r, seed_cycle)
            assert verify_mono_odd_cycle(g, cert) is None
            assert cert.length <= shorten_bound(g, comps, targets, r)
            assert cert.length >= odd_girth(g)[0]
            # exit condition: every target holds at most 4r+1 cycle vertices
            on = set(cert.vertices)
            for t in targets:
                assert len(on & set(comps[t][0])) <= 4 * r + 1
            checked += 1
        assert checked >= 20


class TestValidation:
    def test_bad_seed_rejected(self):
        g, comps, _ = apex_instance()
        with pytest.raises(InputError):
            shorten_cycle(g, comps, [0], 1, OddCycleCertificate((0, 1, 2, 3)))
        with pytest.raises(InputError):
            shorten_cycle(g, comps, [0], 1, OddCycleCertificate((0, 2, 4)))
        with pytest.raises(InputError):
            shorten_cycle(g, comps, [0], 1, OddCycleCertificate((0, 1, 0)))

    def test_false_radius_claim_rejected(self):
        g, _, seed = apex_instance()
        # vertices {0,1,2} with centre 0 have radius 2, not 1
        with pytest.raises(InputError):
            shorten_cycle(g, [([0, 1, 2], 0)], [0], 1, seed)

    def test_disconnected_component_rejected(self):
        g, _, seed = apex_instance()
        with pytest.raises(InputError):
            shorten_cycle(g, [([0, 5], 0)], [0], 1, seed)

    @pytest.mark.parametrize("vertices", [[0.2, 1.7, 2], np.array([0.0, 1.0, 2.0])])
    def test_non_integer_component_rejected(self, vertices):
        g = cycle_graph(5)
        seed = OddCycleCertificate((0, 1, 2, 3, 4))
        with pytest.raises(InputError, match="must be integers"):
            shorten_cycle(g, [(vertices, 1)], [0], 1, seed)
        assert shorten_cycle(g, [([0, 1, 2], 1)], [0], 1, seed) == seed

    @pytest.mark.parametrize("components,targets", [
        ([([0.5, 1.7, 2], 1)], [0]),
        ([(np.array([0.0, 1.0, 2.0]), 1)], [0]),
        ([([0, 1, 2], 1)], [0.0]),
        ([([0, 1, 2], 1)], [True]),
    ], ids=["fractional-ids", "float-array", "float-target", "bool-target"])
    def test_non_integer_bound_ids_rejected(self, components, targets):
        # int() would count the ids 0.5, 1.7, 2 as {0, 1, 2}, giving 7
        g = cycle_graph(5)
        with pytest.raises(InputError, match="must be integers"):
            shorten_bound(g, components, targets, 1)
        assert shorten_bound(g, [(np.array([0, 1, 2]), 1)], [np.uint8(0)], 1) == 7

    @pytest.mark.parametrize("centre,target", [(1.5, 0), (1, 0.7), (True, 0), (1, True),
                                               ("1", 0), (1, np.float64(0.0))],
                             ids=["centre-fractional", "target-fractional", "centre-bool",
                                  "target-bool", "centre-str", "target-numpy-float"])
    def test_non_integer_centre_or_target_rejected(self, centre, target):
        # int() would take centre 1.5 as 1 and target 0.7 as 0
        g = cycle_graph(5)
        seed = OddCycleCertificate((0, 1, 2, 3, 4))
        with pytest.raises(InputError, match="must be integers"):
            shorten_cycle(g, [([0, 1, 2], centre)], [target], 1, seed)
        assert shorten_cycle(g, [([0, 1, 2], np.int64(1))], [np.uint8(0)], 1, seed) == seed

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), True, np.bool_(True), "2", None],
                             ids=["fractional", "numpy-float", "bool", "numpy-bool", "str",
                                  "none"])
    def test_non_integer_radius_rejected(self, bad):
        # islice would reject 1.5 with a ValueError, and True would pass as 1
        g, comps, seed = apex_instance()
        with pytest.raises(InputError, match="radius r must be an integer"):
            shorten_cycle(g, comps, [0], bad, seed)
        with pytest.raises(InputError, match="radius r must be an integer"):
            shorten_bound(g, comps, [0], bad)
        assert shorten_cycle(g, comps, [0], np.int64(1), seed).length == 7

    @pytest.mark.parametrize("components,targets", [
        ([([0, 1, 99], 1)], [0]),
        ([([-3, 1, 2], 1)], [0]),
        ([([0, 1, 2], 1)], [-1]),
        ([([0, 1, 2], 1)], [5]),
    ], ids=["id-past-n", "negative-id", "negative-target", "target-past-end"])
    def test_bound_ids_and_targets_checked(self, components, targets):
        # unchecked, the ids 99 and -3 were counted (giving 7), target -1 took
        # the last component and target 5 raised IndexError
        g = cycle_graph(5)
        with pytest.raises(InputError, match="out of range"):
            shorten_bound(g, components, targets, 1)
        # the union {0, 1, 2, 3} counts the shared vertex 2 once, the repeated target once
        assert shorten_bound(g, [([0, 1, 2], 1), ([2, 3], 2)], [1, 0, 1], 1) == 5 - 4 + 5 * 2

    def test_negative_centre_rejected(self):
        # the centre's activity is tested before its bit is read: a negative
        # shift would raise ValueError
        g, _, seed = apex_instance()
        with pytest.raises(InputError, match="centre -1 is not an active vertex"):
            shorten_cycle(g, [([0, 5, 11], -1)], [0], 1, seed)

    def test_target_id_out_of_range(self):
        g, comps, seed = apex_instance()
        with pytest.raises(InputError):
            shorten_cycle(g, comps, [3], 1, seed)
