"""Small graph constructors used by demos and tests."""

from __future__ import annotations

import numpy as np

from .graph import Graph, _size


def cycle_graph(m):
    m = _size(m)
    return Graph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def path_graph(m):
    m = _size(m)
    return Graph.from_edges(m, [(i, i + 1) for i in range(m - 1)])


def complete_graph(n):
    n = _size(n)
    adj = ~np.eye(n, dtype=bool)
    return Graph(adj)


def complete_bipartite_graph(a, b):
    a, b = _size(a), _size(b)
    adj = np.zeros((a + b, a + b), dtype=bool)
    adj[:a, a:] = True
    adj[a:, :a] = True
    return Graph(adj)


def petersen_graph():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def empty_graph(n):
    n = _size(n)
    return Graph(np.zeros((n, n), dtype=bool))


def random_graph(n, p, seed):
    n = _size(n)
    rng = np.random.default_rng(seed)
    upper = rng.random((n, n)) < p
    adj = np.triu(upper, 1)
    adj = adj | adj.T
    return Graph(adj)


def random_bipartite_graph(n, p, seed):
    """Random bipartite graph: vertices split uniformly into two sides, each
    cross pair an edge with probability p."""
    n = _size(n)
    rng = np.random.default_rng(seed)
    side = rng.integers(0, 2, size=n).astype(bool)
    cross = side[:, None] != side[None, :]
    upper = rng.random((n, n)) < p
    adj = np.triu(upper & cross, 1)
    adj = adj | adj.T
    return Graph(adj)
