"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Stated runtime limits are asserted alongside the behaviour.
"""

import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oddcycle import (
    Bipartition,
    InternalInconsistency,
    OddCycleCertificate,
    PeelDecomposition,
    PipelineParams,
    SelectorInstance,
    ShortCycle,
    bfs_layers,
    binary_colouring,
    check_bipartite,
    colour_class,
    colouring_from_classes,
    cycle_graph,
    exhaustive_L,
    find_mono_odd_cycle,
    hamilton_colouring,
    odd_girth,
    peel,
    product_colouring,
    random_bipartite_graph,
    random_colouring,
    select_complement,
    shorten_bound,
    shorten_cycle,
    verify_mono_odd_cycle,
    verify_peel,
    verify_selector,
)
from oddcycle.analysis import experiment_table, rows_to_csv
from oddcycle.colouring import colouring_to_text
from oddcycle.graph import Graph
from oddcycle.selector import ceil_expected_survivors
from oracles import (
    adjacency_sets,
    odd_girth_by_enumeration,
    shifted_cycle_classes,
)


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {num}: FAIL - {desc}")
                raise
            print(f"\n[acceptance] criterion {num}: PASS - {desc}")

        return wrapper

    return decorate


@criterion(1, "all-bipartite colourings at n=2^q; verified cycles at n=2^q+1")
def test_c1_observation():
    start = time.perf_counter()
    for q in range(1, 11):
        c = binary_colouring(q)
        for i in range(q):
            g = colour_class(c, i)
            got = check_bipartite(g)
            assert isinstance(got, Bipartition), (q, i)
            matrix = g.masked_matrix()
            covered = []
            for side in (got.side0, got.side1):
                idx = [int(v) for v in side]
                assert not matrix[np.ix_(idx, idx)].any(), (q, i)
                covered.extend(idx)
            assert sorted(covered) == list(range(c.n))
    for q in range(1, 8):  # q capped at 7 for runtime per the criterion
        n = 2**q + 1
        for seed in range(20):
            c = random_colouring(n, q, seed)
            got = find_mono_odd_cycle(c)
            assert verify_mono_odd_cycle(c, got.certificate) is None, (q, seed)
            assert got.certificate.colour is not None
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"criterion 1 took {elapsed:.1f}s"


@criterion(2, "exact small cases: L(1,3)=3 and L(2,5)=5 with 5-cycle classes")
def test_c2_exact_values():
    start = time.perf_counter()
    value, _ = exhaustive_L(1, 3)
    assert value == 3
    value, witness = exhaustive_L(2, 5)
    assert value == 5
    for i in range(2):
        g = colour_class(witness, i)
        assert g.edge_count() == 5
        assert odd_girth(g)[0] == 5
    elapsed = time.perf_counter() - start
    assert elapsed <= 1.0, f"criterion 2 took {elapsed:.2f}s"


@criterion(3, "peel decomposes bipartite and long-odd-cycle inputs; probe finds planted cycles")
def test_c3_peel_suite():
    rng = np.random.default_rng(303)
    for idx in range(100):
        n = int(rng.integers(8, 513))
        g = random_bipartite_graph(n, float(rng.uniform(0.02, 0.3)), int(rng.integers(1 << 30)))
        k = math.ceil(math.log2(n)) + int(rng.integers(0, 4))
        out = peel(g, k)
        assert isinstance(out, PeelDecomposition), idx
        assert verify_peel(g, k, out) is None, idx

    for m in (9, 11, 21, 51, 101, 257):
        for k in sorted({1, 2, 3, (m - 3) // 2}):
            if 2 * k + 1 >= m or k < 1:
                continue
            g = cycle_graph(m)
            out = peel(g, k)
            assert isinstance(out, PeelDecomposition), (m, k)
            assert verify_peel(g, k, out) is None, (m, k)

    # planted short odd cycles: the peel-or-oracle probe must find one
    for trial in range(40):
        n = int(rng.integers(12, 96))
        base = random_bipartite_graph(n, 0.1, int(rng.integers(1 << 30)))
        length = int(rng.choice([3, 5, 7, 9]))
        cyc = rng.choice(n, size=length, replace=False)
        edges = {(u, int(v)) for u in range(n) for v in np.flatnonzero(base.masked_matrix()[u]) if u < v}
        edges.update(
            (min(int(cyc[i]), int(cyc[(i + 1) % length])), max(int(cyc[i]), int(cyc[(i + 1) % length])))
            for i in range(length)
        )
        g = Graph.from_edges(n, sorted(edges))
        k = int(rng.integers(5, 12))
        out = peel(g, k)
        if isinstance(out, ShortCycle):
            cert = out.cycle
        else:
            assert verify_peel(g, k, out) is None
            girth = odd_girth(g)
            assert girth is not None
            cert = girth[1]
        assert cert.length <= 2 * k + 1, trial
        assert verify_mono_odd_cycle(g, cert) is None, trial


@criterion(4, "cycle shortening: worked 7-cycle instance plus 50 synthetic bounds")
def test_c4_shorten_suite():
    edges = [(i, (i + 1) % 11) for i in range(11)] + [(11, 0), (11, 5)]
    g = Graph.from_edges(12, edges)
    cert = shorten_cycle(g, [([0, 5, 11], 11)], [0], 1, OddCycleCertificate(tuple(range(11))))
    assert cert.vertices == (0, 1, 2, 3, 4, 5, 11)

    rng = np.random.default_rng(404)
    done = 0
    while done < 50:
        n = int(rng.integers(24, 72))
        side = rng.integers(0, 2, size=n)
        pairs = set()
        for u in range(n):
            for v in range(u + 1, n):
                if side[u] != side[v] and rng.random() < 0.12:
                    pairs.add((u, v))
        length = int(rng.choice([3, 5, 7, 9]))
        cyc = rng.choice(n, size=length, replace=False)
        pairs.update(
            (min(int(cyc[i]), int(cyc[(i + 1) % length])), max(int(cyc[i]), int(cyc[(i + 1) % length])))
            for i in range(length)
        )
        g = Graph.from_edges(n, sorted(pairs))
        seed_cycle = check_bipartite(g)
        if not isinstance(seed_cycle, OddCycleCertificate):
            continue
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
        cert = shorten_cycle(g, comps, targets, r, seed_cycle)
        bound = shorten_bound(g, comps, targets, r)
        assert cert.length <= bound
        assert cert.length >= odd_girth(g)[0]
        assert verify_mono_odd_cycle(g, cert) is None
        done += 1


def _random_selector_instance(rng, n_max, q_max):
    n = int(rng.integers(1, n_max + 1))
    q = int(rng.integers(0, q_max + 1))
    pairs = []
    for _ in range(q):
        size = int(rng.integers(0, n + 1))
        chosen = rng.choice(n, size=size, replace=False)
        split = rng.random(size) < 0.5
        pairs.append(
            (
                [int(v) for v, s in zip(chosen, split) if s],
                [int(v) for v, s in zip(chosen, split) if not s],
            )
        )
    return SelectorInstance(n, pairs)


def _bounded_selector_instance(rng):
    n = int(rng.integers(12, 49))
    q = int(rng.integers(1, 7))
    membership = np.zeros(n, dtype=int)
    pairs = []
    for _ in range(q):
        room = np.flatnonzero(membership < 3)
        size = int(rng.integers(0, min(len(room), n // 2) + 1))
        chosen = rng.choice(room, size=size, replace=False)
        membership[chosen] += 1
        split = rng.random(size) < 0.5
        pairs.append(
            (
                [int(v) for v, s in zip(chosen, split) if s],
                [int(v) for v, s in zip(chosen, split) if not s],
            )
        )
    return SelectorInstance(n, pairs)


@criterion(5, "derandomized selector meets ceil(n*2^-d) everywhere; randomized never exhausts")
def test_c5_selector_suite():
    rng = np.random.default_rng(505)
    # small instances, cross-checked against all 2^q choice vectors
    for _ in range(600):
        inst = _random_selector_instance(rng, 10, 4)
        res = select_complement(inst)
        target = inst.survivor_target()
        assert verify_selector(inst, res, target) is None
        best = max(
            inst.n
            - len(
                set().union(
                    *(
                        [set(int(x) for x in (a if (bits >> i) & 1 == 0 else b))
                         for i, (a, b) in enumerate(inst.pairs)]
                        or [set()]
                    )
                )
            )
            for bits in range(2**inst.q)
        )
        assert target <= len(res.survivors) <= best
    # larger instances, bound only
    for _ in range(1000):
        inst = _random_selector_instance(rng, 64, 10)
        res = select_complement(inst)
        assert verify_selector(inst, res, inst.survivor_target()) is None
    # randomized mode at the halved target never exhausts 50 tries; the
    # family caps per-vertex membership at 3 pairs so the halved expectation
    # leaves probabilistic room (unbounded memberships can push the success
    # probability per try below any retry budget)
    for _ in range(1000):
        inst = _bounded_selector_instance(rng)
        target = ceil_expected_survivors(inst.n, inst.degree_sum() + inst.n)
        res = select_complement(
            inst, "randomized", seed=int(rng.integers(1 << 30)), max_tries=50, target=target
        )
        assert verify_selector(inst, res, target) is None


@criterion(6, "proposition pipeline returns verified short cycles, never the pigeonhole")
def test_c6_proposition_suite():
    start = time.perf_counter()
    inconsistencies = 0
    for q in range(2, 7):
        for delta in (Fraction(1, 4), Fraction(1, 2), Fraction(1, 1)):
            n = math.ceil((1 + delta) * 2**q)
            k = math.ceil(Fraction(2 * q * (q + 1)) / delta)
            for seed in range(50):
                c = random_colouring(n, q, seed)
                try:
                    got = proposition_pipeline_checked(c, delta)
                except InternalInconsistency:
                    inconsistencies += 1
                    continue
                assert got.trace.last().branch == "short-cycle", (q, delta, seed)
                assert got.certificate.length <= 2 * k + 1
                assert verify_mono_odd_cycle(c, got.certificate) is None
    assert inconsistencies == 0
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0, f"criterion 6 took {elapsed:.1f}s"


def proposition_pipeline_checked(c, delta):
    from oddcycle import proposition_pipeline

    return proposition_pipeline(c, delta)


@criterion(7, "odd girth matches exhaustive enumeration; pipelines never beat the oracle")
def test_c7_oracle_soundness():
    rng = np.random.default_rng(707)
    for trial in range(500):
        n = int(rng.integers(1, 11))
        p = float(rng.uniform(0.05, 0.95))
        adj = np.triu(rng.random((n, n)) < p, 1)
        g = Graph(adj | adj.T)
        expected = odd_girth_by_enumeration(adjacency_sets(g))
        got = odd_girth(g)
        if expected is None:
            assert got is None, trial
        else:
            assert got is not None and got[0] == expected, trial
            assert verify_mono_odd_cycle(g, got[1]) is None

    for seed in range(50):
        q = int(rng.integers(2, 5))
        n = 2**q + 1
        c = random_colouring(n, q, seed)
        got = find_mono_odd_cycle(c)
        girths = [odd_girth(colour_class(c, i)) for i in range(q)]
        floor = min(v[0] for v in girths if v is not None)
        assert got.certificate.length >= floor


@criterion(8, "overridden rules drive branches 4-7, traces recorded, witnesses only when corrupted")
def test_c8_branch_coverage():
    override = dict(k_of_q=lambda q: 3, small_threshold_of_q=lambda q: 4)

    # branches (4), (5), (6): genuine complete colouring, every class of odd
    # girth 9, small threshold forces the shortening route
    ham = hamilton_colouring(4)
    prod = product_colouring(ham, ham)
    got = find_mono_odd_cycle(prod, PipelineParams(eps=0.9, C=0.1, **override))
    lvl = got.trace.last()
    assert lvl.branch == "lemma2-branch"
    assert "peel-all" in lvl.steps and "component-split" in lvl.steps
    assert lvl.sizes["removed_total"] > 0
    assert verify_mono_odd_cycle(prod, got.certificate) is None

    # branch (7), assert-failure path: corrupted colouring, survivor count
    # falls at the threshold, asserts recorded, oracle fallback still returns
    # a verified cycle
    c27 = colouring_from_classes(27, shifted_cycle_classes(9, 3), validate=False)
    got = find_mono_odd_cycle(c27, PipelineParams(eps=0.1, C=0.1, **override))
    lvl = got.trace.last()
    assert lvl.branch == "selector-branch"
    assert lvl.asserts_failed and "survivor-count" in lvl.asserts_failed
    assert lvl.fallback_used
    assert verify_mono_odd_cycle(c27, got.certificate) is None

    # branch (7), witness path: only a deliberately corrupted (non-complete)
    # colouring can reach the InternalInconsistency raise
    c33 = colouring_from_classes(33, shifted_cycle_classes(11, 3), validate=False)
    assert not c33.is_complete()
    with pytest.raises(InternalInconsistency) as err:
        find_mono_odd_cycle(c33, PipelineParams(eps=0.1, C=0.1, **override))
    x, y = err.value.witness["edge"]
    assert c33.table[x, y] == -1 and err.value.witness["colour"] is None

    # genuine complete colourings never raise under the same overrides
    for seed in range(30):
        c = random_colouring(17, 4, seed)
        got = find_mono_odd_cycle(c, PipelineParams(eps=0.1, C=0.1, **override))
        assert verify_mono_odd_cycle(c, got.certificate) is None


@criterion(9, "seeded operations and the experiment CSV are byte-reproducible")
def test_c9_determinism():
    assert colouring_to_text(random_colouring(9, 3, 7)) == colouring_to_text(
        random_colouring(9, 3, 7)
    )

    from oddcycle import anneal_search

    a = anneal_search(3, 9, 400, seed=7)
    b = anneal_search(3, 9, 400, seed=7)
    assert a[0] == b[0] and colouring_to_text(a[1]) == colouring_to_text(b[1])

    inst = _random_selector_instance(np.random.default_rng(99), 24, 6)
    r1 = select_complement(inst, "randomized", seed=4)
    r2 = select_complement(inst, "randomized", seed=4)
    assert r1.choices == r2.choices and list(r1.survivors) == list(r2.survivors)

    config = {
        "grid": [
            {
                "generator": "random",
                "q": 3,
                "n": 9,
                "seeds": [0, 1, 2],
                "methods": ["pipeline", "proposition", "oracle"],
                "delta": 1,
            }
        ]
    }
    assert rows_to_csv(experiment_table(config)) == rows_to_csv(experiment_table(config))
