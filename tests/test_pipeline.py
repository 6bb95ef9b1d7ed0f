import dataclasses
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oddcycle.colouring as colouring
import oddcycle.pipeline as pipeline
from oddcycle import (
    Bipartition,
    EdgeColouring,
    InputError,
    InternalInconsistency,
    NoMonochromaticOddCycle,
    PipelineAssertError,
    PipelineParams,
    ShortCycle,
    binary_colouring,
    check_bipartite,
    colour_class,
    colouring_from_classes,
    components,
    find_mono_odd_cycle,
    hamilton_colouring,
    odd_girth,
    peel,
    product_colouring,
    proposition_pipeline,
    random_bipartite_graph,
    random_colouring,
    random_graph,
    reduce_bipartite_colour,
    shorten_cycle,
    signatures,
    verify_mono_odd_cycle,
)
from oracles import (
    min_colour_odd_cycle_by_full_classes,
    odd_girth_by_enumeration,
    adjacency_sets,
    pentagon_colouring,
    shifted_cycle_classes,
)

OVERRIDE = dict(k_of_q=lambda q: 3, small_threshold_of_q=lambda q: 4)


def cycle_edges(vertices):
    return {frozenset(e) for e in zip(vertices, vertices[1:] + vertices[:1])}


def min_girth(c):
    vals = []
    for i in range(c.q):
        got = odd_girth(colour_class(c, i))
        if got is not None:
            vals.append(got[0])
    return min(vals) if vals else None


class TestFindExamples:
    def test_single_colour_triangle(self):
        c = random_colouring(3, 1, 0)
        got = find_mono_odd_cycle(c)
        assert got.certificate.length == 3
        assert verify_mono_odd_cycle(c, got.certificate) is None

    def test_pentagon_pentagram(self):
        c = pentagon_colouring()
        # no monochromatic triangle exists: enumeration oracle per class
        for i in range(2):
            assert odd_girth_by_enumeration(adjacency_sets(colour_class(c, i))) == 5
        got = find_mono_odd_cycle(c)
        assert got.certificate.length == 5
        assert verify_mono_odd_cycle(c, got.certificate) is None

    def test_random_9_3_7(self):
        c = random_colouring(9, 3, 7)
        got = find_mono_odd_cycle(c)
        assert verify_mono_odd_cycle(c, got.certificate) is None
        assert got.certificate.length <= 9
        assert got.certificate.length >= min_girth(c)

    @pytest.mark.parametrize(
        "make,vertices,colour,before",
        [
            (lambda: random_colouring(513, 9, 1), (9, 0, 248), 0, (0, 9, 248)),
            (lambda: random_colouring(1025, 10, 2), (3, 0, 78), 0, (0, 3, 78)),
            (
                lambda: hamilton_colouring(5),
                (3, 8, 2, 9, 1, 0, 10, 5, 6, 4, 7),
                0,
                (0, 1, 9, 2, 8, 3, 7, 4, 6, 5, 10),
            ),
            (
                lambda: product_colouring(binary_colouring(3), hamilton_colouring(3)),
                (2, 5, 1, 0, 6, 3, 4),
                3,
                (0, 1, 5, 2, 4, 3, 6),
            ),
        ],
        ids=["random-513", "random-1025", "hamilton-11", "binary3-x-hamilton7"],
    )
    def test_seeded_witness_pinned(self, make, vertices, colour, before):
        # seeded runs are byte-reproducible, so the exact witness is pinned;
        # ``before`` is the same cycle as the double-cover sweep wrote it
        got = find_mono_odd_cycle(make()).certificate
        assert got.vertices == vertices
        assert got.colour == colour
        assert cycle_edges(vertices) == cycle_edges(before)

    def test_all_bipartite_raises(self):
        with pytest.raises(NoMonochromaticOddCycle):
            find_mono_odd_cycle(binary_colouring(3))

    def test_sparse_random_colouring_can_be_cycle_free(self):
        # n <= 2^q random colourings may have every class bipartite; the
        # pipeline must report absence rather than fail, under any overrides
        c = random_colouring(5, 6, 0)
        assert all(odd_girth(colour_class(c, i)) is None for i in range(6))
        for params in (None, PipelineParams(C=0.01, **OVERRIDE)):
            with pytest.raises(NoMonochromaticOddCycle):
                find_mono_odd_cycle(c, params)

    def test_tiny_rejected(self):
        with pytest.raises(InputError):
            find_mono_odd_cycle(random_colouring(2, 1, 0))


class TestFindInvariants:
    def test_random_colourings_sound(self):
        # module invariant: q in 2..7, many seeds, never InternalInconsistency,
        # never an invalid certificate, never beats the per-colour oracle
        for q in range(2, 8):
            n = 2**q + 1
            for seed in range(100):
                c = random_colouring(n, q, seed)
                got = find_mono_odd_cycle(c)
                assert verify_mono_odd_cycle(c, got.certificate) is None
                assert got.certificate.length >= min_girth(c)
                if got.bound_claimed is not None:
                    assert got.certificate.length <= got.bound_claimed


def _relabelled(c, seed):
    perm = np.random.default_rng(seed).permutation(c.n)
    return EdgeColouring(c.n, c.q, c.table[np.ix_(perm, perm)], validate=c.is_complete())


def _no_colour_at_0(c, i):
    """c with vertex 0's colour-i pairs recoloured i+1, so that vertex 0 has
    no colour-i neighbour."""
    table = c.table.copy()
    hit = table[0] == i
    table[0, hit] = table[hit, 0] = (i + 1) % c.q
    return EdgeColouring(c.n, c.q, table)


def _triangle_away_from_0(link):
    """K_6 in two colours: colour 0 is the triangle 3-4-5, plus the pair
    {0, 3} when ``link``; colour 1, every other pair, has the triangle
    0-1-2."""
    colour0 = [(3, 4), (4, 5), (3, 5)] + ([(0, 3)] if link else [])
    colour1 = [(u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) not in colour0]
    return colouring_from_classes(6, [colour0, colour1])


def _oracle_corpus():
    """Random colourings (vertex 0 sometimes without a colour-i neighbour),
    triangle-free Hamilton products, relabelled binary x C5, incomplete
    disjoint-cycle colourings and triangles that avoid vertex 0."""
    cases = [EdgeColouring(1, q, [[-1]]) for q in (0, 1, 3)]
    cases += [random_colouring(n, q, seed) for n in (2, 3, 4, 5, 9, 17, 33, 65, 129, 257)
              for q in (1, 2, 3, 5, 8) for seed in range(3)]
    cases += [_no_colour_at_0(random_colouring(n, q, 9), i)
              for n in (3, 5, 17, 65) for q in (2, 3) for i in range(q)]
    for a, b in ((2, 2), (2, 3), (3, 2), (4, 4)):
        c = product_colouring(hamilton_colouring(a), hamilton_colouring(b))
        cases += [c, _relabelled(c, a + b)]
    cases += [_relabelled(product_colouring(binary_colouring(b), hamilton_colouring(2)), seed)
              for b in (1, 2, 3, 4) for seed in range(2)]
    for m, copies in ((3, 2), (3, 3), (4, 2), (5, 2), (7, 3)):
        c = colouring_from_classes(m * copies, shifted_cycle_classes(m, copies), validate=False)
        cases += [c, _relabelled(c, m), _relabelled(c, m + 1)]
    cases += [pentagon_colouring(), _triangle_away_from_0(False), _triangle_away_from_0(True)]
    return cases


def _late_triangle_at_0():
    """binary(10) with the pairs {895, 1023} and {895, 1011} recoloured 0:
    vertex 0's colour-0 neighbours are the 512 odd vertices, its only
    colour-0 triangles come late among them, and 1011 is the lowest partner
    of the lowest inner vertex 895."""
    table = binary_colouring(10).table.copy()
    for u, v in ((895, 1023), (895, 1011)):
        table[u, v] = table[v, u] = 0
    return EdgeColouring(1024, 10, table)


def _first_triangle_at_0_from(k):
    """binary(10), where vertex 0's colour-0 neighbourhood N is the 512 odd
    vertices and holds no colour-0 pair, with N's k-th vertex joined in
    colour 0 to the last vertex of N and to one midway between them (its
    lowest partner), and the next vertex of N to the one after it: N's k-th
    vertex is the first with a colour-0 neighbour in N."""
    table = binary_colouring(10).table.copy()
    ids = np.flatnonzero(table[0] == 0)
    last = len(ids) - 1
    pairs = [(k, last), (k, k + 1 + (last - k - 1) // 2)] + ([(k + 1, k + 2)] if k + 2 <= last else [])
    for a, b in pairs:
        table[ids[a], ids[b]] = table[ids[b], ids[a]] = 0
    return EdgeColouring(1024, 10, table)


_CAP_AT_1024 = colouring._BLOCK // 1024  # rows of a full-size probe block at n = 1024


ORACLE_CORPUS = _oracle_corpus()


def _sweeps_edge_near_0(c, i):
    """(v, u) of the full sweep's triangle (v, 0, u) of colour i, which it
    closes from vertex 0, or None when its certificate is no such triangle."""
    got = odd_girth(colour_class(c, i))
    if got is None or got[0] != 3 or got[1].vertices[1] != 0:
        return None
    v, _, u = got[1].vertices
    return v, u


def _assert_probe_matches_sweep(cases):
    """The probe finds an edge in vertex 0's colour-i neighbourhood exactly
    when that holds one, and it is the pair (v, u) of the full sweep's
    certificate (v, 0, u)."""
    for c in cases:
        for i in range(c.q):
            near = np.flatnonzero(c.table[0] == i)
            at_0 = bool((c.table[np.ix_(near, near)] == i).any())
            got = colouring._edge_near_0(c, i)
            assert got == (_sweeps_edge_near_0(c, i) if at_0 else None), c.provenance


class TestOracleProbe:
    """The oracle tries each colour on vertex 0 and its colour neighbours
    before sweeping the whole class; it must give what the whole sweeps give."""

    def test_matches_full_class_sweep(self):
        lengths = set()
        for c in ORACLE_CORPUS:
            got = pipeline.min_colour_odd_cycle(c)
            assert got == min_colour_odd_cycle_by_full_classes(c), c.provenance
            lengths.add(None if got is None else got[1])
        assert lengths == {None, 3, 5, 7, 9}

    @pytest.mark.parametrize("link", [False, True], ids=["apart", "linked"])
    def test_triangle_away_from_vertex_0_still_wins(self, link):
        # colour 0's only triangle misses vertex 0 and colour 1 has one
        # through it: colour 0 still gets its whole sweep first
        c = _triangle_away_from_0(link)
        colour, length, cert = pipeline.min_colour_odd_cycle(c)
        assert (colour, length, cert.colour) == (0, 3, 0)
        assert sorted(cert.vertices) == [3, 4, 5]
        assert verify_mono_odd_cycle(c, cert) is None

    def test_neighbourhoods_over_many_row_blocks(self):
        # vertex 0's colour-0 neighbourhood here is 256 or 512 rows, read in
        # several blocks: a probe that finds nothing, and one whose only
        # triangles lie in the last block
        for c in (_relabelled(binary_colouring(9), 5), _late_triangle_at_0()):
            assert pipeline.min_colour_odd_cycle(c) == min_colour_odd_cycle_by_full_classes(c)
        colour, length, cert = pipeline.min_colour_odd_cycle(_late_triangle_at_0())
        assert (colour, length, cert.vertices) == (0, 3, (895, 0, 1011))

    def test_probe_misses_no_triangle_at_vertex_0(self):
        # a missed triangle would not change the answer, only cost a full
        # sweep: the probe must find one exactly when vertex 0 has one, and
        # give the full sweep's certificate
        _assert_probe_matches_sweep(
            ORACLE_CORPUS + [_relabelled(binary_colouring(9), 5), _late_triangle_at_0()])

    # every edge of the probe's blocks (row 0, then _CAP_AT_1024 rows each:
    # 1..cap, cap+1..2cap, ...), the last vertex that can start one, and
    # offsets inside the first block: the pair may not depend on where a
    # block ends
    @pytest.mark.parametrize("k", sorted({0, 1, 2, 3, 6, 7, 14, 15, _CAP_AT_1024 - 1, _CAP_AT_1024,
                                          _CAP_AT_1024 + 1, 2 * _CAP_AT_1024 - 2,
                                          2 * _CAP_AT_1024 - 1, 2 * _CAP_AT_1024,
                                          2 * _CAP_AT_1024 + 1, 510}))
    def test_doubling_blocks_give_the_full_sweeps_triangle(self, k):
        c = _first_triangle_at_0_from(k)
        got = colouring._edge_near_0(c, 0)
        assert got == _sweeps_edge_near_0(c, 0)
        assert got == (2 * k + 1, 2 * (k + 1 + (510 - k) // 2) + 1)

    def test_doubling_blocks_find_nothing_in_an_independent_neighbourhood(self):
        c = binary_colouring(10)
        assert colouring._edge_near_0(c, 0) is None
        assert odd_girth(colour_class(c, 0)) is None

    @pytest.mark.parametrize("cap", [1, 2, 3, 5])
    def test_small_block_caps(self, monkeypatch, cap):
        # with the cap this low the blocks reach full size after a few rows
        for c in [c for c in ORACLE_CORPUS if c.n >= 3][::3] + [_late_triangle_at_0()]:
            monkeypatch.setattr(colouring, "_BLOCK", cap * c.n)
            _assert_probe_matches_sweep([c])

    def test_find_traces_match_full_class_sweep(self, monkeypatch):
        def outcome(c, params):
            try:
                got = find_mono_odd_cycle(c, params)
            except (NoMonochromaticOddCycle, InternalInconsistency) as exc:
                return type(exc).__name__, str(exc)
            return got.certificate, got.bound_claimed, got.trace.to_json_lines()

        cases = [(c, params) for c in ORACLE_CORPUS if c.n >= 3
                 for params in (None, PipelineParams(C=0.01, **OVERRIDE))]
        got = [outcome(c, params) for c, params in cases]
        monkeypatch.setattr(pipeline, "min_colour_odd_cycle",
                            min_colour_odd_cycle_by_full_classes)
        assert got == [outcome(c, params) for c, params in cases]


class TestBipartiteReduction:
    def test_reduce_binary3_drops_to_binary2(self):
        c = binary_colouring(3)
        bip = check_bipartite(colour_class(c, 2))
        reduced, kept = reduce_bipartite_colour(c, 2, bip)
        assert list(kept) == [0, 1, 2, 3]
        assert reduced == binary_colouring(2)

    def test_empty_colour_uses_tie_break(self):
        tab = np.full((4, 4), -1, dtype=np.int16)
        tab[~np.eye(4, dtype=bool)] = 0
        c = EdgeColouring(4, 2, tab, validate=False)  # colour 1 unused
        bip = Bipartition(np.array([0, 1]), np.array([2, 3]))
        reduced, kept = reduce_bipartite_colour(c, 1, bip)
        assert list(kept) == [0, 1]  # tie goes to side0
        assert reduced.q == 1

    @pytest.mark.parametrize("b,m", [(2, 2), (6, 3), (9, 2), (1, 128)])
    def test_table_matches_principal_submatrix(self, b, m):
        # the kept side's rows are gathered a block at a time (binary(9) x
        # C5: 2560 vertices, 25 rows a block); the table is the principal
        # submatrix of the kept side with the colours above i one lower.
        # binary(1) x ham(128) has q = 129, an int16 table, and its colour 0
        # dropped leaves colours 0..127, an int8 one
        c = _relabelled(product_colouring(binary_colouring(b), hamilton_colouring(m)), b)
        for i in (0, b - 1):
            reduced, kept = reduce_bipartite_colour(c, i, check_bipartite(colour_class(c, i)))
            want = c.table[np.ix_(kept, kept)].astype(np.int16)
            want[want > i] -= 1
            assert (reduced.n, reduced.q) == (len(kept), c.q - 1)
            assert reduced.table.dtype == (np.int8 if c.q - 1 <= 128 else np.int16)
            assert np.array_equal(reduced.table, want)

    def test_degenerate_k2(self):
        c = random_colouring(2, 1, 0)
        bip = check_bipartite(colour_class(c, 0))
        reduced, kept = reduce_bipartite_colour(c, 0, bip)
        assert reduced.n == 1 and reduced.q == 0

    @pytest.mark.parametrize("i", ["0", 0.0, True, np.bool_(False), None])
    def test_colour_index_not_an_integer_rejected(self, i):
        # "0" raised TypeError; 0.0 and True were taken as colours 0 and 1
        c = binary_colouring(3)
        with pytest.raises(InputError, match="colour index must be an integer"):
            reduce_bipartite_colour(c, i, check_bipartite(colour_class(c, 0)))

    @pytest.mark.parametrize("i", [pytest.param(10**5000, id="10^5000"), pytest.param(-10**5000, id="-10^5000")])
    def test_huge_colour_index_named_by_size(self, i):
        # formatting the index raised ValueError past str()'s 4300-digit limit
        c = binary_colouring(3)
        bip = check_bipartite(colour_class(c, 0))
        with pytest.raises(InputError, match=r"^colour \(16610-bit number\) out of range$"):
            reduce_bipartite_colour(c, i, bip)
        with pytest.raises(InputError, match=r"^colour \(16610-bit number\) out of range \[0, 3\)$"):
            colour_class(c, i)

    def test_numpy_colour_index_accepted(self):
        c = binary_colouring(3)
        bip = check_bipartite(colour_class(c, 2))
        reduced, kept = reduce_bipartite_colour(c, np.int64(2), bip)
        assert reduced == binary_colouring(2) and list(kept) == [0, 1, 2, 3]

    def test_invalid_bipartition_rejected(self):
        c = pentagon_colouring()
        with pytest.raises(InputError):
            reduce_bipartite_colour(c, 0, Bipartition(np.array([0, 1, 2]), np.array([3, 4])))

    def test_ids_outside_the_vertex_set_rejected(self):
        # a negative id must not wrap around, and an id past n must not
        # reach numpy's indexing
        tab = np.full((4, 4), -1, dtype=np.int16)
        tab[~np.eye(4, dtype=bool)] = 0
        c = EdgeColouring(4, 2, tab, validate=False)
        with pytest.raises(InputError):
            reduce_bipartite_colour(c, 1, Bipartition(np.array([-1, 1, 2]), np.array([0])))
        with pytest.raises(InputError):
            reduce_bipartite_colour(binary_colouring(2), 1,
                                    Bipartition(np.array([0, 1]), np.array([2, 4])))
        with pytest.raises(InputError):
            reduce_bipartite_colour(binary_colouring(2), 1,
                                    Bipartition(np.array([0, 1, 1]), np.array([2, 3])))

    def test_reduction_preserves_completeness_and_size(self):
        for c in (binary_colouring(3), binary_colouring(4),
                  product_colouring(binary_colouring(2), binary_colouring(2))):
            for i in range(c.q):
                bip = check_bipartite(colour_class(c, i))
                assert isinstance(bip, Bipartition)
                reduced, kept = reduce_bipartite_colour(c, i, bip)
                assert reduced.q == c.q - 1
                assert reduced.n == len(kept) >= -(-c.n // 2)
                assert reduced.is_complete()
                off = ~np.eye(reduced.n, dtype=bool)
                assert reduced.table[off].max() < reduced.q

    def test_reduction_branch_end_to_end(self):
        # pentagon x K_2: classes are two blown 5-cycles plus a perfect
        # matching; the matching is bipartite and gets dropped first
        c = product_colouring(pentagon_colouring(), binary_colouring(1))
        params = PipelineParams(C=0.1)
        got = find_mono_odd_cycle(c, params)
        assert got.trace.levels[0].branch == "bipartite-reduction"
        assert got.trace.levels[0].sizes["dropped_colour"] == 2
        assert got.trace.levels[1].branch == "base"
        assert got.certificate.length == 5
        assert got.certificate.colour in (0, 1)
        assert verify_mono_odd_cycle(c, got.certificate) is None

    def test_reduction_keeps_uncoloured_pairs(self):
        # colour 1 is bipartite; the kept side carries uncoloured pairs over
        c = colouring_from_classes(6, [[(0, 1), (1, 2), (0, 2)], [(3, 4)], [(4, 5)]],
                                   validate=False)
        got = find_mono_odd_cycle(c, PipelineParams(C=0.01))
        assert [lvl.branch for lvl in got.trace.levels] == ["bipartite-reduction", "base"]
        assert got.certificate.length == 3 and got.certificate.colour == 0
        assert verify_mono_odd_cycle(c, got.certificate) is None

    def test_levels_build_classes_up_to_first_bipartite(self, monkeypatch):
        import oddcycle.pipeline as pipeline

        built = []

        def counted(c, i):
            built.append(i)
            return colour_class(c, i)

        monkeypatch.setattr(pipeline, "colour_class", counted)
        c = product_colouring(binary_colouring(3), hamilton_colouring(4))
        got = find_mono_odd_cycle(c, PipelineParams(C=0.01))
        # three reductions drop colour 0 after building it alone; the last
        # level (q = 4) probes all four Hamilton classes
        assert built == [0, 0, 0, 0, 1, 2, 3]
        assert [lvl.branch for lvl in got.trace.levels] == ["bipartite-reduction"] * 3 + [
            "short-cycle"]
        assert got.bound_claimed == 1025
        assert got.certificate.vertices == (3, 5, 4, 8, 0, 1, 7, 2, 6)
        assert got.certificate.colour == 3
        assert verify_mono_odd_cycle(c, got.certificate) is None


class TestShortCycleBranch:
    def test_default_rules_catch_small_girth(self):
        c = random_colouring(9, 3, 11)
        got = find_mono_odd_cycle(c, PipelineParams(C=0.1))
        lvl = got.trace.last()
        assert lvl.branch == "short-cycle"
        assert got.certificate.length <= got.bound_claimed
        assert verify_mono_odd_cycle(c, got.certificate) is None

    def test_odd_girth_fallback_authoritative(self):
        # Hamilton-decomposed K_9: every class has odd girth 9; with k = 4
        # (2k+1 = 9) peel alone decomposes but the oracle check fires.
        c = hamilton_colouring(4)
        params = PipelineParams(
            C=0.1, eps=0.5, k_of_q=lambda q: 4, small_threshold_of_q=lambda q: 4
        )
        got = find_mono_odd_cycle(c, params)
        lvl = got.trace.last()
        assert lvl.branch == "short-cycle"
        assert lvl.sizes["via"] == "odd-girth"
        assert got.certificate.length == 9 <= got.bound_claimed
        assert verify_mono_odd_cycle(c, got.certificate) is None


class TestDeepBranches:
    def test_lemma2_branch_on_genuine_colouring(self):
        ham = hamilton_colouring(4)
        prod = product_colouring(ham, ham)  # n=81, q=8, all classes girth 9
        params = PipelineParams(eps=0.9, C=0.1, **OVERRIDE)
        got = find_mono_odd_cycle(prod, params)
        lvl = got.trace.last()
        assert lvl.branch == "lemma2-branch"
        assert "peel-all" in lvl.steps and "component-split" in lvl.steps
        assert verify_mono_odd_cycle(prod, got.certificate) is None
        assert 9 <= got.certificate.length <= got.bound_claimed

    def test_selector_branch_raises_on_corrupted_input(self):
        c = colouring_from_classes(33, shifted_cycle_classes(11, 3), validate=False)
        params = PipelineParams(eps=0.1, C=0.1, **OVERRIDE)
        with pytest.raises(InternalInconsistency) as err:
            find_mono_odd_cycle(c, params)
        witness = err.value.witness
        x, y = witness["edge"]
        assert witness["colour"] is None  # the uncoloured pair is the witness
        assert c.table[x, y] == -1
        assert witness["edge"] == (0, 2)
        assert witness["survivors"] == [0, 2, 4, 6, 8, 11, 13, 15, 17, 19, 22, 24, 26, 28, 30]
        assert str(err.value) == (
            "surviving pair (0,2) lies in no small component, yet its colour is "
            "missing; impossible for a complete colouring")

    def test_shortening_gets_only_the_target_balls(self, monkeypatch):
        # relabelled ham4 x ham4 under structured-deep's lemma-2 rules: colour
        # 0's peel leaves 11 balls, 2 of which meet the big components
        c = _relabelled(product_colouring(hamilton_colouring(4), hamilton_colouring(4)), 18)
        params = PipelineParams(eps=0.9, C=1e-9, k_of_q=lambda q: q // 2 - 1,
                                small_threshold_of_q=lambda q: 1)
        calls = []

        def spy(g, comps, target_ids, r, seed):
            calls.append((comps, list(target_ids)))
            return shorten_cycle(g, comps, target_ids, r, seed)

        monkeypatch.setattr(pipeline, "shorten_cycle", spy)
        lvl = find_mono_odd_cycle(c, params).trace.last()
        assert lvl.branch == "lemma2-branch" and lvl.sizes["targets"] == 2
        k, colour = lvl.params["k"], lvl.sizes["colour"]
        decompositions = [peel(colour_class(c, i), k) for i in range(c.q)]
        removed = set().union(*(d.removed.tolist() for d in decompositions))
        residual = colour_class(c, colour).without(sorted(removed))
        small = {v for comp in components(residual) if len(comp) <= 1 for v in comp.tolist()}
        big = set(range(c.n)) - removed - small
        balls = decompositions[colour].components
        targets = [(comp.vertices.tolist(), comp.center) for comp in balls
                   if big & set(comp.vertices.tolist())]
        assert len(balls) == 11 and len(targets) == 2
        (comps, target_ids), = calls
        assert [(verts.tolist(), center) for verts, center in comps] == targets
        assert target_ids == [0, 1]

    @pytest.mark.parametrize("seed", range(6))
    def test_selector_pair_starts_at_the_lowest_survivor(self, seed):
        # three disjoint 11-cycles under the disjoint-33 rules, relabelled
        c = colouring_from_classes(33, shifted_cycle_classes(11, 3), validate=False)
        c = _relabelled(c, seed) if seed else c
        params = PipelineParams(eps=0.1, C=0.1, **OVERRIDE)
        with pytest.raises(InternalInconsistency, match="surviving pair") as err:
            find_mono_odd_cycle(c, params)
        witness = err.value.witness
        x, y = witness["edge"]
        assert x == min(witness["survivors"]) and y in witness["survivors"] and y != x
        assert c.table[x, y] == -1

    def test_selector_pair_when_x_lies_in_several_small_components(self):
        # vertex 0 meets no edge of colours 1 and 2, so it is a small
        # component of both residuals: the survivors it shares one with are
        # the union of those components, not their sum, which carries bit 0
        # into bit 1 and names the coloured pair (0,1)
        c = colouring_from_classes(33, shifted_cycle_classes(11, 3), validate=False)
        params = PipelineParams(eps=0.3, C=0.05, k_of_q=lambda q: 4,
                                small_threshold_of_q=lambda q: 3)
        with pytest.raises(InternalInconsistency, match="surviving pair") as err:
            find_mono_odd_cycle(c, params)
        witness = err.value.witness
        assert witness["edge"] == (0, 3) and c.table[0, 3] == -1
        assert witness["survivors"] == [0, 1, 3, 5, 7, 10, 11, 12, 14, 16, 18, 21, 22, 23, 25,
                                        27, 29, 32]

    def test_selector_branch_asserts_recorded_and_fallback(self):
        c = colouring_from_classes(27, shifted_cycle_classes(9, 3), validate=False)
        params = PipelineParams(eps=0.1, C=0.1, **OVERRIDE)
        got = find_mono_odd_cycle(c, params)
        lvl = got.trace.last()
        assert lvl.branch == "selector-branch"
        assert "survivor-count" in lvl.asserts_failed
        assert lvl.fallback_used
        assert lvl.sizes["survivor_count"] <= 3 * 4
        assert got.certificate.length == 9
        assert verify_mono_odd_cycle(c, got.certificate) is None

    def test_selector_branch_fail_mode(self):
        c = colouring_from_classes(27, shifted_cycle_classes(9, 3), validate=False)
        params = PipelineParams(eps=0.1, C=0.1, fallback="fail", **OVERRIDE)
        with pytest.raises(PipelineAssertError) as err:
            find_mono_odd_cycle(c, params)
        assert "survivor-count" in err.value.failed


class TestProposition:
    def test_q2_delta1(self):
        c = random_colouring(8, 2, 3)
        got = proposition_pipeline(c, 1)
        k = 12  # ceil(2*2*3/1)
        assert got.bound_claimed == 2 * k + 1
        assert got.certificate.length <= min(2 * k + 1, 8)
        assert verify_mono_odd_cycle(c, got.certificate) is None

    def test_q3_delta_half(self):
        c = random_colouring(12, 3, 5)
        got = proposition_pipeline(c, 0.5)
        assert got.trace.last().params["k"] == 48
        assert verify_mono_odd_cycle(c, got.certificate) is None

    def test_pentagon_extended_to_k8(self):
        rng = np.random.default_rng(2)
        tab = np.full((8, 8), -1, dtype=np.int16)
        pent = pentagon_colouring()
        tab[:5, :5] = pent.table
        for u in range(8):
            for v in range(max(u + 1, 5), 8):
                tab[u, v] = tab[v, u] = int(rng.integers(0, 2))
        c = EdgeColouring(8, 2, tab)
        got = proposition_pipeline(c, 1)
        assert got.trace.last().branch == "short-cycle"
        assert verify_mono_odd_cycle(c, got.certificate) is None

    def test_short_cycle_on_random_colourings_grid(self):
        # module invariant: 100 random colourings per (q, delta) always
        # return via a short cycle within 2k+1, never the pigeonhole
        for q in range(2, 7):
            for delta in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                n = math.ceil((1 + delta) * 2**q)
                k = math.ceil(Fraction(2 * q * (q + 1)) / delta)
                for seed in range(100):
                    c = random_colouring(n, q, seed)
                    got = proposition_pipeline(c, delta)
                    assert got.trace.last().branch == "short-cycle"
                    assert got.certificate.length <= 2 * k + 1
                    assert verify_mono_odd_cycle(c, got.certificate) is None

    def test_pigeonhole_fires_on_corrupted_input(self):
        # two disjoint C_27 classes (odd girth 27 > 2k+1 = 25 at q=2,
        # delta=1), everything else uncoloured: every peel decomposes, far
        # more than 2^q vertices survive, and the signature collision
        # surfaces an uncoloured pair
        c = colouring_from_classes(54, shifted_cycle_classes(27, 2), validate=False)
        with pytest.raises(InternalInconsistency) as err:
            proposition_pipeline(c, 1)
        x, y = err.value.witness["edge"]
        assert c.table[x, y] == -1 and err.value.witness["colour"] is None
        assert err.value.witness["trace"]["sizes"]["survivor_count"] > 4
        assert err.value.witness["edge"] == (0, 2)
        assert err.value.witness["signature"] == 0
        assert err.value.witness["trace"]["sizes"] == {"removed_total": 14, "survivor_count": 40}
        assert str(err.value) == (
            "vertices 0 and 2 share signature 00 yet their pair carries colour "
            "missing; impossible for a complete colouring")

    def test_pigeonhole_builds_each_class_once(self, monkeypatch):
        # the signatures read the residual bipartitions off the table; no
        # colour class is rebuilt for them
        import oddcycle.pipeline as pipeline

        built = []

        def counted(c, i):
            built.append(i)
            return colour_class(c, i)

        monkeypatch.setattr(pipeline, "colour_class", counted)
        c = colouring_from_classes(54, shifted_cycle_classes(27, 2), validate=False)
        with pytest.raises(InternalInconsistency):
            proposition_pipeline(c, 1)
        assert built == [0, 1]

    def test_preconditions(self):
        with pytest.raises(InputError):
            proposition_pipeline(random_colouring(7, 2, 0), 1)  # needs n >= 8
        with pytest.raises(InputError):
            proposition_pipeline(random_colouring(8, 2, 0), 0)

    @pytest.mark.parametrize("delta", [True, "1/2", None, 0.5j, math.nan, math.inf, -math.inf,
                                       np.float64(math.nan), np.bool_(True), [0.5]])
    def test_delta_not_a_finite_real_rejected(self, delta):
        # True ran as 1 and '1/2' as 1/2; nan, inf and None raised Python's own errors
        with pytest.raises(InputError, match="delta"):
            proposition_pipeline(random_colouring(16, 3, 0), delta)

    @pytest.mark.parametrize("delta", [1, 0.5, Fraction(1, 2), np.int64(1), np.float32(0.5),
                                       np.float64(0.25)])
    def test_delta_real_kinds_accepted(self, delta):
        c = random_colouring(16, 3, 0)
        got = proposition_pipeline(c, delta)
        assert got.trace.last().params["delta"] == float(delta)
        assert verify_mono_odd_cycle(c, got.certificate) is None

    @pytest.mark.parametrize("q, message", [
        (5, "need n >= 64 for q=5, delta=1; got 16"),
        (64, "need n > 2^64 for q=64, delta=1; got 16"),
        (2**15, "need n > 2^32768 for q=32768, delta=1; got 16"),
    ])
    def test_q_with_2_to_the_q_past_n_refused_at_once(self, q, message):
        # a palette of q colours on K_16, only 3 of them used; from q = 64 on,
        # the refusal builds no 2**q
        c = EdgeColouring(16, q, random_colouring(16, 3, 0).table)
        start = time.perf_counter()
        with pytest.raises(InputError) as err:
            proposition_pipeline(c, 1)
        assert str(err.value) == message
        assert time.perf_counter() - start < 0.1


class TestSignatures:
    def test_binary3_identity(self):
        c = binary_colouring(3)
        bips = [check_bipartite(colour_class(c, i)) for i in range(3)]
        sig = signatures(c, [], bips)
        assert sorted(sig.values()) == list(range(8))

    def test_single_survivor(self):
        c = binary_colouring(2)
        removed = [0, 1, 2]
        bips = [
            check_bipartite(colour_class(c, i).without(removed)) for i in range(2)
        ]
        sig = signatures(c, removed, bips)
        assert list(sig) == [3]

    def test_zero_colours(self):
        c = colouring_from_classes(2, [], validate=False)
        sig = signatures(c, [], [])
        assert sig == {0: 0, 1: 0}
        # collision exactly when >= 2 vertices survive
        assert len(set(sig.values())) < len(sig)

    def test_invalid_bipartition_rejected(self):
        c = binary_colouring(2)
        bips = [check_bipartite(colour_class(c, i)) for i in range(2)]
        bad = [Bipartition(np.array([0, 1, 2, 3]), np.array([])), bips[1]]
        with pytest.raises(InputError):
            signatures(c, [], bad)

    def test_ids_outside_the_survivors_rejected(self):
        c = binary_colouring(2)
        bips = [check_bipartite(colour_class(c, i)) for i in range(2)]
        duplicated = Bipartition(np.array([0, 1, 1]), np.array([2, 3]))
        out_of_range = Bipartition(np.array([0, 1]), np.array([2, 4]))
        for bad in (duplicated, out_of_range):
            with pytest.raises(InputError):
                signatures(c, [], [bips[0], bad])
        with pytest.raises(InputError):
            signatures(c, [4], bips)
        with pytest.raises(InputError):
            signatures(c, [-1], bips)

    def test_bit_is_side1_as_given(self):
        # canonical sides (each component's lowest vertex on side0) from
        # check_bipartite; swapped sides swap the bit
        c = binary_colouring(2)
        bips = [check_bipartite(colour_class(c, i)) for i in range(2)]
        sig = signatures(c, [], bips)
        for i, bip in enumerate(bips):
            assert [v for v in sig if sig[v] >> i & 1] == sorted(bip.side1.tolist())
        swapped = [Bipartition(bips[0].side1, bips[0].side0), bips[1]]
        assert signatures(c, [], swapped) == {v: s ^ 1 for v, s in sig.items()}


class TestHandedOnSides:
    """Bipartitions handed to the reduction and the signatures hold integer
    vertex ids; a float id must not be truncated onto a real vertex."""

    @pytest.mark.parametrize("side0", [[0.5, 1.7], [0.0, 1.0], [True, False], ["0", "1"]],
                             ids=["fractional", "float", "bool", "str"])
    def test_non_integer_ids_rejected(self, side0):
        c = binary_colouring(2)
        bad = Bipartition(np.array(side0), np.array([2, 3]))
        with pytest.raises(InputError):
            reduce_bipartite_colour(c, 1, bad)
        with pytest.raises(InputError):
            signatures(c, [], [check_bipartite(colour_class(c, 0)), bad])

    @pytest.mark.parametrize("removed", [[0.5, 1.2, 2.9], np.array([0.0, 1.0, 2.0]), [True, True]],
                             ids=["fractional", "float", "bool"])
    def test_non_integer_removed_ids_rejected(self, removed):
        # int(v) would truncate 0.5, 1.2, 2.9 onto vertices 0, 1, 2
        c = binary_colouring(2)
        lone = Bipartition(np.array([3]), np.array([], dtype=np.int64))
        with pytest.raises(InputError):
            signatures(c, removed, [lone, lone])

    @pytest.mark.parametrize("ids", [0, [[0]], np.array([[0, 1]])], ids=["int", "nested", "2-d"])
    def test_scalar_and_nested_ids_rejected(self, ids):
        c = binary_colouring(2)
        lone = Bipartition(np.array([3]), np.array([], dtype=np.int64))
        with pytest.raises(InputError, match="1-D"):
            signatures(c, ids, [lone, lone])
        bad = Bipartition(ids, np.array([2, 3]))
        with pytest.raises(InputError, match="1-D"):
            reduce_bipartite_colour(c, 1, bad)
        with pytest.raises(InputError, match="1-D"):
            signatures(c, [], [check_bipartite(colour_class(c, 0)), bad])

    @pytest.mark.parametrize("dtype", [float, bool, str])
    def test_empty_sides_of_any_dtype_accepted(self, dtype):
        c = binary_colouring(2)
        lone = Bipartition(np.array([3]), np.array([], dtype=dtype))
        assert signatures(c, [0, 1, 2], [lone, lone]) == {3: 0}
        assert signatures(c, np.array([0, 1, 2]), [lone, lone]) == {3: 0}
        bips = [Bipartition(np.array([0, 2]), np.array([1, 3])),
                Bipartition(np.array([0, 1]), np.array([2, 3]))]
        assert signatures(c, np.array([], dtype=dtype), bips) == {0: 0, 1: 1, 2: 2, 3: 3}
        tab = np.full((4, 4), -1, dtype=np.int16)
        tab[~np.eye(4, dtype=bool)] = 0
        unused = EdgeColouring(4, 2, tab, validate=False)  # colour 1 has no edge
        everything = Bipartition(np.arange(4), np.array([], dtype=dtype))
        assert list(reduce_bipartite_colour(unused, 1, everything)[1]) == [0, 1, 2, 3]


def _classes_and_graphs():
    for seed in range(100):
        yield random_graph(30, 0.04 + 0.02 * (seed % 4), seed)
        yield random_bipartite_graph(30, 0.15, seed)
    for m, copies in ((5, 3), (9, 3), (27, 2)):
        c = colouring_from_classes(m * copies, shifted_cycle_classes(m, copies), validate=False)
        yield from (colour_class(c, i) for i in range(c.q))
    for m in (3, 4):
        ham = hamilton_colouring(m)
        prod = product_colouring(ham, ham)
        yield from (colour_class(prod, i) for i in range(prod.q))


def _move_first_side1_vertex(monkeypatch):
    """Make the next peel the pipeline runs hand back one ball with the
    lowest vertex of its side1 moved to side0, where its BFS parent is."""
    real = pipeline.peel

    def corrupted(g, k):
        monkeypatch.setattr(pipeline, "peel", real)
        out = real(g, k)
        ci = next(ci for ci, comp in enumerate(out.components) if comp.side1)
        comp = out.components[ci]
        low = comp.side1 & -comp.side1
        comps = list(out.components)
        comps[ci] = dataclasses.replace(comp, side0=comp.side0 | low, side1=comp.side1 ^ low)
        return dataclasses.replace(out, components=tuple(comps))

    monkeypatch.setattr(pipeline, "peel", corrupted)


class TestResidualSides:
    """The residual two-colourings are read off the peels, not recomputed."""

    def test_sides_are_a_two_colouring_of_the_residual(self):
        # the sides partition the residual, hold no edge of it (checked on
        # the dense matrix, not the kernel), and agree with a fresh
        # check_bipartite up to one swap per residual component
        rng = np.random.default_rng(11)
        residual_components = 0
        for g in _classes_and_graphs():
            for k in range(1, 6):
                dec = peel(g, k)
                if isinstance(dec, ShortCycle):
                    continue
                removed = rng.random(g.n) < 0.1
                removed[dec.removed] = True
                lvl = pipeline.LevelTrace(level=0, q=1, n=g.n)
                pooled = sum(1 << v for v in np.flatnonzero(removed).tolist())
                sides = pipeline._residual_sides(g, dec, pooled, 0, lvl)
                bip = Bipartition(*(pipeline._dense_ids(side, g.n) for side in sides))
                residual = g.without(np.flatnonzero(removed))
                assert np.array_equal(np.sort(np.concatenate([bip.side0, bip.side1])),
                                      residual.active_vertices())
                adj = residual.masked_matrix()
                for side in (bip.side0, bip.side1):
                    assert not adj[np.ix_(side, side)].any()
                fresh = check_bipartite(residual)
                assert isinstance(fresh, Bipartition)
                on1, fresh_on1 = np.zeros(g.n, dtype=bool), np.zeros(g.n, dtype=bool)
                on1[bip.side1] = True
                fresh_on1[fresh.side1] = True
                for comp in components(residual):
                    swapped = on1[comp] ^ fresh_on1[comp]
                    assert swapped.all() or not swapped.any()
                    residual_components += 1
        assert residual_components > 10000

    def test_selector_step_checks_the_sides(self, monkeypatch):
        # three disjoint 27-cycles at k = 5: colour 0's first ball has radius 1
        _move_first_side1_vertex(monkeypatch)
        c = colouring_from_classes(81, shifted_cycle_classes(27, 3), validate=False)
        params = PipelineParams(eps=0.1, C=0.1, k_of_q=lambda q: 5,
                                small_threshold_of_q=lambda q: 4)
        with pytest.raises(InternalInconsistency) as err:
            find_mono_odd_cycle(c, params)
        witness = err.value.witness
        x, y = witness["edge"]
        assert witness["colour"] == 0 and c.table[x, y] == 0
        assert witness["trace"]["branch"] == "selector-branch"

    def test_pigeonhole_checks_the_sides(self, monkeypatch):
        # without the check, signatures would reject the sides as InputError
        _move_first_side1_vertex(monkeypatch)
        c = colouring_from_classes(54, shifted_cycle_classes(27, 2), validate=False)
        with pytest.raises(InternalInconsistency) as err:
            proposition_pipeline(c, 1)
        witness = err.value.witness
        x, y = witness["edge"]
        assert witness["colour"] == 0 and c.table[x, y] == 0
        assert witness["trace"]["steps"] == ["signature-pigeonhole"]


class TestTraces:
    def test_trace_serialization(self):
        c = random_colouring(9, 3, 7)
        got = find_mono_odd_cycle(c)
        lines = got.trace.to_json_lines().strip().split("\n")
        assert len(lines) == len(got.trace.levels)
        import json

        rec = json.loads(lines[0])
        assert rec["q"] == 3 and rec["n"] == 9
        assert rec["branch"] in (
            "base",
            "bipartite-reduction",
            "short-cycle",
            "lemma2-branch",
            "selector-branch",
        )

    def test_sizes_match_recomputation(self):
        ham = hamilton_colouring(4)
        prod = product_colouring(ham, ham)
        params = PipelineParams(eps=0.9, C=0.1, **OVERRIDE)
        got = find_mono_odd_cycle(prod, params)
        lvl = got.trace.last()
        # recompute the pooled deleted set from scratch
        from oddcycle.peeling import peel, PeelDecomposition

        removed = set()
        for i in range(prod.q):
            out = peel(colour_class(prod, i), 3)
            assert isinstance(out, PeelDecomposition)
            removed.update(int(v) for v in out.removed)
        assert lvl.sizes["removed_total"] == len(removed)

    def test_deep_branch_traces_pinned(self):
        # the full trace lines of a lemma-2 run and of a selector-branch run
        # that answers from the oracle fallback: a change to how a level
        # computes its facts must leave every byte of them as it is
        ham = hamilton_colouring(4)
        c = _relabelled(product_colouring(ham, ham), 18)
        got = find_mono_odd_cycle(c, PipelineParams(
            eps=0.9, C=1e-9, k_of_q=lambda q: q // 2 - 1, small_threshold_of_q=lambda q: 1))
        cert = got.certificate
        assert (cert.vertices, cert.colour) == ((4, 5, 9, 1, 0, 21, 15, 2, 10), 0)
        assert got.trace.to_json_lines() == (
            '{"asserts_failed": ["removed-bound"], "bound_claimed": 103, '
            '"branch": "lemma2-branch", "fallback_used": false, "level": 0, "n": 81, '
            '"params": {"C": 1e-09, "eps": 0.9, "k": 3, "small_threshold": 1}, "q": 8, '
            '"sizes": {"colour": 0, "removed_total": 77, '
            '"small_vertex_counts": [0, 2, 2, 1, 4, 4, 4, 4], "targets": 2}, '
            '"steps": ["short-cycle-probe", "peel-all", "component-split"]}\n')
        c = colouring_from_classes(27, shifted_cycle_classes(9, 3), validate=False)
        got = find_mono_odd_cycle(c, PipelineParams(eps=0.1, C=0.1, **OVERRIDE))
        cert = got.certificate
        assert (cert.vertices, cert.colour) == ((4, 3, 2, 1, 0, 8, 7, 6, 5), 0)
        assert got.trace.to_json_lines() == (
            '{"asserts_failed": ["removed-bound", "survivor-count"], "bound_claimed": 27, '
            '"branch": "selector-branch", "fallback_used": true, "level": 0, "n": 27, '
            '"params": {"C": 0.1, "eps": 0.1, "k": 3, "small_threshold": 4}, "q": 3, '
            '"sizes": {"delta": 1.0, "n_prime": 12, "oracle_length": 9, "removed_total": 15, '
            '"small_vertex_counts": [12, 12, 12], "survivor_count": 12}, '
            '"steps": ["short-cycle-probe", "peel-all", "component-split"]}\n')


class TestPipelineParams:
    def test_shared_default_runs_as_fresh_params(self):
        # find_mono_odd_cycle(c) runs one default built at import; it must
        # answer as a fresh PipelineParams() does, and no run may change it
        def outcome(c, *params):
            try:
                got = find_mono_odd_cycle(c, *params)
            except NoMonochromaticOddCycle as exc:
                return str(exc)
            return got.certificate, got.bound_claimed, got.trace.to_json_lines()

        before = dataclasses.asdict(pipeline._DEFAULT_PARAMS)
        assert before == dataclasses.asdict(PipelineParams())
        cases = [c for c in ORACLE_CORPUS if c.n >= 3 and c.q >= 1][::4]
        cases += [random_colouring(2**q + 1, q, 30) for q in (3, 4, 9)] + [binary_colouring(4)]
        branches = set()
        for c in cases:
            got = outcome(c)
            assert got == outcome(c, PipelineParams()), c.provenance
            if not isinstance(got, str):
                branches.update(json.loads(line)["branch"] for line in got[2].splitlines())
        assert {"base", "short-cycle"} <= branches
        assert dataclasses.asdict(pipeline._DEFAULT_PARAMS) == before

    @pytest.mark.parametrize("rule", ["k_of_q", "small_threshold_of_q"])
    @pytest.mark.parametrize("value", [5, None, "q"])
    def test_rule_not_callable_rejected(self, rule, value):
        # 5 was accepted and failed at run time: 'int' object is not callable
        with pytest.raises(InputError, match=f"{rule} must be callable"):
            PipelineParams(**{rule: value})

    @pytest.mark.parametrize("rule", ["k_of_q", "small_threshold_of_q"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, None, "5", 2.7, True, 3.0])
    def test_rule_giving_no_integer_rejected(self, rule, value):
        # nan, inf and None raised ValueError, OverflowError and TypeError;
        # "5" ran as 5, 2.7 as 2 and True as 1
        params = PipelineParams(C=0.1, **{**OVERRIDE, rule: lambda q: value})
        with pytest.raises(InputError, match=f"{rule} must give an integer"):
            find_mono_odd_cycle(random_colouring(16, 3, 0), params)

    def test_rule_giving_a_huge_negative_named_by_size(self):
        # formatting -10**5000 raised ValueError past str()'s 4300-digit limit
        params = PipelineParams(C=0.1, **{**OVERRIDE, "k_of_q": lambda q: -10**5000})
        with pytest.raises(InputError, match=r"got k=\(16610-bit number\) threshold=4$"):
            find_mono_odd_cycle(random_colouring(16, 3, 0), params)

    def test_rule_giving_a_numpy_integer_accepted(self):
        params = PipelineParams(C=0.1, k_of_q=lambda q: np.int64(3), small_threshold_of_q=lambda q: np.int32(4))
        got = find_mono_odd_cycle(random_colouring(16, 3, 0), params)
        assert {key: got.trace.levels[0].params[key] for key in ("k", "small_threshold")} == {
            "k": 3, "small_threshold": 4}
        assert type(got.trace.levels[0].params["k"]) is int

    @pytest.mark.parametrize("big_c", [math.nan, math.inf, -math.inf, 0, -1, 0.0, -1e-9,
                                       np.float64(math.nan),
                                       pytest.param(10**400, id="int-past-floats")])
    def test_c_not_finite_and_positive_rejected(self, big_c):
        # nan and inf reached the trace as NaN and Infinity, which are not
        # JSON; an int past the largest float overflowed in the base test
        with pytest.raises(InputError, match="C must be finite and positive"):
            PipelineParams(C=big_c)

    @pytest.mark.parametrize("field", ["eps", "C"])
    @pytest.mark.parametrize("value", ["0.5", None, True, 0.5j, [0.5]])
    def test_non_real_eps_or_c_rejected(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be a real number"):
            PipelineParams(**{field: value})

    @pytest.mark.parametrize("eps, big_c", [(0.5, 4), (Fraction(1, 3), 1e-9), (np.float64(0.9), 10**300),
                                            (np.float32(0.1), np.int64(2))])
    def test_real_kinds_accepted(self, eps, big_c):
        params = PipelineParams(eps=eps, C=big_c)
        assert (params.eps, params.C) == (eps, big_c)

    def test_int_c_whose_product_passes_floats_runs_the_base(self):
        # 10**308 * 2**3 is an int past the largest float; dividing it by a
        # float raised OverflowError in the base test
        c = random_colouring(9, 3, 0)
        got = find_mono_odd_cycle(c, PipelineParams(C=10**308))
        assert got.trace.last().branch == "base" and got.bound_claimed == 9
        assert verify_mono_odd_cycle(c, got.certificate) is None

    @pytest.mark.parametrize("q", [3, 1023, 1024, 1100, 2**15])
    def test_base_test_past_floats_of_2_to_the_q(self, q):
        # 2**q is past the largest float from q = 1024 on; converting it
        # raised OverflowError in the base test
        table = np.zeros((5, 5), dtype=np.int16)
        np.fill_diagonal(table, -1)
        c = EdgeColouring(5, q, table)
        got = find_mono_odd_cycle(c)
        assert got.trace.last().branch == "base" and got.bound_claimed == 5
        assert verify_mono_odd_cycle(c, got.certificate) is None

    @pytest.mark.parametrize("C, branch", [(0.5, "base"), (math.nextafter(0.5, 0), "bipartite-reduction")])
    def test_base_test_at_its_edge(self, C, branch):
        # q = 4, eps = 1/2: C * 2**4 / 4**(1/2) = 8 C against n = 4, so the
        # bound is vacuous from C = 1/2 up
        c = EdgeColouring(4, 4, [[-1, 0, 0, 1], [0, -1, 0, 2], [0, 0, -1, 3], [1, 2, 3, -1]])
        assert find_mono_odd_cycle(c, PipelineParams(eps=0.5, C=C)).trace.levels[0].branch == branch
