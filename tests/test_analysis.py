import hashlib
import itertools
import json
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from oddcycle import (
    Bipartition,
    EdgeColouring,
    Graph,
    InputError,
    PipelineParams,
    binary_colouring,
    check_bipartite,
    colour_class,
    colouring_from_classes,
    exhaustive_L,
    find_mono_odd_cycle,
    hamilton_colouring,
    odd_girth,
    product_colouring,
    random_colouring,
)
from oddcycle import analysis
from oddcycle.analysis import (
    anneal_search,
    experiment_table,
    rows_to_csv,
)
from oddcycle.colouring import colouring_to_text
from oracles import anneal_search_by_tables, exhaustive_L_by_tables, table_girth_by_bfs


def girth_or(c, i, sentinel):
    got = odd_girth(colour_class(c, i))
    return sentinel if got is None else got[0]


def triangle_count(n, pairs):
    """Triangles of the graph on ``pairs``, as trace(A^3) / 6."""
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in pairs:
        a[u, v] = a[v, u] = 1
    return int(np.trace(a @ a @ a)) // 6


def fresh_classes(rows):
    """Each colour's pairs and odd girth (n + 1 when bipartite), from scratch."""
    n = len(rows[0])
    out = []
    for row_list in rows:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if row_list[u] >> v & 1]
        got = odd_girth(Graph.from_edges(n, pairs))
        out.append((pairs, n + 1 if got is None else got[0]))
    return out


def product_init(q):
    """``binary(q - 2) ⊗ hamilton(2)`` cut to its first 2^q + 1 vertices: no
    class has a triangle, and the least odd girth is 5."""
    n = 2**q + 1
    c = product_colouring(binary_colouring(q - 2), hamilton_colouring(2))
    return EdgeColouring(n, q, c.table[:n, :n])


class RecolourCheck:
    """Stands in for ``analysis._recolour`` and ``analysis._least_girth``.
    Before and after every recolour, each colour's kept triangle count must
    equal a from-scratch trace(A^3)/6. Before and after every recolour and
    every read of the least girth, each colour's kept state must obey the
    module's one rule against a from-scratch ``odd_girth`` of its class: a
    girth of 3 is exact, with a positive count; a colour with a witness is
    exact, and the witness is an induced cycle of the class of that length
    (distinct vertices, consecutive ones joined and no other two; empty at
    the sentinel), which the *out of* rule relies on; any other girth is a bound, at least 5 and at most the
    fresh odd girth, of a class with no triangle. Every least girth a search
    reads must equal the fresh minimum, and every add that lowers a girth to
    5 or more must know its witness. Counts the moves the next recolour
    finds undone (rejected) or kept, the removals that leave a colour a
    bound at 5 (its last triangle gone) or at its girth (its witness hit),
    the adds whose walk search found an even walk longer than 2, the
    removals from a girth-3 colour that keeps a triangle, and the colours
    the reads sweep."""

    def __init__(self):
        self.recolour, self.least_girth = analysis._recolour, analysis._least_girth
        self.counts = Counter()
        self.last = None  # the rows before the last recolour of this search

    @staticmethod
    def verify(rows, girths, witnesses, triangles=None):
        n = len(rows[0])
        for c, (pairs, want) in enumerate(fresh_classes(rows)):
            if triangles is not None:
                assert triangles[c] == triangle_count(n, pairs), (c, triangles[c])
            if girths[c] == 3:
                assert want == 3 and (triangles is None or triangles[c] > 0), c
            elif witnesses[c] is not None:
                cycle = witnesses[c]
                assert girths[c] == want, (c, girths[c], want)
                assert len(cycle) == (0 if want == n + 1 else want)
                assert len(set(cycle)) == len(cycle), cycle
                for a, b in itertools.combinations(range(len(cycle)), 2):
                    joined = bool(rows[c][cycle[a]] >> cycle[b] & 1)
                    assert joined == (b - a in (1, len(cycle) - 1)), (c, cycle)
            else:
                assert 5 <= girths[c] <= want, (c, girths[c], want)
                assert triangles is None or triangles[c] == 0, c

    def __call__(self, rows, girths, witnesses, triangles, u, v, old, new):
        state = [list(r) for r in rows]
        if self.last is not None:
            self.counts["rejected" if state == self.last else "kept"] += 1
        self.last = state
        self.verify(rows, girths, witnesses, triangles)
        old_girth, old_witness, new_girth = girths[old], witnesses[old], girths[new]
        self.recolour(rows, girths, witnesses, triangles, u, v, old, new)
        if girths[old] > 3 and witnesses[old] is None and (old_girth == 3 or old_witness is not None):
            self.counts["bound at 5" if old_girth == 3 else "bound at girth"] += 1
        if 5 <= girths[new] < new_girth:  # the walk search lowered it
            assert witnesses[new] is not None, new
            self.counts["walk"] += 1
        self.counts["triangle kept"] += triangles[old] > 0
        self.verify(rows, girths, witnesses, triangles)

    def read(self, rows, girths, witnesses):
        self.verify(rows, girths, witnesses)
        bounds = [g > 3 and w is None for g, w in zip(girths, witnesses)]
        least = self.least_girth(rows, girths, witnesses)
        self.counts["swept"] += sum(b and w is not None for b, w in zip(bounds, witnesses))
        assert least == min(g for _, g in fresh_classes(rows))
        self.verify(rows, girths, witnesses)
        return least


@pytest.fixture
def check(monkeypatch):
    checker = RecolourCheck()
    monkeypatch.setattr(analysis, "_recolour", checker)
    monkeypatch.setattr(analysis, "_least_girth", checker.read)
    return checker


@pytest.fixture
def sweeps(monkeypatch):
    """The vertex count of each class ``analysis._sweep`` sweeps, in order."""
    sweep, made = analysis._sweep, []

    def counted_sweep(rows):
        made.append(len(rows))
        return sweep(rows)

    monkeypatch.setattr(analysis, "_sweep", counted_sweep)
    return made


class TestRecolourRules:
    @pytest.mark.parametrize("q, n", [(2, 3), (2, 5), (3, 8), (3, 9), (4, 17)])
    def test_random_inits(self, check, q, n):
        for seed in (0, 1, 2):
            check.last = None
            anneal_search(q, n, 300, seed)
        # above K_5 the objective stays 3 from a random init, so no move is
        # rejected there; the binary and Hamilton inits below reject some
        assert check.counts["kept"] > 0
        if n > 5:
            assert check.counts["triangle kept"] > 0

    def test_binary_init(self, check):
        # every class starts a bound at 5 and the first read sweeps it to the
        # sentinel girth and empty witness
        for seed in (0, 3):
            check.last = None
            anneal_search(3, 8, 300, seed, init=binary_colouring(3))
        assert check.counts["kept"] > 0 and check.counts["rejected"] > 0
        assert check.counts["swept"] >= 6

    def test_hamilton_init(self, check):
        # girth 9 in every class: adds search walks beyond length 2, and a
        # removal that hits a lowered girth's witness leaves a bound
        for seed in (0, 1, 2):
            check.last = None
            anneal_search(4, 9, 300, seed, init=hamilton_colouring(4))
        counts = check.counts
        assert min(counts["kept"], counts["rejected"], counts["bound at girth"],
                   counts["walk"], counts["swept"]) > 0

    def test_removal_keeping_a_triangle_makes_no_sweep(self, monkeypatch):
        # a girth-3 colour that still holds a triangle after a removal is
        # known to stay at 3: that recolour sweeps neither class. No read
        # sweeps while a colour has girth 3, and a colour is swept at most
        # once each time it becomes a bound, a girth of 5 or more with no
        # witness (at the start, by a removal, or when a rejected move
        # restores it)
        sweep, recolour, least_girth = analysis._sweep, analysis._recolour, analysis._least_girth
        outcomes, seen = Counter(), {}
        search = {}  # the rows, girths and witnesses of the search being run

        def bound(c):
            return search["girths"][c] >= 5 and search["witnesses"][c] is None

        def observe():
            # a colour that is a bound now but was not when last seen starts an episode
            for c in range(len(search["girths"])):
                if bound(c) and not seen.get(c, False):
                    search["episodes"][c] += 1
                seen[c] = bound(c)

        def counted_sweep(rows):
            (c,) = [c for c, r in enumerate(search["rows"]) if r is rows]
            assert 3 not in search["girths"]
            assert bound(c) and search["sweeps"][c] < search["episodes"][c]
            search["sweeps"][c] += 1
            return sweep(rows)

        def watched(rows, girths, witnesses, triangles, u, v, old, new):
            observe()
            n, done = len(rows[0]), sum(search["sweeps"].values())
            recolour(rows, girths, witnesses, triangles, u, v, old, new)
            observe()
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rows[old][a] >> b & 1]
            if triangle_count(n, pairs):
                outcomes[sum(search["sweeps"].values()) - done] += 1

        def read(rows, girths, witnesses):
            if search.get("rows") is not rows:  # a new search
                seen.clear()
                search.update(rows=rows, girths=girths, witnesses=witnesses,
                              episodes=Counter(), sweeps=Counter())
            observe()
            least = least_girth(rows, girths, witnesses)
            observe()
            return least

        monkeypatch.setattr(analysis, "_sweep", counted_sweep)
        monkeypatch.setattr(analysis, "_recolour", watched)
        monkeypatch.setattr(analysis, "_least_girth", read)
        swept = 0
        for run in (lambda: anneal_search(3, 9, 500, 11),
                    lambda: exhaustive_L(2, 5),
                    lambda: anneal_search(3, 9, 2000, 0, init=product_init(3)),
                    lambda: anneal_search(4, 9, 300, 1, init=hamilton_colouring(4))):
            run()
            swept += sum(search["sweeps"].values())
        assert outcomes[0] > 100 and set(outcomes) == {0}
        assert swept > 0

    def test_product_init_sweeps_few_classes(self, sweeps):
        # from binary(1) ⊗ hamilton(2) cut to K_9 the objective stays at 5;
        # a sweep per removal from a hit witness or an emptied count made
        # 1 619 sweeps over these five runs, bounds kept per colour make 15
        for seed in range(5):
            assert anneal_search(3, 9, 4000, seed, init=product_init(3))[0] == 5
        assert len(sweeps) <= 50

    @pytest.mark.parametrize("q, n, init, most", [
        (4, 9, hamilton_colouring(4), 38), (3, 8, binary_colouring(3), 15),
        (2, 3, None, 0), (3, 3, None, 0), (2, 4, None, 0), (3, 4, None, 0),
    ], ids=["hamilton4", "binary3", "q2n3", "q3n3", "q2n4", "q3n4"])
    def test_inits_sweep_few_classes(self, sweeps, q, n, init, most):
        # five runs of 300 steps. A walk search that keeps no witness leaves
        # a bound at the next removal from the girth it lowered: 462 and 153
        # sweeps from the Hamilton and binary inits, and 41 and 15 when each
        # colour also kept a staleness flag. Up to K_4 a class with no
        # triangle is bipartite, so every kept girth is exact and none is swept
        for seed in range(5):
            anneal_search(q, n, 300, seed, init=init)
        assert len(sweeps) <= most


class TestExhaustive:
    def test_q1_n3(self):
        value, witness = exhaustive_L(1, 3)
        assert value == 3
        assert odd_girth(colour_class(witness, 0))[0] == 3

    def test_q2_n5_pentagon(self):
        value, witness = exhaustive_L(2, 5)
        assert value == 5
        for i in range(2):
            g = colour_class(witness, i)
            assert g.edge_count() == 5
            assert odd_girth(g)[0] == 5

    def test_q2_n4_all_bipartite(self):
        value, witness = exhaustive_L(2, 4)
        assert value is None
        for i in range(2):
            assert isinstance(check_bipartite(colour_class(witness, i)), Bipartition)

    def test_guard_refusal_names_the_count(self):
        with pytest.raises(InputError) as err:
            exhaustive_L(3, 8)
        assert "3^27" in str(err.value)

    @pytest.mark.parametrize("q, n", [
        (2, 200), (3, 10**6), (1, 6000),
        pytest.param(2, 10**2200, id="2-10^2200"), pytest.param(10**5000, 3, id="10^5000-3"),
    ])
    def test_guard_refuses_huge_counts_quickly(self, q, n):
        # the refusal compares exponents: it builds no power, and formats no
        # size past str()'s 4300-digit limit
        start = time.perf_counter()
        with pytest.raises(InputError, match="infeasible") as err:
            exhaustive_L(q, n)
        assert time.perf_counter() - start < 0.1
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize("q, n", [(1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (4, 4)])
    def test_matches_table_enumeration(self, q, n):
        value, witness = exhaustive_L(q, n)
        want_value, want = exhaustive_L_by_tables(q, n)
        assert value == want_value
        assert witness.table.dtype == want.table.dtype == np.int8
        assert np.array_equal(witness.table, want.table)
        assert witness.provenance == want.provenance

    @pytest.mark.parametrize("q, n, value, digest", [
        (2, 6, 3, "1c946e8efb758d18"), (2, 7, 3, "c45ce040efb1c8c1"),
        (3, 5, None, "b0fa88deb1aef6e2"), (3, 6, None, "8c82ca439c3d6c54"),
        (4, 5, None, "e6aa7fb0e5534b73"),
    ])
    def test_largest_admitted_sizes_pinned(self, q, n, value, digest):
        # values and witness tables (sha256 prefixes of the int16 bytes) as
        # the full enumeration of all q^(pairs - 1) colourings gave them;
        # each witness class's odd girth is re-derived by a BFS independent
        # of the package's kernels
        got, witness = exhaustive_L(q, n)
        assert got == value
        assert witness.table.dtype == np.int8
        assert hashlib.sha256(witness.table.astype(np.int16).tobytes()).hexdigest()[:16] == digest
        girths = [table_girth_by_bfs(witness.table.tolist(), i) for i in range(q)]
        assert girths == [girth_or(witness, i, n + 1) for i in range(q)]
        assert min(girths) == (n + 1 if value is None else value)

    def test_answers_by_adding_pairs_alone(self, monkeypatch):
        # the search only adds pairs to classes that start empty, so every
        # girth stays exact: it recolours, reads bounds and sweeps none
        def refuse(*args):
            raise AssertionError("the exhaustive search recoloured or swept")

        for name in ("_recolour", "_least_girth", "_sweep"):
            monkeypatch.setattr(analysis, name, refuse)
        for q, n, value in [(2, 5, 5), (2, 6, 3), (3, 5, None), (4, 4, None)]:
            assert exhaustive_L(q, n)[0] == value

    @pytest.mark.parametrize("q, n, what", [
        (2, 5.0, "n must be an integer"), (2.0, 3, "q must be an integer"),
        (True, 3, "q must be an integer"), (2, True, "n must be an integer"),
    ])
    def test_non_integer_arguments_rejected(self, q, n, what):
        with pytest.raises(InputError, match=what):
            exhaustive_L(q, n)

    def test_one_colour_builds_only_the_witness(self):
        # K_n in one colour is a triangle: the answer takes the witness's
        # 4.3 MiB table and no pair list, colour list or class rows
        tracemalloc.start()
        try:
            value, witness = exhaustive_L(1, 1500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 3 and witness.n == 1500 and witness.is_complete()
        assert witness.provenance == "exhaustive q=1 n=1500"
        assert peak < 8 * 2**20

    def test_deterministic_witness(self):
        a = exhaustive_L(2, 5)
        b = exhaustive_L(2, 5)
        assert a[0] == b[0] and a[1] == b[1]


def assert_same_search(got, want, provenance=True):
    """Two ``anneal_search`` results agree: objective, table dtype and
    values and, if asked, provenance."""
    assert got[0] == want[0]
    assert got[1].table.dtype == want[1].table.dtype
    assert np.array_equal(got[1].table, want[1].table)
    if provenance:
        assert got[1].provenance == want[1].provenance


def assert_matches_table_search(q, n, iterations, seed, init=None):
    """``anneal_search`` agrees with the table-based search from the int
    ``seed``, and again from two Generators on it, which end in the same
    state."""
    assert_same_search(anneal_search(q, n, iterations, seed, init),
                       anneal_search_by_tables(q, n, iterations, seed, init))
    gen, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_search(anneal_search(q, n, iterations, gen, init),
                       anneal_search_by_tables(q, n, iterations, twin, init))
    assert repr(gen.bit_generator.state) == repr(twin.bit_generator.state)


NUMPY_BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                        np.random.SFC64, np.random.MT19937]


class TestAnneal:
    def test_matches_exhaustive_optimum(self):
        obj, best = anneal_search(2, 5, 3000, seed=5)
        assert obj == 5  # the exhaustive optimum for (2,5)
        assert min(girth_or(best, i, 6) for i in range(2)) == 5

    def test_never_exceeds_exhaustive_optimum(self):
        value, _ = exhaustive_L(2, 5)
        for seed in range(4):
            obj, _ = anneal_search(2, 5, 400, seed=seed)
            assert obj <= value

    def test_deterministic(self):
        a_obj, a = anneal_search(3, 9, 300, seed=7)
        b_obj, b = anneal_search(3, 9, 300, seed=7)
        assert a_obj == b_obj
        assert colouring_to_text(a) == colouring_to_text(b)
        assert a_obj >= 3

    def test_objective_matches_recomputation(self):
        obj, best = anneal_search(3, 9, 200, seed=1)
        sentinel = 10
        recomputed = min(girth_or(best, i, sentinel) for i in range(3))
        assert recomputed == obj

    def test_sentinel_reached_when_seeded_all_bipartite(self):
        obj, best = anneal_search(3, 8, 100, seed=0, init=binary_colouring(3))
        assert obj == 9  # sentinel n+1: no monochromatic odd cycle
        for i in range(3):
            assert isinstance(check_bipartite(colour_class(best, i)), Bipartition)

    def test_incomplete_init_rejected_before_any_move(self):
        init = colouring_from_classes(8, [[(0, 1)], [], []], validate=False)
        with pytest.raises(InputError, match="init colouring leaves pairs uncoloured"):
            anneal_search(3, 8, 50, seed=0, init=init)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [3, 5, 8, 9, 17, 33])
    def test_matches_table_search(self, q, n):
        for seed in (0, 1, 2):
            for iterations in (1, 40, 250):
                assert_matches_table_search(q, n, iterations, seed)

    @pytest.mark.parametrize("q, n", [(1, 5), (2, 5), (3, 9), (4, 17)])
    def test_batches_match_table_search(self, monkeypatch, q, n):
        # a batch of 7 steps: runs that end before, on and after a batch's
        # end, and runs of many batches
        monkeypatch.setattr(analysis, "_BATCH", 7)
        for seed in (0, 1):
            for iterations in (6, 7, 8, 14, 250):
                assert_matches_table_search(q, n, iterations, seed)

    @pytest.mark.parametrize("q, n", [(2, 5), (3, 6), (3, 7), (4, 9)])
    def test_int_seed_draws_as_its_generator(self, q, n):
        # the moves read the words after the random init, not the init's
        # own words again; at these sizes every seed's search leaves its
        # init, so a shared stream shows in the result
        for seed in (0, 5, 11):
            assert_same_search(anneal_search(q, n, 300, seed),
                               anneal_search(q, n, 300, np.random.default_rng(seed)), provenance=False)

    def test_draws_kept_in_bounded_memory(self):
        # 20 000 steps drawn at once peak at about 1.1 MiB, mostly their
        # 20 000 coins; batches of _BATCH steps at about 0.35 MiB
        anneal_search(2, 5, 10, 0)  # first-call allocations, not counted
        tracemalloc.start()
        try:
            anneal_search(2, 5, 20_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19

    @pytest.mark.parametrize("q, n, iterations, what", [
        (2, 5, 2.5, "iterations must be an integer"), (2, 5, True, "iterations must be an integer"),
        (2.0, 5, 10, "q must be an integer"), (True, 5, 10, "q must be an integer"),
        (2, 5.0, 10, "n must be an integer"), (2, "5", 10, "n must be an integer"),
    ])
    def test_non_integer_arguments_rejected(self, q, n, iterations, what):
        with pytest.raises(InputError, match=what):
            anneal_search(q, n, iterations, 0)

    @pytest.mark.parametrize("seed", [-1, "abc", 2.5, [3, -1]],
                             ids=["negative", "str", "float", "negative-entry"])
    def test_seed_numpy_refuses_is_input_error(self, seed):
        with pytest.raises(InputError, match="invalid seed"):
            anneal_search(2, 5, 10, seed)
        with pytest.raises(InputError, match="invalid seed"):  # it still draws the moves
            anneal_search(2, 4, 10, seed, init=binary_colouring(2))

    @pytest.mark.parametrize("init, kind", [
        (np.zeros((5, 5), dtype=np.int16), "ndarray"), ("colouring", "str"), ([[0]], "list"),
    ])
    def test_init_not_a_colouring_rejected(self, init, kind):
        with pytest.raises(InputError, match=f"init must be an EdgeColouring, not {kind}"):
            anneal_search(2, 5, 10, 0, init=init)

    @pytest.mark.parametrize("bits", NUMPY_BIT_GENERATORS)
    def test_bit_generator_seed_named_by_class(self, bits):
        # the same draws as the Generator around it, and a provenance that
        # names its class, not its object address
        seed, twin = bits(4), np.random.Generator(bits(4))
        got = anneal_search(3, 9, 200, seed)
        assert_same_search(got, anneal_search_by_tables(3, 9, 200, twin), provenance=False)
        assert got[1].provenance == f"anneal q=3 n=9 seed={bits.__name__}"
        assert repr(seed.state) == repr(twin.bit_generator.state)

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_matches_table_search_from_hamilton_init(self, seed):
        assert_matches_table_search(4, 9, 300, seed, init=hamilton_colouring(4))

    @pytest.mark.parametrize("bits", NUMPY_BIT_GENERATORS)
    @pytest.mark.parametrize("q, n", [(2, 5), (3, 9), (4, 17)])
    def test_generator_seed_drawn_as_numpy_draws(self, bits, q, n):
        # a Generator passed as seed feeds the random init and then the
        # moves' batches, and ends in the state those draws leave
        gen, twin = np.random.Generator(bits(q + n)), np.random.Generator(bits(q + n))
        for g in (gen, twin):
            g.integers(7)  # leaves a 32-bit half pending
        assert_same_search(anneal_search(q, n, 300, gen), anneal_search_by_tables(q, n, 300, twin))
        assert repr(gen.bit_generator.state) == repr(twin.bit_generator.state)

    @pytest.mark.parametrize("q", [3, 4])
    def test_matches_table_search_from_product_init(self, q):
        # the objective-5 regime: reads sweep bounds to set it
        for seed in (0, 1):
            assert_matches_table_search(q, 2**q + 1, 2000, seed, init=product_init(q))

    def test_matches_table_search_from_hamilton_init_long(self):
        for seed in (1, 5):
            assert_matches_table_search(4, 9, 2000, seed, init=hamilton_colouring(4))

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_matches_table_search_from_binary_init(self, seed):
        assert_matches_table_search(3, 8, 300, seed, init=binary_colouring(3))

    def test_bit_generator_not_of_numpy_rejected(self):
        # numpy would crash the interpreter on the first draw from it
        class Foreign(np.random.BitGenerator):
            pass

        for seed in (Foreign(), np.random.Generator(Foreign())):
            with pytest.raises(InputError, match="bit generator Foreign is not one of numpy's"):
                random_colouring(5, 2, seed)
            with pytest.raises(InputError, match="bit generator Foreign"):
                anneal_search(2, 5, 10, seed)
            with pytest.raises(InputError, match="bit generator Foreign"):
                anneal_search(2, 5, 10, seed, init=random_colouring(5, 2, 0))

    def test_seed_past_str_digit_limit_named_by_bit_length(self):
        seed = 10**5000  # str() refuses an int of more than 4300 digits
        got = anneal_search(2, 5, 10, seed)
        assert got[1].provenance == "anneal q=2 n=5 seed=(16610-bit number)"
        assert_same_search(got, anneal_search(2, 5, 10, np.random.default_rng(seed)), provenance=False)

    def test_list_seed_holding_a_huge_int_named_by_type(self):
        seed = [10**5000]
        got = anneal_search(2, 5, 10, seed)
        assert got[1].provenance == "anneal q=2 n=5 seed=(list holding a number too long to print)"
        assert_same_search(got, anneal_search(2, 5, 10, np.random.default_rng(seed)), provenance=False)


CONFIG = {
    "timing": False,
    "grid": [
        {
            "generator": "random",
            "q": 3,
            "n": 9,
            "seeds": [0, 1, 2],
            "methods": ["pipeline", "proposition", "oracle"],
            "delta": 1,
        },
        {"generator": "binary", "q": 3, "methods": ["pipeline"]},
    ],
}


class TestExperimentTable:
    def test_grid_order_and_rows(self):
        rows = experiment_table(CONFIG)
        assert len(rows) == 3 * 3 + 1
        assert [r.method for r in rows[:3]] == ["pipeline", "proposition", "oracle"]
        assert rows[0].seed == 0 and rows[3].seed == 1

    def test_byte_identical_csv(self):
        a = rows_to_csv(experiment_table(CONFIG))
        b = rows_to_csv(experiment_table(CONFIG))
        assert a == b
        assert a.splitlines()[0] == "q,n,seed,method,cycle_length,bound_claimed,branch,wall_time_ms,error"

    def test_failures_become_error_rows(self):
        rows = experiment_table(CONFIG)
        prop = [r for r in rows if r.method == "proposition"]
        assert all("InputError" in r.error for r in prop)  # n=9 < 16 for q=3
        binary = rows[-1]
        assert "NoMonochromaticOddCycle" in binary.error
        ok = [r for r in rows if not r.error]
        assert all(r.cycle_length is not None and r.cycle_length % 2 == 1 for r in ok)

    def test_timing_column_kept_empty_without_opt_in(self):
        csv_text = rows_to_csv(experiment_table(CONFIG))
        for line in csv_text.splitlines()[1:]:
            assert line.split(",")[7] == ""

    def test_timing_opt_in(self):
        cfg = {"timing": True, "grid": [{"generator": "random", "q": 2, "n": 5, "seeds": [0], "methods": ["oracle"]}]}
        rows = experiment_table(cfg)
        assert rows[0].wall_time_ms is not None

    def test_malformed_cells_become_error_rows(self):
        good = {"generator": "random", "q": 2, "n": 5, "seeds": [0], "methods": ["oracle"]}
        bad = [
            {"generator": "random", "q": 2, "n": 5, "methods": ["oracle"]},  # no seeds
            {"generator": "random", "q": 2.7, "n": 5, "seeds": [0]},  # ran as q = 2
            {"generator": "random", "n": 5, "seeds": [0]},  # KeyError
            {"generator": "binary", "q": "abc"},  # ValueError
            {"generator": "random", "q": 2, "seeds": [0]},  # KeyError
            {"generator": "random", "q": 2, "n": 5.0, "seeds": [0]},
            {"generator": "random", "q": 2, "n": 5, "seeds": [1.5, [1, 2], True]},
            {"generator": "product", "q": 2, "seeds": [0]},
            {"generator": "random", "q": 2, "n": 5, "seeds": [0], "methods": ["nope", 7]},
            {"generator": "random", "q": 2, "n": 5, "seeds": [0], "methods": ["pipeline"],
             "eps": "0.5"},
        ]
        rows = experiment_table({"grid": [good, *bad, good]})
        assert len(rows) == 2 + len(bad) + 3
        assert rows[0] == rows[-1] and not rows[0].error and rows[0].cycle_length == 3
        for row in rows[1:-1]:
            assert row.error.startswith("InputError: "), row
            assert row.cycle_length is None and row.branch == ""
        assert rows_to_csv(rows) == rows_to_csv(experiment_table({"grid": [good, *bad, good]}))

    @pytest.mark.parametrize("config", [
        [], {"grid": {"q": 3}}, {"grid": [3]}, {"grid": [CONFIG["grid"][1], None]},
        {"grid": [{"q": 3, "methods": "oracle"}]}, {"grid": [{"q": 3, "seeds": 0}]},
    ])
    def test_config_of_wrong_shape_rejected(self, config):
        with pytest.raises(InputError, match="grid|seeds and methods"):
            experiment_table(config)

    def test_pipeline_defaults_are_the_params_defaults(self):
        # a cell that sets no pipeline key runs PipelineParams() itself
        cell = {"generator": "random", "q": 3, "n": 9, "seeds": [4], "methods": ["pipeline"]}
        (row,) = experiment_table({"grid": [cell]})
        want = find_mono_odd_cycle(random_colouring(9, 3, 4), PipelineParams())
        assert (row.cycle_length, row.bound_claimed) == (want.certificate.length, want.bound_claimed)
        (row,) = experiment_table({"grid": [dict(cell, C=-1.0)]})
        assert "C must be finite and positive" in row.error

    def test_json_int_c_past_float_products_gives_a_row(self):
        # a JSON int C below the largest float whose product with 2**q is not
        config = json.loads('{"grid": [{"generator": "random", "q": 3, "n": 9, "seeds": [0], '
                            '"methods": ["pipeline"], "C": 1' + "0" * 308 + '}]}')
        (row,) = experiment_table(config)
        assert (row.error, row.branch, row.bound_claimed) == ("", "base", 9)

    def test_seed_past_str_digit_limit_gives_a_row(self):
        # str() refuses an int of more than 4300 digits: the provenance and
        # the seed column name it by its bit length
        cell = {"generator": "random", "q": 2, "n": 5, "seeds": [10**5000], "methods": ["oracle"]}
        (row,) = experiment_table({"grid": [cell]})
        assert row.error == "" and row.cycle_length == 3
        assert rows_to_csv([row]).splitlines()[1].startswith("2,5,(16610-bit number),oracle,3,")

    def test_oracle_method_writes_the_base_record(self):
        c = random_colouring(9, 3, 7)
        got = analysis._run_method(c, "oracle", {}, None)
        (record,) = [json.loads(line) for line in got.trace.to_json_lines().splitlines()]
        assert record["bound_claimed"] == got.bound_claimed == 9
        assert record["sizes"] == {"oracle_length": got.certificate.length}
        assert record["branch"] == "base"
