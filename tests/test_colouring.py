import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oddcycle import (
    Bipartition,
    EdgeColouring,
    Graph,
    InputError,
    ParseError,
    binary_colouring,
    check_bipartite,
    colour_class,
    colouring_from_classes,
    product_colouring,
    random_colouring,
    read_colouring,
)
from oddcycle import colouring
from oddcycle.colouring import colouring_to_text


class TestBinaryColouring:
    def test_q1(self):
        c = binary_colouring(1)
        assert (c.n, c.q) == (2, 1)
        assert c.colour_of(0, 1) == 0

    def test_lowest_differing_bit(self):
        c = binary_colouring(3)
        assert c.colour_of(0, 7) == 0  # 000 vs 111
        assert c.colour_of(2, 6) == 2  # 010 vs 110
        assert c.colour_of(4, 6) == 1

    def test_all_classes_bipartite(self):
        for q in range(1, 6):
            c = binary_colouring(q)
            for i in range(q):
                got = check_bipartite(colour_class(c, i))
                assert isinstance(got, Bipartition)

    def test_classes_are_complete_bipartite_on_bit(self):
        c = binary_colouring(3)
        g = colour_class(c, 0)
        evens = [v for v in range(8) if v % 2 == 0]
        odds = [v for v in range(8) if v % 2 == 1]
        for u in evens:
            assert sorted(int(w) for w in g.neighbours(u)) == odds
        assert g.edge_count() == 16

    def test_guard(self):
        with pytest.raises(InputError):
            binary_colouring(0)
        with pytest.raises(InputError):
            binary_colouring(31)


def test_dense_tables_over_size_limit_rejected():
    # each raises before its n x n table is allocated
    over = 2**14 + 1
    with pytest.raises(InputError):
        binary_colouring(15)
    with pytest.raises(InputError):
        random_colouring(over, 2, 0)
    with pytest.raises(InputError):
        colouring_from_classes(over, [])
    small = random_colouring(129, 2, 0)
    with pytest.raises(InputError):
        product_colouring(small, small)  # n = 129^2 = 16641


class TestProductColouring:
    def test_square_of_k2(self):
        c = product_colouring(binary_colouring(1), binary_colouring(1))
        assert (c.n, c.q) == (4, 2)
        for i in range(2):
            assert isinstance(check_bipartite(colour_class(c, i)), Bipartition)

    def test_product_of_binaries_all_bipartite(self):
        c = product_colouring(binary_colouring(2), binary_colouring(3))
        assert (c.n, c.q) == (32, 5)
        for i in range(5):
            assert isinstance(check_bipartite(colour_class(c, i)), Bipartition)

    def test_degenerate_second_factor(self):
        c1 = random_colouring(6, 3, 4)
        unit = EdgeColouring(1, 0, [[-1]])
        c = product_colouring(c1, unit)
        assert c.n == 6 and c.q == 3
        assert np.array_equal(c.table, c1.table)

    def test_colour_split(self):
        c1 = random_colouring(3, 2, 0)
        c2 = random_colouring(4, 3, 1)
        c = product_colouring(c1, c2)
        assert (c.n, c.q) == (12, 5)
        # (a,b) index = 4a + b; same a uses lifted c2 colours, else c1
        assert c.colour_of(0, 1) == 2 + c2.colour_of(0, 1)
        assert c.colour_of(0, 4) == c1.colour_of(0, 1)
        assert c.colour_of(1, 6) == c1.colour_of(0, 1)


class TestRandomColouring:
    def test_single_edge_in_range(self):
        c = random_colouring(2, 5, 0)
        assert 0 <= c.colour_of(0, 1) < 5

    def test_deterministic(self):
        a = random_colouring(5, 2, 1)
        b = random_colouring(5, 2, 1)
        assert a == b
        assert random_colouring(5, 2, 2) != a

    def test_complete(self):
        c = random_colouring(9, 3, 7)
        counts = [int((c.table == i).sum()) // 2 for i in range(3)]
        assert sum(counts) == 36

    def test_classes_partition_edges(self):
        for seed in range(5):
            c = random_colouring(8, 3, seed)
            union = np.zeros((8, 8), dtype=int)
            for i in range(c.q):
                union += colour_class(c, i).masked_matrix().astype(int)
            off = ~np.eye(8, dtype=bool)
            assert (union[off] == 1).all()


class TestColourClass:
    def test_single_colour_k4(self):
        c = random_colouring(4, 1, 0)
        g = colour_class(c, 0)
        assert g.edge_count() == 6

    def test_edges_match_table(self):
        c = random_colouring(9, 3, 7)
        g = colour_class(c, 2)
        expect = {(u, v) for u in range(9) for v in range(u + 1, 9) if c.colour_of(u, v) == 2}
        got = {
            (u, int(v))
            for u in range(9)
            for v in g.neighbours(u)
            if u < v
        }
        assert got == expect

    def test_out_of_range(self):
        with pytest.raises(InputError):
            colour_class(random_colouring(4, 2, 0), 2)

    def test_matches_validating_graph(self):
        # colour_class packs the table unchecked; the validating Graph and
        # the dense table itself must agree with it
        incomplete = colouring_from_classes(6, [[(0, 1), (1, 2)], [(3, 4), (0, 5)]], validate=False)
        cases = [
            random_colouring(2, 1, 0),
            random_colouring(17, 3, 1),
            random_colouring(130, 5, 2),
            binary_colouring(4),
            product_colouring(binary_colouring(2), random_colouring(5, 2, 3)),
            incomplete,
            product_colouring(incomplete, binary_colouring(1)),
        ]
        for c in cases:
            for i in range(c.q):
                got, want = colour_class(c, i), Graph(c.table == i)
                assert got.row_masks() == want.row_masks()
                assert np.array_equal(got.masked_matrix(), c.table == i)
                assert np.array_equal(got.active_mask, want.active_mask)
                assert got.edge_count() == want.edge_count()


class TestValidation:
    def test_incomplete_rejected_unless_opted_in(self):
        with pytest.raises(InputError):
            colouring_from_classes(4, [[(0, 1)]])
        c = colouring_from_classes(4, [[(0, 1)]], validate=False)
        assert not c.is_complete()

    def test_double_colouring_rejected(self):
        with pytest.raises(InputError):
            colouring_from_classes(3, [[(0, 1)], [(1, 0)]])

    def test_asymmetric_table_rejected(self):
        t = np.full((3, 3), -1)
        t[0, 1] = 0
        with pytest.raises(InputError):
            EdgeColouring(3, 1, t)


class TestIO:
    def test_exact_format(self):
        c = colouring_from_classes(3, [[(0, 1), (1, 2)], [(0, 2)]])
        assert colouring_to_text(c) == "oddcycle-colouring v1\n3 2\n0 1\n0\n"

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            q = int(rng.integers(1, 6))
            c = random_colouring(n, q, int(rng.integers(1 << 30)))
            text = colouring_to_text(c)
            back = read_colouring(io.StringIO(text))
            assert back == c
            assert colouring_to_text(back) == text

    def test_single_vertex(self):
        c = EdgeColouring(1, 0, [[-1]])
        assert read_colouring(io.StringIO(colouring_to_text(c))) == c

    @pytest.mark.parametrize(
        "text,line",
        [
            ("wrong-magic\n3 2\n0 1\n0\n", 1),
            ("oddcycle-colouring v1\nnope\n", 2),
            ("oddcycle-colouring v1\n3\n", 2),
            ("oddcycle-colouring v1\n3 2\n0 1\n", 4),
            ("oddcycle-colouring v1\n3 2\n0 1 1\n0\n", 3),
            ("oddcycle-colouring v1\n3 2\n0 5\n0\n", 3),
            ("oddcycle-colouring v1\n3 2\n0 x\n0\n", 3),
            ("oddcycle-colouring v1\n3 2\n0 1\n0\nextra\n", 5),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as err:
            read_colouring(io.StringIO(text))
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text,line",
        [
            ("oddcycle-colouring v1\n10000000 3\n0 1 2\n", 3),
            ("oddcycle-colouring v1\n100000 3\n" + "\n" * 99_999, 3),
        ],
        ids=["short", "hollow"],
    )
    def test_large_header_fails_before_allocating(self, text, line, monkeypatch):
        # the n x n table would take ~200 TB and ~20 GB here: with the size
        # limit lifted past n, the rows are still checked before it is
        # allocated
        monkeypatch.setattr(colouring, "_MAX_N", 10**8)
        with pytest.raises(ParseError) as err:
            read_colouring(io.StringIO(text))
        assert err.value.line == line

    @pytest.mark.parametrize("n", [2**14 + 1, 10_000_000])
    def test_header_over_size_limit(self, n):
        with pytest.raises(ParseError) as err:
            read_colouring(io.StringIO(f"oddcycle-colouring v1\n{n} 3\n0 1 2\n"))
        assert err.value.line == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 20), st.integers(1, 8), st.integers(0, 10_000))
    def test_round_trip_property(self, n, q, seed):
        c = random_colouring(n, q, seed)
        assert read_colouring(io.StringIO(colouring_to_text(c))) == c
