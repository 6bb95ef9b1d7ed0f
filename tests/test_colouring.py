import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    binary_table_by_bits,
    hamilton_colouring_by_edges,
    product_table_by_index,
    random_table_by_triu_indices,
    read_colouring_by_rows,
    table_girth_by_bfs,
    write_colouring_by_entries,
)

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
    components,
    hamilton_colouring,
    odd_girth,
    product_colouring,
    random_colouring,
    read_colouring,
)
from oddcycle import colouring, exhaustive_L, find_mono_odd_cycle, reduce_bipartite_colour
from oddcycle.colouring import colouring_to_text, write_colouring


def _width(q):
    """The table dtype for q colours: one byte while colours 0..127 and -1
    fit, two past that."""
    return np.int8 if q <= 128 else np.int16


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


class TestHamiltonColouring:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_every_class_is_a_hamilton_cycle(self, m):
        n = 2 * m + 1
        c = hamilton_colouring(m)
        assert (c.n, c.q) == (n, m) and c.is_complete()
        for i in range(m):
            g = colour_class(c, i)
            assert all(g.degree(v) == 2 for v in range(n))
            assert len(components(g)) == 1
            assert odd_girth(g)[0] == n

    @pytest.mark.parametrize("m", [0, -1, 2**13 + 1])  # 2^14 + 3 vertices is past the limit
    def test_guard(self, m):
        with pytest.raises(InputError, match=r"m must be in \[1, 8192\]"):
            hamilton_colouring(m)

    def test_closed_form_matches_walecki_edge_lists(self):
        # m = 128 and 129 are the last int8 and the first int16 table, of
        # both builders
        for m in [*range(1, 41), 128, 129]:
            c, want = hamilton_colouring(m), hamilton_colouring_by_edges(m)
            assert (c.n, c.q, c.provenance) == (want.n, want.q, want.provenance)
            assert c.table.dtype == want.table.dtype == _width(m), m
            assert np.array_equal(c.table, want.table), m


class TestNonIntegerPairIds:
    """A float, bool or string is never truncated onto a vertex of a pair."""

    @pytest.mark.parametrize("bad", [0.5, 1.5, np.float64(1.0), True, False, np.bool_(True), "1",
                                     None],
                             ids=["half", "fractional", "numpy-float", "true", "false",
                                  "numpy-bool", "str", "none"])
    def test_rejected(self, bad):
        c = random_colouring(3, 2, 0)
        calls = [
            lambda: c.colour_of(bad, 2),
            lambda: c.colour_of(0, bad),
            lambda: colouring_from_classes(3, [[(0, bad), (1, 2)]]),
            lambda: colouring_from_classes(3, [[(bad, 2), (0, 1)]], validate=False),
        ]
        for call in calls:
            with pytest.raises(InputError, match="must be integers"):
                call()

    def test_bool_pair_rejected(self):
        # (False, True) once indexed the table with a bool mask
        with pytest.raises(InputError, match="must be integers"):
            colouring_from_classes(3, [[(False, True), (1, 2), (0, 2)]])

    def test_numpy_integers_accepted(self):
        c = random_colouring(3, 2, 0)
        assert c.colour_of(np.int64(0), np.uint8(2)) == c.colour_of(0, 2)
        got = colouring_from_classes(3, [[(np.int16(0), np.uint8(1)), (1, 2)], [(0, np.int64(2))]])
        assert got == colouring_from_classes(3, [[(0, 1), (1, 2)], [(0, 2)]])


def test_dense_tables_over_size_limit_rejected():
    # each raises before its n x n table is allocated; K_{2^14+1}, the
    # paper's threshold instance at q = 14, is the largest table
    over = 2**14 + 2
    with pytest.raises(InputError, match=r"q must be in \[1, 14\], got 15"):
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

    @pytest.mark.parametrize("seed", [-1, "abc", 1.5, [1, -2], object()],
                             ids=["negative", "str", "float", "negative-entry", "object"])
    def test_seed_numpy_refuses_is_input_error(self, seed):
        with pytest.raises(InputError, match="invalid seed"):
            random_colouring(5, 2, seed)

    @pytest.mark.parametrize("bits", [np.random.PCG64, np.random.MT19937])
    def test_bit_generator_seed_named_by_class(self, bits):
        # an object's repr holds its address, which no other process repeats
        c = random_colouring(5, 2, bits(3))
        assert c.provenance == f"random n=5 q=2 seed={bits.__name__}"
        assert c == random_colouring(5, 2, np.random.Generator(bits(3)))

    def test_int_and_generator_seeds_keep_their_provenance(self):
        assert random_colouring(5, 2, 7).provenance == "random n=5 q=2 seed=7"
        got = random_colouring(5, 2, np.random.default_rng(7)).provenance
        assert got == "random n=5 q=2 seed=Generator(PCG64)"

    @pytest.mark.parametrize("seed, shown", [
        (2**64 - 1, "18446744073709551615"), (2**64, "(65-bit number)"),
        (10**5000, "(16610-bit number)"),  # str() refuses an int of more than 4300 digits
    ], ids=["2^64-1", "2^64", "10^5000"])
    def test_huge_int_seed_named_by_bit_length(self, seed, shown):
        c = random_colouring(5, 2, seed)
        assert c.provenance == f"random n=5 q=2 seed={shown}"
        assert c == random_colouring(5, 2, np.random.default_rng(seed))

    @pytest.mark.parametrize("seed, shown", [
        ([2**70], "[1180591620717411303424]"),
        ([10**5000], "(list holding a number too long to print)"),
        ((3, 10**5000), "(tuple holding a number too long to print)"),
        (np.random.SeedSequence(10**5000), "(SeedSequence holding a number too long to print)"),
    ], ids=["list-2^70", "list-10^5000", "tuple-10^5000", "SeedSequence-10^5000"])
    def test_seed_holding_a_huge_int_named_by_type(self, seed, shown):
        # numpy takes these seeds; str() of one refuses its 5001-digit entry
        c = random_colouring(5, 2, seed)
        assert c.provenance == f"random n=5 q=2 seed={shown}"
        assert c == random_colouring(5, 2, np.random.default_rng(seed))

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

    # 0.5 once compared equal to no entry and gave an empty class, and True
    # was read as colour 1
    @pytest.mark.parametrize("bad", [0.5, 1.0, True, "1", None])
    def test_non_integer_colour_rejected(self, bad):
        with pytest.raises(InputError, match="colour index must be an integer"):
            colour_class(random_colouring(5, 2, 0), bad)

    def test_numpy_colour_accepted(self):
        c = random_colouring(9, 3, 1)
        for i in (np.int64(2), np.uint8(2), np.int16(2)):
            assert colour_class(c, i).row_masks() == colour_class(c, 2).row_masks()

    def test_matches_validating_graph(self):
        # colour_class packs the table unchecked, a row block at a time; the
        # validating Graph and the dense table itself must agree with it
        self.check_against_graph()

    @pytest.mark.parametrize("block", [1, 50, 300])
    def test_matches_validating_graph_in_any_row_block(self, block, monkeypatch):
        # blocks of one row, of a few rows and of every row of the small cases
        monkeypatch.setattr(colouring, "_BLOCK", block)
        self.check_against_graph()

    @staticmethod
    def check_against_graph():
        incomplete = colouring_from_classes(6, [[(0, 1), (1, 2)], [(3, 4), (0, 5)]], validate=False)
        cases = [
            random_colouring(2, 1, 0),
            random_colouring(17, 3, 1),
            random_colouring(130, 5, 2),
            random_colouring(1000, 4, 6),  # by default 15 blocks of 65 rows, then 25
            binary_colouring(4),
            product_colouring(binary_colouring(2), random_colouring(5, 2, 3)),
            incomplete,
            product_colouring(incomplete, binary_colouring(1)),
            product_colouring(incomplete, random_colouring(70, 2, 4)),  # n = 420
        ]
        for c in cases:
            for i in range(c.q):
                got, want = colour_class(c, i), Graph(c.table == i)
                assert got.row_masks() == want.row_masks()
                assert np.array_equal(got.masked_matrix(), c.table == i)
                assert np.array_equal(got.active_mask, want.active_mask)
                assert got.edge_count() == want.edge_count()


class TestIntegerDimensions:
    """Sizes, colour counts and colour indices are Python or numpy integers;
    a float, a bool or a string is an InputError, never a wrong colouring
    or numpy's TypeError."""

    BAD = [2.0, 2.5, True, "2", None]

    @pytest.mark.parametrize("bad", BAD)
    def test_random_colouring(self, bad):
        with pytest.raises(InputError, match="n must be an integer"):
            random_colouring(bad, 2, 0)
        with pytest.raises(InputError, match="q must be an integer"):
            random_colouring(5, bad, 0)

    @pytest.mark.parametrize("bad", BAD)
    def test_builders(self, bad):
        with pytest.raises(InputError, match="q must be an integer"):
            binary_colouring(bad)
        with pytest.raises(InputError, match="m must be an integer"):
            hamilton_colouring(bad)
        with pytest.raises(InputError, match="n must be an integer"):
            colouring_from_classes(bad, [[(0, 1)]])

    @pytest.mark.parametrize("bad", BAD)
    def test_edge_colouring(self, bad):
        table = random_colouring(5, 2, 0).table
        with pytest.raises(InputError, match="n must be an integer"):
            EdgeColouring(bad, 2, table)
        with pytest.raises(InputError, match="q must be an integer"):
            EdgeColouring(5, bad, table)

    def test_numpy_integers_accepted(self):
        n, q = np.int64(9), np.uint8(3)
        c = random_colouring(n, q, 4)
        assert c == random_colouring(9, 3, 4)
        assert (type(c.n), type(c.q)) == (int, int)
        assert c.provenance == random_colouring(9, 3, 4).provenance
        assert binary_colouring(np.int32(3)) == binary_colouring(3)
        assert hamilton_colouring(np.int16(3)) == hamilton_colouring(3)
        again = EdgeColouring(n, q, c.table)
        assert again == c and (type(again.n), type(again.q)) == (int, int)
        assert colouring_from_classes(np.int64(3), [[(0, 1), (1, 2)], [(0, 2)]]).n == 3


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

    @pytest.mark.parametrize(
        "table",
        [
            np.array([[-1, 65536], [65536, -1]]),
            [[-1, 65536], [65536, -1]],
            np.array([[-1, -(2**40)], [-(2**40), -1]]),
            [[-1, 2**70], [2**70, -1]],
            [[-1, 0.7], [0.7, -1]],
            [[-1, [0]], [0, -1]],
        ],
        ids=["int64-wraps-to-0", "list-overflows", "negative-wraps-to-0", "python-int", "float", "ragged"],
    )
    def test_table_rejected_before_int16_cast(self, table):
        with pytest.raises(InputError):
            EdgeColouring(2, 3, table)

    def test_colour_limit(self):
        top = 2**15 - 1
        c = EdgeColouring(2, 2**15, [[-1, top], [top, -1]])
        assert c.colour_of(0, 1) == top
        assert read_colouring(io.StringIO(colouring_to_text(c))) == c
        assert random_colouring(3, 2**15, 1).q == 2**15
        with pytest.raises(InputError):
            EdgeColouring(2, 2**15 + 1, [[-1, 0], [0, -1]])
        with pytest.raises(InputError):
            random_colouring(3, 40000, 1)
        with pytest.raises(InputError):
            colouring_from_classes(2, [[]] * 2**15 + [[(0, 1)]])
        half = random_colouring(2, 2**14 + 1, 0)
        with pytest.raises(InputError):
            product_colouring(half, half)


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

    @pytest.mark.parametrize(
        "token,kind",
        [
            ("7" * 100_000, "out of range"),
            ("-" + "1" * 100_000, "out of range"),
            ("7" * 4000, "out of range"),  # int() still parses it
            ("x" * 100_000, "non-integer"),
        ],
        ids=["huge", "huge-negative", "long", "huge-non-integer"],
    )
    def test_huge_token_reported_short(self, token, kind):
        # a colour past int()'s 4300-digit limit is an out-of-range integer,
        # and no message quotes a token at full length
        text = f"oddcycle-colouring v1\n4 2\n0 1 1\n1 {token}\n0\n"
        with pytest.raises(ParseError) as err:
            read_colouring(io.StringIO(text))
        assert err.value.line == 4
        assert kind in str(err.value)
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize(
        "header,kind",
        [
            ("7" * 5000 + " 3", "n=77777777777777777... exceeds the dense-table limit"),
            ("3 " + "7" * 5000, "q=77777777777777777... exceeds the colour limit"),
            ("-" + "7" * 5000 + " 3", "n=-7777777777777777... is negative"),
        ],
        ids=["huge-n", "huge-q", "huge-negative-n"],
    )
    def test_huge_header_dimension_reported_short(self, header, kind):
        # a dimension past int()'s 4300-digit limit is an out-of-range
        # integer, not a non-integer, and is quoted cut short
        with pytest.raises(ParseError) as err:
            read_colouring(io.StringIO(f"oddcycle-colouring v1\n{header}\n0 1\n0\n"))
        assert err.value.line == 2
        assert kind in str(err.value)
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize("n", [2**14 + 2, 10_000_000])
    def test_header_over_size_limit(self, n):
        with pytest.raises(ParseError) as err:
            read_colouring(io.StringIO(f"oddcycle-colouring v1\n{n} 3\n0 1 2\n"))
        assert err.value.line == 2

    def test_header_at_size_limit_accepted(self):
        # n = 2^14 + 1 passes the header check; the missing rows then fail
        # before the 512 MiB table is allocated
        with pytest.raises(ParseError, match="row for vertex 0") as err:
            read_colouring(io.StringIO(f"oddcycle-colouring v1\n{2**14 + 1} 3\n0 1 2\n"))
        assert err.value.line == 3

    @pytest.mark.parametrize("q", [2**15 + 1, 100_000])
    def test_header_over_colour_limit(self, q):
        with pytest.raises(ParseError) as err:
            read_colouring(io.StringIO(f"oddcycle-colouring v1\n2 {q}\n70000\n"))
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "data,line",
        [
            (b"oddcycle-colouring v1\n3 2\n0 \xff\n1\n", 3),
            (b"\xfeoddcycle-colouring v1\n2 1\n0\n", 1),
            (b"oddcycle-colouring v1\r\n3 2\r\n0 1\r\n\xc3\r\n", 4),  # a cut-off character
            (b"oddcycle-colouring v1\r3 2\r0 1\r0\r\n\x80\n", 5),
        ],
        ids=["body", "header", "crlf", "cr"],
    )
    def test_path_not_utf8_is_parse_error(self, data, line, tmp_path):
        # a path is read as UTF-8 whatever the locale, a byte that is not
        # UTF-8 reported on its line, line ends counted as the reader counts
        # them (\r\n and \r are \n)
        path = tmp_path / "c.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="is not utf-8 text") as err:
            read_colouring(path)
        assert err.value.line == line
        with pytest.raises(ParseError) as err:
            read_colouring(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert err.value.line == line

    def test_path_read_as_utf8(self, tmp_path):
        # "٣" (Arabic-Indic three) is non-ASCII: int() reads it as 3
        path = tmp_path / "c.txt"
        path.write_bytes("oddcycle-colouring v1\r\n3 4\r\n0 \u0663\r\n1\r\n".encode())
        assert read_colouring(path) == colouring_from_classes(3, [[(0, 1)], [(1, 2)], [], [(0, 2)]])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 20), st.integers(1, 8), st.integers(0, 10_000))
    def test_round_trip_property(self, n, q, seed):
        c = random_colouring(n, q, seed)
        assert read_colouring(io.StringIO(colouring_to_text(c))) == c


def _outcome(reader, text):
    """What a reader makes of a text: the colouring, or the error raised."""
    try:
        c = reader(io.StringIO(text))
    except Exception as exc:  # compared by type, line and message
        return type(exc), getattr(exc, "line", None), str(exc)
    return c.n, c.q, c.table.dtype, c.table.tobytes()


ODD_TOKENS = ["x", "+1", "01", "-0", "\u0663", "1_0"]
EXTRA_LINES = ["", " ", "\t", "0", "1 2", "x"]
EDIT_CHARACTERS = ["0", "9", " ", "\n", "\r", "\t", "+", "-", "x", "\u0663"]


def _mutate(lines, draw):
    """One damage to the text's lines, of a kind drawn at random."""
    lines = list(lines)
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(
        ["drop", "duplicate", "swap", "replace", "whitespace", "cr", "remove-line", "add-line",
         "trailing"]))
    tokens = lines[i].split(" ")
    j = draw(st.integers(0, len(tokens) - 1))
    if kind == "drop":
        del tokens[j]
    elif kind == "duplicate":
        tokens.insert(j, tokens[j])
    elif kind == "swap":
        k = draw(st.integers(0, len(tokens) - 1))
        tokens[j], tokens[k] = tokens[k], tokens[j]
    elif kind == "replace":
        tokens[j] = draw(st.sampled_from(ODD_TOKENS))
    if kind in ("drop", "duplicate", "swap", "replace"):
        lines[i] = " ".join(tokens)
    elif kind == "whitespace":  # at 0 or the end: a leading or trailing one
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + draw(st.sampled_from(["\t", " ", "  "])) + lines[i][at:]
    elif kind == "cr":
        lines[i] += "\r"
    elif kind == "remove-line":
        del lines[i]
    elif kind == "add-line":
        lines.insert(i, draw(st.sampled_from(EXTRA_LINES)))
    else:
        lines.extend(draw(st.lists(st.sampled_from(EXTRA_LINES), min_size=1, max_size=3)))
    return lines


@st.composite
def damaged_texts(draw):
    n = draw(st.integers(1, 40))
    q = draw(st.integers(1, 1200))
    c = random_colouring(n, q, draw(st.integers(0, 2**31))) if n > 1 else EdgeColouring(1, q, [[-1]])
    lines = colouring_to_text(c).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        lines = _mutate(lines, draw)
    return "\n".join(lines)


def _one_digit_damage(lines, u, j, kind):
    """``lines`` of a one-digit text with one damage at entry j of body row
    u, neither that row's last entry nor the last row, that keeps the text's
    length: the digit swapped with the space after it ("swap"), that space
    replaced by a 0 ("join"), the row's newline swapped with that space
    ("newline"), or the digit replaced by the character ``kind``."""
    lines = list(lines)
    row, at = lines[2 + u], 2 * j
    if kind == "swap":
        lines[2 + u] = row[:at] + " " + row[at] + row[at + 2 :]
    elif kind == "join":
        lines[2 + u] = row[: at + 1] + "0" + row[at + 2 :]
    elif kind == "newline":  # row u now ends at entry j; the rest opens row u+1
        lines[2 + u], lines[3 + u] = row[: at + 1], row[at + 2 :] + " " + lines[3 + u]
    else:
        lines[2 + u] = row[:at] + kind + row[at + 1 :]
    return lines


@st.composite
def one_digit_damaged_texts(draw):
    """Texts at q <= 10, so one digit per colour, with one damage that keeps
    every row block exactly two bytes per entry long."""
    n = draw(st.integers(3, 40))
    kind = draw(st.sampled_from(["swap", "join", "newline", "+", "-", "digit"]))
    q = draw(st.integers(1, 9 if kind == "digit" else 10))
    if kind == "digit":  # a digit >= q
        kind = str(draw(st.integers(q, 9)))
    lines = colouring_to_text(random_colouring(n, q, draw(st.integers(0, 2**31)))).split("\n")
    u = draw(st.integers(0, n - 3))
    j = draw(st.integers(0, n - 3 - u))
    return "\n".join(_one_digit_damage(lines, u, j, kind))


def _spy_blocks(monkeypatch):
    """A list that gets, for each row block the reader tries, how it took
    it: "in place" (the one-digit case), "decoded" (``_decode_entries``) or
    "by rows" (not canonical: the row parser takes over there)."""
    taken = []
    read_block, decode_entries = colouring._read_block, colouring._decode_entries

    def spied_read(*args):
        taken.append("in place")
        got = read_block(*args)
        if got is None:
            taken[-1] = "by rows"
        return got

    def spied_decode(*args):
        taken[-1] = "decoded"
        return decode_entries(*args)

    monkeypatch.setattr(colouring, "_read_block", spied_read)
    monkeypatch.setattr(colouring, "_decode_entries", spied_decode)
    return taken


class TestReaderAgainstRowParser:
    """The blocked reader against the row-by-row parser it replaced: the same
    colouring, or the same error with the same line and message."""

    @settings(max_examples=400, deadline=None)
    @given(damaged_texts())
    def test_damaged_texts(self, text):
        assert _outcome(read_colouring, text) == _outcome(read_colouring_by_rows, text)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda row: row.replace(" ", "  ", 1),
            lambda row: row.replace(" ", "\t", 1),
            lambda row: " " + row,
            lambda row: row + "\r",
            lambda row: "+1" + row[row.index(" "):],
            lambda row: "000001" + row[row.index(" "):],
            lambda row: "\u0663" + row[row.index(" "):],
            lambda row: "x" + row[row.index(" "):],
            lambda row: "1000" + row[row.index(" "):],
            lambda row: str(2**32 + 1) + row[row.index(" "):],
            lambda row: row[row.index(" ") + 1 :],
            lambda row: row + " 0",
            # row 200 keeps its length with a bad token; the next row, cut
            # to one entry, is short, and that is the error reported
            lambda row: "x" + row[row.index(" "):] + "\n0",
        ],
        ids=["double-space", "tab", "leading-space", "cr", "plus", "zero-padded",
             "arabic-digit", "not-a-number", "out-of-range", "past-int32", "entry-missing", "entry-extra",
             "bad-token-then-short-row"],
    )
    def test_damage_in_second_block(self, damage, monkeypatch):
        # n = 400 spans three blocks; rows 200 and 201 lie in the second
        n, row = 400, 200
        blocks = colouring._row_blocks(n)
        assert len(blocks) >= 3 and blocks[1][0] <= row < row + 1 < blocks[1][1]
        lines = colouring_to_text(random_colouring(n, 1000, 5)).split("\n")
        lines[2 + row] = damage(lines[2 + row])
        text = "\n".join(lines)
        taken = _spy_blocks(monkeypatch)
        assert _outcome(read_colouring, text) == _outcome(read_colouring_by_rows, text)
        assert taken == ["decoded", "by rows"]  # rows from the damaged block on go row by row

    @settings(max_examples=300, deadline=None)
    @given(one_digit_damaged_texts())
    def test_one_digit_damaged_texts(self, text):
        assert _outcome(read_colouring, text) == _outcome(read_colouring_by_rows, text)

    @pytest.mark.parametrize(
        "kind",
        ["swap", "join", "+", "-", "9", "newline"],
        ids=["digit-space-swap", "space-to-digit", "plus", "minus", "digit-past-q",
             "newline-space-swap"],
    )
    def test_one_digit_damage_in_second_block(self, kind, monkeypatch):
        # n = 400 at q = 9: one digit per colour; rows 200 and 201 lie in the
        # second block, which stays two bytes per entry, so its end is where
        # a canonical block's would be. The first block is read in place,
        # and the rows go row by row from the second. A moved newline leaves
        # row 200 too short for its entries, which the row parser finds
        # before it parses any token
        n, row = 400, 200
        blocks = colouring._row_blocks(n)
        assert len(blocks) >= 3 and blocks[1][0] <= row < row + 1 < blocks[1][1]
        lines = colouring_to_text(random_colouring(n, 9, 5)).split("\n")
        damaged = _one_digit_damage(lines, row, 17, kind)
        assert sum(map(len, damaged[2 + blocks[1][0] : 2 + blocks[1][1]])) == sum(
            map(len, lines[2 + blocks[1][0] : 2 + blocks[1][1]]))
        text = "\n".join(damaged)
        taken = _spy_blocks(monkeypatch)
        assert _outcome(read_colouring, text) == _outcome(read_colouring_by_rows, text)
        assert taken == ["in place", "by rows"]  # rows from the damaged block on go row by row

    @pytest.mark.parametrize(
        "q,one_digit_rows,damaged_row,taken",
        [(1, 0, None, ["in place"] * 3), (9, 0, None, ["in place"] * 3),
         (10, 0, None, ["in place"] * 3), (11, 0, None, ["decoded"] * 3),
         (11, 163, 350, ["in place", "decoded", "by rows"]),
         (128, 400, None, ["in place"] * 3), (129, 400, None, ["in place"] * 3),
         (128, 0, None, ["decoded"] * 3), (129, 0, None, ["decoded"] * 3)],
        ids=["1-0", "9-0", "10-0", "11-3", "one-digit-then-two-digit-then-damaged",
             "128-one-digit", "129-one-digit", "128-three-digit", "129-three-digit"],
    )
    def test_one_digit_body_read_in_place(self, q, one_digit_rows, damaged_row, taken,
                                          monkeypatch):
        # n = 400 spans three blocks of 163, 163 and 73 rows. A canonical
        # one-digit body, trailing whitespace allowed, is read from the text
        # in place; at q = 11 some colour of every block has two digits, and
        # those blocks go through the general decode. Each block is taken on
        # its own: clipped below 10, the first block is read in place again,
        # and a bad token in the third hands its rows to the row parser. At
        # q = 128 and 129, the last int8 and the first int16 table, the body
        # is read in place clipped below 10 and decoded with three digits
        assert [u1 - u0 for u0, u1 in colouring._row_blocks(400)] == [163, 163, 73]
        table = np.array(random_colouring(400, q, 11).table)
        table[:one_digit_rows] = np.minimum(table[:one_digit_rows], 9)
        table[:, :one_digit_rows] = np.minimum(table[:, :one_digit_rows], 9)
        c = EdgeColouring(400, q, table)
        lines = (colouring_to_text(c) + " \n\t\n").split("\n")
        if damaged_row is not None:
            lines[2 + damaged_row] = "x" + lines[2 + damaged_row][1:]
        text = "\n".join(lines)
        spied = _spy_blocks(monkeypatch)
        assert _outcome(read_colouring, text) == _outcome(read_colouring_by_rows, text)
        assert spied == taken
        if damaged_row is None:
            got = read_colouring(io.StringIO(text))
            assert got == c and got.table.dtype == _width(q)

    @pytest.mark.parametrize("q", [1, 3, 10])
    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_every_one_character_edit(self, n, q):
        # each character of a canonical text replaced by each of a fixed
        # set, deleted, or with a space put before it (or at the end)
        text = colouring_to_text(random_colouring(n, q, n + q))
        edits = [text[:i] + ch + text[i + 1 :] for i in range(len(text)) for ch in EDIT_CHARACTERS]
        edits += [text[:i] + text[i + 1 :] for i in range(len(text))]
        edits += [text[:i] + " " + text[i:] for i in range(len(text) + 1)]
        for edited in edits:
            assert _outcome(read_colouring, edited) == _outcome(read_colouring_by_rows, edited), edited

    @pytest.mark.parametrize("text", ["oddcycle-colouring v1\n3 2", "oddcycle-colouring v1\n2 1 ",
                                      "oddcycle-colouring v1\n3 2\n", "oddcycle-colouring v1\n1 3",
                                      "oddcycle-colouring v1\n1 3\n",
                                      "oddcycle-colouring v1\n3 72102\n9 9\n610310\n"])
    def test_no_row_after_the_header(self, text):
        # with no newline after the dimension line the text has no row line
        # at all (a missing row), with one it has an empty one (a short row);
        # a q past the colour limit is refused on line 2, before any row
        assert _outcome(read_colouring, text) == _outcome(read_colouring_by_rows, text)

    def test_one_digit_block_with_a_misplaced_newline(self):
        # rows of 4, 1 and 1 colours where 3, 2 and 1 are due: the block is
        # still two bytes per entry, with the right number of spaces
        assert colouring._read_block("0 0 0 0\n0\n0\n", 0, 4, 0, 3, 1) is None


def _writer_cases():
    rng = np.random.default_rng(0)
    cases = []
    for q in (1, 10, 11, 1000, 2**15):
        for n in (1, 2, 3, 400):
            if n == 1:
                cases.append(EdgeColouring(1, q, [[-1]]))
                continue
            c = random_colouring(n, q, n + q)
            table = np.array(c.table)
            gaps = np.triu(rng.random((n, n)) < 0.2, 1)
            gaps[0, n - 1] = True
            table[gaps | gaps.T] = -1
            cases += [c, EdgeColouring(n, q, table, validate=False)]
        if q > 1:
            cases.append(product_colouring(random_colouring(20, q // 2, q),
                                           random_colouring(20, q - q // 2, q + 1)))
    incomplete = colouring_from_classes(6, [[(0, 1), (1, 2)], [(3, 4), (0, 5)]], validate=False)
    cases += [binary_colouring(k) for k in (1, 2, 5, 8)]
    cases += [product_colouring(binary_colouring(2), random_colouring(100, 9, 1)),
              product_colouring(incomplete, binary_colouring(6))]
    return cases


class TestWriterAgainstEntryFormatter:
    @pytest.mark.parametrize("c", _writer_cases(), ids=repr)
    def test_byte_identical(self, c):
        expected = io.StringIO()
        write_colouring_by_entries(c, expected)
        text = colouring_to_text(c)
        # compared line by line: pytest's diff of two long strings is slow
        assert text.split("\n") == expected.getvalue().split("\n")
        if c.is_complete():
            assert read_colouring(io.StringIO(text)) == c


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("q,read_cap,write_cap", [(10, 7e6, 2.5e6), (11, 10e6, 3e6)],
                         ids=["q10", "q11"])
@pytest.mark.parametrize("block,bounded", [(colouring._BLOCK, True), (1 << 30, False)],
                         ids=["blocked", "whole-body"])
def test_io_scratch_memory_bounded(block, bounded, q, read_cap, write_cap, monkeypatch):
    # n = 1025: 1.05 MB of text at q = 10 (one digit per colour, every block
    # read in place), 1.1 MB at q = 11 (every block found by a newline scan
    # and decoded entry by entry); 1.05 MB of int8 table. Over 2^16-entry
    # blocks reading peaks near 6.5 MB at q = 10 and 8.3 MB at q = 11,
    # writing near 1.1 and 1.3 MB. Decoding or formatting the whole body at
    # once peaks near 7.4 and 3.7 MB at q = 10, 21.4 and 5.8 MB at q = 11
    monkeypatch.setattr(colouring, "_BLOCK", block)
    c = random_colouring(1025, q, 3)
    text = colouring_to_text(c)
    read_peak = _peak_bytes(lambda: read_colouring(io.StringIO(text)))
    write_peak = _peak_bytes(lambda: write_colouring(c, io.StringIO()))
    assert (read_peak < read_cap, write_peak < write_cap) == (bounded, bounded)


def test_rows_split_before_the_table_is_made(monkeypatch):
    # a body with \r\n line ends, read through a StringIO (which does not
    # translate them), is not canonical from its first row on, so the text
    # is split into lines and parsed row by row. n = 513 at q = 10: the
    # text, its lines and the int8 table take about 0.26 MB each. The table
    # made for the blocks is dropped before the split and made again once
    # the text is freed: the peak is near 0.58 MB. Kept through the split
    # it was near 0.82 MB, and with an int16 table 1.09 MB. Small blocks
    # keep the blocked attempt's scratch below the split's
    monkeypatch.setattr(colouring, "_BLOCK", 2048)
    c = random_colouring(513, 10, 3)
    head, dims, body = colouring_to_text(c).split("\n", 2)
    stream = io.StringIO(f"{head}\n{dims}\n" + body.replace("\n", "\r\n"))
    out = []
    peak = _peak_bytes(lambda: out.append(read_colouring(stream)))
    assert out[0] == c and out[0].table.dtype == np.int8
    assert peak < 0.7e6


def test_no_table_before_the_first_block_decodes():
    # the \r\n body above at n = 1025 and the default block size: its block
    # 0 is not canonical, so the text is split before any table is made.
    # The peak is near 2.8 MB, a canonical body's 2.3 MB; a table made for
    # the blocks and dropped before the split peaked near 3.9 MB
    c = random_colouring(1025, 10, 3)
    head, dims, body = colouring_to_text(c).split("\n", 2)
    stream = io.StringIO(f"{head}\n{dims}\n" + body.replace("\n", "\r\n"))
    out = []
    peak = _peak_bytes(lambda: out.append(read_colouring(stream)))
    assert out[0] == c
    assert peak < 3.3e6


# Circulant colourings of K_p, p = 2^q + 1 prime: a pair's colour depends
# only on its distance min(|u - v|, p - |u - v|). Every class of these two
# has odd girth 7, so K_17 has a 4-colouring with no monochromatic odd
# cycle shorter than 7 (L(4) >= 7), and K_257 an 8-colouring. At K_257
# colour i takes the distances +-2^i s mod 257 for s in CIRCULANT_257_S.
CIRCULANT_257_S = [6, 18, 35, 40, 57, 64, 69, 74, 79, 81, 86, 98, 103, 115, 120, 125]


@pytest.mark.parametrize(
    "name,p,distances",
    [("circulant_17_q4.txt", 17, [{1, 3}, {2, 6}, {4, 5}, {7, 8}]),
     ("circulant_257_q8.txt", 257,
      [{min(d, 257 - d) for d in (2**i * s % 257 for s in CIRCULANT_257_S)} for i in range(8)])],
    ids=["K17", "K257"],
)
def test_circulant_witness_files(name, p, distances):
    path = Path(__file__).parent / "data" / name
    c = read_colouring(path)
    assert colouring_to_text(c).encode() == path.read_bytes()
    assert c == colouring_from_classes(
        p, [[(u, v) for u in range(p) for v in range(u + 1, p) if min(v - u, p - v + u) in ds]
            for ds in distances])
    table = c.table.tolist()
    assert [table_girth_by_bfs(table, i) for i in range(c.q)] == [7] * c.q


# Builders hand their tables over unchecked; these pin the tables byte for
# byte to the index-array builders, and check that the validating
# constructor accepts every one.

# n at the mirror's 64-row tile edges (63 to 65, 127 to 129), and at a
# power-of-two row stride (512) and one past it
RANDOM_CORPUS = [(n, q) for n in (2, 3, 4, 5, 7, 16, 17, 33, 63, 64, 65, 127, 128, 129, 257,
                                  400, 512, 513)
                 for q in (1, 2, 11, 128, 129, 2**15)]


def _product_factors():
    incomplete = colouring_from_classes(6, [[(0, 1), (2, 3)], [(4, 5), (1, 2)]], validate=False)
    return [
        binary_colouring(1),
        binary_colouring(3),
        hamilton_colouring(2),
        random_colouring(5, 3, 1),
        incomplete,
        product_colouring(incomplete, binary_colouring(1)),
        EdgeColouring(1, 0, [[-1]]),
        EdgeColouring(1, 5, [[-1]]),
        random_colouring(4, 2**15, 2),
        random_colouring(3, 2**15 - 1, 3),
        random_colouring(3, 100, 4),  # with the next two, q1 + q2 = 128 and 129
        random_colouring(4, 28, 5),
        random_colouring(2, 29, 6),
    ]


def _product_pairs():
    factors = _product_factors()
    return [(a, b) for a in factors for b in factors if a.q + b.q <= 2**15]


@pytest.mark.parametrize("n,q", RANDOM_CORPUS)
def test_random_table_matches_triu_index_builder(n, q):
    seed = 7 * n + q
    want = random_table_by_triu_indices(n, q, seed)
    for c in (random_colouring(n, q, seed), EdgeColouring(n, q, want)):
        assert c.table.dtype == _width(q)
        assert np.array_equal(c.table, want)


def test_product_table_matches_index_builder():
    pairs = _product_pairs()
    # c1.q = 2^15 with a one-vertex c2: q1 does not fit int16; int8 factors
    # whose q1 + q2 is 128 (an int8 product) and 129 (an int16 one)
    assert any(a.q == 2**15 and b.n == 1 for a, b in pairs)
    assert {128, 129} <= {a.q + b.q for a, b in pairs if a.q < 128 and b.q < 128}
    assert any(not a.is_complete() for a, _ in pairs)
    assert any(not b.is_complete() for _, b in pairs)
    for a, b in pairs:
        c = product_colouring(a, b)
        assert (c.n, c.q, c.table.dtype) == (a.n * b.n, a.q + b.q, _width(a.q + b.q))
        assert np.array_equal(c.table, product_table_by_index(a, b))


@pytest.mark.parametrize("q", range(1, 13))
def test_binary_table_matches_lowest_differing_bit(q):
    table = binary_colouring(q).table
    assert table.dtype == np.int8
    assert np.array_equal(table, binary_table_by_bits(q))


def _every_builder():
    yield from (binary_colouring(q) for q in range(1, 13))
    yield from (random_colouring(n, q, n + q) for n, q in RANDOM_CORPUS)
    yield from (product_colouring(a, b) for a, b in _product_pairs())
    yield product_colouring(binary_colouring(9), hamilton_colouring(2))
    yield from (hamilton_colouring(m) for m in (1, 2, 5))
    yield colouring_from_classes(4, [[(0, 1)]], validate=False)
    c = binary_colouring(3)
    yield reduce_bipartite_colour(c, 0, check_bipartite(colour_class(c, 0)))[0]
    yield exhaustive_L(2, 4)[1]
    yield read_colouring(io.StringIO(colouring_to_text(random_colouring(9, 3, 0))))


def test_every_builders_table_passes_the_checks():
    for c in _every_builder():
        off = c.table[~np.eye(c.n, dtype=bool)]
        assert c.is_complete() == bool((off >= 0).all())
        assert not c.table.flags.writeable
        assert c.table.dtype == _width(c.q)
        assert EdgeColouring(c.n, c.q, c.table, validate=c.is_complete()) == c


@pytest.mark.parametrize("n", [3, 400, 2000])
@pytest.mark.parametrize("block", ["first", "middle", "last"])
@pytest.mark.parametrize("half", ["upper", "lower"])
def test_one_asymmetric_pair_rejected_in_any_row_block(n, block, half):
    blocks = colouring._row_blocks(n)
    u0, u1 = blocks[{"first": 0, "middle": len(blocks) // 2, "last": -1}[block]]
    u = (u0 + u1) // 2
    v = u + 1 + (n - u - 2) // 2
    table = random_colouring(n, 3, n).table.copy()
    assert EdgeColouring(n, 3, table) == random_colouring(n, 3, n)
    i, j = (u, v) if half == "upper" else (v, u)
    table[i, j] = (table[i, j] + 1) % 3
    with pytest.raises(InputError, match="symmetric"):
        EdgeColouring(n, 3, table)


@pytest.mark.parametrize("n", [3, 400, 2000])
@pytest.mark.parametrize("block", ["first", "middle", "last"])
def test_same_side_pair_found_in_any_row_block(n, block):
    # the bipartition check's one pass: only u and v are labelled, so the
    # one pair it may find lies in the chosen block's rows
    blocks = colouring._row_blocks(n)
    u0, u1 = blocks[{"first": 0, "middle": len(blocks) // 2, "last": -1}[block]]
    u = (u0 + u1) // 2
    v = u + 1 + (n - u - 2) // 2
    c = random_colouring(n, 3, n)
    i = c.colour_of(u, v)
    side = np.full(n, -1, dtype=np.int8)
    side[[u, v]] = 1
    assert colouring._joins_one_side(c, i, side)
    assert not colouring._joins_one_side(c, (i + 1) % 3, side)
    side[v] = 0
    assert not colouring._joins_one_side(c, i, side)


@pytest.mark.parametrize("seed", range(20))
def test_same_side_pair_matches_pair_scan(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    c = random_colouring(n, 2, seed) if n > 1 else EdgeColouring(1, 2, [[-1]])
    side = rng.integers(-1, 2, size=n).astype(np.int8)
    for i in range(2):
        want = any(c.colour_of(u, v) == i and side[u] == side[v] >= 0
                   for u in range(n) for v in range(u + 1, n))
        assert colouring._joins_one_side(c, i, side) == want


def test_completeness_counts_the_off_diagonal():
    assert EdgeColouring(1, 0, [[-1]]).is_complete()
    table = random_colouring(5, 2, 0).table.copy()
    table[1, 3] = table[3, 1] = -1
    with pytest.raises(InputError, match="every pair"):
        EdgeColouring(5, 2, table)
    assert not EdgeColouring(5, 2, table, validate=False).is_complete()


# tracemalloc caps, in bytes, on the table plus O(block) scratch; each entry
# makes its inputs outside the traced build. The n x n index arrays, masks
# and whole-table copies these replaced peaked near 125, 61, 188 and 20 MiB;
# with int16 tables the builds peaked near 15.0, 12.0, 33.7 and 12.0 MiB.
def _product_build():
    b9, c5 = binary_colouring(9), hamilton_colouring(2)
    return lambda: product_colouring(b9, c5)


def _check_build():
    table = random_colouring(2049, 11, 6).table.copy()
    return lambda: EdgeColouring(2049, 11, table)


def _completeness_check():
    c = random_colouring(2049, 11, 6)
    return c.is_complete


BUILD_CAPS = {
    "product binary9 x C5": (_product_build, 12 * 2**20),  # 6.25 MiB table
    # a 4 MiB table and its 4 MiB int16 draw
    "random n=2049": (lambda: lambda: random_colouring(2049, 11, 5), 11 * 2**20),
    "binary q=12": (lambda: lambda: binary_colouring(12), 24 * 2**20),  # 16 MiB table
    # a 4 MiB int8 copy; an n x n mask of the pairs left uncoloured made 8 MiB
    "check n=2049": (_check_build, 6 * 2**20),
    "is_complete n=2049": (_completeness_check, 2**20),  # the same mask made 4 MiB
}


@pytest.mark.parametrize("name", BUILD_CAPS)
def test_build_scratch_memory_bounded(name):
    make, cap = BUILD_CAPS[name]
    assert _peak_bytes(make()) < cap


def test_reduction_gathers_only_the_kept_side():
    # binary(12) minus colour 0 keeps 2048 of 4096 vertices: an 8 MiB table.
    # Gathering both sides' principal submatrices to check them peaked near
    # 28 MiB; the check is a pass over the table in row blocks
    c = binary_colouring(12)
    bip = check_bipartite(colour_class(c, 0))
    out = []
    peak = _peak_bytes(lambda: out.append(reduce_bipartite_colour(c, 0, bip)))
    reduced, kept = out[0]
    assert reduced.n == len(kept) == 2048
    assert peak <= reduced.table.nbytes + 2**20


def test_hamilton_build_memory_bounded():
    # K_1023: its edge lists and the validating constructor once made the
    # table several times over; the closed form writes it in place
    out = []
    peak = _peak_bytes(lambda: out.append(hamilton_colouring(511)))
    assert peak <= out[0].table.nbytes + 2**20


@pytest.mark.parametrize("seed", [0, 1])
def test_colour_class_memory_bounded(seed):
    # K_4097 in 12 random colours, one class: its 4097 row ints take about
    # 2.3 MiB. Comparing the whole table at once made a 16 MiB bool
    # temporary (peak near 22.3 MiB); one row block at a time peaks near
    # 2.4 MiB
    c = random_colouring(4097, 12, seed)
    out = []
    peak = _peak_bytes(lambda: out.append(colour_class(c, 5)))
    assert out[0].row_masks() == Graph(c.table == 5).row_masks()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("seed", [0, 1])
def test_base_oracle_memory_bounded(seed):
    # K_4097 in 12 random colours takes the base branch, and colour 0 closes
    # a triangle through vertex 0: reading vertex 0's colour-0 neighbours'
    # rows a block at a time peaks near 0.2 MiB, where packing the whole
    # 4097-row class of colour 0 peaked near 22.3 MiB
    c = random_colouring(4097, 12, seed)
    assert _peak_bytes(lambda: find_mono_odd_cycle(c)) < 2**20
