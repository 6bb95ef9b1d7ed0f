import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import read_colouring_by_rows, write_colouring_by_entries

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
from oddcycle.colouring import colouring_to_text, write_colouring


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

    @pytest.mark.parametrize("n", [2**14 + 1, 10_000_000])
    def test_header_over_size_limit(self, n):
        with pytest.raises(ParseError) as err:
            read_colouring(io.StringIO(f"oddcycle-colouring v1\n{n} 3\n0 1 2\n"))
        assert err.value.line == 2

    @pytest.mark.parametrize("q", [2**15 + 1, 100_000])
    def test_header_over_colour_limit(self, q):
        with pytest.raises(ParseError) as err:
            read_colouring(io.StringIO(f"oddcycle-colouring v1\n2 {q}\n70000\n"))
        assert err.value.line == 2

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
    return c.n, c.q, c.table.tobytes()


ODD_TOKENS = ["x", "+1", "01", "-0", "\u0663", "1_0"]
EXTRA_LINES = ["", " ", "\t", "0", "1 2", "x"]


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
        ],
        ids=["double-space", "tab", "leading-space", "cr", "plus", "zero-padded",
             "arabic-digit", "not-a-number", "out-of-range", "past-int32", "entry-missing", "entry-extra"],
    )
    def test_damage_in_second_block(self, damage, monkeypatch):
        # n = 400 spans three blocks; row 200 lies in the second
        n, row = 400, 200
        blocks = colouring._row_blocks(n)
        assert len(blocks) >= 3 and blocks[1][0] <= row < blocks[1][1]
        lines = colouring_to_text(random_colouring(n, 1000, 5)).split("\n")
        lines[2 + row] = damage(lines[2 + row])
        text = "\n".join(lines)
        decoded = []
        parse_block = colouring._parse_block
        monkeypatch.setattr(colouring, "_parse_block",
                            lambda *args: decoded.append(parse_block(*args)) or decoded[-1])
        assert _outcome(read_colouring, text) == _outcome(read_colouring_by_rows, text)
        assert decoded == [True, False]  # rows from the damaged block on go row by row


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


@pytest.mark.parametrize("block,bounded", [(colouring._BLOCK, True), (1 << 30, False)],
                         ids=["blocked", "whole-body"])
def test_io_scratch_memory_bounded(block, bounded, monkeypatch):
    # n = 1025, q = 10: 1.05 MB of text, 2.1 MB of table. Over 2^16-entry
    # blocks reading peaks near 12.7 MB (the row-by-row reader: the same) and
    # writing near 1.7 MB; decoding or formatting the whole body at once peaks
    # near 28 MB and 14 MB
    monkeypatch.setattr(colouring, "_BLOCK", block)
    c = random_colouring(1025, 10, 3)
    text = colouring_to_text(c)
    read_peak = _peak_bytes(lambda: read_colouring(io.StringIO(text)))
    write_peak = _peak_bytes(lambda: write_colouring(c, io.StringIO()))
    assert (read_peak < 16e6, write_peak < 4e6) == (bounded, bounded)
