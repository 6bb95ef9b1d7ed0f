"""q-edge-colourings of complete graphs: construction, storage and I/O.

The table is kept as a full symmetric matrix with -1 on the diagonal, of
int8 while every colour fits one signed byte (q <= 128) and of int16 past
that (``_table_dtype``);
-1 off the diagonal marks an uncoloured pair and is only legal when the
colouring is built with ``validate=False`` (used to craft deliberately
corrupted inputs for the pipeline's self-check tests).

This module is the one home of that layout, of the pair order (the pairs
u < v row by row, which is ``itertools.combinations`` order and the file's)
and of the ``_BLOCK``-sized row blocks the table is walked in: every other
module reads a colouring through the functions here. A colour class is
built in those row blocks too: each block is compared with the colour into
one reused bool buffer and packed into row ints, so a class needs its rows
and one block of scratch, not an n x n temporary. ``certify`` alone
reads ``table`` itself, on purpose, so that the verifiers stay independent
of the producers.

A table is checked once, where it enters: ``EdgeColouring(...)`` checks one
from outside the package, symmetry a row block at a time. A builder here
hands its table, valid by construction, over unchecked through
``EdgeColouring._from_table``; ``colouring_from_classes`` validates, as its
edge lists come from outside.

File format (text, bit-exact):
    line 1:        ``oddcycle-colouring v1``
    line 2:        ``<n> <q>``
    lines 3..n+1:  line for u = 0..n-2 holds the colours of {u,u+1}..{u,n-1},
                   space-separated decimal integers.

Both directions work with numpy on one block of rows (about ``_BLOCK``
entries) at a time, so their scratch memory stays bounded whatever n is; a
block's pairs are picked by a view of one constant mask, not an index array.
The writer makes as many passes as the block's widest entry needs, so a
block of one-digit colours costs a digit pass and a separator pass. The
reader parses the header once, then reads the body in one loop over the row
blocks, each decoded from its own slice of the text, which is not split: a
block of one-digit colours (every block of a file with q <= 10) is found by
its length and checked in one pass, any other ends at its last row's newline
and is decoded entry by entry. The first block that is not canonical
(decimal colours of at most ``_MAX_DIGITS`` digits, one space apart, n-1-u
of them on row u) ends the loop: from its first row on, the text is split
into lines and parsed row by row with Python's ``int``. So what the reader
accepts (``+1``, ``01``, tabs, runs of spaces, a trailing ``\r``) and the
line number and message of every ``ParseError`` are the same as if every row
were parsed that way. A path is read as UTF-8; a byte that is not UTF-8 is a
``ParseError`` on its line.

Every table written from its upper half, by a reader or a builder, gets its
lower half from one mirror, ``_mirror``, in tiles of ``_TILE`` rows.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .errors import InputError, ParseError
from .graph import Graph, _pack_rows, _scalar_id

FORMAT_MAGIC = "oddcycle-colouring v1"

_MAX_N = (1 << 14) + 1  # largest n given a dense table, K_{2^14+1}: 256 MiB of int8
_MAX_Q = 1 << 15  # largest q whose colours [0, q) all fit an int16 table
_MAX_DIGITS = len(str(_MAX_Q - 1))
_BLOCK = 1 << 16  # table entries parsed or formatted per numpy step
_STEPS = np.repeat(np.array([False, True]), _MAX_N)  # every row of _upper's masks
_STEPS.setflags(write=False)
_TILE = 64  # rows per transposed copy of the mirror
_TILE_UPPER = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)  # pairs u < v of a tile
_TILE_UPPER.setflags(write=False)


def _table_dtype(q):
    """The dtype of a table of colours [0, q) and -1: int8, one byte per
    pair, while every colour fits (q <= 128), else int16."""
    return np.int8 if q <= 128 else np.int16


def _check_size(n):
    if n > _MAX_N:
        raise InputError(f"n={n} exceeds the dense-table limit of {_MAX_N} vertices")


def _check_colours(q):
    if q > _MAX_Q:
        raise InputError(f"q={q} exceeds the colour limit of {_MAX_Q}")


class EdgeColouring:
    """Assignment of a colour in [0,q) to every pair {u,v} of K_n."""

    def __init__(self, n, q, table, provenance=None, validate=True):
        n = _scalar_id(n, "vertex count n must be an integer")
        q = _scalar_id(q, "colour count q must be an integer")
        if n < 1:
            raise InputError("colouring needs at least one vertex")
        if q < 0:
            raise InputError("colour count must be >= 0")
        _check_colours(q)
        try:
            raw = np.asarray(table)
        except ValueError as exc:
            raise InputError(f"colour table is not a matrix: {exc}") from None
        if raw.dtype.kind not in "iu":
            raise InputError(f"colour table must hold integers, not {raw.dtype}")
        if raw.shape != (n, n):
            raise InputError(f"table shape {raw.shape} does not match n={n}")
        # checked before the cast, which would wrap an out-of-range value
        if raw.min() < -1 or raw.max() >= q:
            raise InputError(f"colours out of range [-1, {q})")
        tab = raw.astype(_table_dtype(q))
        for u0, u1 in _row_blocks(n):
            if not np.array_equal(tab[u0:u1, u0:], tab[u0:, u0:u1].T):
                raise InputError("colour table must be symmetric")
        if (tab.diagonal() != -1).any():
            raise InputError("table diagonal must be -1")
        if validate and _uncoloured(tab) > n:  # n of them on the diagonal
            raise InputError("every pair must carry a colour in [0, q)")
        self.n = n
        self.q = q
        self.table = tab
        self.table.setflags(write=False)
        self.provenance = provenance

    @classmethod
    def _from_table(cls, n, q, table, provenance=None):
        """Colouring on an n x n ``table`` of ``_table_dtype(q)`` taken as
        symmetric, -1 on the diagonal and every other entry in [0, q) (or
        -1, carried over from an incomplete source), unchecked; frozen in
        place."""
        c = cls.__new__(cls)
        c.n, c.q, c.table, c.provenance = n, q, table, provenance
        table.setflags(write=False)
        return c

    def colour_of(self, u, v):
        u, v = _scalar_id(u), _scalar_id(v)
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise InputError(f"({u},{v}) is not a vertex pair")
        return int(self.table[u, v])

    def is_complete(self):
        return _uncoloured(self.table) == self.n

    def __eq__(self, other):
        return (
            isinstance(other, EdgeColouring)
            and self.n == other.n
            and self.q == other.q
            and np.array_equal(self.table, other.table)
        )

    def __repr__(self):
        return f"EdgeColouring(n={self.n}, q={self.q})"


def _uncoloured(table):
    """The entries -1 of ``table``, its diagonal's too, counted a row block
    at a time, so no n x n mask is made."""
    n = len(table)
    return sum(np.count_nonzero(table[u0:u1] < 0) for u0, u1 in _row_blocks(n, n))


def binary_colouring(q):
    """All-bipartite colouring of K_{2^q}: the pair {u,v} gets the index of
    the lowest bit where u and v differ, so colour class i is complete
    bipartite between the bit-i=0 and bit-i=1 vertices.

    Tables are dense (n^2 entries, n = 2^q), so q is capped where n reaches
    the dense-table limit.
    """
    max_q = _MAX_N.bit_length() - 1
    q = _scalar_id(q, "q must be an integer")
    if not 1 <= q <= max_q:
        raise InputError(f"q must be in [1, {max_q}], got {q}")
    n = 1 << q
    ids = np.arange(n, dtype=np.int64)
    table = np.full((n, n), -1, dtype=_table_dtype(q))
    for u0, u1 in _row_blocks(n, n):
        diff = ids[u0:u1, None] ^ ids[None, :]
        off = diff != 0
        table[u0:u1][off] = np.log2((diff & -diff)[off]).astype(table.dtype)
    return EdgeColouring._from_table(n, q, table, provenance=f"binary q={q}")


def hamilton_colouring(m):
    """Complete colouring of K_{2m+1} whose m colour classes are Hamilton
    cycles (Walecki's zigzag decomposition, apex vertex 2m), so every class
    has odd girth 2m+1: class j is the cycle 2m, j, j+1, j-1, j+2, ..., j+m
    (mod 2m). In closed form, {u, v} with u, v < 2m gets ((u+v) mod 2m) // 2
    and {2m, v} gets v mod m, written a row block at a time."""
    max_m = (_MAX_N - 1) // 2
    m = _scalar_id(m, "m must be an integer")
    if not 1 <= m <= max_m:
        raise InputError(f"m must be in [1, {max_m}], got {m}")
    n, rim = 2 * m + 1, 2 * m
    ids = np.arange(rim, dtype=np.int16)  # u + v <= 4m - 2 fits int16 at max_m
    table = np.empty((n, n), dtype=_table_dtype(m))
    for u0, u1 in _row_blocks(n, rim):
        np.floor_divide((ids[u0:u1, None] + ids) % rim, 2, out=table[u0:u1, :rim])
    table[rim, :rim] = table[:rim, rim] = ids % m
    np.fill_diagonal(table, -1)
    return EdgeColouring._from_table(n, m, table)


def product_colouring(c1, c2):
    """Colouring of K_{n1*n2} on vertex pairs (a,b). Pairs with a != a' take
    c1's colour on {a,a'}; pairs with a == a' take q1 + c2's colour on {b,b'}."""
    n1, n2 = c1.n, c2.n
    n = n1 * n2
    _check_size(n)
    _check_colours(c1.q + c2.q)  # so the casts below cannot wrap
    dtype = _table_dtype(c1.q + c2.q)
    table = np.repeat(np.repeat(c1.table.astype(dtype, copy=False), n2, axis=0), n2, axis=1)
    t2 = c2.table.astype(np.int32)  # q1 is 2^15, past int16, when c2 has one vertex
    lifted = np.where(t2 >= 0, c1.q + t2, -1).astype(dtype)
    diag = np.arange(n1)
    table.reshape(n1, n2, n1, n2)[diag, :, diag, :] = lifted  # the n1 blocks a == a'
    provenance = f"product({c1.provenance or 'c1'}, {c2.provenance or 'c2'})"
    return EdgeColouring._from_table(n, c1.q + c2.q, table, provenance=provenance)


def random_colouring(n, q, seed):
    """Uniform independent colour per pair from a deterministic seeded stream."""
    n = _scalar_id(n, "vertex count n must be an integer")
    q = _scalar_id(q, "colour count q must be an integer")
    if n < 2:
        raise InputError("random colouring needs n >= 2")
    if q < 1:
        raise InputError("random colouring needs q >= 1")
    _check_size(n)
    _check_colours(q)
    rng, shown = _seeded(seed)
    # the table before the draw: a draw freed below the table would leave a
    # hole in the heap too small for the next table, raising peak RSS. The
    # draw is int16 whatever the table's width: numpy's stream depends on
    # the dtype drawn, so each seed keeps its colours
    table = np.full((n, n), -1, dtype=_table_dtype(q))
    _write_pairs(table, rng.integers(0, q, size=n * (n - 1) // 2, dtype=np.int16))
    return EdgeColouring._from_table(n, q, table, provenance=f"random n={n} q={q} seed={shown}")


def _seeded(seed):
    """``np.random.default_rng(seed)`` and the seed as a provenance names it.

    A ``BitGenerator`` is named by its class, since its repr holds an object
    address that differs between processes; any other seed as ``_shown``
    quotes it. A seed numpy refuses (a negative int, a float, a string) is
    an ``InputError``, and so is a bit generator, bare or in a
    ``Generator``, that is not one of numpy's own: numpy would crash the
    interpreter on its first draw.
    """
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid seed: {_clip(str(exc), 60)}") from None
    bits = rng.bit_generator
    # named here, not at import: numpy loads np.random on first access
    if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                             np.random.SFC64, np.random.MT19937)):
        raise InputError(f"seed's bit generator {type(bits).__name__} is not one of numpy's")
    return rng, type(seed).__name__ if isinstance(seed, np.random.BitGenerator) else _shown(seed)


def _shown(x):
    """``x`` as a message, a provenance or a table cell quotes it: an int
    past 64 bits by its bit length, so no huge int is formatted (``str``
    refuses 4300+ digits); any other value as it prints, or by its type
    when ``str`` refuses it (a list seed holding such an int)."""
    if isinstance(x, int) and x.bit_length() > 64:
        return f"({x.bit_length()}-bit number)"
    try:
        return str(x)
    except ValueError:
        return f"({type(x).__name__} holding a number too long to print)"


def _write_pairs(table, colours):
    """Write ``colours`` to both halves of ``table``, the pairs u < v listed
    row by row: the order of ``itertools.combinations(range(n), 2)``."""
    n = len(table)
    table[_upper(n, 0, n)] = colours
    _mirror(table, 0, n)


def _from_pairs(n, q, colours, provenance=None):
    """Colouring giving the pairs u < v the colours ``colours``, listed in
    ``_write_pairs``' order."""
    table = np.full((n, n), -1, dtype=_table_dtype(q))
    _write_pairs(table, colours)
    return EdgeColouring._from_table(n, q, table, provenance=provenance)


def _pair_colours(c):
    """The colours of the pairs u < v of c, in ``_write_pairs``' order."""
    return c.table[_upper(c.n, 0, c.n)]


def colouring_from_classes(n, classes, validate=True):
    """Build a colouring from explicit per-colour edge lists (q = len(classes)).

    Pairs not listed anywhere stay uncoloured (-1), which is rejected unless
    ``validate=False``; that switch exists to craft corrupted instances.
    """
    n = _scalar_id(n, "vertex count n must be an integer")
    _check_size(n)
    _check_colours(len(classes))
    table = np.full((n, n), -1, dtype=_table_dtype(len(classes)))
    for colour, edges in enumerate(classes):
        for u, v in edges:
            u, v = _scalar_id(u), _scalar_id(v)
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise InputError(f"bad pair ({u},{v})")
            if table[u, v] != -1:
                raise InputError(f"pair ({u},{v}) coloured twice")
            table[u, v] = table[v, u] = colour
    return EdgeColouring(n, len(classes), table, validate=validate)


def colour_class(c, i):
    """Graph on all n vertices whose edges are exactly the colour-i pairs.

    The table is compared with i and packed one row block at a time, in one
    bool buffer of a block's size, so no n x n temporary is made."""
    i = _scalar_id(i, "colour index must be an integer")
    if not 0 <= i < c.q:
        raise InputError(f"colour {_shown(i)} out of range [0, {c.q})")
    blocks = _row_blocks(c.n, c.n)
    buf = np.empty((blocks[0][1], c.n), dtype=bool)
    rows = []
    for u0, u1 in blocks:
        block = buf[: u1 - u0]
        np.equal(c.table[u0:u1], i, out=block)
        rows += _pack_rows(block)
    # packed unchecked: the table is symmetric with a -1 diagonal by invariant
    return Graph._from_rows(rows, (1 << c.n) - 1)


def _edge_near_0(c, i):
    """(v, u), v the lowest vertex of vertex 0's colour-i neighbourhood N
    with a colour-i neighbour in N and u the lowest such neighbour, or None.
    The triangle (v, 0, u) is the one the odd-girth sweep of colour class i
    closes in layer 1 of its BFS from vertex 0.

    Reads N's lowest vertex's row first, on its own and without gathering
    N's ids: on a dense class it nearly always closes the triangle. The
    other rows of N follow in blocks of ``max(1, _BLOCK // n)`` rows, and
    none is packed. A block's first hit in row-major order is its lowest v
    and that v's lowest u, so where the blocks start and end does not
    change the pair."""
    near = c.table[0] == i
    v = int(near.argmax())
    if not near[v]:
        return None
    inside = (c.table[v] == i) & near
    u = int(inside.argmax())
    if inside[u]:
        return v, u
    ids = np.flatnonzero(near)
    step = max(1, _BLOCK // c.n)
    for start in range(1, len(ids), step):
        inside = (c.table[ids[start : start + step]] == i) & near
        hit = int(inside.argmax())
        if inside.flat[hit]:
            r, u = divmod(hit, c.n)
            return int(ids[start + r]), u
    return None


def _joins_one_side(c, i, side):
    """Whether a colour-i pair {u, v} has side[u] == side[v] >= 0, ``side``
    one label per vertex (-1 for none): one pass over the pairs u < v in row
    blocks that gathers nothing."""
    cols = np.where(side < 0, -2, side)  # an unlabelled column matches no row
    return any(((c.table[u0:u1, u0:] == i) & (side[u0:u1, None] == cols[u0:])).any()
               for u0, u1 in _row_blocks(c.n))


def _without_colour(c, i, kept, provenance=None):
    """Colouring induced on the ids ``kept``, colour i dropped and the ones
    above it one lower; gathers the rows of ``kept`` a block at a time.
    Each block is relabelled before it is cut to the columns of ``kept``:
    ``np.take`` casts into the table unchecked, and a colour may fit the
    reduced table's dtype only once it is one lower."""
    table = np.empty((len(kept), len(kept)), dtype=_table_dtype(c.q - 1))
    for r0, r1 in _row_blocks(c.n, len(kept)):
        rows = c.table[kept[r0:r1]]
        np.subtract(rows, rows > i, out=rows)
        np.take(rows, kept, axis=1, out=table[r0:r1])
    return EdgeColouring._from_table(len(kept), c.q - 1, table, provenance=provenance)


def write_colouring(c, stream):
    """Write the exact text format; accepts a path or a text stream."""
    if isinstance(stream, (str, Path)):
        with open(stream, "w") as fh:
            write_colouring(c, fh)
        return
    stream.write(f"{FORMAT_MAGIC}\n")
    stream.write(f"{c.n} {c.q}\n")
    for u0, u1 in _row_blocks(c.n):
        stream.write(_format_block(c.table, u0, u1))


def _row_blocks(n, rows=None):
    """(u0, u1) ranges covering rows 0..rows-1 of a table n wide (by default
    the body rows 0..n-2), about _BLOCK entries each."""
    rows = n - 1 if rows is None else rows
    step = max(1, _BLOCK // n)
    return [(u0, min(u0 + step, rows)) for u0 in range(0, rows, step)]


def _upper(n, u0, u1):
    """Mask of rows u0..u1-1 of an n x n table selecting the pairs {u, v},
    u < v; row-major, it lists them in file order. A read-only view of
    ``_STEPS``, m False then m True: row u is the n-byte window at offset
    m-1-u."""
    m = len(_STEPS) // 2
    return np.ndarray((u1 - u0, n), bool, _STEPS, offset=m - 1 - u0, strides=(-1, 1))


def _mirror(table, u0, u1):
    """Copy the pairs u < v of rows u0..u1-1 of ``table`` to their entries
    (v, u), ``_TILE`` rows at a time: the columns of a tile's rows below it
    in one transposed copy, the tile's own triangle through a fixed mask.
    A tile's copy reads ``_TILE`` rows side by side, so it stays in cache
    whatever the table's row stride."""
    n = len(table)
    for t0 in range(u0, u1, _TILE):
        t1 = min(t0 + _TILE, u1)
        if t1 < n:  # an empty copy costs as much as a small table's mirror
            table[t1:, t0:t1] = table[t0:t1, t1:].T
        square = table[t0:t1, t0:t1]
        np.copyto(square.T, square, where=_TILE_UPPER[: t1 - t0, : t1 - t0])


def _format_block(table, u0, u1):
    """Body text of rows u0..u1-1: one fixed-width byte row per entry, digits
    right-aligned before its separator, packed into text with one gather.

    The passes follow what the block holds: one per digit of its largest
    magnitude, sign and width passes only where some entry is negative or
    narrower than the widest, so a block of one-digit colours takes a digit
    pass and a separator pass over its entries. Every power of ten a pass
    meets has at most as many digits as the block's largest magnitude, so
    it fits the table's dtype."""
    n = table.shape[0]
    values = table[u0:u1][_upper(n, u0, u1)]
    lo, hi = int(values.min()), int(values.max())
    top = len(str(max(hi, -lo)))  # digits of the largest magnitude
    w = max(len(str(hi)), len(str(lo)))  # the widest entry, its sign included
    mag = np.abs(values) if lo < 0 else values
    cells = np.empty((values.size, w + 1), dtype=np.uint8)
    for k in range(top):
        digit = mag // 10**k if k else mag
        cells[:, w - 1 - k] = (digit % 10 if k < top - 1 else digit) + ord("0")
    cells[:, w] = ord(" ")
    cells[np.cumsum(n - 1 - np.arange(u0, u1)) - 1, w] = ord("\n")
    if w > 1:  # entries narrower than w drop their leading cells
        width = np.ones(values.size, dtype=np.uint8)
        for k in range(1, top):
            width += mag >= 10**k
        if lo < 0:
            neg = values < 0
            width += neg
            cells[neg, w - width[neg]] = ord("-")
        if (width < w).any():
            cells = cells[np.arange(w + 1) >= (w - width)[:, None]]
    return cells.tobytes().decode("ascii")


def _decode_entries(buf, counts, q):
    """The colours of a canonical block of any widths, ``counts[i]`` on its
    i-th row, as an int32 array; None if the block is not canonical."""
    digit = buf - np.uint8(ord("0"))  # separators wrap to values above 9
    ends = np.flatnonzero(digit > 9)  # the separator after each entry
    width = np.diff(ends, prepend=-1) - 1
    sep = buf[ends]
    if (
        width.min() < 1  # a leading, trailing or doubled separator
        or width.max() > _MAX_DIGITS  # bounds the int32 decode and its passes
        or not ((sep == ord(" ")) | (sep == ord("\n"))).all()
        or not np.array_equal(np.diff(np.flatnonzero(sep == ord("\n")), prepend=-1), counts)
    ):
        return None
    ends -= 1  # each entry's last digit, then the k-th from the right where it has one
    values = digit[ends].astype(np.int32)
    for k in range(1, int(width.max())):
        ends -= 1
        values += np.where(width > k, digit[ends], 0) * np.int32(10**k)
    if values.max() >= q:
        return None
    return values


def colouring_to_text(c):
    buf = io.StringIO()
    write_colouring(c, buf)
    return buf.getvalue()


def read_colouring(stream):
    """Parse the text format; raises ParseError with a line number on damage.

    A path is read as UTF-8. The body is read a row block at a time, each
    from its own slice of the text (``_read_block``), up to the first block
    that is not canonical; from there the text is split into lines and
    parsed row by row (``_body_by_rows``)."""
    if isinstance(stream, (str, Path)):
        with open(stream, encoding="utf-8") as fh:
            return read_colouring(fh)
    text = _decoded(stream.read)
    n, q, at = _header(text)
    table, done = None, 0
    # e entries take >= 2e-1 characters, so a shorter body has a short or
    # missing row, which the row parser reports before any table is made: a
    # short or hollow file cannot make a small header ask for n^2 memory
    if len(text) - at >= (n - 1) ** 2:
        for u0, u1 in _row_blocks(n):
            got = _read_block(text, at, n, u0, u1, q)
            if got is None:
                break
            if table is None:  # made once a block decodes, else after the split
                table = np.full((n, n), -1, dtype=_table_dtype(q))
            table[u0:u1][_upper(n, u0, u1)], at = got
            _mirror(table, u0, u1)
            done = u1
            del got  # so no block's values live through the next one's scratch
    # the lines from row `done` on; with no row decoded, split from the text
    # itself, not a copy (and none at all if line 2 ends without a newline)
    lines = text.split("\n")[2:] if done == 0 else text[at:].split("\n")
    del text  # the lines hold the rows now
    table = _body_by_rows(lines, table, done, n, q)
    # every row held n-1-u colours in [0, q), written to both halves
    return EdgeColouring._from_table(n, q, table)


def _decoded(read):
    """``read()`` of a text stream, a byte its codec refuses raised as a
    ParseError on that byte's line, counted from where the read began."""
    try:
        return read()
    except UnicodeDecodeError as exc:
        before = exc.object[: exc.start].decode(exc.encoding, "replace")
        line = before.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        raise ParseError(f"byte {exc.object[exc.start]:#04x} is not {exc.encoding} text",
                         line=line) from None


def _header(text):
    """n, q and the offset of line 3 (the body), from the first two lines
    of ``text``, which is not split."""
    first = text.find("\n")
    if (text if first < 0 else text[:first]) != FORMAT_MAGIC:
        raise ParseError(f"expected header {FORMAT_MAGIC!r}", line=1)
    if first < 0:
        raise ParseError("missing dimension line", line=2)
    second = text.find("\n", first + 1)
    start = len(text) if second < 0 else second + 1
    parts = text[first + 1 : start].split()
    if len(parts) != 2:
        raise ParseError("dimension line must be '<n> <q>'", line=2)
    n = _dimension(parts[0], "n", f"the dense-table limit of {_MAX_N} vertices")
    q = _dimension(parts[1], "q", f"the colour limit of {_MAX_Q}")
    if n < 1 or q < 0:
        raise ParseError(f"bad dimensions n={n} q={q}", line=2)
    if n > _MAX_N:
        raise ParseError(f"n={n} exceeds the dense-table limit of {_MAX_N} vertices", line=2)
    if q > _MAX_Q:
        raise ParseError(f"q={q} exceeds the colour limit of {_MAX_Q}", line=2)
    return n, q, start


def _read_block(text, at, n, u0, u1, q):
    """The colours of body rows u0..u1-1 of an n-vertex file, which start at
    ``text[at]``, in file order, and the offset past them, if they are
    canonical and each ends in a newline; else None.

    A one-digit block's rows take exactly 2(n-1-u) characters. Each entry,
    digit and separator, is one little-endian uint16: 0x2030 + d before a
    space, 0x0A30 + d before a row's newline. Less 0x2030, and 0x1600 added
    back at the row ends, each entry is its digit; any other pair of bytes
    wraps to above 9, so one maximum below min(q, 10) checks the digits,
    the spaces and the newlines together. Any other block ends at the
    newline of its last row, each row scanned from its least length
    2(n-1-u)-1, and ``_decode_entries`` decodes it. A character that is not
    ASCII is encoded as "?", which no canonical block holds."""
    counts = n - 1 - np.arange(u0, u1)
    end = at + (u1 - u0) * (2 * n - 1 - u0 - u1)
    values = None
    if text[end - 1 : end] == "\n":
        block = np.frombuffer(text[at:end].encode("ascii", "replace"), dtype="<u2")
        entries = block - np.uint16(0x2030)
        entries[np.cumsum(counts) - 1] += np.uint16(0x1600)
        if entries.max() < min(q, 10):
            values = entries
    if values is None:
        end = at
        for count in counts:
            end = text.find("\n", end + 2 * count - 1) + 1
            if not end:
                return None
        block = np.frombuffer(text[at:end].encode("ascii", "replace"), dtype=np.uint8)
        values = _decode_entries(block, counts, q)
        if values is None:
            return None
    return values, end


def _body_by_rows(lines, table, u0, n, q):
    """Parse body rows u0..n-2, ``lines[0]`` being row u0, into ``table``
    one by one with Python's ``int``, check that the lines after them are
    blank, and return ``table``. Every row is first checked present and
    long enough for its entries, so a short or missing row is reported
    before a bad token in an earlier one. ``table`` is None when no row was
    decoded before (``u0`` is 0); it is made after that check."""
    for u in range(u0, n - 1):
        if u - u0 >= len(lines):
            raise ParseError(f"truncated table: missing row for vertex {u}", line=3 + u)
        if len(lines[u - u0]) < 2 * (n - 1 - u) - 1:
            raise ParseError(f"row for vertex {u} has {len(lines[u - u0].split())} entries, "
                             f"expected {n - 1 - u}", line=3 + u)
    if table is None:
        table = np.full((n, n), -1, dtype=_table_dtype(q))
    for u in range(u0, n - 1):
        lineno = 3 + u
        row = lines[u - u0].split()
        expected = n - 1 - u
        if len(row) != expected:
            raise ParseError(
                f"row for vertex {u} has {len(row)} entries, expected {expected}",
                line=lineno,
            )
        for off, tok in enumerate(row):
            try:
                val = int(tok)
            except ValueError:
                if _past_int_limit(tok):
                    raise ParseError(f"colour {_clip(tok)} out of range [0, {q})",
                                     line=lineno) from None
                raise ParseError(f"non-integer colour {_clip(tok)!r}", line=lineno) from None
            if not 0 <= val < q:
                raise ParseError(f"colour {_clip(str(val))} out of range [0, {q})", line=lineno)
            v = u + 1 + off
            table[u, v] = table[v, u] = val
    for idx, extra in enumerate(lines[n - 1 - u0 :]):
        if extra.strip():
            raise ParseError("unexpected trailing content", line=n + 2 + idx)
    return table


def _dimension(token, name, limit):
    """A header field as an int, else ParseError on line 2. Signed ASCII
    digits that ``int()`` refuses are past ``limit``, or negative."""
    try:
        return int(token)
    except ValueError:
        if not _past_int_limit(token):
            raise ParseError("dimensions must be integers", line=2) from None
        past = "is negative" if token[0] == "-" else f"exceeds {limit}"
        raise ParseError(f"{name}={_clip(token)} {past}", line=2) from None


def _past_int_limit(token):
    """Whether a token ``int()`` refused is signed ASCII digits, so an
    integer past ``int()``'s 4300-digit limit."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    return digits.isascii() and digits.isdigit()


def _clip(token, width=20):
    """A token as quoted in an error message: at most ``width`` characters."""
    return token if len(token) <= width else token[:width - 3] + "..."
