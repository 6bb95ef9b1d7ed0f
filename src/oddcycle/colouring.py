"""q-edge-colourings of complete graphs: construction, storage and I/O.

The table is kept as a full symmetric integer matrix with -1 on the diagonal;
-1 off the diagonal marks an uncoloured pair and is only legal when the
colouring is built with ``validate=False`` (used to craft deliberately
corrupted inputs for the pipeline's self-check tests).

File format (text, bit-exact):
    line 1:        ``oddcycle-colouring v1``
    line 2:        ``<n> <q>``
    lines 3..n+1:  line for u = 0..n-2 holds the colours of {u,u+1}..{u,n-1},
                   space-separated decimal integers.

Both directions work with numpy on one block of rows (about ``_BLOCK``
entries) at a time, so their scratch memory stays bounded whatever n is. The
reader decodes a block that is canonical: decimal colours of at most
``_MAX_DIGITS`` digits, one space apart, n-1-u of them on row u. From the
first block that is not, it parses row by row with Python's ``int``, so what
it accepts (``+1``, ``01``, tabs, runs of spaces, a trailing ``\r``) and the
line number and message of every ``ParseError`` are the same as if every row
were parsed that way.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .errors import InputError, ParseError
from .graph import Graph, _pack_rows

FORMAT_MAGIC = "oddcycle-colouring v1"

_MAX_N = 1 << 14  # largest n given a dense table: 512 MiB of int16 entries
_MAX_Q = 1 << 15  # largest q whose colours [0, q) all fit the int16 table
_MAX_DIGITS = len(str(_MAX_Q - 1))
_BLOCK = 1 << 16  # table entries parsed or formatted per numpy step


def _check_size(n):
    if n > _MAX_N:
        raise InputError(f"n={n} exceeds the dense-table limit of {_MAX_N} vertices")


def _check_colours(q):
    if q > _MAX_Q:
        raise InputError(f"q={q} exceeds the colour limit of {_MAX_Q}")


class EdgeColouring:
    """Assignment of a colour in [0,q) to every pair {u,v} of K_n."""

    def __init__(self, n, q, table, provenance=None, validate=True):
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
        # checked before the int16 cast, which would wrap an out-of-range value
        if raw.min() < -1 or raw.max() >= q:
            raise InputError(f"colours out of range [-1, {q})")
        tab = raw.astype(np.int16)
        if not np.array_equal(tab, tab.T):
            raise InputError("colour table must be symmetric")
        if (tab.diagonal() != -1).any():
            raise InputError("table diagonal must be -1")
        off = tab[~np.eye(n, dtype=bool)]
        if validate and off.size and off.min() < 0:
            raise InputError("every pair must carry a colour in [0, q)")
        self.n = n
        self.q = q
        self.table = tab
        self.table.setflags(write=False)
        self.provenance = provenance

    def colour_of(self, u, v):
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise InputError(f"({u},{v}) is not a vertex pair")
        return int(self.table[u, v])

    def is_complete(self):
        off = self.table[~np.eye(self.n, dtype=bool)]
        return bool(off.size == 0 or off.min() >= 0)

    def __eq__(self, other):
        return (
            isinstance(other, EdgeColouring)
            and self.n == other.n
            and self.q == other.q
            and np.array_equal(self.table, other.table)
        )

    def __repr__(self):
        return f"EdgeColouring(n={self.n}, q={self.q})"


def binary_colouring(q):
    """All-bipartite colouring of K_{2^q}: the pair {u,v} gets the index of
    the lowest bit where u and v differ, so colour class i is complete
    bipartite between the bit-i=0 and bit-i=1 vertices.

    Tables are dense (n^2 entries, n = 2^q), so q is capped where n reaches
    the dense-table limit.
    """
    max_q = _MAX_N.bit_length() - 1
    if not 1 <= q <= max_q:
        raise InputError(f"q must be in [1, {max_q}], got {q}")
    n = 1 << q
    ids = np.arange(n, dtype=np.int64)
    table = np.full((n, n), -1, dtype=np.int16)
    block = max(1, (1 << 22) // n)  # bound the XOR intermediates, n=2^13 is fine
    for start in range(0, n, block):
        diff = ids[start : start + block, None] ^ ids[None, :]
        low = diff & -diff
        rows = np.full(diff.shape, -1, dtype=np.int16)
        off = diff != 0
        rows[off] = np.log2(low[off]).astype(np.int16)
        table[start : start + block] = rows
    return EdgeColouring(n, q, table, provenance=f"binary q={q}")


def product_colouring(c1, c2):
    """Colouring of K_{n1*n2} on vertex pairs (a,b). Pairs with a != a' take
    c1's colour on {a,a'}; pairs with a == a' take q1 + c2's colour on {b,b'}."""
    n1, n2 = c1.n, c2.n
    n = n1 * n2
    _check_size(n)
    _check_colours(c1.q + c2.q)  # so the int16 cast below cannot wrap
    a = np.repeat(np.arange(n1), n2)
    b = np.tile(np.arange(n2), n1)
    t1 = c1.table[np.ix_(a, a)].astype(np.int32)
    t2 = c2.table[np.ix_(b, b)].astype(np.int32)
    same_a = a[:, None] == a[None, :]
    lifted = np.where(t2 >= 0, c1.q + t2, -1)
    table = np.where(same_a, lifted, t1).astype(np.int16)
    return EdgeColouring(
        n,
        c1.q + c2.q,
        table,
        provenance=f"product({c1.provenance or 'c1'}, {c2.provenance or 'c2'})",
        validate=c1.is_complete() and c2.is_complete(),
    )


def random_colouring(n, q, seed):
    """Uniform independent colour per pair from a deterministic seeded stream."""
    if n < 2:
        raise InputError("random colouring needs n >= 2")
    if q < 1:
        raise InputError("random colouring needs q >= 1")
    _check_size(n)
    _check_colours(q)
    rng = np.random.default_rng(seed)
    table = np.full((n, n), -1, dtype=np.int16)
    iu = np.triu_indices(n, 1)
    table[iu] = rng.integers(0, q, size=iu[0].size, dtype=np.int16)
    table.T[iu] = table[iu]
    return EdgeColouring(n, q, table, provenance=f"random n={n} q={q} seed={seed}")


def colouring_from_classes(n, classes, validate=True):
    """Build a colouring from explicit per-colour edge lists (q = len(classes)).

    Pairs not listed anywhere stay uncoloured (-1), which is rejected unless
    ``validate=False``; that switch exists to craft corrupted instances.
    """
    _check_size(n)
    _check_colours(len(classes))
    table = np.full((n, n), -1, dtype=np.int16)
    for colour, edges in enumerate(classes):
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise InputError(f"bad pair ({u},{v})")
            if table[u, v] != -1:
                raise InputError(f"pair ({u},{v}) coloured twice")
            table[u, v] = table[v, u] = colour
    return EdgeColouring(n, len(classes), table, validate=validate)


def colour_class(c, i):
    """Graph on all n vertices whose edges are exactly the colour-i pairs."""
    if not 0 <= i < c.q:
        raise InputError(f"colour {i} out of range [0, {c.q})")
    # symmetric with a -1 diagonal by the EdgeColouring invariant: no re-check
    return Graph._from_rows(_pack_rows(c.table == i), (1 << c.n) - 1)


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


def _row_blocks(n):
    """(u0, u1) ranges covering body rows 0..n-2, about _BLOCK entries each."""
    step = max(1, _BLOCK // n)
    return [(u0, min(u0 + step, n - 1)) for u0 in range(0, n - 1, step)]


def _upper(n, u0, u1):
    """Mask of rows u0..u1-1 of an n x n table selecting the pairs {u, v},
    u < v; row-major, it lists them in file order."""
    return np.arange(n) > np.arange(u0, u1)[:, None]


def _format_block(table, u0, u1):
    """Body text of rows u0..u1-1: one fixed-width byte row per entry, digits
    right-aligned before its separator, packed into text with one gather."""
    n = table.shape[0]
    values = table[u0:u1][_upper(n, u0, u1)].astype(np.int32)
    mag = np.abs(values)
    neg = values < 0
    digits = np.ones(values.size, dtype=np.int32)
    for k in range(1, _MAX_DIGITS):
        digits += mag >= 10**k
    width = digits + neg
    w = int(width.max())
    cells = np.empty((values.size, w + 1), dtype=np.uint8)
    for k in range(int(digits.max())):
        cells[:, w - 1 - k] = ord("0") + mag // 10**k % 10
    cells[neg, (w - width)[neg]] = ord("-")
    cells[:, w] = ord(" ")
    cells[np.cumsum(n - 1 - np.arange(u0, u1)) - 1, w] = ord("\n")
    if (width < w).any():
        cells = cells[np.arange(w + 1) >= (w - width)[:, None]]
    return cells.tobytes().decode("ascii")


def _parse_block(table, lines, u0, q):
    """Decode body rows u0.. (``lines``) into ``table`` when every one is
    canonical: only digits and single spaces, n-1-u colours on row u, each
    below q in at most _MAX_DIGITS digits. Returns False, writing nothing,
    otherwise."""
    text = "\n".join(lines) + "\n"
    if not text.isascii():
        return False
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    digit = buf - np.uint8(ord("0"))  # separators wrap to values above 9
    ends = np.flatnonzero(digit > 9)  # the separator after each entry
    starts = np.concatenate(([0], ends[:-1] + 1))
    width = ends - starts
    sep = buf[ends]
    n = table.shape[0]
    u1 = u0 + len(lines)
    if (
        width.min() < 1  # a leading, trailing or doubled separator
        or width.max() > _MAX_DIGITS  # bounds the int32 decode and its passes
        or not ((sep == ord(" ")) | (sep == ord("\n"))).all()
        or not np.array_equal(np.diff(np.flatnonzero(sep == ord("\n")), prepend=-1),
                              n - 1 - np.arange(u0, u1))
    ):
        return False
    values = digit[starts].astype(np.int32)
    for k in range(1, int(width.max())):
        more = width > k
        values[more] = values[more] * 10 + digit[starts[more] + k]
    if values.max() >= q:
        return False
    rows = table[u0:u1]
    rows[_upper(n, u0, u1)] = values
    # mirror: columns u0..u1-1 below the diagonal are still -1
    table[u0:, u0:u1] = np.maximum(table[u0:, u0:u1], rows[:, u0:].T)
    return True


def colouring_to_text(c):
    buf = io.StringIO()
    write_colouring(c, buf)
    return buf.getvalue()


def read_colouring(stream):
    """Parse the text format; raises ParseError with a line number on damage."""
    if isinstance(stream, (str, Path)):
        with open(stream, "r") as fh:
            return read_colouring(fh)
    lines = stream.read().split("\n")
    if not lines or lines[0] != FORMAT_MAGIC:
        raise ParseError(f"expected header {FORMAT_MAGIC!r}", line=1)
    if len(lines) < 2:
        raise ParseError("missing dimension line", line=2)
    parts = lines[1].split()
    if len(parts) != 2:
        raise ParseError("dimension line must be '<n> <q>'", line=2)
    try:
        n, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("dimensions must be integers", line=2) from None
    if n < 1 or q < 0:
        raise ParseError(f"bad dimensions n={n} q={q}", line=2)
    if n > _MAX_N:
        raise ParseError(f"n={n} exceeds the dense-table limit of {_MAX_N} vertices", line=2)
    if q > _MAX_Q:
        raise ParseError(f"q={q} exceeds the colour limit of {_MAX_Q}", line=2)
    # Every row must be present, and long enough for its entries (e entries
    # take >= 2e-1 characters), before the n x n table is allocated: a short
    # or hollow file cannot make a small header ask for n^2 memory.
    for u in range(n - 1):
        if 2 + u >= len(lines):
            raise ParseError(f"truncated table: missing row for vertex {u}", line=3 + u)
        if len(lines[2 + u]) < 2 * (n - 1 - u) - 1:
            raise ParseError(f"row for vertex {u} has {len(lines[2 + u].split())} entries, "
                             f"expected {n - 1 - u}", line=3 + u)
    table = np.full((n, n), -1, dtype=np.int16)
    done = 0
    for u0, u1 in _row_blocks(n):
        if not _parse_block(table, lines[2 + u0 : 2 + u1], u0, q):
            break
        done = u1
    for u in range(done, n - 1):  # from the first block that is not canonical
        lineno = 3 + u
        row = lines[lineno - 1].split()
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
                raise ParseError(f"non-integer colour {tok!r}", line=lineno) from None
            if not 0 <= val < q:
                raise ParseError(f"colour {val} out of range [0, {q})", line=lineno)
            v = u + 1 + off
            table[u, v] = table[v, u] = val
    for idx, extra in enumerate(lines[n + 1 :]):
        if extra.strip():
            raise ParseError("unexpected trailing content", line=n + 2 + idx)
    return EdgeColouring(n, q, table)
