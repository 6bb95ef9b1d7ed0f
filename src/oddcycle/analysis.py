"""Exact small-case computation, heuristic extremal search, and the
experiment grid.

The grid and ``oddcycle gen``/``find`` share one run path:
``_build_colouring`` makes a colouring by generator name and ``_run_method``
runs a search by method name, the pipeline on ``PipelineParams`` with only
the keys its caller sets. A grid cell thus gets the command line's argument
checks, inside the ``try`` that turns its failure into an error row.

The small-case quantity is the worst colouring's best cycle: over all
q-colourings of K_n, maximize the minimum monochromatic odd cycle length.
Internally "no monochromatic odd cycle" is the sentinel n+1 so maximization
is total; the public value is None in that case. Both searches keep each
colour class as one row int per vertex, bit v of row u set iff {u, v} has
that colour, and build a colouring table only for the result.

Both searches also keep each colour's number of triangles, an odd girth
and the vertices of one shortest odd cycle in cycle order (its witness;
``()`` for a bipartite class), updated by the rules below instead of by
sweeping a class. One rule reads them: a girth is exact when it is 3 or its
colour keeps a witness, and a girth with witness None is a lower bound, at
least 5, of a class with no triangle. A class known only to have no
triangle (an empty annealing start class, one that lost its last triangle)
is set to min(5, n + 1): a bound, or exact with witness ``()`` at n <= 4,
where it is bipartite. Pairs join a class only by ``_add``; annealing
recolours by an *out of* step and ``_add``. The triangles through {u, v}
are its common neighbours, ``(rows[u] & rows[v]).bit_count()``, so adding
or removing it moves that many; a class has odd girth 3 exactly when its
count is > 0.

- *Into* colour c: an odd cycle through the new edge {u, v} is that edge
  plus an even u-v walk of the old class, and a closed odd walk contains an
  odd cycle no longer than itself. So the new odd girth is min(g_c, 1 + d),
  d the least even length of a u-v walk before the edge is added. A common
  neighbour is d = 2 and makes the girth exactly 3 at once. Otherwise
  d >= 4, so only a girth or bound above 5 can fall, and d is searched
  below it minus 1: the distance from u to v in the class's double cover (a
  copy of each vertex per walk parity), by the package's one BFS kernel. A
  walk found gives the exact girth 1 + d, so that walk closed by {u, v} is
  a simple cycle, the new witness (the walk's vertices mod n); none found
  leaves both as they were.
- *Out of* colour c: odd girth cannot fall when an edge goes, so no class
  is swept here. Girth 3 stays while the count is positive, a higher girth
  stays, and a witness holding both ends of {u, v} is dropped, leaving a
  bound. Those are the witnesses through the edge {u, v}: a chord of a
  witness would close a shorter odd cycle, which the *into* rule finds.
- *Reading the least girth* (``_least_girth``): while the least kept value
  is above 3, every bound equal to it gets one ``odd_girth`` sweep, which
  makes it exact with a witness, so the least value ends exact. A least
  value of 3 is exact at once, since every bound is at least 5: a class is
  swept only when it could set the minimum.

The annealing search makes all its draws through numpy's public API on one
``Generator``: the random init, if any, then per batch of ``_BATCH`` steps
one vectorised draw each of the steps' pairs, colour shifts and acceptance
coins. A batch bounds the draws' memory whatever the iteration count.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .colouring import (
    EdgeColouring,
    _from_pairs,
    _pair_colours,
    _seeded,
    _shown,
    binary_colouring,
    product_colouring,
    random_colouring,
)
from .errors import InputError, InternalInconsistency, PipelineAssertError
from .graph import Graph, _bfs, _scalar_id, _walk_back, odd_girth
from .pipeline import (
    LevelTrace,
    MonoOddCycle,
    PipelineParams,
    PipelineTrace,
    _oracle_result,
    find_mono_odd_cycle,
    min_colour_odd_cycle,
    proposition_pipeline,
)

ENUMERATION_GUARD = 2**24
_BATCH = 4096  # annealing steps whose draws are made at a time


def _sweep(rows):
    """Odd girth of the class on ``rows`` and the vertices of a shortest odd
    cycle, or (n + 1, ()) when the class is bipartite."""
    got = odd_girth(Graph._from_rows(rows, (1 << len(rows)) - 1))
    return (len(rows) + 1, ()) if got is None else (got[0], got[1].vertices)


def _even_walk(rows, u, v, below):
    """Vertices of the odd cycle {u, v} closes with a least even u-v walk
    shorter than ``below`` in the class on ``rows``, or None. The walk is the
    u-v path in the double cover (x + p*n is x at walk parity p), projected mod n."""
    n = len(rows)
    cover = [row << n for row in rows] + rows
    layers = []
    for layer, _ in itertools.islice(_bfs(cover, u), below):
        layers.append(layer)
        if layer >> v & 1:
            return tuple(x % n for x in _walk_back(cover, layers, v))
    return None


def _add(rows, girths, witnesses, triangles, u, v, c):
    """Add the pair {u, v} (u < v), of no colour yet, to colour c, keeping its
    odd girth (exact or a bound), witness and triangle count by the module's
    *into* rule. The one place a pair joins a class."""
    into = rows[c]
    common = (into[u] & into[v]).bit_count()
    if common:
        triangles[c] += common
        if girths[c] > 3:
            girths[c], witnesses[c] = 3, None
    elif girths[c] > 5:
        cycle = _even_walk(into, u, v, girths[c] - 1)
        if cycle is not None:
            girths[c], witnesses[c] = len(cycle), cycle
    into[u] ^= 1 << v
    into[v] ^= 1 << u


def _recolour(rows, girths, witnesses, triangles, u, v, old, new):
    """Move the pair {u, v} (u < v) from colour ``old`` to colour ``new``,
    keeping both colours' odd girths (exact or a bound), witnesses and
    triangle counts by the module's rules. It sweeps no class."""
    out_of = rows[old]
    out_of[u] ^= 1 << v
    out_of[v] ^= 1 << u
    if girths[old] == 3:
        triangles[old] -= (out_of[u] & out_of[v]).bit_count()
        if not triangles[old]:
            n = len(out_of)
            girths[old], witnesses[old] = min(5, n + 1), (None if n > 4 else ())
    elif witnesses[old] and u in witnesses[old] and v in witnesses[old]:
        witnesses[old] = None  # a witness has no chord: {u, v} was a cycle edge
    _add(rows, girths, witnesses, triangles, u, v, new)


def _least_girth(rows, girths, witnesses):
    """The exact least odd girth over the colours (n + 1 when every class is
    bipartite). Sweeps, and so makes exact, only the bounds (witness None)
    equal to the least kept value, until none is left; 3 returns at once."""
    least = min(girths)
    while least > 3:
        due = [c for c, w in enumerate(witnesses) if w is None and girths[c] == least]
        if not due:
            break
        for c in due:
            girths[c], witnesses[c] = _sweep(rows[c])
        least = min(girths)
    return least


def _draws(rng, pairs, q, steps):
    """Each of ``steps`` annealing steps' pair index in [0, pairs), colour
    shift in [1, q) and acceptance coin in [0, 1), drawn from ``rng``
    ``_BATCH`` steps at a time: per batch, all its pair indices, then all
    its shifts, then all its coins."""
    for first in range(0, steps, _BATCH):
        size = min(_BATCH, steps - first)
        picks = rng.integers(pairs, size=size).tolist()
        shifts = rng.integers(1, q, size=size).tolist()
        coins = rng.random(size).tolist()
        yield from zip(picks, shifts, coins)


def exhaustive_L(q, n):
    """Exact worst-colouring bound by branch and bound.

    Returns (value, witness): the largest over all q-colourings of K_n of
    the minimum monochromatic odd cycle length, and a colouring attaining
    it. value is None when some colouring has no monochromatic odd cycle at
    all (possible iff n <= 2^q). Colour-permutation symmetry is folded away
    by fixing the colour of the edge {0,1}; no further isomorphism pruning.

    A depth-first search adds the pairs by ``_add``, in ``itertools.product``
    order, to classes that start empty and exact at the sentinel (witness
    ``()``), so every girth stays exact; it skips each prefix whose
    least odd girth is not above the best value found. The witness is thus
    the first colouring in that order to reach the maximum.
    The guard still bounds the q^(pairs - 1) colourings it could reach.
    """
    q = _scalar_id(q, "q must be an integer")
    n = _scalar_id(n, "n must be an integer")
    if q < 1:
        raise InputError("need q >= 1")
    if n < 3:
        raise InputError("need n >= 3")
    n_edges = n * (n - 1) // 2
    # the most free pairs whose q^free colourings fit the guard, counted up
    if q == 1:
        free = ENUMERATION_GUARD  # one colouring: bound the pairs themselves
    else:
        free, power = 0, q
        while power <= ENUMERATION_GUARD:
            free, power = free + 1, power * q
    if n_edges - 1 > free:
        raise InputError(
            f"infeasible: would enumerate {_shown(q)}^{_shown(n_edges - 1)} colourings "
            f"of {_shown(n_edges)} pairs (guard 2^{ENUMERATION_GUARD.bit_length() - 1})"
        )
    if q == 1:  # the one colouring is K_n itself, whose odd girth is 3
        return 3, _from_pairs(n, q, np.zeros(n_edges, dtype=np.int16), f"exhaustive q=1 n={n}")
    edges = list(itertools.combinations(range(n), 2))
    sentinel = n + 1
    rows = [[0] * n for _ in range(q)]
    girths, witnesses, triangles = [sentinel] * q, [()] * q, [0] * q
    colours = [0] * n_edges
    best_val, best = -1, None

    def search(k):
        nonlocal best_val, best
        if k == n_edges:
            best_val, best = min(girths), tuple(colours)
            return
        u, v = edges[k]
        for c in range(q if k else 1):  # pair 0 keeps colour 0
            kept = girths[c], witnesses[c], triangles[c]
            _add(rows, girths, witnesses, triangles, u, v, c)
            if min(girths) > best_val:  # a pair added never raises a girth
                colours[k] = c
                search(k + 1)
            rows[c][u] ^= 1 << v
            rows[c][v] ^= 1 << u
            girths[c], witnesses[c], triangles[c] = kept
            if best_val == sentinel:
                return  # sentinel is the maximum possible

    search(0)
    witness = _from_pairs(n, q, best, f"exhaustive q={q} n={n}")
    return (None if best_val == sentinel else best_val), witness


def anneal_search(q, n, iterations, seed, init=None):
    """Simulated annealing over single-edge recolour moves, maximizing the
    minimum monochromatic odd cycle length (sentinel n+1 = none exists).

    Deterministic under a fixed seed. Returns (best objective, colouring).
    ``seed`` is anything ``np.random.default_rng`` takes (else an
    ``InputError``), and every draw comes from that one ``Generator``:
    first the random init, ``random_colouring(n, q, rng)``, unless ``init``
    (a complete ``EdgeColouring`` of K_n in q colours) replaces it; then, a
    batch of ``_BATCH`` steps at a time, the steps' pairs, colour shifts and
    acceptance coins (``_draws``). An int seed thus gives the same result as
    ``np.random.default_rng`` of it, and a ``Generator`` passed as seed ends
    after the last batch. With q = 1 no move exists, so none is drawn.
    """
    q = _scalar_id(q, "q must be an integer")
    n = _scalar_id(n, "n must be an integer")
    iterations = _scalar_id(iterations, "iterations must be an integer")
    if iterations < 1:
        raise InputError("need iterations >= 1")
    if q < 1 or n < 3:
        raise InputError("need q >= 1 and n >= 3")
    if init is not None and not isinstance(init, EdgeColouring):
        raise InputError(f"init must be an EdgeColouring, not {type(init).__name__}")
    rng, shown = _seeded(seed)
    start = init if init is not None else random_colouring(n, q, rng)
    if start.n != n or start.q != q:
        raise InputError("init colouring does not match (n, q)")
    if not start.is_complete():
        raise InputError("init colouring leaves pairs uncoloured")
    edges = list(itertools.combinations(range(n), 2))
    colours = _pair_colours(start).tolist()
    rows = [[0] * n for _ in range(q)]
    girths, witnesses, triangles = [min(5, n + 1)] * q, [None if n > 4 else ()] * q, [0] * q
    for (u, v), c in zip(edges, colours):
        _add(rows, girths, witnesses, triangles, u, v, c)
    objective = best_value = _least_girth(rows, girths, witnesses)
    best = colours.copy()
    t_hot, t_cold = 1.0, 0.05
    moves = _draws(rng, len(edges), q, iterations if q > 1 else 0)  # one colour: no move exists
    for step, (k, shift, coin) in enumerate(moves):
        temperature = t_hot * (t_cold / t_hot) ** (step / max(iterations - 1, 1))
        u, v = edges[k]
        old = colours[k]
        new = (old + shift) % q
        before = (girths[old], girths[new], witnesses[old], witnesses[new],
                  triangles[old], triangles[new])
        _recolour(rows, girths, witnesses, triangles, u, v, old, new)
        proposed = _least_girth(rows, girths, witnesses)
        delta = proposed - objective
        if delta >= 0 or coin < math.exp(delta / temperature):
            colours[k] = new
            objective = proposed
            if proposed > best_value:
                best_value = proposed
                best = colours.copy()
        else:
            for c in (old, new):
                rows[c][u] ^= 1 << v
                rows[c][v] ^= 1 << u
            (girths[old], girths[new], witnesses[old], witnesses[new],
             triangles[old], triangles[new]) = before
    return best_value, _from_pairs(n, q, best, f"anneal q={q} n={n} seed={shown}")


@dataclass
class ExperimentRow:
    q: int | None
    n: int
    seed: int | None
    method: str
    cycle_length: int | None = None
    bound_claimed: int | None = None
    branch: str = ""
    wall_time_ms: float | None = None
    error: str = ""

    def as_csv_row(self):
        return ["" if x is None else _shown(x) for x in astuple(self)]


CSV_COLUMNS = [f.name for f in fields(ExperimentRow)]


def _build_colouring(kind, q, n, seed, other):
    """The colouring of generator ``kind``: binary of K_{2^q}, random of K_n
    from an integer seed, or the product of binary(q) with ``other``."""
    if kind == "binary":
        return binary_colouring(q)
    if kind == "random":
        if n is None or seed is None:
            raise InputError("random generator needs n and seed")
        return random_colouring(n, q, _scalar_id(seed, "seed must be an integer"))
    if kind == "product":
        if other is None:
            raise InputError("product generator needs a second colouring")
        return product_colouring(binary_colouring(q), other)
    raise InputError(f"unknown generator {kind!r}")


def _run_method(colouring, method, params, delta):
    """Result of ``method`` on ``colouring``: the pipeline on
    ``PipelineParams(**params)``, the proposition at ``delta`` (1 when
    None), or the base branch's odd-girth oracle with its trace record."""
    if method == "pipeline":
        return find_mono_odd_cycle(colouring, PipelineParams(**params))
    if method == "proposition":
        return proposition_pipeline(colouring, 1 if delta is None else delta)
    if method == "oracle":
        lvl = LevelTrace(0, colouring.q, colouring.n, branch="base")
        cert, bound = _oracle_result(colouring, lvl, min_colour_odd_cycle(colouring))
        return MonoOddCycle(cert, bound, PipelineTrace([lvl]))
    raise InputError(f"unknown method {method!r}")


def experiment_table(config):
    """Run the configured grid and return ExperimentRows in grid order.

    config = {"timing": bool, "grid": [{generator, q, n?, seeds?, methods,
    delta?, eps?, C?, fallback?}, ...]}; InputError unless grid is a list of
    objects with list seeds and methods. With timing off (the default) the
    wall_time_ms column stays empty so output bytes are a pure function of
    the config. Failures, malformed cells too, become rows with the error
    column set.
    """
    grid = config.get("grid", []) if isinstance(config, dict) else None
    if not isinstance(grid, list) or not all(isinstance(cell, dict) for cell in grid):
        raise InputError("config must be an object whose grid is a list of objects")
    for cell in grid:
        if not isinstance(cell.get("seeds", []), list) or not isinstance(cell.get("methods", []), list):
            raise InputError("each grid cell's seeds and methods must be lists")
    timing = bool(config.get("timing", False))
    rows = []
    for cell in grid:
        params = {key: cell[key] for key in ("eps", "C", "fallback") if key in cell}
        seeds = cell.get("seeds", [None])
        methods = cell.get("methods", ["oracle"])
        for seed, method in itertools.product(seeds, methods):
            row = ExperimentRow(q=None, n=0, seed=seed, method=method)
            start = time.perf_counter()
            try:
                colouring = _build_colouring(cell.get("generator", "random"), cell.get("q"),
                                             cell.get("n"), seed, None)
                row.q, row.n = colouring.q, colouring.n
                result = _run_method(colouring, method, params, cell.get("delta"))
                row.cycle_length = result.certificate.length
                row.bound_claimed = result.bound_claimed
                row.branch = result.trace.last().branch
            except (InputError, InternalInconsistency, PipelineAssertError) as exc:
                row.error = f"{type(exc).__name__}: {exc}"
            if timing:
                row.wall_time_ms = round((time.perf_counter() - start) * 1000.0, 3)
            rows.append(row)
    return rows


def rows_to_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.as_csv_row())
    return buf.getvalue()
