"""Exact small-case computation, heuristic extremal search, and the
experiment grid.

The small-case quantity is the worst colouring's best cycle: over all
q-colourings of K_n, maximize the minimum monochromatic odd cycle length.
Internally "no monochromatic odd cycle" is the sentinel n+1 so maximization
is total; the public value is None in that case. Both searches keep each
colour class as one row int per vertex, bit v of row u set iff {u, v} has
that colour; a recolour flips two bits in each of the two colours it
touches, and a colouring table is built only for the result.

Between recolours both searches also keep each colour's odd girth and the
edge set of one shortest odd cycle (its witness; None when unknown), and
update them by two exact rules instead of sweeping the two classes again:

- *Into* colour c: an odd cycle through the new edge {u, v} is that edge
  plus an even u-v walk of the old class, and a closed odd walk contains an
  odd cycle no longer than itself. So the new odd girth is min(g_c, 1 + d),
  d the least even length of a u-v walk before the edge is added. d is the
  distance from u to v in the class's double cover (a copy of each vertex
  per walk parity), found by the package's one BFS kernel and searched only
  below g_c - 1, so a girth-3 class needs no search. A lowered girth leaves
  the witness unknown.
- *Out of* colour c: odd girth cannot fall when an edge goes, and the
  witness still stands while it avoids {u, v}, so g_c stays. Otherwise
  (or when the witness is unknown) c gets one full ``odd_girth`` sweep,
  which also records a new witness.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .colouring import _from_pairs, _pair_colours, binary_colouring, random_colouring
from .errors import InputError, InternalInconsistency, NoMonochromaticOddCycle
from .graph import Graph, _bfs, _scalar_id, odd_girth
from .pipeline import (
    LevelTrace,
    MonoOddCycle,
    PipelineParams,
    PipelineTrace,
    find_mono_odd_cycle,
    min_colour_odd_cycle,
    proposition_pipeline,
)

ENUMERATION_GUARD = 2**24


def _class_rows(n, q, edges, colours):
    """rows[c][u] of each colour c: bit v set iff the pair {u, v} has colour c."""
    rows = [[0] * n for _ in range(q)]
    for (u, v), c in zip(edges, colours):
        rows[c][u] |= 1 << v
        rows[c][v] |= 1 << u
    return rows


def _sweep(rows):
    """Odd girth of the class on ``rows`` and the pairs (u < v) of a shortest
    odd cycle, or (n + 1, no pairs) when the class is bipartite."""
    got = odd_girth(Graph._from_rows(rows, (1 << len(rows)) - 1))
    if got is None:
        return len(rows) + 1, frozenset()
    cycle = got[1].vertices
    return got[0], frozenset((min(a, b), max(a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def _class_girths(rows):
    """Each colour's odd girth and witness pairs, as two lists."""
    girths, witnesses = zip(*map(_sweep, rows))
    return list(girths), list(witnesses)


def _even_walk(rows, u, v, below):
    """Least even length below ``below`` of a u-v walk in the class on
    ``rows``, or None: the distance from u to v in the class's double cover,
    where vertex x + p*n is x reached by a walk of parity p."""
    n = len(rows)
    cover = [row << n for row in rows] + rows
    for d, (layer, _) in enumerate(itertools.islice(_bfs(cover, u), below)):
        if layer >> v & 1:
            return d
    return None


def _recolour(rows, girths, witnesses, u, v, old, new):
    """Move the pair {u, v} (u < v) from colour ``old`` to colour ``new``,
    keeping both colours' odd girths and witnesses exact by the module's
    two rules."""
    bit_u, bit_v = 1 << u, 1 << v
    out_of, into = rows[old], rows[new]
    out_of[u] ^= bit_v
    out_of[v] ^= bit_u
    witness = witnesses[old]
    if witness is None or (u, v) in witness:
        girths[old], witnesses[old] = _sweep(out_of)
    if girths[new] > 3:
        d = _even_walk(into, u, v, girths[new] - 1)
        if d is not None:
            girths[new], witnesses[new] = d + 1, None
    into[u] ^= bit_v
    into[v] ^= bit_u


def _shown(x):
    """A size as quoted in a message: decimal up to 64 bits, else its bit
    length, so no huge int is formatted (``str`` refuses 4300+ digits)."""
    return str(x) if x.bit_length() <= 64 else f"({x.bit_length()}-bit number)"


def exhaustive_L(q, n):
    """Exact worst-colouring bound by enumeration.

    Returns (value, witness): the largest over all q-colourings of K_n of
    the minimum monochromatic odd cycle length, and a colouring attaining
    it. value is None when some colouring has no monochromatic odd cycle at
    all (possible iff n <= 2^q). Colour-permutation symmetry is folded away
    by fixing the colour of the edge {0,1}; no further isomorphism pruning.
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
    edges = list(itertools.combinations(range(n), 2))
    sentinel = n + 1
    colours = [0] * n_edges
    rows = _class_rows(n, q, edges, colours)
    girths, witnesses = _class_girths(rows)
    best_val, best = -1, None
    while True:
        val = min(girths)
        if val > best_val:
            best_val, best = val, tuple(colours)
            if best_val == sentinel:
                break  # sentinel is the maximum possible
        # the next colouring in itertools.product order, as an odometer: the
        # last pair's colour turns fastest, and pair 0 keeps colour 0
        k = n_edges - 1
        while k and colours[k] == q - 1:
            k -= 1
        if not k:
            break
        for j in range(k, n_edges):
            new = (colours[j] + 1) % q
            _recolour(rows, girths, witnesses, *edges[j], colours[j], new)
            colours[j] = new
    witness = _from_pairs(n, q, best, f"exhaustive q={q} n={n}")
    return (None if best_val == sentinel else best_val), witness


def anneal_search(q, n, iterations, seed, init=None):
    """Simulated annealing over single-edge recolour moves, maximizing the
    minimum monochromatic odd cycle length (sentinel n+1 = none exists).

    Deterministic under a fixed seed. Returns (best objective, colouring).
    """
    q = _scalar_id(q, "q must be an integer")
    n = _scalar_id(n, "n must be an integer")
    iterations = _scalar_id(iterations, "iterations must be an integer")
    if iterations < 1:
        raise InputError("need iterations >= 1")
    if q < 1 or n < 3:
        raise InputError("need q >= 1 and n >= 3")
    rng = np.random.default_rng(seed)
    start = init if init is not None else random_colouring(n, q, seed)
    if start.n != n or start.q != q:
        raise InputError("init colouring does not match (n, q)")
    if not start.is_complete():
        raise InputError("init colouring leaves pairs uncoloured")
    edges = list(itertools.combinations(range(n), 2))
    colours = _pair_colours(start).tolist()
    rows = _class_rows(n, q, edges, colours)
    girths, witnesses = _class_girths(rows)
    objective = best_value = min(girths)
    best = colours.copy()
    t_hot, t_cold = 1.0, 0.05
    for step in range(iterations if q > 1 else 0):  # one colour: no move exists
        temperature = t_hot * (t_cold / t_hot) ** (step / max(iterations - 1, 1))
        k = int(rng.integers(len(edges)))
        u, v = edges[k]
        old = colours[k]
        new = (old + int(rng.integers(1, q))) % q
        before = girths[old], girths[new], witnesses[old], witnesses[new]
        _recolour(rows, girths, witnesses, u, v, old, new)
        proposed = min(girths)
        delta = proposed - objective
        if delta >= 0 or rng.random() < math.exp(delta / temperature):
            colours[k] = new
            objective = proposed
            if proposed > best_value:
                best_value = proposed
                best = colours.copy()
        else:
            for c in (old, new):
                rows[c][u] ^= 1 << v
                rows[c][v] ^= 1 << u
            girths[old], girths[new], witnesses[old], witnesses[new] = before
    return best_value, _from_pairs(n, q, best, f"anneal q={q} n={n} seed={seed}")


@dataclass
class ExperimentRow:
    q: int
    n: int
    seed: int | None
    method: str
    cycle_length: int | None = None
    bound_claimed: int | None = None
    branch: str = ""
    wall_time_ms: float | None = None
    error: str = ""

    def as_csv_row(self):
        return ["" if x is None else str(x) for x in astuple(self)]


CSV_COLUMNS = [f.name for f in fields(ExperimentRow)]


def _build_colouring(spec):
    kind = spec.get("generator", "random")
    q = int(spec["q"])
    if kind == "binary":
        return binary_colouring(q)
    if kind == "random":
        return random_colouring(int(spec["n"]), q, spec.get("_seed"))
    raise InputError(f"unknown generator {kind!r}")


def _run_method(colouring, method, spec):
    if method == "oracle":
        best = min_colour_odd_cycle(colouring)
        if best is None:
            raise NoMonochromaticOddCycle("every colour class is bipartite")
        _, length, cert = best
        trace = PipelineTrace([LevelTrace(0, colouring.q, colouring.n, branch="base")])
        return MonoOddCycle(cert, colouring.n, trace)
    if method == "pipeline":
        params = PipelineParams(
            eps=float(spec.get("eps", 0.5)),
            C=float(spec.get("C", 4.0)),
            fallback=spec.get("fallback", "oracle"),
        )
        return find_mono_odd_cycle(colouring, params)
    if method == "proposition":
        return proposition_pipeline(colouring, spec.get("delta", 1))
    raise InputError(f"unknown method {method!r}")


def experiment_table(config):
    """Run the configured grid and return ExperimentRows in grid order.

    config = {"timing": bool, "grid": [{generator, q, n?, seeds?, methods,
    delta?, eps?, C?, fallback?}, ...]}. With timing off (the default) the
    wall_time_ms column stays empty so output bytes are a pure function of
    the config. Failures become rows with the error column set.
    """
    timing = bool(config.get("timing", False))
    rows = []
    for spec in config.get("grid", []):
        seeds = spec.get("seeds", [None])
        methods = spec.get("methods", ["oracle"])
        for seed in seeds:
            cell = dict(spec)
            cell["_seed"] = seed
            for method in methods:
                row = ExperimentRow(
                    q=int(spec["q"]), n=0, seed=seed, method=method
                )
                start = time.perf_counter()
                try:
                    colouring = _build_colouring(cell)
                    row.n = colouring.n
                    result = _run_method(colouring, method, cell)
                    row.cycle_length = result.certificate.length
                    row.bound_claimed = result.bound_claimed
                    row.branch = result.trace.last().branch
                except (InputError, InternalInconsistency) as exc:
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
