"""Exact small-case computation, heuristic extremal search, and the
experiment grid.

The small-case quantity is the worst colouring's best cycle: over all
q-colourings of K_n, maximize the minimum monochromatic odd cycle length.
Internally "no monochromatic odd cycle" is the sentinel n+1 so maximization
is total; the public value is None in that case. Both searches keep each
colour class as one row int per vertex, bit v of row u set iff {u, v} has
that colour; an annealing move flips two bits in each of the two colours it
touches, and a colouring table is built only for the result.
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
from .graph import Graph, odd_girth
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


def _girth(rows, sentinel):
    """Odd girth of the class on ``rows``, or ``sentinel`` when it is bipartite."""
    got = odd_girth(Graph._from_rows(rows, (1 << len(rows)) - 1))
    return sentinel if got is None else got[0]


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
    best_val, best = -1, None
    for rest in itertools.product(range(q), repeat=n_edges - 1):
        colours = (0,) + rest
        val = min(_girth(rows, sentinel) for rows in _class_rows(n, q, edges, colours))
        if val > best_val:
            best_val, best = val, colours
            if best_val == sentinel:
                break  # sentinel is the maximum possible
    witness = _from_pairs(n, q, best, f"exhaustive q={q} n={n}")
    return (None if best_val == sentinel else best_val), witness


def anneal_search(q, n, iterations, seed, init=None):
    """Simulated annealing over single-edge recolour moves, maximizing the
    minimum monochromatic odd cycle length (sentinel n+1 = none exists).

    Deterministic under a fixed seed. Returns (best objective, colouring).
    """
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
    sentinel = n + 1
    girths = [_girth(r, sentinel) for r in rows]
    objective = best_value = min(girths)
    best = colours.copy()
    t_hot, t_cold = 1.0, 0.05
    for step in range(iterations if q > 1 else 0):  # one colour: no move exists
        temperature = t_hot * (t_cold / t_hot) ** (step / max(iterations - 1, 1))
        k = int(rng.integers(len(edges)))
        u, v = edges[k]
        old = colours[k]
        new = (old + int(rng.integers(1, q))) % q
        before = girths[old], girths[new]
        for c in (old, new):
            rows[c][u] ^= 1 << v
            rows[c][v] ^= 1 << u
            girths[c] = _girth(rows[c], sentinel)
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
            girths[old], girths[new] = before
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
