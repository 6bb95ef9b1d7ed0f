"""Exact small-case computation, heuristic extremal search, and the
experiment grid.

The small-case quantity is the worst colouring's best cycle: over all
q-colourings of K_n, maximize the minimum monochromatic odd cycle length.
Internally "no monochromatic odd cycle" is the sentinel n+1 so maximization
is total; the public value is None in that case.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .colouring import EdgeColouring, _class_graph, binary_colouring, random_colouring
from .errors import InputError, InternalInconsistency, NoMonochromaticOddCycle
from .graph import odd_girth
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


def _objective(table, n, q):
    """min over colours of the odd girth, with n+1 for bipartite classes."""
    best = n + 1
    for i in range(q):
        got = odd_girth_of_class(table, i)
        if got is not None and got < best:
            best = got
    return best


def odd_girth_of_class(table, i):
    got = odd_girth(_class_graph(table, i))
    return None if got is None else got[0]


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
    count = q ** (n_edges - 1)
    if count > ENUMERATION_GUARD:
        raise InputError(
            f"infeasible: would enumerate {q}^{n_edges - 1} = {count} colourings "
            f"(guard {ENUMERATION_GUARD})"
        )
    edges = list(itertools.combinations(range(n), 2))
    best_val = -1
    best_table = None
    for rest in itertools.product(range(q), repeat=n_edges - 1):
        table = np.full((n, n), -1, dtype=np.int16)
        colours = (0,) + rest
        for (u, v), colour in zip(edges, colours):
            table[u, v] = table[v, u] = colour
        val = _objective(table, n, q)
        if val > best_val:
            best_val = val
            best_table = table
            if best_val == n + 1:
                break  # sentinel is the maximum possible
    witness = EdgeColouring(n, q, best_table, provenance=f"exhaustive q={q} n={n}")
    value = None if best_val == n + 1 else best_val
    return value, witness


@dataclass
class SearchState:
    """Annealing state; ``objective`` always matches recomputation from the
    table."""

    table: np.ndarray
    girths: list
    objective: int
    temperature: float = 1.0
    best_objective: int = 0
    best_table: np.ndarray | None = None


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
    table = np.array(start.table, dtype=np.int16)
    girths = [odd_girth_of_class(table, i) for i in range(q)]
    sentinel = n + 1
    values = [g if g is not None else sentinel for g in girths]
    state = SearchState(
        table=table,
        girths=values,
        objective=min(values),
        best_objective=min(values),
        best_table=table.copy(),
    )
    edges = list(itertools.combinations(range(n), 2))
    t_hot, t_cold = 1.0, 0.05
    for step in range(iterations):
        if q < 2:
            break  # no alternative colours to move to
        state.temperature = t_hot * (t_cold / t_hot) ** (step / max(iterations - 1, 1))
        u, v = edges[int(rng.integers(len(edges)))]
        old = int(state.table[u, v])
        shift = int(rng.integers(1, q))
        new = (old + shift) % q
        state.table[u, v] = state.table[v, u] = new
        changed = {}
        for i in (old, new):
            changed[i] = state.girths[i]
            got = odd_girth_of_class(state.table, i)
            state.girths[i] = got if got is not None else sentinel
        proposed = min(state.girths)
        delta = proposed - state.objective
        accept = delta >= 0 or rng.random() < math.exp(delta / state.temperature)
        if accept:
            state.objective = proposed
            if proposed > state.best_objective:
                state.best_objective = proposed
                state.best_table = state.table.copy()
        else:
            state.table[u, v] = state.table[v, u] = old
            for i, g in changed.items():
                state.girths[i] = g
    best = EdgeColouring(
        n, q, state.best_table, provenance=f"anneal q={q} n={n} seed={seed}"
    )
    return state.best_objective, best


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
        return binary_colouring(q), 1 << q, None
    if kind == "random":
        n = int(spec["n"])
        seed = spec.get("_seed")
        return random_colouring(n, q, seed), n, seed
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
                    colouring, n, _ = _build_colouring(cell)
                    row.n = n
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
