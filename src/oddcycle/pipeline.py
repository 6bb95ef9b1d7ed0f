"""End-to-end search for short monochromatic odd cycles in complete
edge-coloured graphs, composed from the certified primitives.

``find_mono_odd_cycle`` runs the recursive analysis:

  (1) base: when the target bound C*2^q/q^(1-eps) already exceeds n (or
      q <= 2), return the overall shortest monochromatic odd cycle from the
      per-colour odd-girth oracle.
  (2) bipartite reduction: a bipartite colour class lets us recurse on its
      larger side with that colour dropped. Classes are built as the test
      reaches them, so the first bipartite colour ends the level before
      the later classes are built.
  (3) short-cycle probe: peel each colour with budget k; any parity conflict
      or any colour of odd girth <= 2k+1 ends the run. The odd girth is
      swept over one vertex per twin class (vertices with equal rows):
      twins are non-adjacent, so mapping each vertex to its lowest twin is
      a homomorphism onto that induced subgraph, which therefore has the
      same odd girth, and its witness is a cycle of the class itself.
  (4) otherwise every peel decomposed; pool the deleted sets. Each side of
      a residual (class minus the pooled set) is that side of every ball of
      the colour's peel, minus the pooled set: a ball left the peel with its
      whole boundary, so no class edge joins two balls, and peel checked
      each layer for an inner edge before the layer joined its ball.
  (5) per colour, split the residual components, int masks, at the
      small-size threshold; the union of the big ones is one mask.
  (6) if some colour carries few small-component vertices, shorten a seed
      cycle of that colour against the balls that meet its big components.
  (7) else run the derandomized complement selector over the residual sides
      within big components. A small component holds at most threshold
      vertices, so with more than q*threshold survivors the lowest one shares
      none with some other survivor; that pair cannot exist in a complete
      colouring, and the branch raises InternalInconsistency with the witness
      edge. Otherwise it records its failed assert (and optionally answers
      with step (3)'s shortest colour, as the oracle would).

``proposition_pipeline`` is the wider-graph variant: one peel per colour
with k = ceil(2q(q+1)/delta), pooled as in (4), and a signature/pigeonhole
self-check on the residual sides should every peel decompose.

Every certificate these functions return passes the certify module; traces
record per-level branch, parameters, observed sizes and failed asserts.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .colouring import _edge_near_0, _joins_one_side, _shown, _without_colour, colour_class
from .errors import (
    InputError,
    InternalInconsistency,
    NoMonochromaticOddCycle,
    PipelineAssertError,
)
from .graph import (
    Bipartition,
    Graph,
    OddCycleCertificate,
    _component_masks,
    _dense_ids,
    _integer_ids,
    _real,
    _scalar_id,
    _twin_free,
    check_bipartite,
    odd_girth,
)
from .peeling import ShortCycle, peel
from .selector import SelectorInstance, select_complement
from .shortening import shorten_cycle


def default_k_rule(q):
    return 8 * q**3


def default_small_threshold_rule(q):
    return 4 * q**10


@dataclass
class PipelineParams:
    """Tunable constants of the analysis.

    The defaults reproduce the asymptotic argument (k = 8q^3, threshold
    4q^10, C large). Desk-scale n never reaches branches (4)-(7) under those
    defaults since 2k+1 exceeds n; the rules exist so tests can force every
    branch with small overrides.
    """

    eps: float = 0.5
    C: float = 4.0
    k_of_q: Callable = default_k_rule
    small_threshold_of_q: Callable = default_small_threshold_rule
    fallback: str = "oracle"  # "oracle" | "fail"

    def __post_init__(self):
        if not 0 < _real(self.eps, "eps") < 1:
            raise InputError(f"eps must lie in (0,1), got {self.eps}")
        if not 0 < _real(self.C, "C") <= sys.float_info.max:  # the base test divides C as a float
            raise InputError(f"C must be finite and positive, got {self.C}")
        if self.fallback not in ("oracle", "fail"):
            raise InputError(f"fallback must be 'oracle' or 'fail', got {self.fallback!r}")
        for name in ("k_of_q", "small_threshold_of_q"):
            if not callable(getattr(self, name)):
                raise InputError(f"{name} must be callable, not {type(getattr(self, name)).__name__}")


# the defaults, built once: nothing in the package assigns to a params field
_DEFAULT_PARAMS = PipelineParams()


@dataclass
class LevelTrace:
    """Observed values at one recursion level."""

    level: int
    q: int
    n: int
    branch: str = ""
    params: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)
    asserts_failed: list = field(default_factory=list)
    fallback_used: bool = False
    bound_claimed: int | None = None

    def to_record(self):
        return asdict(self)


@dataclass
class PipelineTrace:
    levels: list = field(default_factory=list)

    def append(self, level):
        self.levels.append(level)

    def last(self):
        return self.levels[-1]

    def to_json_lines(self):
        return "".join(json.dumps(lv.to_record(), sort_keys=True) + "\n" for lv in self.levels)


@dataclass
class MonoOddCycle:
    """A verified-shape result: certificate, the bound claimed for it, and
    the trace of the run that produced it."""

    certificate: OddCycleCertificate
    bound_claimed: int | None
    trace: PipelineTrace


def min_colour_odd_cycle(c):
    """Per-colour odd-girth oracle: (colour, length, certificate) of the
    overall shortest monochromatic odd cycle, or None when every colour
    class is bipartite.

    Colour i is first tried by ``colouring._edge_near_0``, which reads only
    the table rows of vertex 0's colour-i neighbours. Vertex 0 is the first
    root of the full class's sweep, and a conflict in its layer 1 ends that
    sweep (no odd cycle is shorter than 3), so the triangle (v, 0, u) on the
    pair (v, u) it returns is the full sweep's own certificate. When there
    is none, colour i gets the full sweep before colour i+1 is tried.
    """
    best = None
    for i in range(c.q):
        edge = _edge_near_0(c, i)
        got = (odd_girth(colour_class(c, i)) if edge is None
               else (3, OddCycleCertificate(vertices=(edge[0], 0, edge[1]))))
        if got is None:
            continue
        length, cert = got
        if best is None or length < best[1]:
            best = (i, length, cert.with_colour(i))
            if length == 3:  # no odd cycle is shorter
                break
    return best


def _peel_all(c, classes, k, lvl):
    """Peel the colour classes of c in order with budget k, building each one
    missing from ``classes`` when reached. Returns the first parity conflict,
    recorded in ``lvl``, as ``(cycle, None, None)``; else ``(None,
    decompositions, removed)``, the pooled deleted set an int mask."""
    decompositions = []
    removed = 0
    for i in range(c.q):
        if i == len(classes):
            classes.append(colour_class(c, i))
        outcome = peel(classes[i], k)
        if isinstance(outcome, ShortCycle):
            lvl.branch = "short-cycle"
            lvl.sizes["colour"] = i
            lvl.bound_claimed = 2 * k + 1
            return outcome.cycle.with_colour(i), None, None
        decompositions.append(outcome)
        removed |= outcome.removed_mask
    return None, decompositions, removed


def _residual_sides(g, decomposition, removed, i, lvl):
    """Both sides, as int masks, of the two-colouring of colour class g minus
    the pooled deleted set (an int mask), read off its peel (module docstring,
    step 4): each side is the OR of that side of every ball, minus the pooled
    set. A side holding an edge of g is InternalInconsistency, found by a
    row-mask check, not a BFS."""
    sides = [0, 0]
    for comp in decomposition.components:
        sides[0] |= comp.side0
        sides[1] |= comp.side1
    sides = [side & ~removed for side in sides]
    rows = g.row_masks()
    for side in sides:
        for v in _dense_ids(side, g.n).tolist():
            hit = rows[v] & side
            if hit:
                u = (hit & -hit).bit_length() - 1
                raise InternalInconsistency(
                    f"residual of decomposed colour {i} has the edge ({v},{u}) inside one side",
                    witness={"colour": i, "edge": (v, u), "trace": lvl.to_record()})
    return sides


def _impossible_pair(c, x, y, claim, lvl, **witness):
    """InternalInconsistency for a pair that ``claim`` says no colour can
    reach, naming the colour the table gives it (None when uncoloured)."""
    colour = c.colour_of(x, y)
    return InternalInconsistency(
        f"{claim} {colour if colour >= 0 else 'missing'}; impossible for a complete colouring",
        witness={"edge": (x, y), "colour": colour if colour >= 0 else None, **witness,
                 "trace": lvl.to_record()},
    )


def find_mono_odd_cycle(c, params=None):
    """Find a monochromatic odd cycle in a complete q-edge-coloured K_n."""
    if params is None:
        params = _DEFAULT_PARAMS
    if c.n < 3:
        raise InputError(f"need n >= 3 vertices, got {c.n}")
    trace = PipelineTrace()
    cert, bound = _find_level(c, params, trace, level=0)
    return MonoOddCycle(certificate=cert, bound_claimed=bound, trace=trace)


def _oracle_result(c, lvl, best):
    if best is None:
        raise NoMonochromaticOddCycle(
            "every colour class is bipartite; no monochromatic odd cycle exists"
        )
    _, length, cert = best
    lvl.sizes["oracle_length"] = length
    lvl.bound_claimed = c.n
    return cert, c.n


def _find_level(c, params, trace, level):
    q, n = c.q, c.n
    lvl = LevelTrace(level=level, q=q, n=n)
    lvl.params = {"eps": params.eps, "C": params.C}
    trace.append(lvl)

    # (1) base: the claimed bound C * 2^q / q^(1-eps) is vacuous at this
    # size. Tested as C / q^(1-eps) >= n / 2^q: scaling both sides by 2^-q
    # is exact, and int / int is a correctly rounded float for every q,
    # where 2^q itself overflows a float from q = 1024 on
    if q <= 2 or float(params.C) / q ** (1.0 - params.eps) >= n / 2**q:
        lvl.branch = "base"
        return _oracle_result(c, lvl, min_colour_odd_cycle(c))

    k = _scalar_id(params.k_of_q(q), "k_of_q must give an integer")
    threshold = _scalar_id(params.small_threshold_of_q(q), "small_threshold_of_q must give an integer")
    if k < 1 or threshold < 1:
        raise InputError(f"rules must be positive, got k={_shown(k)} threshold={_shown(threshold)}")
    lvl.params.update({"k": k, "small_threshold": threshold})

    # (2) bipartite reduction: drop a bipartite colour, recurse on the
    # larger side
    classes = []  # built one at a time: the first bipartite colour ends the level
    seeds = {}
    for i in range(q):
        classes.append(colour_class(c, i))
        got = check_bipartite(classes[i])
        if isinstance(got, Bipartition):
            lvl.branch = "bipartite-reduction"
            lvl.sizes["dropped_colour"] = i
            reduced, kept = reduce_bipartite_colour(c, i, got)
            lvl.sizes["reduced_n"] = reduced.n
            if reduced.n < 3:  # q >= 3 here, so reduced.q >= 2
                lvl.fallback_used = True
                return _oracle_result(c, lvl, min_colour_odd_cycle(c))
            try:
                sub_cert, sub_bound = _find_level(reduced, params, trace, level + 1)
            except NoMonochromaticOddCycle:
                # Out of the complete-colouring regime the discarded side may
                # hold every odd cycle; answer from the oracle instead.
                lvl.fallback_used = True
                return _oracle_result(c, lvl, min_colour_odd_cycle(c))
            verts = [int(kept[v]) for v in sub_cert.vertices]
            colour = sub_cert.colour
            if colour is not None and colour >= i:
                colour += 1
            lvl.bound_claimed = sub_bound
            return OddCycleCertificate(tuple(verts), colour), sub_bound
        seeds[i] = got  # odd-cycle certificate; the shortening seed for colour i

    # (3) short-cycle probe: peel opportunistically, odd girth authoritatively
    lvl.steps.append("short-cycle-probe")
    short, decompositions, removed = _peel_all(c, classes, k, lvl)
    if short is not None:
        lvl.sizes["via"] = "peel"
        return short, 2 * k + 1
    girths = [odd_girth(_twin_free(g)) for g in classes]
    if not any(girths):
        raise InternalInconsistency(
            "every colour class failed the bipartite test, yet none has an odd cycle",
            witness={"trace": lvl.to_record()},
        )
    # the lowest colour of least odd girth; step 7's oracle fallback answers with it
    length, i = min((got[0], i) for i, got in enumerate(girths) if got is not None)
    best = (i, length, girths[i][1].with_colour(i))
    if length <= 2 * k + 1:
        lvl.branch = "short-cycle"
        lvl.sizes.update({"colour": i, "via": "odd-girth"})
        lvl.bound_claimed = 2 * k + 1
        return best[2], 2 * k + 1

    # (4) every colour decomposed: the deleted sets are pooled
    lvl.steps.append("peel-all")
    removed_total = removed.bit_count()
    lvl.sizes["removed_total"] = removed_total
    if removed_total > n / (2 * q):
        lvl.asserts_failed.append("removed-bound")

    # (5) split residual components at the small threshold. A class spans all
    # n vertices, so its residual is every vertex not removed (``kept``).
    lvl.steps.append("component-split")
    kept = ((1 << n) - 1) & ~removed
    smalls = []  # per colour: its small residual components, as int masks
    for g in classes:
        residual = Graph._from_rows(g._rows, kept)
        smalls.append([comp for comp in _component_masks(residual)
                       if comp.bit_count() <= threshold])
    bigs = [kept & ~sum(comps) for comps in smalls]  # disjoint components: sum is union
    small_counts = [sum(comp.bit_count() for comp in comps) for comps in smalls]
    lvl.sizes["small_vertex_counts"] = small_counts

    # (6) a colour with few small-component vertices: shorten a seed cycle
    cutoff = n / q ** (1.0 - params.eps)
    for i in range(q):
        if small_counts[i] <= cutoff:
            # shorten_cycle reads only its targets, the balls meeting bigs[i]
            targets = [comp for comp in decompositions[i].components if comp.ball & bigs[i]]
            cert = shorten_cycle(
                classes[i],
                [(comp.vertices, comp.center) for comp in targets],
                range(len(targets)),
                k,
                seeds[i].with_colour(i),
            )
            bound = removed_total + small_counts[i] + (4 * k + 1) * len(targets)
            if cert.length > bound:
                raise InternalInconsistency(
                    f"shortened cycle of length {cert.length} exceeds its bound {bound}",
                    witness={"colour": i, "length": cert.length, "bound": bound},
                )
            lvl.branch = "lemma2-branch"
            lvl.sizes.update({"colour": i, "targets": len(targets)})
            lvl.bound_claimed = bound
            return cert, bound

    # (7) selector branch: every colour carries many small-component vertices
    lvl.branch = "selector-branch"
    survivors_all = _dense_ids(kept, n)
    n_prime = len(survivors_all)
    lvl.sizes["n_prime"] = n_prime
    pairs = []  # a side's vertices within big components, by index in survivors_all
    for i in range(q):
        sides = _residual_sides(classes[i], decompositions[i], removed, i, lvl)
        pairs.append([np.searchsorted(survivors_all, _dense_ids(side & bigs[i], n))
                      for side in sides])
    delta = min(1.0 - (len(a) + len(b)) / n_prime if n_prime else 0.0 for a, b in pairs)
    lvl.sizes["delta"] = delta
    if delta <= 1.0 / q ** (1.0 - params.eps):
        lvl.asserts_failed.append("delta-bound")

    instance = SelectorInstance(n_prime, pairs)
    result = select_complement(instance, "derandomized")
    survivors = survivors_all[result.survivors]
    lvl.sizes["survivor_count"] = len(survivors)

    if len(survivors) > q * threshold:
        # x shares a small component with at most q*(threshold-1) other
        # survivors, so some survivor y shares none: a pair that no colour
        # can reach in a complete colouring (module docstring, step 7)
        x = int(survivors[0])
        covered = 1 << x
        for comps in smalls:  # per colour, the one small component holding x, if any
            covered |= next((comp for comp in comps if comp >> x & 1), 0)
        y = next(v for v in survivors.tolist() if not covered >> v & 1)
        raise _impossible_pair(
            c, x, y, f"surviving pair ({x},{y}) lies in no small component, "
            "yet its colour is", lvl, survivors=survivors.tolist())
    lvl.asserts_failed.append("survivor-count")

    if params.fallback == "oracle":
        lvl.fallback_used = True
        return _oracle_result(c, lvl, best)
    raise PipelineAssertError(
        "selector branch asserts failed: " + ", ".join(lvl.asserts_failed),
        failed=lvl.asserts_failed,
    )


def _checked_sides(c, i, bipartition, vertices):
    """Both sides of ``bipartition``, sorted. InputError unless the sides
    partition the sorted id array ``vertices`` and neither holds a colour-i
    pair. The last test is one pass over the table in row blocks against a
    side label per vertex (-1 off ``vertices``), and gathers no submatrix."""
    sides = [np.sort(_integer_ids(side, f"bipartition of colour {i} must hold integer vertex ids"))
             for side in (bipartition.side0, bipartition.side1)]
    if not np.array_equal(np.sort(np.concatenate(sides)), vertices):
        raise InputError(f"bipartition of colour {i} does not partition its vertex set")
    label = np.full(c.n, -1, dtype=np.int8)
    label[sides[0]], label[sides[1]] = 0, 1
    if _joins_one_side(c, i, label):
        raise InputError(f"bipartition invalid: colour-{i} edge inside one side")
    return sides


def reduce_bipartite_colour(c, i, bipartition):
    """Induced colouring on the larger side of a bipartite colour class, with
    colour i removed and the remaining colours relabelled densely.

    Returns (colouring, kept) where ``kept`` maps new vertex indices to the
    original ones. Ties go to side0. The bipartition is checked by
    ``_checked_sides``; only the kept side's rows are gathered, one block
    at a time, into the reduced table.
    """
    i = _scalar_id(i, "colour index must be an integer")
    if not 0 <= i < c.q:
        raise InputError(f"colour {_shown(i)} out of range")
    s0, s1 = _checked_sides(c, i, bipartition, np.arange(c.n))
    kept = s0 if len(s0) >= len(s1) else s1
    return _without_colour(c, i, kept, provenance=f"reduce(drop {i})"), kept


def signatures(c, removed, bipartitions):
    """Per-vertex bit vector of bipartition sides over the colours.

    ``bipartitions[i]`` must be a valid bipartition of colour class i minus
    the removed set. Bit i of vertex v is set iff v is on side1 of
    ``bipartitions[i]``. Returns {vertex: bitmask} over the surviving
    vertices.
    """
    removed_set = set(_integer_ids(removed, "removed ids must be integers").tolist())
    if any(not 0 <= v < c.n for v in removed_set):
        raise InputError(f"removed ids must lie in [0, {c.n})")
    if len(bipartitions) != c.q:
        raise InputError(f"need one bipartition per colour, got {len(bipartitions)}")
    survivors = np.array([v for v in range(c.n) if v not in removed_set], dtype=np.int64)
    sig = dict.fromkeys(survivors.tolist(), 0)
    for i, bip in enumerate(bipartitions):
        _, side1 = _checked_sides(c, i, bip, survivors)
        for v in side1.tolist():
            sig[v] |= 1 << i
    return sig


def proposition_pipeline(c, delta):
    """Short monochromatic odd cycle in K_n for n >= ceil((1+delta) * 2^q).

    Peels each colour with k = ceil(2q(q+1)/delta) and returns the first parity
    conflict (length <= 2k+1). Should every peel decompose, the signature
    pigeonhole fires: the deleted set is too small for that, so a surviving
    signature collision exposes an uncoloured pair and raises
    InternalInconsistency (unreachable for genuine complete colourings).
    """
    q = c.q
    _real(delta, "delta")
    try:  # int and Fraction exactly, other reals (numpy's too) as their float
        d = Fraction(delta) if isinstance(delta, (int, Fraction)) else Fraction(float(delta))
    except (ValueError, OverflowError):  # nan, inf
        raise InputError(f"delta must be finite, got {delta}") from None
    if not 0 < d <= 1:
        raise InputError(f"delta must lie in (0, 1], got {delta}")
    if q >= max(c.n.bit_length(), 64):  # 2^q > n, refused without building 2^q
        raise InputError(f"need n > 2^{q} for q={q}, delta={delta}; got {c.n}")
    needed = math.ceil((1 + d) * 2**q)
    if c.n < needed:
        raise InputError(f"need n >= {needed} for q={q}, delta={delta}; got {c.n}")
    k = math.ceil(Fraction(2 * q * (q + 1), 1) / d)

    trace = PipelineTrace()
    lvl = LevelTrace(level=0, q=c.q, n=c.n)
    lvl.params = {"k": k, "delta": float(d)}
    trace.append(lvl)

    classes = []  # built one at a time: the first short cycle ends the run
    short, decompositions, removed = _peel_all(c, classes, k, lvl)
    if short is not None:
        return MonoOddCycle(short, 2 * k + 1, trace)

    lvl.branch = "selector-branch"
    lvl.steps.append("signature-pigeonhole")
    lvl.sizes["removed_total"] = removed.bit_count()
    bips = []
    for i in range(c.q):
        sides = _residual_sides(classes[i], decompositions[i], removed, i, lvl)
        bips.append(Bipartition(*(_dense_ids(side, c.n) for side in sides)))
    sig = signatures(c, _dense_ids(removed, c.n), bips)
    lvl.sizes["survivor_count"] = len(sig)
    seen = {}
    for v, s in sorted(sig.items()):
        if s in seen:
            x, y = seen[s], v
            raise _impossible_pair(
                c, x, y, f"vertices {x} and {y} share signature {s:0{c.q}b} yet their "
                "pair carries colour", lvl, signature=s)
        seen[s] = v
    raise PipelineAssertError(
        f"signature pigeonhole failed: only {len(sig)} survivors over "
        f"{2 ** c.q} signatures (deleted set too large at this scale)",
        failed=["signature-pigeonhole"],
    )
