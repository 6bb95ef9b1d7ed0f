"""The four benchmark workloads: seeded inputs, one round of operations, and
the correctness check for each operation.

Every input is generated here from the package's public API, from the
workload seed alone; nothing is imported from ``tests/`` or ``demos/``, so
changes there cannot move the benchmark. A workload's ``setup`` returns one
*round*: a fixed list of operations that the harness runs back to back,
round after round. Each round holds the same mix of operation kinds in the
same proportions, so the median and the tail percentile of a run fall at a
fixed place in that mix whatever the number of rounds (see ``Workload``).

Program calls go through the package module passed in as ``oc`` and are
looked up at call time, so the outside tracer's rebinding of the package
namespace reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation: ``run`` is timed; ``check`` runs outside the timed region
    on the outcome and returns a fingerprint (lengths, bounds, branches) that
    the traced run must reproduce, or raises CheckFailed."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple]


@dataclass(frozen=True)
class Workload:
    """A named round builder: ``setup(oc, seed, tiny, workdir)`` returns the
    round's operations; ``tiny`` selects the smoke-test sizes.

    ``tail_pct`` is the percentile reported as ``op_ms_tail``. It is fixed per
    workload, so runs and commits compare the same percentile. Like the
    median, it falls inside the block of one operation kind when a run's
    times are sorted, so it does not jump between kinds from run to run.
    ``min_rounds`` is the fewest rounds a run makes, chosen so that at least
    ten operations lie above ``tail_pct`` in every run.
    """

    name: str
    setup: Callable[..., list]
    tail_pct: int
    min_rounds: int


# -- input builders --------------------------------------------------------


def hamilton_colouring(oc, m):
    """Walecki decomposition of K_{2m+1} into m Hamilton cycles, one colour
    each: a complete colouring whose every colour class has odd girth 2m+1."""
    n = 2 * m + 1
    classes = []
    for j in range(m):
        path = []
        for t in range(2 * m):
            off = (t + 1) // 2
            path.append((j + off) % (2 * m) if t % 2 == 1 else (j - off) % (2 * m))
        cyc = [2 * m] + path
        classes.append([(cyc[i], cyc[(i + 1) % n]) for i in range(n)])
    return oc.colouring_from_classes(n, classes)


def pentagon_colouring(oc):
    """K_5 as pentagon plus pentagram: two colour classes of odd girth 5."""
    return oc.colouring_from_classes(
        5, [[(i, (i + 1) % 5) for i in range(5)], [(i, (i + 2) % 5) for i in range(5)]]
    )


def disjoint_cycles_colouring(oc, m, copies):
    """``copies`` vertex-disjoint m-cycles, one colour each; every other pair
    stays uncoloured, so the colouring is deliberately incomplete."""
    classes = [
        [(b * m + i, b * m + (i + 1) % m) for i in range(m)] for b in range(copies)
    ]
    return oc.colouring_from_classes(m * copies, classes, validate=False)


def relabel(oc, c, rng):
    """The same colouring with its vertices renamed by a seeded permutation."""
    perm = rng.permutation(c.n)
    table = np.asarray(c.table)[np.ix_(perm, perm)]
    return oc.EdgeColouring(
        c.n, c.q, table, provenance=c.provenance, validate=c.is_complete()
    )


def permute_colours(oc, c, rng):
    """The same colouring with its colours renamed by a seeded permutation."""
    perm = rng.permutation(c.q)
    table = np.asarray(c.table)
    coloured = table >= 0
    renamed = np.where(coloured, perm[np.where(coloured, table, 0)], -1)
    return oc.EdgeColouring(
        c.n, c.q, renamed, provenance=c.provenance, validate=c.is_complete()
    )


def odd_girth_reference(table, colour):
    """Odd girth of one colour class by BFS in the bipartite double cover;
    None when the class is bipartite. Independent of the package's kernels
    and meant for the small graphs of the anneal workload."""
    n = table.shape[0]
    nbrs = [np.flatnonzero(table[v] == colour).tolist() for v in range(n)]
    best = None
    for root in range(n):
        dist = {(root, 0): 0}
        queue = deque([(root, 0)])
        while queue:
            v, p = queue.popleft()
            if (v, p) == (root, 1):
                d = dist[(v, p)]
                best = d if best is None else min(best, d)
                break
            for w in nbrs[v]:
                if (w, 1 - p) not in dist:
                    dist[(w, 1 - p)] = dist[(v, p)] + 1
                    queue.append((w, 1 - p))
    return best


def min_odd_cycle_reference(table, q):
    """Anneal objective: the shortest monochromatic odd cycle, n+1 if none."""
    n = table.shape[0]
    girths = [odd_girth_reference(table, i) for i in range(q)]
    return min((g for g in girths if g is not None), default=n + 1)


# -- checks ----------------------------------------------------------------


def check_cycle(oc, c, result, length, branches):
    """A returned MonoOddCycle verifies, meets its bound, has the exact
    minimum length the construction fixes, and took the expected branches."""
    cert = result.certificate
    violation = oc.verify_mono_odd_cycle(c, cert)
    expect(violation is None, f"certificate rejected: {violation}")
    expect(
        result.bound_claimed is not None and cert.length <= result.bound_claimed,
        f"length {cert.length} exceeds claimed bound {result.bound_claimed}",
    )
    expect(cert.length == length, f"length {cert.length}, expected {length}")
    got = [lvl.branch for lvl in result.trace.levels]
    expect(got == branches, f"branches {got}, expected {branches}")
    return ("cycle", cert.length, result.bound_claimed, tuple(got))


def find_op(oc, kind, c, params, length, branches):
    return Op(
        kind,
        lambda: oc.find_mono_odd_cycle(c, params),
        lambda result: check_cycle(oc, c, result, length, branches),
    )


def proposition_op(oc, kind, c, delta, length):
    return Op(
        kind,
        lambda: oc.proposition_pipeline(c, delta),
        lambda result: check_cycle(oc, c, result, length, ["short-cycle"]),
    )


# -- threshold-random -------------------------------------------------------


def threshold_random(oc, seed, tiny, workdir):
    """Default-parameter search on seeded random q-colourings of K_{2^q+1}.

    Round: six colourings at the smaller q, four at the larger q. Random
    classes this dense always hold a triangle, so the exact minimum is 3 and
    the run ends in the base branch.
    """
    small, large = (4, 5) if tiny else (9, 10)
    sizes = [small] * 6 + [large] * 4
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=len(sizes))
    ops = []
    for q, s in zip(sizes, seeds):
        c = oc.random_colouring(2**q + 1, q, int(s))
        ops.append(find_op(oc, f"random-q{q}", c, None, 3, ["base"]))
    return ops


# -- structured-deep --------------------------------------------------------


def structured_deep(oc, seed, tiny, workdir):
    """Complete colourings with long odd girth, plus three incomplete ones,
    each under a seeded relabelling. These are the inputs that reach
    peeling, shortening, the selector, the signature pigeonhole and the
    pipeline's recursion."""
    rng = np.random.default_rng(seed)
    ops = []

    # Incomplete "disjoint odd cycles" under tiny rules: n=27 ends in the
    # selector branch and answers from the oracle; n=33 trips the self-check,
    # whose witness must be an uncoloured pair. Their colours are renamed, not
    # their vertices: on these incomplete inputs the branch reached depends on
    # vertex order, and about one vertex relabelling in thirty ends elsewhere.
    override = oc.PipelineParams(
        eps=0.1, C=0.1, k_of_q=lambda q: 3, small_threshold_of_q=lambda q: 4
    )
    c27 = permute_colours(oc, disjoint_cycles_colouring(oc, 9, 3), rng)
    ops.append(find_op(oc, "disjoint-27", c27, override, 9, ["selector-branch"]))
    c33 = permute_colours(oc, disjoint_cycles_colouring(oc, 11, 3), rng)
    ops.append(Op("disjoint-33",
                  lambda: call_expecting_inconsistency(lambda: oc.find_mono_odd_cycle(c33, override), oc),
                  lambda exc: check_uncoloured_witness(oc, c33, exc)))

    # Two disjoint 27-cycles through the wider-graph variant: with q=2 and
    # delta=1, k=12 and 2k+1=25 < 27, so every peel decomposes and the
    # signature pigeonhole must expose an uncoloured pair. That holds under
    # any vertex relabelling.
    c54 = relabel(oc, disjoint_cycles_colouring(oc, 27, 2), rng)
    ops.append(Op("disjoint-54-pigeonhole",
                  lambda: call_expecting_inconsistency(lambda: oc.proposition_pipeline(c54, 1), oc),
                  lambda exc: check_uncoloured_witness(oc, c54, exc)))

    # binary(b) x C5 through the wider-graph variant: binary classes are
    # bipartite and decompose; the first pentagon class yields a 5-cycle.
    # Four relabellings at the smaller size put the run's median among them;
    # their times vary little with the relabelling, unlike binary x ham4.
    pent = pentagon_colouring(oc)
    for b, copies in (((2, 4), (3, 1)) if tiny else ((8, 4), (9, 1))):
        prod = oc.product_colouring(oc.binary_colouring(b), pent)
        for _ in range(copies):
            ops.append(proposition_op(oc, f"binary{b}xC5", relabel(oc, prod, rng), 0.25, 5))

    # binary(b) x ham(4): b bipartite reductions, then the 9-cycles.
    b = 3 if tiny else 8
    c = relabel(oc, oc.product_colouring(oc.binary_colouring(b), hamilton_colouring(oc, 4)), rng)
    branches = ["bipartite-reduction"] * b + ["short-cycle"]
    ops.append(find_op(oc, f"binary{b}xham4", c, oc.PipelineParams(C=0.01), 9, branches))

    # ham(m) x ham(m): every class has odd girth 2m+1 > 2k+1, so the probe
    # fails and the run shortens a seed cycle (lemma-2 branch).
    lemma2 = oc.PipelineParams(
        eps=0.9, C=1e-9, k_of_q=lambda q: q // 2 - 1, small_threshold_of_q=lambda q: 1
    )
    for m, copies in (((3, 2), (4, 1)) if tiny else ((8, 2), (10, 1))):
        ham = hamilton_colouring(oc, m)
        prod = oc.product_colouring(ham, ham)
        for _ in range(copies):
            c = relabel(oc, prod, rng)
            ops.append(find_op(oc, f"ham{m}xham{m}", c, lemma2, 2 * m + 1, ["lemma2-branch"]))
    return ops


def call_expecting_inconsistency(call, oc):
    """The InternalInconsistency that ``call`` raises, else what it returns."""
    try:
        return call()
    except oc.InternalInconsistency as exc:
        return exc


def check_uncoloured_witness(oc, c, exc):
    expect(isinstance(exc, oc.InternalInconsistency), f"expected InternalInconsistency, got {exc!r}")
    witness = exc.witness or {}
    expect("edge" in witness, "witness names no edge")
    x, y = witness["edge"]
    expect(x != y and c.table[x, y] == -1, f"witness edge ({x},{y}) is coloured")
    expect(witness.get("colour") is None, "witness names a colour")
    return ("inconsistency", witness["trace"]["branch"])


# -- cli-file ---------------------------------------------------------------


def cli_file(oc, seed, tiny, workdir):
    """In-process ``oddcycle gen`` / ``find`` / ``verify`` round trip per file.

    Files: random colourings of K_{2^q+1} for both q, searched with the
    pipeline, and one of K_{2^(q+1)} for the smaller q, searched with the
    proposition method. The in-memory colouring made here from the same seed
    checks the certificate independently of the files.
    """
    import oddcycle.cli as cli

    small, large = (5, 6) if tiny else (8, 9)
    files = [
        (small, 2**small + 1, "pipeline"),
        (small, 2 ** (small + 1), "proposition"),
        (large, 2**large + 1, "pipeline"),
    ]
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=len(files))
    Path(workdir).mkdir(parents=True, exist_ok=True)
    return [
        cli_op(oc, cli, q, n, int(s), method, {k: str(Path(workdir) / f"f{idx}.{k}")
                                               for k in ("txt", "cert", "trace")})
        for idx, ((q, n, method), s) in enumerate(zip(files, seeds))
    ]


def cli_op(oc, cli, q, n, seed, method, paths):
    c = oc.random_colouring(n, q, seed)
    return Op(
        f"cli-{method}-n{n}",
        lambda: cli_round_trip(cli, q, n, seed, method, paths),
        lambda out: check_cli(oc, c, out, paths, method),
    )


def invoke(cli, args):
    """Run one CLI command in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main.main(args=args, prog_name="oddcycle", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def cli_round_trip(cli, q, n, seed, method, paths):
    gen = invoke(cli, ["gen", "--kind", "random", "--q", str(q), "--n", str(n),
                       "--seed", str(seed), "--out", paths["txt"]])
    find = invoke(cli, ["find", "--in", paths["txt"], "--method", method,
                        "--out-cert", paths["cert"], "--trace", paths["trace"]])
    verify = invoke(cli, ["verify", "--in", paths["txt"], "--cert", paths["cert"]])
    return gen, find, verify


def check_cli(oc, c, out, paths, method):
    """The pipeline answers from the odd-girth oracle here, so its cycle is a
    shortest one (3); the proposition method returns its first parity
    conflict, which need only meet its bound."""
    (gen_code, _), (find_code, find_out), (verify_code, verify_out) = out
    expect((gen_code, find_code, verify_code) == (0, 0, 0),
           f"exit codes gen={gen_code} find={find_code} verify={verify_code}")
    expect(verify_out.strip() == "ok", f"verify printed {verify_out.strip()!r}")
    words = Path(paths["cert"]).read_text().split()
    cert = oc.OddCycleCertificate(tuple(int(v) for v in words[2:]), int(words[1]))
    violation = oc.verify_mono_odd_cycle(c, cert)
    expect(violation is None, f"certificate rejected: {violation}")
    if method == "pipeline":
        expect(cert.length == 3, f"length {cert.length}, expected 3")
    bound = int(find_out.rsplit("claimed bound", 1)[1].strip(" )\n"))
    expect(cert.length <= bound, f"length {cert.length} exceeds claimed bound {bound}")
    levels = [json.loads(line) for line in Path(paths["trace"]).read_text().splitlines()]
    got = [lvl["branch"] for lvl in levels]
    branch = "base" if method == "pipeline" else "short-cycle"
    expect(got == [branch], f"branches {got}, expected {[branch]}")
    return ("cycle", cert.length, bound, tuple(got))


# -- anneal-small -----------------------------------------------------------


def anneal_small(oc, seed, tiny, workdir):
    """Annealing search and exact enumeration on graphs of at most 17
    vertices: thousands of small odd-girth and Graph calls per round.

    Round: both exact values, six searches on K_9 and three on K_17, each
    from its own seed, so that no single search trajectory sets a run's
    figures.
    """
    iterations = 50 if tiny else 500
    searches = [(3, 9)] * 6 + [(4, 17)] * 3
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=len(searches))
    ops = [
        Op("exhaustive-L1-3", lambda: oc.exhaustive_L(1, 3),
           lambda out: check_exhaustive(out, 1, 3, 3)),
        Op("exhaustive-L2-5", lambda: oc.exhaustive_L(2, 5),
           lambda out: check_exhaustive(out, 2, 5, 5)),
    ]
    for (q, n), s in zip(searches, seeds):
        ops.append(anneal_op(oc, q, n, iterations, int(s)))
    return ops


def anneal_op(oc, q, n, iterations, seed):
    return Op(
        f"anneal-q{q}-n{n}",
        lambda: oc.anneal_search(q, n, iterations, seed),
        lambda out: check_anneal(out, q, n),
    )


def check_exhaustive(out, q, n, value):
    got, witness = out
    expect(got == value, f"L({q},{n}) = {got}, expected {value}")
    table = np.asarray(witness.table)
    expect(min_odd_cycle_reference(table, q) == value, "witness does not attain the value")
    return ("exhaustive", got)


def check_anneal(out, q, n):
    objective, best = out
    expect((best.n, best.q) == (n, q) and best.is_complete(), "result is not a complete colouring")
    table = np.asarray(best.table)
    derived = min_odd_cycle_reference(table, q)
    expect(objective == derived, f"objective {objective}, re-derived {derived}")
    return ("anneal", objective, table.tobytes())


WORKLOADS = {
    w.name: w
    for w in (
        Workload("threshold-random", threshold_random, tail_pct=75, min_rounds=4),
        Workload("structured-deep", structured_deep, tail_pct=83, min_rounds=5),
        Workload("cli-file", cli_file, tail_pct=83, min_rounds=20),
        Workload("anneal-small", anneal_small, tail_pct=86, min_rounds=7),
    )
}
