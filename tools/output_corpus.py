#!/usr/bin/env python3
"""Byte-identity corpus of the searches' outputs.

    python3 tools/output_corpus.py [--out FILE]

Runs ``find_mono_odd_cycle`` under each rule set of ``RULES``,
``proposition_pipeline`` at each delta of ``DELTAS`` and
``min_colour_odd_cycle`` on every colouring of ``inputs()``, each as built
and under two seeded vertex relabellings. Every case becomes one JSON line:
the certificate, ``bound_claimed`` and trace JSON lines of a result, or the
type, message, witness and ``failed`` list of an exception. Then come the
small-case searches of ``searches()``: ``exhaustive_L`` and seeded
``anneal_search`` runs, one line each with the value, the colouring's text
and provenance, and for a run seeded by a ``Generator`` that generator's
state afterwards. The tool prints the case count, a tally of the branches
the traces record and of the exceptions raised, and the sha256 of these
lines.

Last come the front ends of ``front_end_lines()``, run in-process in a
temporary directory: ``oddcycle gen`` of each kind, ``oddcycle find`` by
each method on two seeded files, and ``oddcycle table`` on the grid configs
of ``CONFIGS``. One line each holds the exit code, stdout and stderr (the
directory shown as ``<dir>``) and every file the command wrote. Their count
and sha256 are printed on a line of their own, so a change to a front end
leaves the searches' hash as it was. ``--out`` also writes all lines.

The tool imports the package from the ``src`` next to its own directory, so
a copy of this file run in two checkouts compares their outputs: a change
that must keep every output gives the same hashes on both, and ``diff`` of
the two ``--out`` files shows the lines that changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oddcycle as oc  # noqa: E402
from oddcycle.cli import main as cli_main  # noqa: E402


def _rules(k, threshold, **kwargs):
    """``PipelineParams`` arguments: budget ``k`` (an int or a rule in q),
    a fixed small threshold and ``kwargs``."""
    k_of_q = k if callable(k) else (lambda q: k)
    return dict(k_of_q=k_of_q, small_threshold_of_q=lambda q: threshold, **kwargs)


# Rule sets that reach every branch of the search on desk-scale inputs: the
# defaults (base branch), tiny budgets that force peeling (short cycles, the
# lemma-2 shortening, the selector with either fallback), and budgets at
# which nothing is small or everything is.
RULES = {
    "default": {},
    "k3t4-C0.01": _rules(3, 4, C=0.01),
    "k3t4-eps0.9": _rules(3, 4, eps=0.9, C=0.1),
    "disjoint-oracle": _rules(3, 4, eps=0.1, C=0.1),
    "disjoint-fail": _rules(3, 4, eps=0.1, C=0.1, fallback="fail"),
    "lemma2-oracle": _rules(lambda q: q // 2 - 1, 1, eps=0.9, C=1e-9),
    "lemma2-fail": _rules(lambda q: q // 2 - 1, 1, eps=0.9, C=1e-9, fallback="fail"),
    "k4t3-eps0.3": _rules(4, 3, eps=0.3, C=0.05),
    "k4t4": _rules(4, 4, C=0.1),
    "k5t4": _rules(5, 4, C=0.1),
    "k1t1-fail": _rules(1, 1, C=0.1, fallback="fail"),
    "k2t100-fail": _rules(2, 100, C=0.1, fallback="fail"),
}
DELTAS = (1, 0.5, 0.25)
RELABEL_SEEDS = (1, 2)


def _disjoint_cycles(m, copies):
    """``copies`` vertex-disjoint m-cycles, one colour each, every other
    pair uncoloured: a deliberately incomplete colouring."""
    classes = [[(b * m + i, b * m + (i + 1) % m) for i in range(m)] for b in range(copies)]
    return oc.colouring_from_classes(m * copies, classes, validate=False)


def inputs():
    """(name, colouring) of the full corpus."""
    ham = {m: oc.hamilton_colouring(m) for m in range(2, 9)}
    binary = {b: oc.binary_colouring(b) for b in range(1, 5)}
    pentagon = oc.colouring_from_classes(
        5, [[(i, (i + 1) % 5) for i in range(5)], [(i, (i + 2) % 5) for i in range(5)]])
    out = [(f"ham{m}", c) for m, c in ham.items()]
    out += [(f"ham{m}xham{m}", oc.product_colouring(ham[m], ham[m])) for m in ham]
    out += [("ham2xham3", oc.product_colouring(ham[2], ham[3]))]
    out += [(f"binary{b}", binary[b]) for b in range(2, 5)]
    out += [(f"binary{b}xham{m}", oc.product_colouring(binary[b], ham[m]))
            for b in range(1, 4) for m in range(2, 5)]
    out += [(f"binary{b}xC5", oc.product_colouring(binary[b], pentagon)) for b in range(1, 4)]
    out += [(f"disjoint{m}x{copies}", _disjoint_cycles(m, copies))
            for m, copies in ((5, 2), (7, 2), (9, 3), (11, 3), (13, 3), (27, 2), (27, 3))]
    out += [(f"random{n}q{q}", oc.random_colouring(n, q, 100 * q + n))
            for q in range(2, 6) for n in (2**q + 1, 2**q + 7)]
    out += [(f"sparse-random{n}q{q}", oc.random_colouring(n, q, n + q))
            for n, q in ((5, 6), (9, 5), (12, 4))]
    return out


def relabellings(named):
    """Each (name, colouring) as built and under each seeded vertex
    permutation of ``RELABEL_SEEDS``."""
    for name, c in named:
        yield name, c
        for seed in RELABEL_SEEDS:
            perm = np.random.default_rng(seed).permutation(c.n)
            table = c.table[np.ix_(perm, perm)]
            yield f"{name}~{seed}", oc.EdgeColouring(c.n, c.q, table, validate=c.is_complete())


def _record(call):
    """The JSON-ready outcome of ``call()``, and the branches and exception
    it shows for the tally."""
    try:
        got = call()
    except (oc.InputError, oc.InternalInconsistency, oc.PipelineAssertError) as exc:
        witness = getattr(exc, "witness", None)
        branches = [witness["trace"]["branch"]] if witness and "trace" in witness else []
        return ({"error": type(exc).__name__, "message": str(exc), "witness": witness,
                 "failed": list(getattr(exc, "failed", ()))}, branches, type(exc).__name__)
    if got is None or isinstance(got, tuple):  # min_colour_odd_cycle
        colour, length, cert = got or (None, None, None)
        return {"oracle": [colour, length, cert and list(cert.vertices)]}, [], None
    cert = got.certificate
    return ({"vertices": list(cert.vertices), "colour": cert.colour,
             "bound": got.bound_claimed, "trace": got.trace.to_json_lines()},
            [lvl.branch for lvl in got.trace.levels], None)


def run(named):
    """The corpus lines over ``relabellings(named)`` and the tally."""
    lines, tally = [], Counter()
    for name, c in relabellings(named):
        calls = [(f"find/{rule}", lambda p=p: oc.find_mono_odd_cycle(c, oc.PipelineParams(**p)))
                 for rule, p in RULES.items()]
        calls += [(f"proposition/{d}", lambda d=d: oc.proposition_pipeline(c, d)) for d in DELTAS]
        calls += [("oracle", lambda: oc.min_colour_odd_cycle(c))]
        for how, call in calls:
            record, branches, error = _record(call)
            tally.update(branches)
            if error is not None:
                tally[error] += 1
            lines.append(json.dumps({"case": f"{name}/{how}", **record}, sort_keys=True,
                                    default=str))
    return lines, tally


# Every size the tests enumerate, and annealing runs at q = 1..5 from each
# kind of init: a random colouring (from the seed), the all-bipartite binary
# colouring and the Hamilton-cycle colouring, whose classes have odd girth
# n. Each setting also runs once seeded by a Generator.
EXHAUSTIVE = ((1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (4, 4))
ANNEAL_SEEDS = (0, 1, 2)
ANNEAL_ITERATIONS = 300


def searches():
    """(name, call) of the small-case searches; a call returns the value,
    the colouring and the state of the Generator it seeded, if any."""
    cases = [(f"exhaustive/q{q}n{n}", lambda q=q, n=n: (*oc.exhaustive_L(q, n), None))
             for q, n in EXHAUSTIVE]
    inits = [(f"random-q{q}", q, 2**q + 1, None) for q in range(1, 6)]
    inits += [(f"binary-q{q}", q, 2**q, oc.binary_colouring(q)) for q in range(2, 6)]
    inits += [(f"hamilton-q{q}", q, 2 * q + 1, oc.hamilton_colouring(q)) for q in range(1, 6)]

    def anneal(q, n, seed, init):
        return (*oc.anneal_search(q, n, ANNEAL_ITERATIONS, seed, init), None)

    def anneal_by_generator(q, n, seed, init):
        gen = np.random.default_rng(seed)
        return (*oc.anneal_search(q, n, ANNEAL_ITERATIONS, gen, init), gen.bit_generator.state)

    for name, q, n, init in inits:
        cases += [(f"anneal/{name}n{n}/seed{seed}", lambda q=q, n=n, s=seed, c=init: anneal(q, n, s, c))
                  for seed in ANNEAL_SEEDS]
        cases.append((f"anneal/{name}n{n}/generator{ANNEAL_SEEDS[0]}",
                      lambda q=q, n=n, c=init: anneal_by_generator(q, n, ANNEAL_SEEDS[0], c)))
    return cases


def search_lines():
    """One JSON line per case of ``searches()``."""
    lines = []
    for name, call in searches():
        value, colouring, state = call()
        text = io.StringIO()
        oc.write_colouring(colouring, text)
        lines.append(json.dumps({"case": name, "value": value, "colouring": text.getvalue(),
                                 "provenance": colouring.provenance, "generator": state},
                                sort_keys=True))
    return lines


# The grid configs of README's "Experiment grid config" and of
# tests/test_analysis.py's CONFIG, copied so that both checkouts run the same
# inputs (tests/test_tools.py keeps the copies equal to their sources).
README_CONFIG = {
    "timing": False,
    "grid": [
        {"generator": "random", "q": 3, "n": 9, "seeds": [0, 1, 2],
         "methods": ["pipeline", "proposition", "oracle"], "delta": 1},
    ],
}
CONFIGS = {
    "readme": README_CONFIG,
    "test-analysis": {
        "timing": False,
        "grid": [dict(README_CONFIG["grid"][0]),
                 {"generator": "binary", "q": 3, "methods": ["pipeline"]}],
    },
}
# (name, gen arguments) of the seeded files that find runs on: K_9 is too
# small for the proposition at delta 1, K_16 is not
FILES = (("random-q3n9", ["--kind", "random", "--q", "3", "--n", "9", "--seed", "7"]),
         ("random-q3n16", ["--kind", "random", "--q", "3", "--n", "16", "--seed", "11"]))
METHODS = ("pipeline", "proposition", "oracle")


def _invoke(workdir, args, outputs):
    """One in-process ``oddcycle`` command: its exit code, stdout, stderr and
    the text of each file of ``outputs`` (None if not written)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            cli_main.main(args=args, prog_name="oddcycle", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    files = {name: (Path(workdir) / name).read_text() if (Path(workdir) / name).exists() else None
             for name in outputs}
    return {"exit": code, "stdout": stdout.getvalue().replace(str(workdir), "<dir>"),
            "stderr": stderr.getvalue().replace(str(workdir), "<dir>"), "files": files}


def front_end_lines():
    """One JSON line per front-end case."""
    lines = []
    with tempfile.TemporaryDirectory() as workdir:
        def at(name):
            return str(Path(workdir) / name)

        def case(name, args, outputs):
            record = _invoke(workdir, args, outputs)
            lines.append(json.dumps({"case": name, **record}, sort_keys=True))

        gens = list(FILES) + [("binary-q3", ["--kind", "binary", "--q", "3"]),
                              ("product-q2", ["--kind", "product", "--q", "2",
                                              "--in2", at(f"{FILES[0][0]}.txt")])]
        for name, args in gens:
            case(f"gen/{name}", ["gen", *args, "--out", at(f"{name}.txt")], [f"{name}.txt"])
        for (name, _), method in itertools.product(FILES, METHODS):
            cert, trace = f"{name}-{method}.cert", f"{name}-{method}.trace"
            case(f"find/{name}/{method}", ["find", "--in", at(f"{name}.txt"), "--method", method,
                                           "--out-cert", at(cert), "--trace", at(trace)],
                 [cert, trace])
        for name, config in CONFIGS.items():
            Path(at(f"{name}.json")).write_text(json.dumps(config))
            case(f"table/{name}", ["table", "--config", at(f"{name}.json"),
                                   "--out", at(f"{name}.csv")], [f"{name}.csv"])
    return lines


def corpus():
    """The searches' lines (``run(inputs())`` and ``search_lines()``), the
    front ends' lines and the tally of the searches' branches and exceptions."""
    lines, tally = run(inputs())
    return lines + search_lines(), front_end_lines(), tally


def sha256(lines):
    """The sha256 of ``lines``, each ended by a newline."""
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="also write the corpus lines here")
    args = parser.parse_args(argv)
    lines, front, tally = corpus()
    if args.out is not None:
        args.out.write_text("".join(line + "\n" for line in lines + front))
    print(f"cases {len(lines)}")
    for key, count in sorted(tally.items()):
        print(f"  {key}: {count}")
    print(f"sha256 {sha256(lines)}")
    print(f"front ends {len(front)} sha256 {sha256(front)}")


if __name__ == "__main__":
    main()
