"""Per-layer spans recorded from outside the package.

The tracer rebinds each traced public function, in every ``oddcycle``
module namespace that holds it, to a wrapper that records a span: name,
start, end, parent span and operation id. ``Graph.__init__``,
``Graph.row_masks`` and the click command callbacks are wrapped in place.
Spans stay in memory until the run ends; ``installed`` restores every
original on exit. Counters for the per-layer ratios are taken from the
wrapped calls' arguments and results, outside the span's own interval.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

BRANCHES = ("base", "bipartite-reduction", "short-cycle", "lemma2-branch", "selector-branch")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _observe_bipartite(counts, args, kwargs, result, exc):
    if result is not None and type(result).__name__ != "Bipartition":
        counts["graph.check_bipartite.odd"] += 1


def _observe_peel(counts, args, kwargs, result, exc):
    if result is None:
        return
    if type(result).__name__ == "ShortCycle":
        counts["peeling.peel.short_cycle"] += 1
    else:
        removed = len(result.removed)
        counts["peeling.peel.removed"] += removed
        counts["peeling.peel.active"] += removed + sum(len(c.vertices) for c in result.components)


def _observe_shorten(counts, args, kwargs, result, exc):
    if result is not None:
        counts["shortening.shorten_cycle.in"] += _arg(args, kwargs, 4, "seed").length
        counts["shortening.shorten_cycle.out"] += result.length


def _observe_selector(counts, args, kwargs, result, exc):
    if result is not None:
        counts["selector.select_complement.survivors"] += len(result.survivors)
        counts["selector.select_complement.target"] += _arg(args, kwargs, 0, "inst").survivor_target()


def _observe_read(counts, args, kwargs, result, exc):
    stream = _arg(args, kwargs, 0, "stream")
    if result is not None and isinstance(stream, (str, Path)):
        counts["colouring.read_colouring.bytes"] += os.path.getsize(stream)


def _observe_pipeline(counts, args, kwargs, result, exc):
    if result is not None:
        levels = [lvl.branch for lvl in result.trace.levels]
        counts["pipeline.levels"] += len(levels)
    else:
        # A self-check that fired carries only its own level's record.
        record = (getattr(exc, "witness", None) or {}).get("trace")
        if record is None:
            return
        counts["pipeline.levels"] += record["level"] + 1
        levels = [record["branch"]]
    for branch in levels:
        counts[f"pipeline.branch.{branch}"] += 1


# (module, function, span name, observer); generators share one span name.
TARGETS = [
    ("graph", "odd_girth", "graph.odd_girth", None),
    ("graph", "odd_cycle_from_walk", "graph.odd_cycle_from_walk", None),
    ("graph", "check_bipartite", "graph.check_bipartite", _observe_bipartite),
    ("graph", "components", "graph.components", None),
    ("graph", "shortest_path_within", "graph.shortest_path_within", None),
    ("colouring", "colour_class", "colouring.colour_class", None),
    ("colouring", "read_colouring", "colouring.read_colouring", _observe_read),
    ("colouring", "write_colouring", "colouring.write_colouring", None),
    ("colouring", "random_colouring", "colouring.generate", None),
    ("colouring", "binary_colouring", "colouring.generate", None),
    ("colouring", "product_colouring", "colouring.generate", None),
    ("colouring", "colouring_from_classes", "colouring.generate", None),
    ("peeling", "peel", "peeling.peel", _observe_peel),
    ("shortening", "shorten_cycle", "shortening.shorten_cycle", _observe_shorten),
    ("selector", "select_complement", "selector.select_complement", _observe_selector),
    ("pipeline", "find_mono_odd_cycle", "pipeline.find_mono_odd_cycle", _observe_pipeline),
    ("pipeline", "proposition_pipeline", "pipeline.proposition_pipeline", _observe_pipeline),
    ("pipeline", "reduce_bipartite_colour", "pipeline.reduce_bipartite_colour", None),
    ("pipeline", "min_colour_odd_cycle", "pipeline.min_colour_odd_cycle", None),
    ("pipeline", "signatures", "pipeline.signatures", None),
    ("certify", "verify_mono_odd_cycle", "certify.verify_mono_odd_cycle", None),
    ("analysis", "anneal_search", "analysis.anneal_search", None),
    ("analysis", "exhaustive_L", "analysis.exhaustive_L", None),
]
GRAPH_METHODS = [("__init__", "graph.Graph.init"), ("row_masks", "graph.Graph.row_masks")]
CLI_COMMANDS = ["gen", "find", "verify"]


class Tracer:
    """Spans and counters of one traced run.

    Spans are recorded only while ``op`` is set; between operations (while
    outputs are checked) the wrappers pass straight through.
    """

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, op id]
        self.stack = []
        self.op = None
        self.counts = Counter()

    def wrap(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = exc = None
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
                if observe is not None:
                    observe(tracer.counts, args, kwargs, result, exc)

        return traced

    @contextmanager
    def installed(self, package):
        """Rebind every target in every loaded module of ``package``."""
        prefix = package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        undo = []
        try:
            for modname, attr, name, observe in TARGETS:
                orig = getattr(sys.modules[f"{prefix}.{modname}"], attr)
                wrapper = self.wrap(name, orig, observe)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            graph_cls = sys.modules[f"{prefix}.graph"].Graph
            for attr, name in GRAPH_METHODS:
                orig = graph_cls.__dict__[attr]
                undo.append((graph_cls, attr, orig))
                setattr(graph_cls, attr, self.wrap(name, orig))
            group = sys.modules[f"{prefix}.cli"].main
            for cmd_name in CLI_COMMANDS:
                cmd = group.commands[cmd_name]
                undo.append((cmd, "callback", cmd.callback))
                cmd.callback = self.wrap(f"cli.{cmd_name}", cmd.callback)
            yield self
        finally:
            for obj, key, orig in reversed(undo):
                setattr(obj, key, orig)

    def aggregate(self, select=lambda op: True):
        """{span name: [calls, ms, self_ms]} over the spans whose operation id
        passes ``select``.

        Self time is a span's duration minus that of its direct child spans.
        A span directly inside a span of the same name (a function re-calling
        itself with an opened file) adds to self time only, so ``ms`` and
        ``calls`` count each outer call once.
        """
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if not select(op):
                continue
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[2] += (end - start - child[idx]) / 1e6
            if parent < 0 or self.spans[parent][0] != name:
                row[0] += 1
                row[1] += (end - start) / 1e6
        return totals

    def write(self, path, header):
        """Write the spans as JSON lines: a header, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, fields=["name", "start_ns", "end_ns", "parent", "op"])))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
