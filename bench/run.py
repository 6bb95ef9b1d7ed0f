#!/usr/bin/env python3
"""oddcycle benchmark: one workload per process, a closed loop of one client.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its ``src/``.
The workload seed alone determines the inputs. Operations run back to back,
one at a time, in whole rounds (see ``workloads.py``) until ``--seconds``
have passed and at least the workload's ``min_rounds`` are done. Every
output is checked outside the timed region. Times are reported at the speed
of a quiet reference host (see ``MachineSpeed``); the raw wall-clock figures
are printed beside them and kept in the result file.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each round
untraced and then again with the outside tracer installed, and prints the
per-layer metrics per traced round; the outputs of the two passes must
agree. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results,
per-operation times, machine metadata and (traced) spans are also written
under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from tracer import BRANCHES, TARGETS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
CALIBRATION_SAMPLES = 3  # loop samples around each set-up and import
MAX_FAILURES_SHOWN = 5


def import_package():
    """Import oddcycle from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    oc = importlib.import_module("oddcycle")
    importlib.import_module("oddcycle.cli")
    if Path(oc.__file__).resolve().parent != src / "oddcycle":
        raise ImportError(f"oddcycle was imported from {oc.__file__}, not from {src}")
    return oc


@dataclass
class OpRecord:
    kind: str
    ms: float
    fingerprint: tuple | None
    error: str | None
    speed: float = 1.0  # machine speed around the operation, see MachineSpeed


class MachineSpeed:
    """Speed of the machine just around an operation, relative to a quiet
    reference host.

    Other tenants of a shared host slow everything here, this process's CPU
    time included, by up to two times for seconds or whole runs at a
    stretch. A fixed piece of interpreter work, timed just before and just
    after each operation, slows the same way. It formats, splits and parses
    integers and fills a dict, because that tracked the package's slowdown
    (file parsing included) better than pure arithmetic did. Its speed is
    REFERENCE_NS over its mean time, where REFERENCE_NS is about its best
    time on the quiet 2-vCPU Xeon host this benchmark was written on; an
    operation's time multiplied by that speed is its time on that host.
    Running every operation twice doubled the scaled op_ms_p50 (ratios 1.78
    to 2.13 on three workloads, three seeds each, on a shared 2-vCPU Xeon
    host), so the scaling passes a real slowdown of the program through.
    """

    SIZE = 6000
    REFERENCE_NS = 1.5e6

    @classmethod
    def loop_ns(cls, samples=1):
        """The loop's time; with ``samples`` > 1, the median of that many."""
        times = []
        for _ in range(samples):
            start = time.perf_counter_ns()
            text = " ".join([str(i) for i in range(cls.SIZE)])
            values = [int(token) for token in text.split()]
            {v: v for v in values}
            times.append(time.perf_counter_ns() - start)
        return statistics.median(times)

    @classmethod
    def between(cls, before_ns, samples=1):
        """Speed from a loop time taken before the work and one taken now."""
        return 2 * cls.REFERENCE_NS / (before_ns + cls.loop_ns(samples))

    @classmethod
    def warm(cls):
        """Run the loop twice: its first run in a fresh interpreter is slow."""
        cls.loop_ns()
        cls.loop_ns()


# Imports the package in a fresh interpreter and prints the seconds taken,
# wall and at reference-host speed. Arguments: the benchmark's and the
# package's directories. The declared dependencies are imported first and
# not timed: their import time is not the package's and swung by a fifth
# between sets of runs with the host's file cache.
IMPORT_PROBE = """
import sys, time
import click, numpy
sys.path[:0] = [sys.argv[2], sys.argv[1]]
from run import CALIBRATION_SAMPLES, MachineSpeed
MachineSpeed.warm()
before = MachineSpeed.loop_ns(CALIBRATION_SAMPLES)
start = time.perf_counter_ns()
import oddcycle, oddcycle.cli
ns = time.perf_counter_ns() - start
print(ns / 1e9, ns / 1e9 * MachineSpeed.between(before, CALIBRATION_SAMPLES))
"""


def import_seconds():
    """Import time of the package, measured in SETUP_REPEATS fresh
    interpreters: [(wall s, reference-speed s)]."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(BENCH), str(ROOT / "src")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        wall, scaled = proc.stdout.split()
        times.append((float(wall), float(scaled)))
    return times


def run_op(op, tracer=None, op_id=None, speed=False):
    """Time one operation, then check its output outside the timed region.

    With ``speed``, the machine speed around the operation is recorded too;
    the loop after the operation runs once its output is checked, dropped
    and collected, so it starts from the state the loop before it saw.
    """
    gc.collect()
    before = MachineSpeed.loop_ns() if speed else 0
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter_ns()
    try:
        out = op.run()
        error = None
    except Exception as exc:  # an operation that raises is a counted failure
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    ms = (time.perf_counter_ns() - start) / 1e6
    if tracer is not None:
        tracer.op = None
    fingerprint = None
    if error is None:
        try:
            fingerprint = op.check(out)
        except Exception as exc:  # CheckFailed, or a check that could not read the output
            error = f"check {type(exc).__name__}: {exc}"
    if error is not None:
        error = f"{op.kind}: {error}"
    factor = 1.0
    if speed:
        out = None
        gc.collect()
        factor = MachineSpeed.between(before)
    return OpRecord(op.kind, ms, fingerprint, error, factor)


def measure(ops, seconds, min_rounds):
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` are done."""
    records = []
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        records += [run_op(op, speed=True) for op in ops]
        rounds += 1
    return records, rounds


def setup(workload, oc, seed, tiny, workdir):
    """Warm-up (the round at tiny size, checked) and input generation.

    Returns the round, the seconds taken (wall, and at reference-host speed)
    and the warm-up's failures.
    """
    gc.collect()
    before = MachineSpeed.loop_ns(CALIBRATION_SAMPLES)
    start = time.perf_counter()
    warmup = [run_op(op) for op in workload.setup(oc, seed, True, workdir)]
    ops = workload.setup(oc, seed, tiny, workdir)
    wall = time.perf_counter() - start
    gc.collect()
    failures = [f"warm-up {r.error}" for r in warmup if r.error is not None]
    return ops, (wall, wall * MachineSpeed.between(before, CALIBRATION_SAMPLES)), failures


def timing_figures(workload, times, ok):
    """ops_per_s (``ok`` checked operations over the summed times),
    op_ms_p50 and op_ms_tail of operation times in ms, and how many times
    lie above the tail percentile."""
    tail = statistics.quantiles(times, n=100, method="inclusive")[workload.tail_pct - 1]
    figures = {
        "ops_per_s": ok / (sum(times) / 1000.0),
        "op_ms_p50": statistics.median(times),
        "op_ms_tail": tail,
    }
    return figures, sum(t > tail for t in times)


def end_to_end(workload, records, imports, setups):
    """End-to-end metrics of a timed run at the reference host's speed, and
    the same figures from raw wall-clock times as notes.

    ``imports`` and ``setups`` are (wall s, reference-speed s) pairs; set-up
    time is the median import plus the median set-up.
    """
    ok = sum(r.error is None for r in records)
    scaled, above = timing_figures(workload, [r.ms * r.speed for r in records], ok)
    wall, _ = timing_figures(workload, [r.ms for r in records], ok)
    setup_s = [statistics.median(t[i] for t in imports) + statistics.median(t[i] for t in setups)
               for i in (0, 1)]
    metrics = {
        "setup_s": (setup_s[1], "s"),
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_ms_p50": (scaled["op_ms_p50"], "ms"),
        "op_ms_tail": (scaled["op_ms_tail"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    listed = ", ".join
    notes = {
        "op_ms_tail": f"p{workload.tail_pct} of {len(records)} operations, {above} above it",
        "setup_s": f"median package import in a fresh interpreter "
                   f"({listed(f'{t[1]:.3f}' for t in imports)} s) + median set-up "
                   f"({listed(f'{t[1]:.3f}' for t in setups)} s), at reference speed",
        "machine speed": f"median {statistics.median(r.speed for r in records):.3f} "
                         "of the reference host",
        "wall clock": json.dumps(dict(wall, setup_s=setup_s[0])),
    }
    return metrics, notes


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(totals, counts, rounds, setup_totals, overhead):
    """Per-layer metrics of a traced run: span totals and counts per traced
    round, ratios of the rounds' counters, and the generators' share of the
    traced set-up."""
    metrics = {}
    for name in sorted({t[2] for t in TARGETS} | {"graph.Graph.init", "graph.Graph.row_masks"}):
        calls, ms, self_ms = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / rounds, "count/round")
        metrics[f"{name}.ms"] = (ms / rounds, "ms/round")
        metrics[f"{name}.self_ms"] = (self_ms / rounds, "ms/round")
    for cmd in ("gen", "find", "verify"):
        metrics[f"cli.{cmd}.self_ms"] = (totals.get(f"cli.{cmd}", (0, 0.0, 0.0))[2] / rounds,
                                         "ms/round")
    calls = {name: row[0] for name, row in totals.items()}
    read_ms = totals.get("colouring.read_colouring", (0, 0.0, 0.0))[1]
    metrics.update({
        "graph.check_bipartite.odd_ratio": (
            _ratio(counts["graph.check_bipartite.odd"], calls.get("graph.check_bipartite", 0)), "ratio"),
        "peeling.peel.short_cycle_ratio": (
            _ratio(counts["peeling.peel.short_cycle"], calls.get("peeling.peel", 0)), "ratio"),
        "peeling.peel.removed_frac": (
            _ratio(counts["peeling.peel.removed"], counts["peeling.peel.active"]), "ratio"),
        "shortening.shorten_cycle.length_ratio": (
            _ratio(counts["shortening.shorten_cycle.out"], counts["shortening.shorten_cycle.in"]), "ratio"),
        "selector.select_complement.survivor_ratio": (
            _ratio(counts["selector.select_complement.survivors"],
                   counts["selector.select_complement.target"]), "ratio"),
        "colouring.read_colouring.mb_per_s": (
            _ratio(counts["colouring.read_colouring.bytes"] / 1e6, read_ms / 1000.0), "MB/s"),
        "pipeline.levels": (counts["pipeline.levels"] / rounds, "count/round"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    for branch in BRANCHES:
        metrics[f"pipeline.branch.{branch}"] = (counts[f"pipeline.branch.{branch}"] / rounds,
                                                "count/round")
    calls, ms, self_ms = setup_totals.get("colouring.generate", (0, 0.0, 0.0))
    metrics["setup.colouring.generate.calls"] = (calls, "count")
    metrics["setup.colouring.generate.ms"] = (ms, "ms")
    metrics["setup.colouring.generate.self_ms"] = (self_ms, "ms")
    return metrics


def expected_branch_counts(records):
    """Branch counts implied by the checked outputs of the traced pass."""
    counts = Counter()
    for r in records:
        if r.fingerprint and r.fingerprint[0] == "cycle":
            counts.update(r.fingerprint[3])
        elif r.fingerprint and r.fingerprint[0] == "inconsistency":
            counts[r.fingerprint[1]] += 1
    return counts


def git_commit():
    """HEAD of the checkout when it is a git repository, read from .git only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_metadata():
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def timed_run(oc, workload, seed, seconds, tiny, workdir):
    """Import SETUP_REPEATS times in fresh interpreters, set up SETUP_REPEATS
    times, then measure; end-to-end metrics."""
    imports = import_seconds()
    setups, failures = [], []
    for _ in range(SETUP_REPEATS):
        ops, took, warmup = setup(workload, oc, seed, tiny, workdir)
        setups.append(took)
        failures += warmup
    records, rounds = measure(ops, seconds, workload.min_rounds)
    metrics, notes = end_to_end(workload, records, imports, setups)
    return records, rounds, failures, metrics, notes


def traced_run(oc, workload, seed, seconds, tiny, workdir, spans_path):
    """Traced set-up, then rounds run untraced and at once again traced,
    until ``seconds`` have passed; per-layer metrics. Each operation's two
    outputs must agree, and the branch counts seen by the tracer must match
    the checked ones. Pairing rounds keeps the overhead estimate clear of
    slow drifts in machine speed."""
    tracer = Tracer()
    with tracer.installed(oc):
        tracer.op = "setup"
        ops, _, failures = setup(workload, oc, seed, tiny, workdir)
        tracer.op = None
    before = Counter(tracer.counts)
    untraced, traced = [], []
    rounds = 0
    start = time.perf_counter()
    while rounds < 1 or time.perf_counter() - start < seconds:
        untraced += [run_op(op) for op in ops]
        with tracer.installed(oc):
            traced += [run_op(op, tracer, f"{rounds}.{idx}") for idx, op in enumerate(ops)]
        rounds += 1
    for a, b in zip(untraced, traced):
        if a.error is None and b.error is None and a.fingerprint != b.fingerprint:
            failures.append(f"{a.kind}: traced output {b.fingerprint[:3]} differs "
                            f"from untraced {a.fingerprint[:3]}")
    counts = tracer.counts - before
    prefix = "pipeline.branch."
    seen = Counter({k[len(prefix):]: v for k, v in counts.items() if k.startswith(prefix)})
    expected = expected_branch_counts(traced)
    if seen != expected:
        failures.append(f"traced branch counts {dict(seen)} do not match "
                        f"the checked outputs {dict(expected)}")
    overhead = statistics.median(b.ms / a.ms for a, b in zip(untraced, traced)) - 1.0
    tracer.write(spans_path, {"workload": workload.name, "seed": seed})
    notes = {"trace": f"{rounds} rounds each untraced and traced, {len(tracer.spans)} spans "
                      f"in {spans_path.name}, overhead {overhead:.3f}; span totals and counts "
                      "are per traced round"}
    metrics = per_layer(tracer.aggregate(lambda op: op != "setup"), counts, rounds,
                        tracer.aggregate(lambda op: op == "setup"), overhead)
    return untraced + traced, rounds, failures, metrics, notes


def run_workload(oc, workload, seed, seconds, trace, tiny=False, out_dir=None):
    """Run one workload and return its result (see the module docstring).

    ``failed`` counts the measured operations that raised or failed their
    check; warm-up failures and traced/untraced mismatches are listed in
    ``failures`` too and also make the result incorrect.
    """
    name = workload.name
    out_dir = Path(out_dir) if out_dir is not None else ROOT / ".bench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"files-{name}-{seed}-{os.getpid()}"
    try:
        if trace:
            records, rounds, failures, metrics, notes = traced_run(
                oc, workload, seed, seconds, tiny, workdir, out_dir / f"spans-{name}-seed{seed}.jsonl")
        else:
            records, rounds, failures, metrics, notes = timed_run(
                oc, workload, seed, seconds, tiny, workdir)
    finally:
        if workdir.exists():
            for path in workdir.iterdir():
                path.unlink()
            workdir.rmdir()

    failures += [r.error for r in records if r.error is not None]
    attempted = len(records)
    failed = sum(r.error is not None for r in records)
    notes["fail_ratio"] = f"{failed}/{attempted} = {failed / attempted:g}"
    kinds = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r.ms)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "rounds": rounds,
        "operations": {kind: len(ms) for kind, ms in kinds.items()},
        "op_ms_p50_by_kind": {kind: statistics.median(ms) for kind, ms in kinds.items()},
        "op_ms": [[r.kind, r.ms, r.speed] for r in records],
        "meta": machine_metadata(),
        "notes": notes,
        "failures": failures,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out_dir / f"result-{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def report(result):
    """The printed lines: metadata, counts, notes, one line per metric, and
    last the JSON object the benchmark contract asks for."""
    lines = [
        "meta " + json.dumps(result["meta"], sort_keys=True),
        f"workload {result['workload']} seed {result['seed']}: {result['rounds']} rounds, "
        f"{result['attempted']} operations {json.dumps(result['operations'])}",
    ]
    lines += [f"{key}: {note}" for key, note in result["notes"].items()]
    lines += [f"{key} {m['value']:.6g} {m['unit']}" for key, m in result["metrics"].items()]
    lines.append(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    try:
        oc = import_package()
    except ImportError as exc:
        print(f"cannot import oddcycle from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    MachineSpeed.warm()
    result = run_workload(oc, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    for failure in result["failures"][:MAX_FAILURES_SHOWN]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("\n".join(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
