#!/usr/bin/env python3
"""Paired parent/change runs of the benchmark, summarised as a BENCH_*.json.

    python3 tools/paired_bench.py --parent DIR --change DIR \\
        --parent-commit SHA --change-commit SHA --seeds 12101-12110 \\
        --claim structured-deep:ops_per_s --out BENCH_x.json

``DIR`` is a checkout of each commit (``git archive`` into a scratch
directory will do). For each workload of the parent's ``BENCHMARK.json``
and each seed, both checkouts run ``bench/run.py --trace 0`` one after the
other, one process at a time; even-numbered pairs start with the parent,
odd ones with the change. The record holds every run, each side's median
and quartiles, the pairs each side won (ties count for neither), whether
the change's median stays within the benchmark's bound, and the claim
rule: the change wins at least 9/10 of the pairs, its median beats the
parent's by more than the parent's interquartile range, every change run
is correct, and the change fails no larger share of its operations than
the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

STDERR_LINES = 20  # of a failed run's stderr, shown before the tool stops
CLAIM_RULE = ("change wins >= 9/10 pairs, its median beats the parent's by more than the "
              "parent's IQR, every change run is correct, and its failed/attempted is not "
              "above the parent's")


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def seed_range(text):
    """``first-last`` as a range of at least 2 seeds, for argparse: quartiles
    need 2 or more pairs."""
    try:
        first, last = (int(s) for s in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected first-last, got {text!r}") from None
    if last - first < 1:
        raise argparse.ArgumentTypeError(f"need first < last (2 or more pairs), got {text!r}")
    return range(first, last + 1)


def claim_spec(text):
    """``workload:metric`` as a pair, for argparse."""
    parts = text.split(":")
    if len(parts) != 2 or not all(parts):
        raise argparse.ArgumentTypeError(f"expected workload:metric, got {text!r}")
    return tuple(parts)


def run_once(side, root, workload, seed, seconds):
    """One ``bench/run.py`` process: its last-line JSON and its result file.
    A failed run ends the tool with exit code 1, after naming the side,
    workload, seed and exit code of the run and the end of its stderr."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        tail = out.stderr.rstrip().splitlines()[-STDERR_LINES:]
        print(f"{side} run of {workload} seed {seed} in {root} failed with exit code "
              f"{out.returncode}; the last lines of its stderr:", *tail, sep="\n",
              file=sys.stderr)
        sys.exit(1)
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    result_path = Path(root) / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json"
    return summary, json.loads(result_path.read_text())


def per_kind_p50(result):
    """Median op time per kind at reference-host speed (ms times speed)."""
    kinds = {}
    for kind, ms, speed in result["op_ms"]:
        kinds.setdefault(kind, []).append(ms * speed)
    return {kind: statistics.median(v) for kind, v in kinds.items()}


def summarise(runs, end_to_end):
    """The record of one workload from its ``(seed, first side, parent, change)`` runs."""
    sides = ("parent", "change")
    metrics = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        values = {s: [r[s][0]["metrics"][name]["value"] for r in runs] for s in sides}
        pairs = list(zip(values["parent"], values["change"]))
        wins = sum((c > p) if higher else (c < p) for p, c in pairs)
        losses = sum((c < p) if higher else (c > p) for p, c in pairs)
        stats = {s: quartiles(values[s]) for s in sides}
        rel = stats["change"]["median"] / stats["parent"]["median"] - 1.0
        worse = -rel if higher else rel
        metrics[name] = {
            "better": spec["better"], "bound": spec["bound"], "unit": spec["unit"],
            "parent": stats["parent"], "change": stats["change"],
            "parent_runs": values["parent"], "change_runs": values["change"],
            "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            "relative_change_of_median": rel, "wins": wins, "losses": losses,
            "within_bound": worse <= spec["bound"],
        }
    kinds = sorted(runs[0]["parent"][1]["op_ms_p50_by_kind"])
    by_kind = {k: {s: statistics.median(per_kind_p50(r[s][1])[k] for r in runs) for s in sides}
               for k in kinds}
    by_kind["what"] = ("per operation kind, the median over the runs of each run's median time "
                       "at reference-host speed (ms times the measured machine speed)")
    return {
        "pairs": len(runs),
        "seeds": [r["seed"] for r in runs],
        "first_side": {str(r["seed"]): r["first"] for r in runs},
        "correct": {s: all(r[s][0]["correct"] for r in runs) for s in sides},
        "failed_over_attempted": {s: [sum(r[s][0]["failed"] for r in runs),
                                      sum(r[s][0]["attempted"] for r in runs)] for s in sides},
        "machine_speed_median": {s: statistics.median(speed for r in runs
                                                      for _, _, speed in r[s][1]["op_ms"])
                                 for s in sides},
        "op_ms_p50_by_kind": by_kind,
        "metrics": metrics,
    }


def claim_met(record, metric):
    m = record["metrics"][metric]
    gain = m["change"]["median"] - m["parent"]["median"]
    if m["better"] == "lower":
        gain = -gain
    (parent_failed, parent_ops), (change_failed, change_ops) = (
        record["failed_over_attempted"][s] for s in ("parent", "change"))
    # a gain does not count when a larger share of operations fails
    fails_no_more = change_failed * parent_ops <= parent_failed * change_ops
    return (m["wins"] >= 0.9 * record["pairs"] and gain > m["parent_iqr"]
            and record["correct"]["change"] and fails_no_more)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range,
                        help="first-last, inclusive, first < last")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads", nargs="*", help="default: every benchmark workload")
    parser.add_argument("--claim", type=claim_spec,
                        help="workload:metric of the claimed gain, an end-to-end metric of a "
                             "workload that runs")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((Path(args.parent) / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    if args.claim:
        claimed, metric = args.claim
        if claimed not in workloads:
            parser.error(f"--claim: workload {claimed!r} is not run (runs {workloads})")
        if metric not in [m["name"] for m in spec["end_to_end"]]:
            parser.error(f"--claim: {metric!r} is not an end-to-end metric of the benchmark")
    roots = {"parent": args.parent, "change": args.change}
    record = {
        "parent_commit": args.parent_commit,
        "change_commit": args.change_commit,
        "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {args.seconds:g} "
                   "--trace 0",
        "what": f"Paired parent/change runs of bench/run.py --seconds {args.seconds:g} --trace 0, "
                "one workload per process, alternating which side runs first; seeds "
                f"{args.seeds[0]}-{args.seeds[-1]} were not used while the change was written. "
                "Times are at reference-host speed as bench/run.py reports them.",
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "nproc": os.cpu_count()},
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for j, seed in enumerate(args.seeds):
            order = ("parent", "change") if j % 2 == 0 else ("change", "parent")
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_once(side, roots[side], workload, seed, args.seconds)
            runs.append(run)
            ops = [run[s][0]["metrics"]["ops_per_s"]["value"] for s in ("parent", "change")]
            print(f"{workload} seed {seed}: ops_per_s parent {ops[0]:.2f} change {ops[1]:.2f}",
                  flush=True)
        meta = runs[0]["parent"][1]["meta"]
        record["machine"].update({k: meta[k] for k in ("cpu", "numpy") if k in meta})
        record["workloads"][workload] = summarise(runs, spec["end_to_end"])
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.claim:
        record["claim"] = {"workload": claimed, "metric": metric, "rule": CLAIM_RULE,
                           "met": claim_met(record["workloads"][claimed], metric)}
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
