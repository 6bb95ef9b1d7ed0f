"""Smoke test of the benchmark at tiny sizes: ``python -m pytest bench``.

Every workload, traced and untraced, must print every metric that
BENCHMARK.json lists, with its unit; the structured workload must reach the
signature pigeonhole; and a corrupted certificate must be counted as a
failed operation.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def oc():
    return run.import_package()


def tiny_run(oc, workload, trace, tmp_path):
    workload = dataclasses.replace(workload, min_rounds=1)
    result = run.run_workload(oc, workload, seed=3, seconds=0, trace=trace, tiny=True,
                              out_dir=tmp_path)
    return result, run.report(result)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_printed_with_unit(oc, tmp_path, name, trace, section):
    result, lines = tiny_run(oc, WORKLOADS[name], trace, tmp_path)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, result["failures"]
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: m["unit"] for k, m in last["metrics"].items()} == expected
    for key, unit in expected.items():
        assert any(line.startswith(f"{key} ") and line.endswith(f" {unit}") for line in lines)
    assert {"cpu", "nproc", "python", "numpy", "commit"} <= set(result["meta"])


def test_structured_reaches_every_pipeline_stage(oc, tmp_path):
    result, _ = tiny_run(oc, WORKLOADS["structured-deep"], 1, tmp_path)
    assert result["correct"], result["failures"]
    for name in ("pipeline.signatures", "peeling.peel", "shortening.shorten_cycle",
                 "selector.select_complement", "pipeline.reduce_bipartite_colour"):
        assert result["metrics"][f"{name}.calls"]["value"] > 0, name


def test_corrupted_certificate_raises_fail_ratio(oc, tmp_path):
    base = WORKLOADS["threshold-random"]

    def corrupting_setup(oc, seed, tiny, workdir):
        ops = base.setup(oc, seed, tiny, workdir)
        for op in ops:
            op.run = drop_last_vertex(oc, op.run)
        return ops

    result, lines = tiny_run(oc, dataclasses.replace(base, setup=corrupting_setup), 0, tmp_path)
    last = json.loads(lines[-1])
    assert not last["correct"]
    # every measured operation failed its own check, not only the warm-up
    assert last["failed"] == last["attempted"] == len(result["op_ms"]) >= 1
    measured = [f for f in result["failures"] if not f.startswith("warm-up ")]
    assert len(measured) == last["attempted"]
    assert all("certificate rejected" in f for f in measured)
    assert any(line.startswith("fail_ratio: ") and line.endswith("= 1") for line in lines)


def drop_last_vertex(oc, run_op):
    def corrupted():
        result = run_op()
        cert = result.certificate
        return dataclasses.replace(
            result, certificate=oc.OddCycleCertificate(cert.vertices[:-1], cert.colour)
        )

    return corrupted
