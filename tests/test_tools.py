"""The paired-run tool rejects bad arguments before it starts any run, and
says why a run failed."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"


@pytest.fixture
def paired_bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(module.subprocess, "run", no_run)
    return module


@pytest.mark.parametrize("seeds", ["5-5", "10-5", "5", "a-b", "1-2-3"])
def test_fewer_than_two_pairs_rejected_at_parsing(paired_bench, tmp_path, capsys, seeds):
    # a checkout whose one workload would start a run at once
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "structured-deep"}], "end_to_end": []}))
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--parent-commit", "a",
            "--change-commit", "b", "--seeds", seeds, "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit) as exit_info:
        paired_bench.main(argv)
    assert exit_info.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("claim", ["nocolon", "a:b:c", ":ops_per_s", "structured-deep:",
                                   "nosuch:ops_per_s", "structured-deep:nosuch",
                                   "structured-deep:analysis.anneal_search.calls"])
def test_bad_claim_rejected_at_parsing(paired_bench, tmp_path, capsys, claim):
    # a checkout whose one workload would start a run at once; the claim
    # must name that workload and one of its end-to-end metrics
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "structured-deep"}], "end_to_end": [{"name": "ops_per_s"}],
         "per_layer": [{"name": "analysis.anneal_search.calls"}]}))
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--parent-commit", "a",
            "--change-commit", "b", "--seeds", "1-2", "--claim", claim,
            "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit) as exit_info:
        paired_bench.main(argv)
    assert exit_info.value.code == 2
    assert "--claim" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_claim_of_a_workload_left_out_rejected(paired_bench, tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "structured-deep"}, {"name": "cli-file"}],
         "end_to_end": [{"name": "ops_per_s"}]}))
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--parent-commit", "a",
            "--change-commit", "b", "--seeds", "1-2", "--workloads", "cli-file",
            "--claim", "structured-deep:ops_per_s", "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit) as exit_info:
        paired_bench.main(argv)
    assert exit_info.value.code == 2
    assert "--claim" in capsys.readouterr().err


def test_seed_range_is_inclusive(paired_bench):
    assert paired_bench.seed_range("5-6") == range(5, 7)
    assert paired_bench.seed_range("12101-12110") == range(12101, 12111)


def test_claim_spec_splits_workload_and_metric(paired_bench):
    assert paired_bench.claim_spec("structured-deep:ops_per_s") == ("structured-deep", "ops_per_s")


def test_failed_run_reports_side_workload_seed_and_stderr(paired_bench, tmp_path, capsys,
                                                         monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "structured-deep"}], "end_to_end": []}))
    stderr = "".join(f"noise {k}\n" for k in range(40)) + "Traceback\nValueError: boom\n"

    def failed_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 3, stdout="", stderr=stderr)

    monkeypatch.setattr(paired_bench.subprocess, "run", failed_run)
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--parent-commit", "a",
            "--change-commit", "b", "--seeds", "7-8", "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit) as exit_info:
        paired_bench.main(argv)
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert "parent run of structured-deep seed 7" in err and "exit code 3" in err
    assert err.rstrip().endswith("ValueError: boom")
    assert "noise 39" in err and "noise 0\n" not in err  # the last lines only
    assert not (tmp_path / "out.json").exists()


END_TO_END = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def _summary(ops_per_s, failed, correct):
    """One run's last-line summary and result file, as ``run_once`` returns them."""
    return ({"metrics": {"ops_per_s": {"value": ops_per_s}}, "correct": correct,
             "failed": failed, "attempted": 100},
            {"op_ms_p50_by_kind": {"op": 1.0}, "op_ms": [["op", 1.0, 1.0]]})


def _record(paired_bench, parent_failed, change_failed, change_correct=True):
    # the change wins every pair, far outside the parent's spread
    runs = [{"seed": s, "first": "parent",
             "parent": _summary(10.0 + s % 2, parent_failed, True),
             "change": _summary(20.0 + s % 2, change_failed, change_correct)}
            for s in range(10)]
    return paired_bench.summarise(runs, END_TO_END)


def test_claim_needs_no_more_failed_operations(paired_bench):
    clean = _record(paired_bench, 0, 0)
    assert clean["metrics"]["ops_per_s"]["wins"] == 10
    assert paired_bench.claim_met(clean, "ops_per_s")
    assert paired_bench.claim_met(_record(paired_bench, 2, 2), "ops_per_s")
    # 10/10 wins, yet more of the change's operations fail
    assert not paired_bench.claim_met(_record(paired_bench, 0, 1), "ops_per_s")
    assert not paired_bench.claim_met(_record(paired_bench, 2, 3), "ops_per_s")
    # no operation fails, but a change run reports a wrong result
    assert not paired_bench.claim_met(_record(paired_bench, 0, 0, change_correct=False),
                                      "ops_per_s")


CORPUS = Path(__file__).resolve().parents[1] / "tools" / "output_corpus.py"


def _corpus():
    spec = importlib.util.spec_from_file_location("output_corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def test_output_corpus_reaches_every_branch_and_self_check():
    corpus = _corpus()
    oc = corpus.oc
    ham3 = oc.hamilton_colouring(3)
    named = [("ham4", oc.hamilton_colouring(4)),
             ("binary2xham3", oc.product_colouring(oc.binary_colouring(2), ham3)),
             ("ham3xham3", oc.product_colouring(ham3, ham3)),
             ("disjoint9x3", corpus._disjoint_cycles(9, 3)),
             ("disjoint11x3", corpus._disjoint_cycles(11, 3))]
    lines, tally = corpus.run(named)
    per_input = (1 + len(corpus.RELABEL_SEEDS)) * (len(corpus.RULES) + len(corpus.DELTAS) + 1)
    assert len(lines) == len(named) * per_input
    cases = [json.loads(line)["case"] for line in lines]
    assert len(set(cases)) == len(cases)
    for key in ("base", "bipartite-reduction", "short-cycle", "lemma2-branch",
                "selector-branch", "InternalInconsistency", "PipelineAssertError"):
        assert tally[key] > 0, key
    assert corpus.run(named) == (lines, tally)  # byte-reproducible


def test_output_corpus_search_lines_are_byte_reproducible():
    corpus = _corpus()
    lines = corpus.search_lines()
    records = [json.loads(line) for line in lines]
    cases = [r["case"] for r in records]
    assert len(set(cases)) == len(cases) == len(corpus.searches())
    for q, n in corpus.EXHAUSTIVE:
        assert f"exhaustive/q{q}n{n}" in cases
    inits = {case.split("/")[1] for case in cases if case.startswith("anneal/")}
    for init, qs in (("random", range(1, 6)), ("binary", range(2, 6)), ("hamilton", range(1, 6))):
        for q in qs:  # binary(1) has two vertices, too few to search
            assert any(name.startswith(f"{init}-q{q}n") for name in inits), (init, q)
    # every Generator-seeded run records the state it left the Generator in
    assert all((r["generator"] is None) == ("/generator" not in r["case"]) for r in records)
    assert corpus.search_lines() == lines


def test_output_corpus_front_end_lines_are_byte_reproducible():
    corpus = _corpus()
    lines = corpus.front_end_lines()
    records = {r["case"]: r for r in map(json.loads, lines)}
    files = [name for name, _ in corpus.FILES]
    assert list(records) == ([f"gen/{name}" for name in files] + ["gen/binary-q3", "gen/product-q2"]
                             + [f"find/{name}/{method}" for name in files for method in corpus.METHODS]
                             + [f"table/{name}" for name in corpus.CONFIGS])
    # K_9 is too small for the proposition at delta 1; every other command succeeds
    assert [case for case, r in records.items() if r["exit"]] == [f"find/{files[0]}/proposition"]
    for name in files:
        oracle = records[f"find/{name}/oracle"]
        (trace,) = [text for key, text in oracle["files"].items() if key.endswith(".trace")]
        printed = int(oracle["stdout"].rsplit("claimed bound", 1)[1].strip(" )\n"))
        assert json.loads(trace)["bound_claimed"] == printed
    assert corpus.front_end_lines() == lines  # the temporary directory shows as <dir>


def test_output_corpus_hashes_pinned():
    # Byte identity of every output (ROADMAP criterion 9): a change that
    # alters an output on purpose updates these pins and says so in CHANGES.md
    corpus = _corpus()
    lines, front, _ = corpus.corpus()
    assert corpus.sha256(lines) == "8be0c31f24210e77c25118911e5afccac749286e6faa3d7a0c091fd309a6e9ec"
    assert corpus.sha256(front) == "421478b932deefff217adb558f0ade934eb1fe2249517c0d10c36164acdd202d"


def test_output_corpus_grid_configs_copy_their_sources():
    from test_analysis import CONFIG

    corpus = _corpus()
    readme = (CORPUS.parents[1] / "README.md").read_text()
    block = readme.split("### Experiment grid config", 1)[1].split("```json", 1)[1].split("```")[0]
    assert corpus.CONFIGS == {"readme": json.loads(block), "test-analysis": CONFIG}
