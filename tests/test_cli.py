import json

import pytest
from click.testing import CliRunner

from oddcycle import InputError, InternalInconsistency, read_colouring
from oddcycle.cli import _rule, main


@pytest.fixture
def runner():
    return CliRunner()


def gen_random(runner, path, n=9, q=3, seed=7):
    result = runner.invoke(
        main, ["gen", "--kind", "random", "--q", str(q), "--n", str(n), "--seed", str(seed), "--out", str(path)]
    )
    assert result.exit_code == 0, result.output
    return path


class TestGen:
    def test_random_round_trip(self, runner, tmp_path):
        path = gen_random(runner, tmp_path / "c.txt")
        c = read_colouring(path)
        assert (c.n, c.q) == (9, 3)

    def test_binary(self, runner, tmp_path):
        out = tmp_path / "b.txt"
        result = runner.invoke(main, ["gen", "--kind", "binary", "--q", "3", "--out", str(out)])
        assert result.exit_code == 0
        assert read_colouring(out).n == 8

    def test_product_reads_second_factor(self, runner, tmp_path):
        b2 = tmp_path / "b2.txt"
        runner.invoke(main, ["gen", "--kind", "binary", "--q", "2", "--out", str(b2)])
        out = tmp_path / "p.txt"
        result = runner.invoke(
            main, ["gen", "--kind", "product", "--q", "3", "--in2", str(b2), "--out", str(out)]
        )
        assert result.exit_code == 0
        c = read_colouring(out)
        assert (c.n, c.q) == (32, 5)

    def test_missing_args_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["gen", "--kind", "random", "--q", "2", "--out", str(tmp_path / "x.txt")]
        )
        assert result.exit_code == 2


class TestFindVerify:
    def test_pipeline_then_verify(self, runner, tmp_path):
        col = gen_random(runner, tmp_path / "c.txt")
        cert = tmp_path / "cert.txt"
        trace = tmp_path / "trace.jsonl"
        result = runner.invoke(
            main,
            ["find", "--in", str(col), "--method", "pipeline",
             "--out-cert", str(cert), "--trace", str(trace)],
        )
        assert result.exit_code == 0, result.output
        first = cert.read_text().split()
        assert first[0] == "cycle"
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records and "branch" in records[0]
        verdict = runner.invoke(main, ["verify", "--in", str(col), "--cert", str(cert)])
        assert verdict.exit_code == 0
        assert "ok" in verdict.output

    def test_oracle_and_proposition(self, runner, tmp_path):
        col = gen_random(runner, tmp_path / "c.txt", n=8, q=2, seed=3)
        for method, extra in (("oracle", []), ("proposition", ["--delta", "1"])):
            cert = tmp_path / f"{method}.cert"
            trace = tmp_path / f"{method}.trace"
            result = runner.invoke(
                main,
                ["find", "--in", str(col), "--method", method,
                 "--out-cert", str(cert), "--trace", str(trace)] + extra,
            )
            assert result.exit_code == 0, result.output
            verdict = runner.invoke(main, ["verify", "--in", str(col), "--cert", str(cert)])
            assert verdict.exit_code == 0

    def test_rule_overrides_accepted(self, runner, tmp_path):
        col = gen_random(runner, tmp_path / "c.txt")
        result = runner.invoke(
            main,
            ["find", "--in", str(col), "--method", "pipeline", "--eps", "0.5",
             "--C", "0.1", "--k-rule", "8*q**3", "--small-rule", "4*q**10",
             "--fallback", "oracle",
             "--out-cert", str(tmp_path / "c2.cert"), "--trace", str(tmp_path / "c2.trace")],
        )
        assert result.exit_code == 0, result.output

    def test_rule_evaluates_integer_arithmetic(self):
        assert _rule("8*q**3")(3) == 216
        assert _rule("4*q**10")(2) == 4096
        assert _rule("-(q + 1) // 2")(5) == -3

    @pytest.mark.parametrize(
        "expr",
        [
            "().__class__.__base__.__subclasses__().__len__()",
            "__import__('os')",
            "q / 2",
            "1.5 * q",
            "abs(q)",
            "True + q",
            "q ** -1",
            "9 ** 9 ** 9 ** 9",
            "q // 0",
            "(q",
            "-" * 100_000 + "q",
        ],
    )
    def test_rule_rejects_anything_else(self, expr):
        with pytest.raises(InputError):
            _rule(expr)(3)

    def test_object_graph_rule_exits_2(self, runner, tmp_path):
        col = gen_random(runner, tmp_path / "c.txt")
        result = runner.invoke(
            main,
            ["find", "--in", str(col), "--method", "pipeline",
             "--k-rule", "().__class__.__base__.__subclasses__().__len__()",
             "--out-cert", str(tmp_path / "x.cert"), "--trace", str(tmp_path / "x.trace")],
        )
        assert result.exit_code == 2

    def test_violation_exits_1(self, runner, tmp_path):
        col = gen_random(runner, tmp_path / "c.txt")
        bad = tmp_path / "bad.cert"
        bad.write_text("cycle 0 0 1 1\n")
        result = runner.invoke(main, ["verify", "--in", str(col), "--cert", str(bad)])
        assert result.exit_code == 1
        assert "violation" in result.output + (result.stderr or "")

    def test_all_bipartite_input_exits_2(self, runner, tmp_path):
        b3 = tmp_path / "b3.txt"
        runner.invoke(main, ["gen", "--kind", "binary", "--q", "3", "--out", str(b3)])
        result = runner.invoke(
            main,
            ["find", "--in", str(b3), "--method", "pipeline",
             "--out-cert", str(tmp_path / "x.cert"), "--trace", str(tmp_path / "x.trace")],
        )
        assert result.exit_code == 2

    def test_internal_inconsistency_exits_3(self, runner, tmp_path, monkeypatch):
        col = gen_random(runner, tmp_path / "c.txt")
        import oddcycle.cli as cli_mod

        def boom(*args, **kwargs):
            raise InternalInconsistency("forced", witness={"edge": (0, 1)})

        monkeypatch.setattr(cli_mod, "find_mono_odd_cycle", boom)
        result = runner.invoke(
            main,
            ["find", "--in", str(col), "--method", "pipeline",
             "--out-cert", str(tmp_path / "x.cert"), "--trace", str(tmp_path / "x.trace")],
        )
        assert result.exit_code == 3

    def test_parse_error_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a colouring\n")
        result = runner.invoke(
            main,
            ["find", "--in", str(bad), "--method", "oracle",
             "--out-cert", str(tmp_path / "x.cert"), "--trace", str(tmp_path / "x.trace")],
        )
        assert result.exit_code == 2

    def test_colour_count_past_int16_exits_2(self, runner, tmp_path):
        # colour 70000 would not fit the int16 table: an input error, not a crash
        big = tmp_path / "big.txt"
        big.write_text("oddcycle-colouring v1\n2 100000\n70000\n")
        result = runner.invoke(
            main,
            ["find", "--in", str(big), "--method", "oracle",
             "--out-cert", str(tmp_path / "x.cert"), "--trace", str(tmp_path / "x.trace")],
        )
        assert result.exit_code == 2
        assert "line 2" in result.output
        result = runner.invoke(
            main, ["gen", "--kind", "random", "--q", "40000", "--n", "3", "--seed", "1",
                   "--out", str(tmp_path / "g.txt")]
        )
        assert result.exit_code == 2


class TestPeelCommand:
    def test_decomposition_summary(self, runner, tmp_path):
        b3 = tmp_path / "b3.txt"
        runner.invoke(main, ["gen", "--kind", "binary", "--q", "3", "--out", str(b3)])
        result = runner.invoke(main, ["peel", "--in", str(b3), "--colour", "0", "--k", "3"])
        assert result.exit_code == 0
        assert "decomposition" in result.output

    def test_short_cycle_output(self, runner, tmp_path):
        col = gen_random(runner, tmp_path / "c.txt", n=9, q=1, seed=0)
        result = runner.invoke(main, ["peel", "--in", str(col), "--colour", "0", "--k", "4"])
        assert result.exit_code == 0
        assert "short odd cycle" in result.output

    def test_bad_colour_exits_2(self, runner, tmp_path):
        col = gen_random(runner, tmp_path / "c.txt")
        result = runner.invoke(main, ["peel", "--in", str(col), "--colour", "9", "--k", "3"])
        assert result.exit_code == 2


class TestAnalysisCommands:
    def test_lq_exact(self, runner):
        result = runner.invoke(main, ["lq-exact", "--q", "2", "--n", "5"])
        assert result.exit_code == 0
        assert "L(2,5) = 5" in result.output

    def test_lq_exact_all_bipartite(self, runner):
        result = runner.invoke(main, ["lq-exact", "--q", "2", "--n", "4"])
        assert result.exit_code == 0
        assert "none" in result.output

    def test_lq_exact_guard(self, runner):
        result = runner.invoke(main, ["lq-exact", "--q", "3", "--n", "8"])
        assert result.exit_code == 2

    def test_search_writes_colouring(self, runner, tmp_path):
        out = tmp_path / "best.txt"
        result = runner.invoke(
            main, ["search", "--q", "2", "--n", "5", "--iters", "2000", "--seed", "5", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert "objective 5" in result.output
        assert read_colouring(out).n == 5

    def test_table_byte_stable(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "grid": [
                        {"generator": "random", "q": 2, "n": 6, "seeds": [0, 1],
                         "methods": ["oracle", "pipeline"]}
                    ]
                }
            )
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1 = runner.invoke(main, ["table", "--config", str(cfg), "--out", str(out1)])
        r2 = runner.invoke(main, ["table", "--config", str(cfg), "--out", str(out2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
