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

    @pytest.mark.parametrize("n, q, seed", [(9, 3, 7), (16, 3, 11), (8, 2, 3)])
    def test_oracle_trace_records_its_bound(self, runner, tmp_path, n, q, seed):
        # the trace record is the base branch's: bound and oracle length set
        col = gen_random(runner, tmp_path / "c.txt", n=n, q=q, seed=seed)
        cert, trace = tmp_path / "o.cert", tmp_path / "o.trace"
        result = runner.invoke(main, ["find", "--in", str(col), "--method", "oracle",
                                      "--out-cert", str(cert), "--trace", str(trace)])
        assert result.exit_code == 0, result.output
        printed = int(result.output.rsplit("claimed bound", 1)[1].strip(" )\n"))
        (record,) = [json.loads(line) for line in trace.read_text().splitlines()]
        assert record["bound_claimed"] == printed == n
        assert record["branch"] == "base" and not record["fallback_used"]
        assert record["sizes"] == {"oracle_length": len(cert.read_text().split()) - 2}

    @pytest.mark.parametrize("method, option, value", [
        ("proposition", "--delta", "nan"), ("proposition", "--delta", "inf"),
        ("proposition", "--delta", "0"), ("pipeline", "--C", "nan"),
        ("pipeline", "--C", "inf"), ("pipeline", "--C", "-1"), ("pipeline", "--eps", "nan"),
    ])
    def test_bad_real_option_exits_2(self, runner, tmp_path, method, option, value):
        col = gen_random(runner, tmp_path / "c.txt", n=16, q=3, seed=11)
        trace = tmp_path / "x.trace"
        result = runner.invoke(main, ["find", "--in", str(col), "--method", method, option, value,
                                      "--out-cert", str(tmp_path / "x.cert"), "--trace", str(trace)])
        assert result.exit_code == 2, result.output
        assert "input error" in result.stderr and "Traceback" not in result.output
        assert not trace.exists()

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
        import oddcycle.analysis as run_mod  # the module whose runner find calls

        def boom(*args, **kwargs):
            raise InternalInconsistency("forced", witness={"edge": (0, 1)})

        monkeypatch.setattr(run_mod, "find_mono_odd_cycle", boom)
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


class TestPathErrors:
    """A path that cannot be read, decoded or written is an input error:
    one line naming it, and exit 2."""

    NOT_UTF8 = b"oddcycle-colouring v1\n3 2\n0 \xff\n1\n"

    @staticmethod
    def _input_error(result, *words):
        assert result.exit_code == 2, result.output
        assert result.output.startswith("input error:"), result.output
        assert "Traceback" not in result.output
        assert all(word in result.output for word in words), result.output

    @pytest.mark.parametrize("command", ["find", "verify", "peel", "gen"])
    def test_colouring_not_utf8_exits_2(self, runner, tmp_path, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(self.NOT_UTF8)
        cert = tmp_path / "c.cert"
        cert.write_text("cycle 0 0 1 2\n")
        args = {
            "find": ["find", "--in", str(bad), "--method", "oracle",
                     "--out-cert", str(tmp_path / "x.cert"), "--trace", str(tmp_path / "x.trace")],
            "verify": ["verify", "--in", str(bad), "--cert", str(cert)],
            "peel": ["peel", "--in", str(bad), "--colour", "0", "--k", "3"],
            "gen": ["gen", "--kind", "product", "--q", "1", "--in2", str(bad),
                    "--out", str(tmp_path / "p.txt")],
        }[command]
        self._input_error(runner.invoke(main, args), "line 3", "0xff")

    def test_certificate_not_utf8_exits_2(self, runner, tmp_path):
        col = gen_random(runner, tmp_path / "c.txt")
        bad = tmp_path / "bad.cert"
        bad.write_bytes(b"cycle 0 \xfe 1 2\n")
        result = runner.invoke(main, ["verify", "--in", str(col), "--cert", str(bad)])
        self._input_error(result, "line 1", "0xfe")

    def test_gen_out_in_missing_directory_exits_2(self, runner, tmp_path):
        out = tmp_path / "missing" / "x.txt"
        result = runner.invoke(main, ["gen", "--kind", "binary", "--q", "2", "--out", str(out)])
        self._input_error(result, str(out))

    @pytest.mark.parametrize("option", ["--out-cert", "--trace"])
    def test_find_output_in_missing_directory_exits_2(self, runner, tmp_path, option):
        col = gen_random(runner, tmp_path / "c.txt")
        paths = {"--out-cert": tmp_path / "x.cert", "--trace": tmp_path / "x.trace"}
        paths[option] = tmp_path / "missing" / "out"
        result = runner.invoke(
            main,
            ["find", "--in", str(col), "--method", "oracle",
             "--out-cert", str(paths["--out-cert"]), "--trace", str(paths["--trace"])],
        )
        self._input_error(result, str(paths[option]))

    def test_find_trace_in_missing_directory_leaves_no_certificate(self, runner, tmp_path):
        col = gen_random(runner, tmp_path / "c.txt")
        cert, trace = tmp_path / "x.cert", tmp_path / "missing" / "t"
        result = runner.invoke(
            main,
            ["find", "--in", str(col), "--method", "oracle",
             "--out-cert", str(cert), "--trace", str(trace)],
        )
        self._input_error(result, str(trace))
        assert not cert.exists()

    @staticmethod
    def _verify_with_tail(runner, tmp_path, first, tail):
        """``verify`` of a valid 9-vertex colouring against a certificate
        file holding ``first`` (the found certificate's line 1 when None)
        and then the bytes ``tail``."""
        col = gen_random(runner, tmp_path / "c.txt")
        cert = tmp_path / "x.cert"
        found = runner.invoke(main, ["find", "--in", str(col), "--method", "oracle",
                                     "--out-cert", str(cert), "--trace", str(tmp_path / "t")])
        assert found.exit_code == 0, found.output
        line = cert.read_bytes().rstrip(b"\n") if first is None else first
        cert.write_bytes(line + tail)
        return runner.invoke(main, ["verify", "--in", str(col), "--cert", str(cert)])

    @pytest.mark.parametrize("tail", [b"\n2 \xff\n", b"\r\n\xff", b"\r\xff\n", b"\n" + b"\xfe" * 20000],
                             ids=["lf", "crlf", "cr", "past-first-chunk"])
    def test_certificate_later_line_not_utf8_is_ignored(self, runner, tmp_path, tail):
        result = self._verify_with_tail(runner, tmp_path, None, tail)
        assert result.exit_code == 0, result.output
        assert result.output == "ok\n"

    def test_certificate_first_line_not_utf8_with_more_lines_exits_2(self, runner, tmp_path):
        result = self._verify_with_tail(runner, tmp_path, b"cycle 0 0 \xff 2", b"\n\xfe\n")
        self._input_error(result, "line 1", "0xff")


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

    def test_lq_exact_guard_on_a_huge_count(self, runner):
        result = runner.invoke(main, ["lq-exact", "--q", "2", "--n", "200"])
        assert result.exit_code == 2
        assert "input error:" in result.output

    @pytest.mark.parametrize("command", [
        ["search", "--q", "2", "--n", "5", "--iters", "10"],
        ["gen", "--kind", "random", "--q", "2", "--n", "5"],
    ], ids=["search", "gen"])
    def test_negative_seed_exits_2(self, runner, tmp_path, command):
        out = tmp_path / "x.txt"
        result = runner.invoke(main, command + ["--seed", "-1", "--out", str(out)])
        assert result.exit_code == 2
        assert "input error: invalid seed" in result.output
        assert not out.exists()

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

    @pytest.mark.parametrize("config", [
        '[]', '{"grid": {"q": 3}}', '{"grid": [3]}', '{"grid": [{"q": 3, "methods": "oracle"}]}',
        '{"grid": [{"q": 3, "seeds": 0}]}', '{"grid": [',
        pytest.param('{"grid": [{"q": 1' + '0' * 5000 + '}]}', id="int-past-digit-limit"),
    ])
    def test_table_config_of_wrong_shape_exits_2(self, runner, tmp_path, config):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg.write_text(config)
        result = runner.invoke(main, ["table", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "input error" in result.stderr
        assert not out.exists()

    def test_table_malformed_cells_become_error_rows(self, runner, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg.write_text(json.dumps({"grid": [
            {"generator": "random", "q": "abc", "n": 9, "seeds": [0]},
            {"generator": "random", "q": 3, "n": 9},
            {"generator": "random", "q": 3, "n": 9, "seeds": [0]},
        ]}))
        result = runner.invoke(main, ["table", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert "InputError" in lines[1] and "InputError" in lines[2]
        assert lines[3].startswith("3,9,0,oracle,3,9,base,,")
