"""Script parsing, round-trips, execution, and exit codes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab.engine import run_source
from torsionlab.errors import ScriptParseError
from torsionlab.script import format_script, parse_script


NODE_HEADER = (
    "ring R = GF(5)[x,y] / (x*y) with minimal_primes [(x),(y)] reduced ci;\n"
)


class TestParser:
    def test_single_ring_statement(self):
        script = parse_script("ring R = QQ[x,y];")
        assert len(script.statements) == 1
        stmt = script.statements[0]
        assert stmt.name == "R" and stmt.variables == ("x", "y")

    def test_module_and_verify(self):
        script = parse_script(
            "module M = coker [[x],[y]] over R; verify thm2.8 R (x,y);"
        )
        assert len(script.statements) == 2
        assert script.statements[0].matrix == (
            script.statements[0].matrix[0],
            script.statements[0].matrix[1],
        )
        assert script.statements[1].claim == "thm2.8"

    def test_node_ring_with_clauses(self):
        script = parse_script(NODE_HEADER)
        stmt = script.statements[0]
        assert stmt.characteristic == 5
        assert len(stmt.minimal_primes) == 2
        assert stmt.reduced and stmt.complete_intersection

    def test_malformed_matrix_positioned_error(self):
        with pytest.raises(ScriptParseError) as err:
            parse_script("module M = coker [[x]+] over R;")
        assert err.value.line == 1
        assert err.value.column > 0

    def test_unterminated_statement(self):
        with pytest.raises(ScriptParseError):
            parse_script("ring R = QQ[x,y]")

    def test_comments_and_whitespace(self):
        script = parse_script("# defines the plane\nring R = QQ[x,y];  # done\n")
        assert len(script.statements) == 1

    @pytest.mark.parametrize(
        "source",
        [
            "ring R = QQ[x,y];",
            NODE_HEADER,
            "ring S = QQ[a,b] / (a^3 - b^2) with grading (2,3);",
            "module M = coker [[x],[y]] over R;",
            "module M = coker [[x, 1],[y, 0]] over R degrees (0,0);",
            "let T = tensor_power(M, 3);",
            "verify thm2.8 over R with sequence (x,y);",
            "verify thm2.10 M N case=1;",
            "verify prop2.2 M [e1, e2] (x, y);",
            "verify thm3.5 M e=1;",
            "verify carrier M;",
            "probe regularity R M e=1 e2=1;",
            "probe question2.12 R panel=3 seed=7 cap=4;",
            "print ann(tau(M, [e1, e2]));",
            "assert torsion_free(tensor_power(M, 2));",
            "assert pd(M) == 1;",
            "let q = 1/2;",
        ],
    )
    def test_print_parse_round_trip(self, source):
        script = parse_script(source)
        printed = format_script(script)
        assert parse_script(printed) == script

    def test_parser_never_crashes_on_junk(self):
        for junk in ["@@@", "ring = ;", "verify", "module M = [x];", "((((", "=1;"]:
            with pytest.raises(ScriptParseError):
                parse_script(junk)

    def test_bare_assignment_is_let_sugar(self):
        sugar = parse_script("T = tensor_power(M, 3);")
        explicit = parse_script("let T = tensor_power(M, 3);")
        assert sugar == explicit

    @given(text=st.text(max_size=60))
    @settings(max_examples=150)
    def test_parser_totality(self, text):
        # any input either parses or raises a positioned diagnostic
        try:
            parse_script(text)
        except ScriptParseError as exc:
            assert exc.line >= 1 and exc.column >= 1


class TestExecution:
    def test_node_torsion_free_script(self):
        source = (
            NODE_HEADER
            + "module M = coker [[x]] over R;\n"
            + "assert torsion_free(tensor_power(M, 3));\n"
        )
        report = run_source(source)
        assert report.exit_code == 0
        assert [r.status for r in report.results] == ["ok", "ok", "pass"]

    def test_empty_script(self):
        report = run_source("")
        assert report.exit_code == 0
        assert report.results == []

    def test_failing_assertion_sets_exit_one(self):
        source = (
            "ring Q = QQ[x,y];\n"
            "module K = coker [[x],[y]] over Q;\n"
            "assert torsion_free(tensor_power(K, 2));\n"
        )
        report = run_source(source)
        assert report.exit_code == 1
        assert report.results[-1].status == "fail"

    def test_verify_statement_produces_certificate(self):
        source = "ring Q = QQ[x,y];\nverify thm2.8 over Q with sequence (x,y);\n"
        report = run_source(source)
        assert report.exit_code == 0
        assert len(report.certificates) == 1
        assert report.certificates[0].claim == "thm2.8"

    def test_error_recorded_and_execution_continues(self):
        source = (
            "ring Q = QQ[x,y];\n"
            "module M = coker [[w]] over Q;\n"  # unknown variable w
            "print nu(M);\n"  # depends on the failed definition
            "ring S = QQ[z];\n"  # independent, still runs
        )
        report = run_source(source)
        statuses = [r.status for r in report.results]
        assert statuses[1] == "error"
        assert statuses[2] == "error"
        assert statuses[3] == "ok"
        assert report.exit_code == 3

    def test_inapplicable_exit_code(self, tmp_path):
        source = (
            NODE_HEADER
            + "module M = coker [[x]] over R;\n"
            + "verify thm2.10 M M case=1;\n"
        )
        report = run_source(source)
        assert report.exit_code == 2

    def test_print_and_let(self):
        source = (
            "ring Q = QQ[x,y];\n"
            "module K = coker [[x],[y]] over Q;\n"
            "let A = ann(tau(K, [e1, e2]));\n"
            "print A;\n"
            "print pd(K);\n"
            "print depth((x,y), K);\n"
        )
        report = run_source(source)
        assert report.exit_code == 0
        outputs = [r.output for r in report.results if r.output]
        assert outputs[0] == "(x, y)"
        assert outputs[1] == "1"
        assert outputs[2] == "1"

    def test_frobenius_functions(self):
        source = (
            "ring R = GF(2)[x,y] with reduced ci;\n"
            "module M = coker [[x],[y]] over R;\n"
            "let F1 = F(M, e=1);\n"
            "let P = restrict(M, e=1);\n"
            "assert torsion_free(F1);\n"
            "probe regularity R M;\n"
        )
        report = run_source(source)
        assert report.exit_code == 0, [r.summary for r in report.results]

    def test_remaining_expression_functions(self):
        source = (
            NODE_HEADER
            + "module M = coker [[x^2]] over R;\n"
            + "let T = torsion(M);\n"
            + "assert nu(T) == 1;\n"
            + "let TF = tf(M);\n"
            + "assert torsion_free(TF);\n"
            + "let Mmin = minimal(tensor(M, M));\n"
            + "assert nu(Mmin) == 1;\n"
            + "assert hilbert(M, 1) == 2;\n"
            + "let H = tor_frobenius(M, e=1, i=1);\n"
            + "let N = pushforward(TF);\n"
            + "let t1 = tor(M, M, 1);\n"
            + "assert is_free(minimal(M)) == is_free(M);\n"
        )
        report = run_source(source)
        assert report.exit_code == 0, [r.summary for r in report.results]

    def test_probe_question_report(self):
        source = "ring Q = QQ[x,y];\nprobe question2.12 Q panel=2 seed=3 cap=2;\n"
        report = run_source(source)
        assert report.exit_code == 0
        entry = report.results[-1]
        assert entry.report is not None
        assert entry.report["claim"] == "question2.12"

    def test_resolution_default_bound(self):
        source = (
            NODE_HEADER
            + "module M = coker [[x]] over R;\n"
            + "print resolve(M, 4);\n"
        )
        report = run_source(source)
        assert report.exit_code == 0
        assert "(truncated)" in report.results[-1].output


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        from torsionlab.cli import main

        script = tmp_path / "demo.tl"
        script.write_text(
            "ring Q = QQ[x,y];\n"
            "module K = coker [[x],[y]] over Q;\n"
            "assert pd(K) == 1;\n"
        )
        json_path = tmp_path / "out.json"
        code = main(["run", str(script), "--json", str(json_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "[pass]" in captured.out
        import json as json_module

        data = json_module.loads(json_path.read_text())
        assert data["schema"] == 1
        assert data["exit_code"] == 0

    def test_run_parse_error_exit_three(self, tmp_path, capsys):
        from torsionlab.cli import main

        script = tmp_path / "bad.tl"
        script.write_text("module M = coker [[x]+] over R;\n")
        assert main(["run", str(script)]) == 3
        assert "bad.tl:1:" in capsys.readouterr().err

    def test_verify_suite_filter(self, capsys):
        from torsionlab.cli import main

        code = main(["verify-suite", "paper", "--only", "criterion-03"])
        assert code == 0
        out = capsys.readouterr().out
        assert "criterion-03-node-regression" in out

    def demo_script(self, tmp_path):
        script = tmp_path / "demo.tl"
        script.write_text(
            "ring Q = QQ[x,y];\nmodule K = coker [[x]] over Q;\nprint nu(K);\n"
        )
        return str(script)

    def assert_input_error(self, argv, capsys, needle):
        from torsionlab.cli import main

        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err

    def test_run_cache_under_a_file_exit_three(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cache_dir = str(blocker / "cache")
        argv = ["run", self.demo_script(tmp_path), "--cache", cache_dir]
        self.assert_input_error(argv, capsys, cache_dir)

    def test_run_json_in_missing_directory_exit_three(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "out.json")
        argv = ["run", self.demo_script(tmp_path), "--json", out]
        self.assert_input_error(argv, capsys, out)

    def test_verify_suite_json_in_missing_directory_exit_three(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "out.json")
        argv = ["verify-suite", "paper", "--only", "criterion-03", "--json", out]
        self.assert_input_error(argv, capsys, out)

    def test_run_degree_cap_zero_exit_three(self, tmp_path, capsys):
        argv = ["run", self.demo_script(tmp_path), "--degree-cap", "0"]
        self.assert_input_error(argv, capsys, "degree cap must be positive")

    def test_run_degree_cap_zero_makes_no_cache_directory(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["run", self.demo_script(tmp_path), "--degree-cap", "0"]
        argv += ["--cache", str(cache_dir)]
        self.assert_input_error(argv, capsys, "degree cap must be positive")
        assert not cache_dir.exists()

    def test_run_degree_too_long_to_print_exit_three(self, tmp_path, capsys):
        # 2^15000 has 4516 digits, over what str() converts
        script = tmp_path / "huge.tl"
        script.write_text(
            "ring R = GF(2)[x,y] / (x*y) with minimal_primes [(x),(y)] reduced;\n"
            "module M = coker [[x]] over R;\n"
            "print torsion_free(F(M, e=15000));\n"
        )
        from torsionlab.cli import main

        assert main(["run", str(script)]) == 3
        captured = capsys.readouterr()
        out = captured.out
        assert "[error] ResourceLimitError: a term degree of 4516 digits " in out
        assert "exceeds the degree cap 64" in out
        assert "Traceback" not in captured.out + captured.err
