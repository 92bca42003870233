"""The call table of script operations and its one binder: argument counts,
keywords, repeated keys and the values a script may negate."""

from __future__ import annotations

import pytest

from torsionlab import engine
from torsionlab.engine import run_source
from torsionlab.errors import ScriptParseError
from torsionlab.script import parse_script

HEADER = "ring R = GF(2)[x,y];\nmodule M = coker [[x],[y]] over R;\n"

# (table, the statement that runs an entry given its name and arguments,
# the label an error names it by)
FORMS = (
    (engine._FUNCTIONS, "print {name}({args});", "{name}"),
    (engine._CLAIMS, "verify {name} {args};", "verify {name}"),
    (engine._PROBES, "probe {name} {args};", "probe {name}"),
)

ENTRIES = [
    pytest.param(table, statement, label, name, id=label)
    for table, statement, form in FORMS
    for name in table
    for label in [form.format(name=name)]
]


def last_summary(statement: str) -> str:
    report = run_source(HEADER + statement + "\n")
    result = report.results[-1]
    assert result.status == "error", result.summary
    return result.summary


def arguments(count: int, keyword: str = "") -> str:
    return ", ".join(["M"] * count + ([keyword] if keyword else []))


@pytest.mark.parametrize("table, statement, label, name", ENTRIES)
class TestEveryEntry:
    def counts(self, table, name):
        params = table[name][0]
        return sum(isinstance(param, str) for param in params), len(params)

    def test_one_argument_too_few(self, table, statement, label, name):
        required, _ = self.counts(table, name)
        text = statement.format(name=name, args=arguments(required - 1))
        assert last_summary(text).startswith(f"InputError: {label} expects ")

    def test_one_argument_too_many(self, table, statement, label, name):
        _, most = self.counts(table, name)
        text = statement.format(name=name, args=arguments(most + 1))
        assert last_summary(text).startswith(f"InputError: {label} expects ")

    def test_an_unknown_keyword(self, table, statement, label, name):
        _, most = self.counts(table, name)
        text = statement.format(name=name, args=arguments(most, "bogus=1"))
        assert last_summary(text) == f"InputError: {label} has no keyword 'bogus'"

    def test_the_routine_finds_the_library_when_it_runs(
        self, table, statement, label, name
    ):
        # a routine the table captured from another module would hide its
        # calls from a wrapper bound to the engine's module-level name
        assert table[name][2].__module__ == engine.__name__


class TestUnknownKeywordsAreErrors:
    def test_nu_with_a_stray_keyword(self):
        assert last_summary("print nu(M, bogus=3);") == (
            "InputError: nu has no keyword 'bogus'"
        )

    def test_thm28_with_a_stray_keyword(self):
        text = "verify thm2.8 over R with sequence (x,y) bogus=7;"
        assert last_summary(text) == "InputError: verify thm2.8 has no keyword 'bogus'"

    def test_a_mistyped_frobenius_keyword(self):
        assert last_summary("print nu(F(M, ee=2));") == (
            "InputError: F has no keyword 'ee'"
        )

    def test_known_keywords_still_run(self):
        report = run_source(
            HEADER + "print nu(F(M, e=2));\nverify thm2.8 over R with sequence (x,y);\n"
        )
        assert [r.status for r in report.results[2:]] == ["ok", "pass"]


class TestResolveAnnAndTheRunSeed:
    def test_resolve_takes_one_or_two_arguments(self):
        assert last_summary("print resolve();") == (
            "InputError: resolve expects 1 or 2 argument(s)"
        )
        report = run_source(HEADER + "print resolve(M);\nprint resolve(M, 1);\n")
        assert [r.status for r in report.results[2:]] == ["ok", "ok"]

    def test_ann_takes_a_module_and_refuses_a_number(self):
        report = run_source(HEADER + "print ann(M);\n")
        assert report.results[-1].status == "ok"
        assert last_summary("print ann(3);") == (
            "InputError: ann expects a module or a module element"
        )

    def test_the_question_probe_seed_defaults_to_the_run_seed(self):
        source = "ring Q = QQ[x,y];\nprobe question2.12 Q panel=2 cap=2;\n"
        seeded = "ring Q = QQ[x,y];\nprobe question2.12 Q panel=2 seed=7 cap=2;\n"
        default = run_source(source, seed=7).results[-1].report
        assert default == run_source(seeded).results[-1].report


class TestRepeatedKeys:
    def assert_refused_at(self, text: str, key: str):
        with pytest.raises(ScriptParseError, match=f"repeated keyword '{key}'") as err:
            parse_script(text)
        line = text[: text.rindex(f"{key}=")].count("\n") + 1
        column = text.rindex(f"{key}=") - text[: text.rindex(f"{key}=")].rfind("\n")
        assert (err.value.line, err.value.column) == (line, column)

    def test_in_a_call(self):
        self.assert_refused_at("print nu(F(N, e=1, e=2));", "e")

    def test_in_a_probe(self):
        self.assert_refused_at(
            "ring P = QQ[x,y];\nprobe question2.12 P panel=1 cap=2 panel=2;", "panel"
        )

    def test_in_a_verify(self):
        self.assert_refused_at("verify thm2.10 M N case=1\n  case=2;", "case")

    def test_keys_are_scoped_to_their_call(self):
        parse_script("print nu(F(F(M, e=1), e=2));")
        parse_script("probe regularity R M e=1 e2=1;")


class TestNegation:
    def test_a_boolean_is_not_negated(self):
        for text in ("print -(1 == 1);", "print -(1 != 1);"):
            assert last_summary(text) == "InputError: cannot negate this value"

    def test_numbers_are_still_negated(self):
        report = run_source("print -(3);\nprint -(1/2);\n")
        assert [r.output for r in report.results] == ["-3", "-1/2"]


class TestTruthValues:
    """A comparison's bool is no number: arithmetic refuses it, and it
    compares only with another comparison."""

    def test_arithmetic_on_a_comparison_is_refused(self):
        assert last_summary("print (1 == 1) + 1;") == (
            "InputError: operator '+' needs integer operands here"
        )

    def test_a_comparison_does_not_equal_a_number(self):
        assert last_summary("print (1 == 1) == 1;") == (
            "InputError: operator '==' cannot compare a truth value with another value"
        )
        assert last_summary("print 0 != (1 != 1);") == (
            "InputError: operator '!=' cannot compare a truth value with another value"
        )

    def test_a_comparison_is_no_count(self):
        assert last_summary("print tensor_power(M, (1 == 1) * 2);") == (
            "InputError: operator '*' needs integer operands here"
        )

    def test_comparisons_compare_with_each_other(self):
        report = run_source("print (1 == 1) == (2 == 2);\nprint (1 == 1) != (1 != 1);\n")
        assert [r.output for r in report.results] == ["True", "True"]
