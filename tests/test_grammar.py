"""One grammar for polynomial text.

``ring.poly``, ``ring.vector``, ``syntax.parse_polynomial`` and scripts read
polynomials with one expression parser and one evaluator, so the same text
means the same polynomial everywhere.  A unary sign binds looser than
``^`` (``-x^2`` is -(x^2)), as in Python.
"""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torsionlab.cli import main
from torsionlab.engine import _Engine, run_source
from torsionlab.errors import ScriptParseError
from torsionlab.fields import GF, QQ
from torsionlab.limits import INTEGER_BIT_CAP, NESTING_CAP
from torsionlab.modules import FPModule, annihilator
from torsionlab.rings import make_ring
from torsionlab.script import PrintStmt, Script, format_script, parse_script
from torsionlab.syntax import BinOp, IntLit, Name, Neg, parse_polynomial, parse_vector

NAMES = ("x", "y", "z")
SIGNED_NODE = (
    "ring R = QQ[x,y] / (-x^2 + y^2) with minimal_primes [(y - x), (y + x)] reduced;\n"
)


def outputs(source):
    return [r.output for r in run_source(source).results if r.output is not None]


class TestPrecedence:
    def test_a_sign_binds_looser_than_a_power(self):
        assert outputs("print -2^2;") == ["-4"]
        assert outputs("print (-2)^2;") == ["4"]
        assert outputs("print -(2^2);") == ["-4"]

    def test_a_ring_with_a_signed_power_is_the_ring_it_prints(self):
        report = run_source(SIGNED_NODE)
        assert [r.status for r in report.results] == ["ok"]
        descriptor = report.results[0].summary
        assert descriptor == "QQ[x,y]/(-x^2 + y^2)"
        # the descriptor is script text for the same ring
        again = run_source(f"ring S = {descriptor};")
        assert again.results[0].summary == descriptor

    def test_a_sign_after_a_minus_negates_the_power(self):
        ring = make_ring(
            QQ,
            ("x", "y"),
            ideal=[parse_polynomial("-x^2 + y^2", ("x", "y"), QQ)],
        )
        expected = annihilator(FPModule.from_rows(ring, [[ring.poly("x^2 + y^2")]]))
        source = SIGNED_NODE + "module M = coker [[y^2 - -x^2]] over R;\nprint ann(M);"
        assert outputs(source) == [expected.descriptor()]
        assert ring.poly("y^2 - -x^2") == ring.poly("x^2 + y^2")

    def test_module_elements_read_text_with_the_same_grammar(self):
        ring = make_ring(QQ, ("x", "y"))
        element = FPModule.free(ring, 2).element("[-x^2, (-y)^2]")
        assert element.coords == ring.vector("[-(x^2), y^2]")
        assert element.coords.component(0) == -ring.poly("x^2")

    def test_a_script_exponent_is_any_integer_expression(self):
        source = (
            "ring R = QQ[x];\nlet n = 3;\nmodule M = coker [[x^n, x^(n - 1)]] over R;"
        )
        report = run_source(source)
        assert report.exit_code == 0
        assert report.results[-1].source == "module M = coker [[x^n, x^(n - 1)]] over R;"


class TestPrinter:
    def test_a_parenthesized_right_operand_keeps_its_parentheses(self):
        report = run_source("print 5 - (2 - 1);")
        result = report.results[0]
        assert result.output == "4"
        assert result.source == "print 5 - (2 - 1);"
        assert outputs(result.source) == ["4"]

    def test_a_signed_power_prints_as_written(self):
        text = "print -x^2;\nprint (-x)^2;\nprint --x;\nprint x^(-2);\n"
        assert format_script(parse_script(text)) == text

    @given(
        tree=st.recursive(
            st.one_of(
                st.sampled_from([Name("x"), Name("y")]),
                st.integers(0, 20).map(IntLit),
            ),
            lambda inner: st.one_of(
                inner.map(Neg),
                st.builds(BinOp, st.sampled_from("+-*^"), inner, inner),
            ),
            max_leaves=12,
        )
    )
    @settings(max_examples=300)
    def test_printed_expressions_reparse_to_the_same_tree(self, tree):
        script = Script((PrintStmt(tree, line=1),))
        assert parse_script(format_script(script)) == script

    def test_a_reparsed_script_keeps_every_node_kind(self):
        # the nodes compare as tuples, so a list reparsed as a tuple, or an
        # assert as a print, would still be ==; their reprs name the kinds
        script = parse_script(
            "print f([x, y], (x, y));\n"
            "assert [1, 2] == (1, 2);\n"
            "verify prop2.2 M [e1, e2] (x, y);\n"
            "probe regularity R M e=1;\n"
        )
        assert repr(parse_script(format_script(script))) == repr(script)
        call = script.statements[0].expr
        assert [type(arg).__name__ for arg in call.args] == ["ListLit", "TupleLit"]


LONG_SUM = "print " + " + ".join(["1"] * 3000) + ";\n"
LONG_SIGNS = "print " + "-" * 3000 + "1;\n"
DEEP_PARENS = "print " + "(" * 400 + "1" + ")" * 400 + ";\n"


class TestDeepText:
    @pytest.mark.parametrize(
        "text, code, out",
        [
            (LONG_SUM, 0, "[ok] 3000"),
            (LONG_SIGNS, 0, "[ok] 1"),
            (DEEP_PARENS, 3, ""),
        ],
        ids=["long-sum", "long-signs", "deep-parens"],
    )
    def test_the_cli_answers_long_and_deep_text(self, tmp_path, capsys, text, code, out):
        script = tmp_path / "deep.tl"
        script.write_text(text)
        assert main(["run", str(script)]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.out.strip() == out
        if code == 3:
            # the bracket that opens one level too many, after "print "
            column = len("print ") + NESTING_CAP + 1
            assert f"deep.tl:1:{column}: brackets nest deeper than" in captured.err

    def test_the_library_reads_long_sums_and_runs_of_signs(self):
        ring = make_ring(QQ, ("x", "y"))
        assert ring.poly(" + ".join(["x"] * 3000)) == ring.poly("3000*x")
        assert ring.poly("-" * 3000 + "x") == ring.poly("x")
        assert ring.poly("-" * 3001 + "x^2") == ring.poly("-x^2")
        assert ring.vector("[" + " - ".join(["y"] * 3001) + "]") == ring.vector("[-2999*y]")

    def test_nesting_past_the_cap_is_a_parse_error_at_the_bracket(self):
        ring = make_ring(QQ, ("x", "y"))
        inside = "(" * NESTING_CAP + "x" + ")" * NESTING_CAP
        assert ring.poly(inside) == ring.poly("x")
        with pytest.raises(ScriptParseError) as err:
            ring.poly("(" * 400 + "x" + ")" * 400)
        assert (err.value.line, err.value.column) == (1, NESTING_CAP + 1)
        with pytest.raises(ScriptParseError):
            parse_script("print " + "[" * (NESTING_CAP + 1) + "]" * (NESTING_CAP + 1) + ";")
        nested_calls = "nu(" * (NESTING_CAP + 1) + "M" + ")" * (NESTING_CAP + 1)
        with pytest.raises(ScriptParseError):
            parse_script(f"print {nested_calls};")

    def test_a_high_tensor_power_is_built_in_a_loop(self):
        ring = make_ring(QQ, ("x",))
        free = FPModule.free(ring, 1)
        assert free.tensor_power(3000).ngens == 1
        assert free.tensor_power(2999) is free._tensor_powers[2999]


# Library text of every kind the library reads: signs before powers,
# nested parentheses, rationals and long sums.  ``python_text`` is the
# same text for Python's evaluator: ``^`` becomes ``**`` and each literal
# (an integer, or a rational ``a/b``) a ``Fraction``.


def expressions(depth, denominators):
    atoms = [
        st.sampled_from(NAMES),
        st.integers(0, 30).map(str),
        st.tuples(st.integers(0, 30), st.sampled_from(denominators)).map(
            lambda q: f"{q[0]}/{q[1]}"
        ),
    ]
    if depth:
        atoms.append(expressions(depth - 1, denominators).map(lambda t: f"({t})"))
    atom = st.one_of(*atoms)
    power = st.one_of(
        atom, st.tuples(atom, st.integers(0, 2)).map(lambda p: f"{p[0]}^{p[1]}")
    )
    unary = st.tuples(st.sampled_from(["", "-", "+", "- -", "-+", "--"]), power).map(
        "".join
    )
    product = st.lists(unary, min_size=1, max_size=2).map("*".join)
    rest = st.lists(st.tuples(st.sampled_from([" + ", " - "]), product), max_size=4)
    return st.tuples(product, rest).map(lambda t: t[0] + "".join(o + p for o, p in t[1]))


def texts(denominators):
    term = st.tuples(
        st.sampled_from([" + ", " - ", " - -", " + -"]),
        st.sampled_from(NAMES + ("2", "1/3")),
        st.sampled_from(["", "^2", "^0"]),
    ).map("".join)
    long_sum = st.lists(term, min_size=30, max_size=150).map(lambda ts: "x" + "".join(ts))
    return st.one_of(expressions(2, denominators), long_sum)


def python_text(text):
    return re.sub(r"(\d+)(?:\s*/\s*(\d+))?", _fraction, text).replace("^", "**")


def _fraction(match):
    numerator, denominator = match.groups()
    if denominator is None:
        return f"Fraction({numerator})"
    return f"Fraction({numerator}, {denominator})"


def value_at(poly, point, reduce):
    total = 0
    for mono, c in poly.terms.items():
        term = reduce(Fraction(c))
        for v, e in zip(point, mono):
            term *= reduce(v) ** e
        total += term
    return reduce(total)


FIELDS = {
    "QQ": (QQ, [1, 2, 3, 5, 12], lambda q: q),
    "GF(7)": (GF(7), [1, 2, 3, 5, 12], lambda q: q.numerator * pow(q.denominator, -1, 7) % 7),
}


class TestLibraryTextMeansWhatPythonMeans:
    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    @given(data=st.data())
    @settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_library_script_and_python_agree(self, field_name, data):
        field, denominators, reduce = FIELDS[field_name]
        text = data.draw(texts(denominators), label="text")
        library = parse_polynomial(text, NAMES, field)

        ring = make_ring(field, NAMES)
        field_text = "QQ" if field is QQ else f"GF({field.characteristic})"
        script = parse_script(
            f"ring R = {field_text}[x,y,z];\nmodule M = coker [[{text}]] over R;"
        )
        entry = _Engine(seed=0).eval_poly(script.statements[1].matrix[0][0], ring)
        assert entry == library

        coordinates = st.tuples(st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 5]))
        for _ in range(2):
            point = [Fraction(*data.draw(coordinates)) for _ in NAMES]
            python = eval(python_text(text), {"Fraction": Fraction, **dict(zip(NAMES, point))})
            assert value_at(library, point, reduce) == reduce(python)

    def test_the_python_translation_reads_each_literal_whole(self):
        assert python_text("-2^2 + 1/2*x - 3") == (
            "-Fraction(2)**Fraction(2) + Fraction(1, 2)*x - Fraction(3)"
        )


class TestRefusals:
    @pytest.mark.parametrize(
        "text, message, column",
        [
            ("x + w", "unknown variable 'w'", 5),
            ("x + 1/0", "zero denominator", 7),
            ("x + " + "9" * (INTEGER_BIT_CAP // 3 + 2), "integer literal longer than", 5),
            ("x y", "trailing input 'y'", 3),
            ("x^2 + 1)", "trailing input ')'", 8),
            ("x^y", "exponent must be a nonnegative integer", 3),
            ("x^2/3", "exponent must be a nonnegative integer", 3),
            ("[x]", "expected a polynomial, found '['", 1),
            ("(x, y)", "expected a polynomial, found '('", 1),
            ("x(y)", "expected a polynomial, found 'x'", 1),
            ("y - (x == y)", "expected a polynomial, found '=='", 8),
        ],
    )
    def test_positioned_refusals(self, text, message, column):
        with pytest.raises(ScriptParseError) as err:
            parse_polynomial(text, ("x", "y"), QQ)
        assert message in err.value.message
        assert (err.value.line, err.value.column) == (1, column)

    @pytest.mark.parametrize(
        "text, message, column",
        [
            ("[]", "empty vector", 2),
            ("[x == y]", "expected ']', found '=='", 4),
            ("[x, [y]]", "expected a polynomial, found '['", 5),
            ("[x] y", "trailing input 'y'", 5),
        ],
    )
    def test_positioned_vector_refusals(self, text, message, column):
        with pytest.raises(ScriptParseError) as err:
            parse_vector(text, ("x", "y"), QQ)
        assert err.value.message == message
        assert (err.value.line, err.value.column) == (1, column)

    @pytest.mark.parametrize(
        "text",
        ["", "x +", "x^-1", "x^(2)", "x^2^3", "x/y", "x == y", "2 ^ x", "y^", "@"],
    )
    def test_other_refusals_are_positioned_too(self, text):
        with pytest.raises(ScriptParseError) as err:
            parse_polynomial(text, ("x", "y"), QQ)
        assert err.value.line == 1 and err.value.column >= 1
