"""The script language: statements, a positioned parser, and a printer.

Grammar sketch (statements end with ``;``, ``#`` starts a comment):

    ring R = QQ[x,y];
    ring R = GF(5)[x,y] / (x*y) with minimal_primes [(x),(y)] reduced ci;
    module M = coker [[x],[y]] over R;
    module M = coker [[x],[y]] over R degrees (0,0);
    let T = tensor_power(M, 3);
    verify thm2.8 over R with sequence (x,y);
    verify thm2.10 M N case=1;
    verify prop2.2 M [e1, e2] (x, y);
    verify thm3.5 M e=1;
    verify carrier M;
    probe regularity R M e=1 e2=1;
    probe question2.12 R panel=4 seed=42 cap=4;
    print pd(M);
    assert torsion_free(tensor_power(M, 2));

Expressions cover identifiers, integers, calls with positional and ``k=v``
arguments, list literals, parenthesised tuples, and arithmetic (used for
polynomial fragments, which are evaluated against a ring at run time).
Their grammar is ``syntax.ExpressionParser``, which the statement parser
extends and the library's polynomial text shares.  Parsed scripts print
back to canonical text that reparses to an equal script.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Set, Tuple, Union

from .errors import ScriptParseError
from .syntax import (
    BinOp,
    Call,
    Expr,
    ExpressionParser,
    IntLit,
    ListLit,
    Name,
    Neg,
    RationalLit,
    TupleLit,
    int_literal,
)

# ---------------------------------------------------------------------------
# statement AST


class RingStmt(NamedTuple):
    name: str
    field_kind: str  # "QQ" or "GF"
    characteristic: int
    variables: Tuple[str, ...]
    ideal: Tuple[Expr, ...]
    minimal_primes: Tuple[Tuple[Expr, ...], ...]
    reduced: bool
    complete_intersection: bool
    grading: Optional[Tuple[int, ...]]
    line: int


class ModuleStmt(NamedTuple):
    name: str
    matrix: Tuple[Tuple[Expr, ...], ...]
    ring_name: str
    degrees: Optional[Tuple[int, ...]]
    line: int


class LetStmt(NamedTuple):
    name: str
    expr: Expr
    line: int


class VerifyStmt(NamedTuple):
    claim: str
    args: Tuple[Expr, ...]
    kwargs: Tuple[Tuple[str, Expr], ...]
    line: int


class ProbeStmt(NamedTuple):
    kind: str
    args: Tuple[Expr, ...]
    kwargs: Tuple[Tuple[str, Expr], ...]
    line: int


class PrintStmt(NamedTuple):
    expr: Expr
    line: int


class AssertStmt(NamedTuple):
    expr: Expr
    line: int


Statement = Union[
    RingStmt, ModuleStmt, LetStmt, VerifyStmt, ProbeStmt, PrintStmt, AssertStmt
]


class Script(NamedTuple):
    statements: Tuple[Statement, ...]


# ---------------------------------------------------------------------------
# parser


class _Parser(ExpressionParser):
    def parse_script(self) -> Script:
        statements: List[Statement] = []
        while self.peek().kind != "end":
            statements.append(self.parse_statement())
        return Script(tuple(statements))

    # -- statements ---------------------------------------------------

    def parse_statement(self) -> Statement:
        tok = self.peek()
        keyword = tok.text
        if keyword == "ring":
            return self.parse_ring()
        if keyword == "module":
            return self.parse_module()
        if keyword == "verify":
            return self.parse_verify()
        if keyword == "probe":
            return self.parse_probe()
        if keyword == "let":
            self.next()
            name = self._name()
            self.expect("=")
            return LetStmt(name, self._ended(self.parse_expression()), tok.line)
        if keyword in ("print", "assert"):
            self.next()
            node = PrintStmt if keyword == "print" else AssertStmt
            return node(self._ended(self.parse_expression()), tok.line)
        name = self._key(set())
        if name is not None:
            # bare assignment: sugar for let
            return LetStmt(name, self._ended(self.parse_expression()), tok.line)
        raise ScriptParseError(
            f"expected a statement keyword, found {keyword!r}", tok.line, tok.column
        )

    def _ended(self, value):
        self.expect(";")
        return value

    def _name(self) -> str:
        tok = self.peek()
        if tok.kind != "name":
            raise ScriptParseError(
                f"expected an identifier, found {tok.text!r}", tok.line, tok.column
            )
        self.next()
        return tok.text

    def _int(self) -> int:
        tok = self.peek()
        sign = 1
        if tok.text == "-":
            self.next()
            sign = -1
            tok = self.peek()
        if tok.kind != "int":
            raise ScriptParseError(
                f"expected an integer, found {tok.text!r}", tok.line, tok.column
            )
        self.next()
        return sign * int_literal(tok)

    def _int_tuple(self) -> Tuple[int, ...]:
        self.expect("(")
        return tuple(self._sequence(self._int, ")"))

    def _expr_tuple(self) -> Tuple[Expr, ...]:
        self.expect("(")
        return tuple(self._sequence(self.parse_expression, ")"))

    def _row(self) -> Tuple[Expr, ...]:
        self.expect("[")
        if self.peek().text == "]":
            self.next()
            return ()
        return tuple(self._sequence(self.parse_expression, "]"))

    def parse_ring(self) -> RingStmt:
        line = self.peek().line
        self.expect("ring")
        name = self._name()
        self.expect("=")
        field_tok = self.peek()
        field_kind = self._name()
        if field_kind == "QQ":
            characteristic = 0
        elif field_kind == "GF":
            self.expect("(")
            characteristic = self._int()
            self.expect(")")
        else:
            raise ScriptParseError(
                f"unknown coefficient field {field_kind!r} (use QQ or GF(p))",
                field_tok.line,
                field_tok.column,
            )
        self.expect("[")
        variables = self._sequence(self._name, "]")
        ideal: Tuple[Expr, ...] = ()
        if self.peek().text == "/":
            self.next()
            ideal = self._expr_tuple()
        primes: List[Tuple[Expr, ...]] = []
        reduced = False
        ci = False
        grading: Optional[Tuple[int, ...]] = None
        if self.peek().text == "with":
            self.next()
            while self.peek().text != ";":
                clause_tok = self.peek()
                clause = self._name()
                if clause == "minimal_primes":
                    self.expect("[")
                    primes += self._sequence(self._expr_tuple, "]")
                elif clause == "reduced":
                    reduced = True
                elif clause == "ci":
                    ci = True
                elif clause == "grading":
                    grading = self._int_tuple()
                else:
                    raise ScriptParseError(
                        f"unknown ring clause {clause!r}",
                        clause_tok.line,
                        clause_tok.column,
                    )
        self.expect(";")
        return RingStmt(
            name=name,
            field_kind=field_kind,
            characteristic=characteristic,
            variables=tuple(variables),
            ideal=ideal,
            minimal_primes=tuple(primes),
            reduced=reduced,
            complete_intersection=ci,
            grading=grading,
            line=line,
        )

    def parse_module(self) -> ModuleStmt:
        line = self.peek().line
        self.expect("module")
        name = self._name()
        self.expect("=")
        self.expect("coker")
        self.expect("[")
        rows = self._sequence(self._row, "]")
        self.expect("over")
        ring_name = self._name()
        degrees: Optional[Tuple[int, ...]] = None
        if self.peek().text == "degrees":
            self.next()
            degrees = self._int_tuple()
        self.expect(";")
        return ModuleStmt(
            name=name,
            matrix=tuple(rows),
            ring_name=ring_name,
            degrees=degrees,
            line=line,
        )

    def parse_verify(self) -> VerifyStmt:
        line = self.peek().line
        self.expect("verify")
        claim = self._name()
        args, kwargs = self._arguments(("over", "with", "sequence", ","))
        return VerifyStmt(claim=claim, args=args, kwargs=kwargs, line=line)

    def parse_probe(self) -> ProbeStmt:
        line = self.peek().line
        self.expect("probe")
        kind = self._name()
        args, kwargs = self._arguments((",",))
        return ProbeStmt(kind=kind, args=args, kwargs=kwargs, line=line)

    def _arguments(
        self, skip: Tuple[str, ...]
    ) -> Tuple[Tuple[Expr, ...], Tuple[Tuple[str, Expr], ...]]:
        """Positional and ``key=value`` arguments up to and including the
        closing ';', passing over the tokens in ``skip``."""
        args: List[Expr] = []
        kwargs: List[Tuple[str, Expr]] = []
        keys: Set[str] = set()
        while self.peek().text != ";":
            if self.peek().text in skip:
                self.next()
                continue
            key = self._key(keys)
            if key is None:
                args.append(self.parse_atom_or_group())
            else:
                kwargs.append((key, self.parse_expression()))
        self.expect(";")
        return tuple(args), tuple(kwargs)


def parse_script(text: str) -> Script:
    """Parse source text; failures carry line and column."""
    return _Parser(text).parse_script()


# ---------------------------------------------------------------------------
# printer (canonical form; reparses to an equal Script)


def format_expr(expr: Expr) -> str:
    """Canonical text of ``expr``, which reparses to an equal tree.  The
    left spine is printed in a loop, like ``syntax.evaluate`` walks it."""
    spine = []
    while isinstance(expr, (Neg, BinOp)):
        spine.append(expr)
        expr = expr.operand if isinstance(expr, Neg) else expr.left
    text, inner = _format_atom(expr), expr
    for node in reversed(spine):
        if isinstance(node, Neg):
            text = "-" + _wrap(text, inner, 3)
        else:
            left, right = _OPERANDS[node.op]
            joint = "^" if node.op == "^" else f" {node.op} "
            text = _wrap(text, inner, left) + joint + _wrap(
                format_expr(node.right), node.right, right
            )
        inner = node
    return text


def _format_atom(expr: Expr) -> str:
    if isinstance(expr, Name):
        return expr.identifier
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, RationalLit):
        return f"{expr.numerator}/{expr.denominator}"
    if isinstance(expr, Call):
        return f"{expr.function}({_format_arguments(expr.args, expr.kwargs)})"
    if isinstance(expr, ListLit):
        return "[" + ", ".join(format_expr(i) for i in expr.items) + "]"
    if isinstance(expr, TupleLit):
        return "(" + ", ".join(format_expr(i) for i in expr.items) + ")"
    raise TypeError(f"unknown expression node {expr!r}")


def _format_arguments(args, kwargs) -> str:
    parts = [format_expr(a) for a in args]
    parts.extend(f"{k}={format_expr(v)}" for k, v in kwargs)
    return ", ".join(parts)


# How tightly each form binds, loosest first: a Neg is 3 and an atom 5.
_PRECEDENCE = {"==": 0, "!=": 0, "+": 1, "-": 1, "*": 2, "^": 4}
# The least precedence each side of an operator takes without parentheses
# (a Neg's operand takes 3): sums and products chain to the left only,
# comparisons do not chain, and a power's base and exponent are atoms.
_OPERANDS = {
    "==": (1, 1), "!=": (1, 1), "+": (1, 2), "-": (1, 2), "*": (2, 3), "^": (5, 5)
}


def _wrap(text: str, expr: Expr, least: int) -> str:
    if isinstance(expr, BinOp):
        precedence = _PRECEDENCE[expr.op]
    else:
        precedence = 3 if isinstance(expr, Neg) else 5
    return f"({text})" if precedence < least else text


def format_statement(stmt: Statement) -> str:
    if isinstance(stmt, RingStmt):
        field = "QQ" if stmt.field_kind == "QQ" else f"GF({stmt.characteristic})"
        out = f"ring {stmt.name} = {field}[{','.join(stmt.variables)}]"
        if stmt.ideal:
            out += " / (" + ", ".join(format_expr(e) for e in stmt.ideal) + ")"
        clauses = []
        if stmt.minimal_primes:
            primes = ",".join(
                "(" + ", ".join(format_expr(g) for g in prime) + ")"
                for prime in stmt.minimal_primes
            )
            clauses.append(f"minimal_primes [{primes}]")
        if stmt.grading is not None:
            clauses.append("grading (" + ",".join(map(str, stmt.grading)) + ")")
        if stmt.reduced:
            clauses.append("reduced")
        if stmt.complete_intersection:
            clauses.append("ci")
        if clauses:
            out += " with " + " ".join(clauses)
        return out + ";"
    if isinstance(stmt, ModuleStmt):
        rows = ",".join(
            "[" + ", ".join(format_expr(e) for e in row) + "]" for row in stmt.matrix
        )
        out = f"module {stmt.name} = coker [{rows}] over {stmt.ring_name}"
        if stmt.degrees is not None:
            out += " degrees (" + ",".join(map(str, stmt.degrees)) + ")"
        return out + ";"
    if isinstance(stmt, LetStmt):
        return f"let {stmt.name} = {format_expr(stmt.expr)};"
    if isinstance(stmt, VerifyStmt):
        return f"verify {stmt.claim} {_format_arguments(stmt.args, stmt.kwargs)};"
    if isinstance(stmt, ProbeStmt):
        return f"probe {stmt.kind} {_format_arguments(stmt.args, stmt.kwargs)};"
    if isinstance(stmt, PrintStmt):
        return f"print {format_expr(stmt.expr)};"
    if isinstance(stmt, AssertStmt):
        return f"assert {format_expr(stmt.expr)};"
    raise TypeError(f"unknown statement {stmt!r}")


def format_script(script: Script) -> str:
    return "\n".join(format_statement(s) for s in script.statements) + "\n"
