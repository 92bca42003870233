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
Parsed scripts print back to canonical text that reparses to an equal
script.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from .errors import ScriptParseError
from .syntax import TokenStream, denominator_literal, int_literal, tokenize

# ---------------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class Name:
    identifier: str


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class RationalLit:
    numerator: int
    denominator: int


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * ^ == !=
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Call:
    function: str
    args: Tuple["Expr", ...]
    kwargs: Tuple[Tuple[str, "Expr"], ...] = ()


@dataclass(frozen=True)
class ListLit:
    items: Tuple["Expr", ...]


@dataclass(frozen=True)
class TupleLit:
    items: Tuple["Expr", ...]


Expr = Union[Name, IntLit, RationalLit, BinOp, Neg, Call, ListLit, TupleLit]


# ---------------------------------------------------------------------------
# statement AST


@dataclass(frozen=True)
class RingStmt:
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


@dataclass(frozen=True)
class ModuleStmt:
    name: str
    matrix: Tuple[Tuple[Expr, ...], ...]
    ring_name: str
    degrees: Optional[Tuple[int, ...]]
    line: int


@dataclass(frozen=True)
class LetStmt:
    name: str
    expr: Expr
    line: int


@dataclass(frozen=True)
class VerifyStmt:
    claim: str
    args: Tuple[Expr, ...]
    kwargs: Tuple[Tuple[str, Expr], ...]
    line: int


@dataclass(frozen=True)
class ProbeStmt:
    kind: str
    args: Tuple[Expr, ...]
    kwargs: Tuple[Tuple[str, Expr], ...]
    line: int


@dataclass(frozen=True)
class PrintStmt:
    expr: Expr
    line: int


@dataclass(frozen=True)
class AssertStmt:
    expr: Expr
    line: int


Statement = Union[
    RingStmt, ModuleStmt, LetStmt, VerifyStmt, ProbeStmt, PrintStmt, AssertStmt
]


@dataclass(frozen=True)
class Script:
    statements: Tuple[Statement, ...]


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.stream = TokenStream(tokenize(text))

    def parse_script(self) -> Script:
        statements: List[Statement] = []
        while self.stream.peek().kind != "end":
            statements.append(self.parse_statement())
        return Script(tuple(statements))

    # -- statements ---------------------------------------------------

    def parse_statement(self) -> Statement:
        tok = self.stream.peek()
        keyword = tok.text
        if keyword == "ring":
            return self.parse_ring()
        if keyword == "module":
            return self.parse_module()
        if keyword == "let":
            return self.parse_let()
        if keyword == "verify":
            return self.parse_verify()
        if keyword == "probe":
            return self.parse_probe()
        if keyword == "print":
            return self.parse_print()
        if keyword == "assert":
            return self.parse_assert()
        if (
            tok.kind == "name"
            and self.stream.tokens[self.stream.index + 1].text == "="
        ):
            # bare assignment: sugar for let
            line = tok.line
            name = self._name()
            self.stream.expect("=")
            expr = self.parse_expression()
            self.stream.expect(";")
            return LetStmt(name=name, expr=expr, line=line)
        raise ScriptParseError(
            f"expected a statement keyword, found {keyword!r}", tok.line, tok.column
        )

    def _name(self) -> str:
        tok = self.stream.peek()
        if tok.kind != "name":
            raise ScriptParseError(
                f"expected an identifier, found {tok.text!r}", tok.line, tok.column
            )
        self.stream.next()
        return tok.text

    def _int(self) -> int:
        tok = self.stream.peek()
        sign = 1
        if tok.text == "-":
            self.stream.next()
            sign = -1
            tok = self.stream.peek()
        if tok.kind != "int":
            raise ScriptParseError(
                f"expected an integer, found {tok.text!r}", tok.line, tok.column
            )
        self.stream.next()
        return sign * int_literal(tok)

    def parse_ring(self) -> RingStmt:
        line = self.stream.peek().line
        self.stream.expect("ring")
        name = self._name()
        self.stream.expect("=")
        field_tok = self.stream.peek()
        field_kind = self._name()
        if field_kind == "QQ":
            characteristic = 0
        elif field_kind == "GF":
            self.stream.expect("(")
            characteristic = self._int()
            self.stream.expect(")")
        else:
            raise ScriptParseError(
                f"unknown coefficient field {field_kind!r} (use QQ or GF(p))",
                field_tok.line,
                field_tok.column,
            )
        self.stream.expect("[")
        variables = [self._name()]
        while self.stream.peek().text == ",":
            self.stream.next()
            variables.append(self._name())
        self.stream.expect("]")
        ideal: Tuple[Expr, ...] = ()
        if self.stream.peek().text == "/":
            self.stream.next()
            self.stream.expect("(")
            ideal = tuple(self._expr_list(")"))
            self.stream.expect(")")
        primes: List[Tuple[Expr, ...]] = []
        reduced = False
        ci = False
        grading: Optional[Tuple[int, ...]] = None
        if self.stream.peek().text == "with":
            self.stream.next()
            while self.stream.peek().text != ";":
                clause_tok = self.stream.peek()
                clause = self._name()
                if clause == "minimal_primes":
                    self.stream.expect("[")
                    while True:
                        self.stream.expect("(")
                        primes.append(tuple(self._expr_list(")")))
                        self.stream.expect(")")
                        if self.stream.peek().text == ",":
                            self.stream.next()
                            continue
                        break
                    self.stream.expect("]")
                elif clause == "reduced":
                    reduced = True
                elif clause == "ci":
                    ci = True
                elif clause == "grading":
                    self.stream.expect("(")
                    weights = [self._int()]
                    while self.stream.peek().text == ",":
                        self.stream.next()
                        weights.append(self._int())
                    self.stream.expect(")")
                    grading = tuple(weights)
                else:
                    raise ScriptParseError(
                        f"unknown ring clause {clause!r}",
                        clause_tok.line,
                        clause_tok.column,
                    )
        self.stream.expect(";")
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
        line = self.stream.peek().line
        self.stream.expect("module")
        name = self._name()
        self.stream.expect("=")
        self.stream.expect("coker")
        self.stream.expect("[")
        rows: List[Tuple[Expr, ...]] = []
        while True:
            self.stream.expect("[")
            if self.stream.peek().text == "]":
                row: Tuple[Expr, ...] = ()
            else:
                row = tuple(self._expr_list("]"))
            self.stream.expect("]")
            rows.append(row)
            if self.stream.peek().text == ",":
                self.stream.next()
                continue
            break
        self.stream.expect("]")
        self.stream.expect("over")
        ring_name = self._name()
        degrees: Optional[Tuple[int, ...]] = None
        if self.stream.peek().text == "degrees":
            self.stream.next()
            self.stream.expect("(")
            ds = [self._int()]
            while self.stream.peek().text == ",":
                self.stream.next()
                ds.append(self._int())
            self.stream.expect(")")
            degrees = tuple(ds)
        self.stream.expect(";")
        return ModuleStmt(
            name=name,
            matrix=tuple(rows),
            ring_name=ring_name,
            degrees=degrees,
            line=line,
        )

    def parse_let(self) -> LetStmt:
        line = self.stream.peek().line
        self.stream.expect("let")
        name = self._name()
        self.stream.expect("=")
        expr = self.parse_expression()
        self.stream.expect(";")
        return LetStmt(name=name, expr=expr, line=line)

    def parse_verify(self) -> VerifyStmt:
        line = self.stream.peek().line
        self.stream.expect("verify")
        claim = self._name()
        args, kwargs = self._arguments(("over", "with", "sequence", ","))
        return VerifyStmt(claim=claim, args=args, kwargs=kwargs, line=line)

    def parse_probe(self) -> ProbeStmt:
        line = self.stream.peek().line
        self.stream.expect("probe")
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
        while self.stream.peek().text != ";":
            tok = self.stream.peek()
            if tok.text in skip:
                self.stream.next()
                continue
            if (
                tok.kind == "name"
                and self.stream.tokens[self.stream.index + 1].text == "="
            ):
                key = self._name()
                self.stream.expect("=")
                kwargs.append((key, self.parse_expression()))
                continue
            args.append(self.parse_atom_or_group())
        self.stream.expect(";")
        return tuple(args), tuple(kwargs)

    def parse_print(self) -> PrintStmt:
        line = self.stream.peek().line
        self.stream.expect("print")
        expr = self.parse_expression()
        self.stream.expect(";")
        return PrintStmt(expr=expr, line=line)

    def parse_assert(self) -> AssertStmt:
        line = self.stream.peek().line
        self.stream.expect("assert")
        expr = self.parse_expression()
        self.stream.expect(";")
        return AssertStmt(expr=expr, line=line)

    # -- expressions -----------------------------------------------------

    def _expr_list(self, closer: str) -> List[Expr]:
        items = [self.parse_expression()]
        while self.stream.peek().text == ",":
            self.stream.next()
            items.append(self.parse_expression())
        tok = self.stream.peek()
        if tok.text != closer:
            raise ScriptParseError(
                f"expected {closer!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return items

    def parse_expression(self) -> Expr:
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_sum()
        tok = self.stream.peek()
        if tok.text in ("==", "!="):
            op = self.stream.next().text
            right = self.parse_sum()
            return BinOp(op, left, right)
        return left

    def parse_sum(self) -> Expr:
        left = self.parse_product()
        while self.stream.peek().text in ("+", "-"):
            op = self.stream.next().text
            right = self.parse_product()
            left = BinOp(op, left, right)
        return left

    def parse_product(self) -> Expr:
        left = self.parse_power()
        while self.stream.peek().text == "*":
            self.stream.next()
            left = BinOp("*", left, self.parse_power())
        return left

    def parse_power(self) -> Expr:
        base = self.parse_unary()
        if self.stream.peek().text == "^":
            self.stream.next()
            exponent = self.parse_unary()
            return BinOp("^", base, exponent)
        return base

    def parse_unary(self) -> Expr:
        if self.stream.peek().text == "-":
            self.stream.next()
            return Neg(self.parse_unary())
        if self.stream.peek().text == "+":
            self.stream.next()
            return self.parse_unary()
        return self.parse_atom_or_group()

    def parse_atom_or_group(self) -> Expr:
        tok = self.stream.peek()
        if tok.text == "(":
            self.stream.next()
            items = self._expr_list(")")
            self.stream.expect(")")
            if len(items) == 1:
                return items[0]
            return TupleLit(tuple(items))
        if tok.text == "[":
            self.stream.next()
            if self.stream.peek().text == "]":
                self.stream.next()
                return ListLit(())
            items = self._expr_list("]")
            self.stream.expect("]")
            return ListLit(tuple(items))
        if tok.kind == "int":
            self.stream.next()
            if (
                self.stream.peek().text == "/"
                and self.stream.tokens[self.stream.index + 1].kind == "int"
            ):
                self.stream.next()
                den = self.stream.next()
                return RationalLit(int_literal(tok), denominator_literal(den))
            return IntLit(int_literal(tok))
        if tok.kind == "name":
            self.stream.next()
            if self.stream.peek().text == "(":
                self.stream.next()
                args: List[Expr] = []
                kwargs: List[Tuple[str, Expr]] = []
                if self.stream.peek().text != ")":
                    while True:
                        peeked = self.stream.peek()
                        if (
                            peeked.kind == "name"
                            and self.stream.tokens[self.stream.index + 1].text == "="
                        ):
                            key = self._name()
                            self.stream.expect("=")
                            kwargs.append((key, self.parse_expression()))
                        else:
                            args.append(self.parse_expression())
                        if self.stream.peek().text == ",":
                            self.stream.next()
                            continue
                        break
                self.stream.expect(")")
                return Call(tok.text, tuple(args), tuple(kwargs))
            return Name(tok.text)
        raise ScriptParseError(
            f"expected an expression, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
        )


def parse_script(text: str) -> Script:
    """Parse source text; failures carry line and column."""
    return _Parser(text).parse_script()


# ---------------------------------------------------------------------------
# printer (canonical form; reparses to an equal Script)


def format_expr(expr: Expr) -> str:
    if isinstance(expr, Name):
        return expr.identifier
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, RationalLit):
        return f"{expr.numerator}/{expr.denominator}"
    if isinstance(expr, Neg):
        return f"-{_wrap(expr.operand)}"
    if isinstance(expr, BinOp):
        if expr.op == "^":
            return f"{_wrap(expr.left)}^{_wrap(expr.right)}"
        return f"{_wrap_for(expr, expr.left)} {expr.op} {_wrap_for(expr, expr.right)}"
    if isinstance(expr, Call):
        parts = [format_expr(a) for a in expr.args]
        parts.extend(f"{k}={format_expr(v)}" for k, v in expr.kwargs)
        return f"{expr.function}({', '.join(parts)})"
    if isinstance(expr, ListLit):
        return "[" + ", ".join(format_expr(i) for i in expr.items) + "]"
    if isinstance(expr, TupleLit):
        return "(" + ", ".join(format_expr(i) for i in expr.items) + ")"
    raise TypeError(f"unknown expression node {expr!r}")


_PRECEDENCE = {"==": 0, "!=": 0, "+": 1, "-": 1, "*": 2, "^": 3}


def _wrap(expr: Expr) -> str:
    if isinstance(expr, (BinOp, Neg)):
        return f"({format_expr(expr)})"
    return format_expr(expr)


def _wrap_for(parent: BinOp, child: Expr) -> str:
    if isinstance(child, BinOp) and _PRECEDENCE[child.op] < _PRECEDENCE[parent.op]:
        return f"({format_expr(child)})"
    return format_expr(child)


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
        parts = [format_expr(a) for a in stmt.args]
        parts.extend(f"{k}={format_expr(v)}" for k, v in stmt.kwargs)
        return f"verify {stmt.claim} " + ", ".join(parts) + ";"
    if isinstance(stmt, ProbeStmt):
        parts = [format_expr(a) for a in stmt.args]
        parts.extend(f"{k}={format_expr(v)}" for k, v in stmt.kwargs)
        return f"probe {stmt.kind} " + ", ".join(parts) + ";"
    if isinstance(stmt, PrintStmt):
        return f"print {format_expr(stmt.expr)};"
    if isinstance(stmt, AssertStmt):
        return f"assert {format_expr(stmt.expr)};"
    raise TypeError(f"unknown statement {stmt!r}")


def format_script(script: Script) -> str:
    return "\n".join(format_statement(s) for s in script.statements) + "\n"
