"""The expression grammar, and the canonical text of polynomials and vectors.

One tokenizer, one expression parser (``ExpressionParser``) and one
evaluator (``evaluate``, and ``evaluate_polynomial`` on it) serve both the
script language and the library: ``parse_polynomial`` and ``parse_vector``
read text such as ``3*x^2*y - 1/2*z`` and ``[f1, f2]`` with the script's
grammar, restricted to what a polynomial holds: ring variables, literals,
signs, ``+ - * ^`` and parentheses, with integer-literal exponents.
Formatting is canonical: terms are sorted largest first in degrevlex, the
engine's one monomial order, so parse/format round-trips are stable.

Tokens and expression nodes are ``NamedTuple``s, as are the script's
statement nodes.  They compare as tuples, so two kinds with the same fields
(``ListLit`` and ``TupleLit`` of the same items) are equal: code tells the
kinds apart with ``isinstance``, and a check that must see the kinds
compares ``repr``s, which name them.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import (
    Callable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from .errors import InputError, ScriptParseError
from .fields import FieldSpec
from .limits import INTEGER_BIT_CAP, NESTING_CAP
from .orders import mono_key
from .poly import FreeElement, Polynomial

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<op>==|!=|[-+*/^()\[\],;={}])
    """,
    re.VERBOSE,
)

T = TypeVar("T")


class Token(NamedTuple):
    kind: str  # "int" | "name" | "op" | "end"
    text: str
    line: int
    column: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise ScriptParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind in ("ws", "comment"):
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = pos + value.rindex("\n") + 1
        else:
            tokens.append(Token(kind, value, line, pos - line_start + 1))
        pos = m.end()
    tokens.append(Token("end", "", line, len(text) - line_start + 1))
    return tokens


def int_literal(tok: Token) -> int:
    """The value of an ``int`` token; a parse error past ``INTEGER_BIT_CAP``
    bits.  d significant digits make more than 3 * (d - 1) bits, so a long
    literal is refused before ``int()`` reads it."""
    if 3 * (len(tok.text.lstrip("0")) - 1) < INTEGER_BIT_CAP:
        value = int(tok.text)
        if value.bit_length() <= INTEGER_BIT_CAP:
            return value
    raise ScriptParseError(
        f"integer literal longer than {INTEGER_BIT_CAP} bits", tok.line, tok.column
    )


def denominator_literal(tok: Token) -> int:
    value = int_literal(tok)
    if not value:
        raise ScriptParseError("zero denominator", tok.line, tok.column)
    return value


# ---------------------------------------------------------------------------
# Expressions


class Name(NamedTuple):
    identifier: str


class IntLit(NamedTuple):
    value: int


class RationalLit(NamedTuple):
    numerator: int
    denominator: int


class BinOp(NamedTuple):
    op: str  # + - * ^ == !=
    left: "Expr"
    right: "Expr"


class Neg(NamedTuple):
    operand: "Expr"


class Call(NamedTuple):
    function: str
    args: Tuple["Expr", ...]
    kwargs: Tuple[Tuple[str, "Expr"], ...] = ()


class ListLit(NamedTuple):
    items: Tuple["Expr", ...]


class TupleLit(NamedTuple):
    items: Tuple["Expr", ...]


Expr = Union[Name, IntLit, RationalLit, BinOp, Neg, Call, ListLit, TupleLit]


class ExpressionParser:
    """The one expression grammar, from loosest to tightest: comparison,
    sum, product, unary sign, power, atom.  A sign binds looser than ``^``
    (``-x^2`` is ``-(x^2)``), and an exponent is a signed atom.  Chains and
    runs of signs are read in loops; brackets deeper than ``NESTING_CAP``
    are a parse error at the bracket."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.index = 0
        self.depth = 0
        # the first token of each comparison, tuple, list and call read:
        # the forms that are no polynomial
        self.non_polynomial: List[Token] = []

    def peek(self) -> Token:
        return self.tokens[self.index]

    def following(self) -> Token:
        """The token after the next one (the end token at the end)."""
        return self.tokens[min(self.index + 1, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "end":
            self.index += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise ScriptParseError(
                f"expected {text!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.next()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ScriptParseError(f"trailing input {tok.text!r}", tok.line, tok.column)

    def _sequence(self, item: Callable[[], T], closer: str) -> List[T]:
        """One or more ``item()`` separated by commas, then ``closer``."""
        items = [item()]
        while self.peek().text == ",":
            self.next()
            items.append(item())
        self.expect(closer)
        return items

    def _key(self, seen: Set[str]) -> Optional[str]:
        """The key of a ``key=`` prefix, read with its ``=``, or None.  A key
        already in ``seen`` is a parse error at the key; a new one is added."""
        tok = self.peek()
        if tok.kind != "name" or self.following().text != "=":
            return None
        if tok.text in seen:
            raise ScriptParseError(
                f"repeated keyword {tok.text!r}", tok.line, tok.column
            )
        seen.add(tok.text)
        self.next()
        self.next()
        return tok.text

    def parse_expression(self) -> Expr:
        left = self.parse_sum()
        if self.peek().text in ("==", "!="):
            tok = self.next()
            self.non_polynomial.append(tok)
            return BinOp(tok.text, left, self.parse_sum())
        return left

    def parse_sum(self) -> Expr:
        left = self.parse_product()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            left = BinOp(op, left, self.parse_product())
        return left

    def parse_product(self) -> Expr:
        left = self.parse_unary()
        while self.peek().text == "*":
            self.next()
            left = BinOp("*", left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        return self._signed(self.parse_power)

    def parse_power(self) -> Expr:
        base = self.parse_atom_or_group()
        if self.peek().text != "^":
            return base
        self.next()
        return BinOp("^", base, self._signed(self.parse_atom_or_group))

    def _signed(self, operand: Callable[[], Expr]) -> Expr:
        """A run of signs, then ``operand()``; each ``-`` is one ``Neg``."""
        negations = 0
        while self.peek().text in ("+", "-"):
            negations += self.next().text == "-"
        expr = operand()
        for _ in range(negations):
            expr = Neg(expr)
        return expr

    def parse_atom_or_group(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            if self.peek().text == "/" and self.following().kind == "int":
                self.next()
                den = self.next()
                return RationalLit(int_literal(tok), denominator_literal(den))
            return IntLit(int_literal(tok))
        if tok.kind == "name" and self.following().text != "(":
            self.next()
            return Name(tok.text)
        if tok.kind != "name" and tok.text not in ("(", "["):
            raise ScriptParseError(
                f"expected an expression, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        self.depth += 1
        if self.depth > NESTING_CAP:
            raise ScriptParseError(
                f"brackets nest deeper than {NESTING_CAP} levels", tok.line, tok.column
            )
        expr = self._bracketed()
        self.depth -= 1
        return expr

    def _bracketed(self) -> Expr:
        """A parenthesised group or tuple, a list, or a call."""
        tok = self.next()
        if tok.text == "(":
            items = self._sequence(self.parse_expression, ")")
            if len(items) == 1:
                return items[0]
        self.non_polynomial.append(tok)
        if tok.text == "(":
            return TupleLit(tuple(items))
        if tok.text == "[":
            if self.peek().text == "]":
                self.next()
                return ListLit(())
            return ListLit(tuple(self._sequence(self.parse_expression, "]")))
        self.expect("(")
        arguments: List[Tuple[Optional[str], Expr]] = []
        keys: Set[str] = set()
        if self.peek().text == ")":
            self.next()
        else:
            arguments = self._sequence(
                lambda: (self._key(keys), self.parse_expression()), ")"
            )
        args = tuple(value for key, value in arguments if key is None)
        kwargs = tuple((key, value) for key, value in arguments if key is not None)
        return Call(tok.text, args, kwargs)


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(
    expr: Expr, leaf: Callable[[Expr], T], apply: Callable[[Expr, T], T]
) -> T:
    """The value of ``expr``: ``leaf(node)`` for the node at the bottom of
    its left spine (neither a ``Neg`` nor a ``BinOp``), then, going up,
    ``apply(node, value)`` for each ``Neg`` or ``BinOp`` on the spine, with
    the value of its operand or left side; ``apply`` evaluates a right
    side itself.  The spine is walked in a loop, so left-deep chains and
    runs of signs cost no recursion; only bracketed right sides nest."""
    spine = []
    while isinstance(expr, (Neg, BinOp)):
        spine.append(expr)
        expr = expr.operand if isinstance(expr, Neg) else expr.left
    value = leaf(expr)
    for node in reversed(spine):
        value = apply(node, value)
    return value


ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def evaluate_polynomial(
    expr: Expr,
    field: FieldSpec,
    nvars: int,
    variable: Callable[[str], Polynomial],
    exponent: Callable[[Expr], int],
) -> Polynomial:
    """The polynomial ``expr`` denotes: ``variable(name)`` gives a name's
    polynomial and ``exponent(node)`` the integer value of an exponent."""

    def leaf(node: Expr) -> Polynomial:
        if isinstance(node, Name):
            return variable(node.identifier)
        if isinstance(node, IntLit):
            return Polynomial.constant(field, nvars, node.value)
        if isinstance(node, RationalLit):
            value = Fraction(node.numerator, node.denominator)
            return Polynomial.constant(field, nvars, value)
        raise InputError("expected a polynomial expression")

    def apply(node: Expr, value: Polynomial) -> Polynomial:
        if isinstance(node, Neg):
            return -value
        if node.op == "^":
            return value ** exponent(node.right)
        if node.op not in ARITHMETIC:
            raise InputError("expected a polynomial expression")
        return ARITHMETIC[node.op](value, evaluate(node.right, leaf, apply))

    return evaluate(expr, leaf, apply)


# ---------------------------------------------------------------------------
# Polynomial and vector text


def _read(text: str, names: Sequence[str], parse: Callable[[ExpressionParser], T]) -> T:
    """Parse ``text`` whole with ``parse``.  Polynomial text names ring
    variables only, writes every exponent as an integer literal and holds
    no comparison, tuple, list or call; anything else is refused at its
    token."""
    parser = ExpressionParser(text)
    tokens = parser.tokens
    for i, tok in enumerate(tokens):
        if i and tokens[i - 1].text == "^":
            if tok.kind != "int" or tokens[i + 1].text == "/":
                raise ScriptParseError(
                    "exponent must be a nonnegative integer", tok.line, tok.column
                )
        if tok.kind == "name" and tok.text not in names:
            raise ScriptParseError(
                f"unknown variable {tok.text!r}", tok.line, tok.column
            )
    expr = parse(parser)
    parser.expect_end()
    if parser.non_polynomial:
        tok = parser.non_polynomial[0]
        raise ScriptParseError(
            f"expected a polynomial, found {tok.text!r}", tok.line, tok.column
        )
    return expr


def _value(expr: Expr, names: Sequence[str], field: FieldSpec) -> Polynomial:
    nvars = len(names)
    index = {name: i for i, name in enumerate(names)}

    return evaluate_polynomial(
        expr,
        field,
        nvars,
        lambda name: Polynomial.variable(field, nvars, index[name]),
        lambda node: node.value,
    )


def _vector_items(parser: ExpressionParser) -> List[Expr]:
    parser.expect("[")
    tok = parser.peek()
    if tok.text == "]":
        raise ScriptParseError("empty vector", tok.line, tok.column)
    return parser._sequence(parser.parse_sum, "]")


def parse_polynomial(text: str, names: Sequence[str], field: FieldSpec) -> Polynomial:
    return _value(_read(text, names, ExpressionParser.parse_sum), names, field)


def parse_vector(text: str, names: Sequence[str], field: FieldSpec) -> FreeElement:
    items = _read(text, names, _vector_items)
    return FreeElement.from_components([_value(item, names, field) for item in items])


# ---------------------------------------------------------------------------
# Formatting


def _format_coefficient(c) -> str:
    return str(c)


def _format_monomial(mono, names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial, names: Sequence[str]) -> str:
    if not p.terms:
        return "0"
    pieces: List[Tuple[bool, str]] = []
    for mono in sorted(p.terms, key=mono_key):
        c = p.terms[mono]
        negative = (p.field.characteristic == 0) and c < 0
        mag = -c if negative else c
        mono_str = _format_monomial(mono, names)
        if not mono_str:
            body = _format_coefficient(mag)
        elif mag == 1:
            body = mono_str
        else:
            body = f"{_format_coefficient(mag)}*{mono_str}"
        pieces.append((negative, body))
    first_neg, first_body = pieces[0]
    out = ("-" if first_neg else "") + first_body
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


def format_vector(f: FreeElement, names: Sequence[str]) -> str:
    comps = ["0"] * f.rank
    for pos, c in f.nonzero_components().items():
        comps[pos] = format_polynomial(c, names)
    return "[" + ", ".join(comps) + "]"
