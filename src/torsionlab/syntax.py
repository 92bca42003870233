"""Canonical text syntax for polynomials and free-module vectors.

The grammar is ``3*x^2*y - 1/2*z`` with coefficients first, explicit ``*``
and ``^``, and vectors written ``[f1, f2]``.  Formatting is canonical:
terms are sorted by the active monomial order (degrevlex by default), so
parse/format round-trips are stable.  The tokenizer here is shared with the
script language.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import ScriptParseError
from .fields import FieldSpec
from .orders import DEFAULT_ORDER, MonomialOrder
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


@dataclass(frozen=True)
class Token:
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


class TokenStream:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = list(tokens)
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

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

    def error(self, message: str) -> ScriptParseError:
        tok = self.peek()
        return ScriptParseError(message, tok.line, tok.column)


# ---------------------------------------------------------------------------
# Parsing


def parse_polynomial_tokens(
    stream: TokenStream, names: Sequence[str], field: FieldSpec
) -> Polynomial:
    """Parse a polynomial expression from the stream (signs, *, ^, parens)."""
    nvars = len(names)
    index = {name: i for i, name in enumerate(names)}

    def parse_sum() -> Polynomial:
        result = parse_signed_product()
        while stream.peek().text in ("+", "-"):
            op = stream.next().text
            term = parse_product()
            result = result + term if op == "+" else result - term
        return result

    def parse_signed_product() -> Polynomial:
        sign = 1
        while stream.peek().text in ("+", "-"):
            if stream.next().text == "-":
                sign = -sign
        prod = parse_product()
        return prod if sign > 0 else -prod

    def parse_product() -> Polynomial:
        result = parse_power()
        while stream.peek().text == "*":
            stream.next()
            result = result * parse_power()
        return result

    def parse_power() -> Polynomial:
        base = parse_atom()
        if stream.peek().text == "^":
            stream.next()
            tok = stream.peek()
            if tok.kind != "int":
                raise stream.error("exponent must be a nonnegative integer")
            stream.next()
            return base ** int(tok.text)
        return base

    def parse_atom() -> Polynomial:
        tok = stream.peek()
        if tok.text == "(":
            stream.next()
            inner = parse_sum()
            stream.expect(")")
            return inner
        if tok.kind == "int":
            stream.next()
            value = Fraction(int(tok.text))
            if stream.peek().text == "/":
                save = stream.index
                stream.next()
                den = stream.peek()
                if den.kind == "int":
                    stream.next()
                    value = Fraction(int(tok.text), int(den.text))
                else:
                    stream.index = save
            return Polynomial.constant(field, nvars, value)
        if tok.kind == "name":
            if tok.text not in index:
                raise ScriptParseError(
                    f"unknown variable {tok.text!r}", tok.line, tok.column
                )
            stream.next()
            return Polynomial.variable(field, nvars, index[tok.text])
        if tok.text == "-" or tok.text == "+":
            return parse_signed_product()
        raise stream.error("expected a polynomial")

    return parse_sum()


def parse_polynomial(text: str, names: Sequence[str], field: FieldSpec) -> Polynomial:
    stream = TokenStream(tokenize(text))
    poly = parse_polynomial_tokens(stream, names, field)
    tok = stream.peek()
    if tok.kind != "end":
        raise ScriptParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return poly


def parse_vector_tokens(
    stream: TokenStream, names: Sequence[str], field: FieldSpec
) -> FreeElement:
    stream.expect("[")
    components: List[Polynomial] = []
    if stream.peek().text != "]":
        components.append(parse_polynomial_tokens(stream, names, field))
        while stream.peek().text == ",":
            stream.next()
            components.append(parse_polynomial_tokens(stream, names, field))
    stream.expect("]")
    if not components:
        raise stream.error("empty vector")
    return FreeElement.from_components(components)


def parse_vector(text: str, names: Sequence[str], field: FieldSpec) -> FreeElement:
    stream = TokenStream(tokenize(text))
    vec = parse_vector_tokens(stream, names, field)
    tok = stream.peek()
    if tok.kind != "end":
        raise ScriptParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return vec


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


def format_polynomial(
    p: Polynomial,
    names: Sequence[str],
    order: MonomialOrder = DEFAULT_ORDER,
) -> str:
    if not p.terms:
        return "0"
    key = order.mono_sort_key()
    pieces: List[Tuple[bool, str]] = []
    for mono in sorted(p.terms, key=key):
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


def format_vector(
    f: FreeElement,
    names: Sequence[str],
    order: MonomialOrder = DEFAULT_ORDER,
) -> str:
    comps = [format_polynomial(c, names, order) for c in f.components()]
    return "[" + ", ".join(comps) + "]"
