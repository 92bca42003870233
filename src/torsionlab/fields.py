"""Exact coefficient fields: the rationals and prime fields.

Rational coefficients are ``fractions.Fraction``; coefficients over F_p are
plain ints in ``[0, p)`` so that the modular arithmetic stays in machine
words for p below 2^31.  Inside the Groebner kernel a rational vector is
kept as a content-free integer vector instead (see ``groebner``), and
becomes ``Fraction``s again where it leaves the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InputError

Coefficient = Union[Fraction, int]

_MAX_CHARACTERISTIC = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field, either the rationals or F_p for a prime p."""

    characteristic: int = 0

    def __post_init__(self) -> None:
        c = self.characteristic
        if c == 0:
            return
        if c >= _MAX_CHARACTERISTIC or not _is_prime(c):
            raise InputError(
                f"characteristic must be 0 or a prime below 2^31, got {c}"
            )

    @property
    def kind(self) -> str:
        return "rationals" if self.characteristic == 0 else "prime-field"

    @property
    def zero(self) -> Coefficient:
        return Fraction(0) if self.characteristic == 0 else 0

    @property
    def one(self) -> Coefficient:
        return Fraction(1) if self.characteristic == 0 else 1

    def coerce(self, value: Union[int, str, Fraction]) -> Coefficient:
        """Coerce an int, Fraction, or ``a/b`` string into the field."""
        if isinstance(value, str):
            value = Fraction(value)
        p = self.characteristic
        if p == 0:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % p == 0:
                raise InputError(f"denominator of {value} vanishes in F_{p}")
            return value.numerator * pow(value.denominator, -1, p) % p
        return int(value) % p

    def add(self, a: Coefficient, b: Coefficient) -> Coefficient:
        c = a + b
        return c % self.characteristic if self.characteristic else c

    def sub(self, a: Coefficient, b: Coefficient) -> Coefficient:
        c = a - b
        return c % self.characteristic if self.characteristic else c

    def mul(self, a: Coefficient, b: Coefficient) -> Coefficient:
        c = a * b
        return c % self.characteristic if self.characteristic else c

    def neg(self, a: Coefficient) -> Coefficient:
        return (-a) % self.characteristic if self.characteristic else -a

    def inv(self, a: Coefficient) -> Coefficient:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        if self.characteristic:
            return pow(a, -1, self.characteristic)
        return Fraction(1) / a

    def __str__(self) -> str:
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = FieldSpec(0)


def GF(p: int) -> FieldSpec:
    if p == 0:
        raise InputError("GF requires a prime, use QQ for characteristic 0")
    return FieldSpec(p)
