"""Exact multivariate polynomials and vectors in free modules.

``Polynomial`` maps exponent tuples to nonzero coefficients; ``FreeElement``
maps ``(position, exponents)`` terms to nonzero coefficients and carries the
ambient rank.  Both are immutable value objects over a fixed ``FieldSpec``.
Zero coefficients are never stored.

Their sparse arithmetic lives once, in the private base ``_Sparse``:
equality, hashing, negation, sums and differences, the multiple by a field
coefficient, the product with a polynomial and the degree trio.  Every sum
goes through ``_accumulate``, which adds (key, coefficient) pairs into a
term dict and drops the keys whose sum cancels.  A subclass says only what
differs: its constructor, its shape, how its keys split into a position and
a monomial, how a key is multiplied by a monomial, and its mismatch texts.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import DimensionError, InputError
from .fields import Coefficient, FieldSpec
from .limits import check_power_size, current, degree_cap_error

Mono = Tuple[int, ...]
Term = Tuple[int, Mono]


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_degree(e: Mono, weights: Optional[Sequence[int]] = None) -> int:
    if weights is None:
        return sum(e)
    return sum(map(mul, e, weights))


def _accumulate(field: FieldSpec, out: Dict, pairs: Iterable[Tuple]) -> Dict:
    """Add each (key, coefficient) pair into ``out``, in order, dropping a
    key whose sum cancels; returns ``out``."""
    plus, zero = field.add, field.zero
    for key, c in pairs:
        v = plus(out.get(key, zero), c)
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    return out


class _Sparse:
    """The arithmetic ``Polynomial`` and ``FreeElement`` share, over a term
    dict ``terms`` with coefficients in ``field``.

    A subclass gives ``_shape()``, the tuple after the field that operands
    must agree on and that its constructor takes before the terms;
    ``_split_keys()``, each key as (position, monomial) in term order;
    ``_key_times(key, mono)``, a key times a monomial; and the
    ``DimensionError`` texts ``_mismatch``, for an operand of another
    shape, and ``_factor_mismatch``, for a polynomial factor from another
    ring.
    """

    __slots__ = ()

    def _like(self, terms: Dict):
        """A value of this class and shape with the normalized ``terms``."""
        return type(self)(self.field, *self._shape(), terms, _normalized=True)

    def _check_compatible(self, other) -> None:
        if self.field != other.field or self._shape() != other._shape():
            raise DimensionError(self._mismatch)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.field == other.field
            and self._shape() == other._shape()
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.field.characteristic,
                *self._shape(),
                tuple(sorted(self.terms.items())),
            )
        )

    def __neg__(self):
        neg = self.field.neg
        return self._like({k: neg(c) for k, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_compatible(other)
        return self._like(
            _accumulate(self.field, dict(self.terms), other.terms.items())
        )

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def _times(self, factor):
        """The product with a ``Polynomial`` of the same ring, or the
        multiple by a field coefficient."""
        field = self.field
        times = field.mul
        if isinstance(factor, Polynomial):
            if factor.field != field or factor.nvars != self.nvars:
                raise DimensionError(self._factor_mismatch)
            key_times = self._key_times
            pairs = (
                (key_times(k1, m2), times(c1, c2))
                for k1, c1 in self.terms.items()
                for m2, c2 in factor.terms.items()
            )
            return self._like(_accumulate(field, {}, pairs))
        c = field.coerce(factor)
        if not c:
            return self._like({})
        return self._like({k: times(v, c) for k, v in self.terms.items()})

    def _term_degrees(
        self,
        weights: Optional[Sequence[int]],
        position_degrees: Optional[Sequence[int]],
    ) -> Iterator[int]:
        """Each term's (weighted) degree, plus its position's degree when
        ``position_degrees`` is given."""
        if position_degrees is None:
            return (mono_degree(m, weights) for _, m in self._split_keys())
        return (
            mono_degree(m, weights) + position_degrees[p]
            for p, m in self._split_keys()
        )

    def degree(
        self,
        weights: Optional[Sequence[int]] = None,
        position_degrees: Optional[Sequence[int]] = None,
    ) -> int:
        """Total (weighted) degree; -1 for zero."""
        return max(self._term_degrees(weights, position_degrees), default=-1)

    def homogeneous_degree(
        self,
        weights: Optional[Sequence[int]] = None,
        position_degrees: Optional[Sequence[int]] = None,
    ) -> Optional[int]:
        """The common degree of all terms, or None if mixed or zero."""
        degs = set(self._term_degrees(weights, position_degrees))
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(
        self,
        weights: Optional[Sequence[int]] = None,
        position_degrees: Optional[Sequence[int]] = None,
    ) -> bool:
        return len(set(self._term_degrees(weights, position_degrees))) <= 1


class Polynomial(_Sparse):
    """An exact multivariate polynomial over a fixed coefficient field."""

    __slots__ = ("field", "nvars", "terms")

    _mismatch = _factor_mismatch = "polynomials live in different rings"

    def __init__(
        self,
        field: FieldSpec,
        nvars: int,
        terms: Mapping[Mono, Coefficient],
        *,
        _normalized: bool = False,
    ):
        self.field = field
        self.nvars = nvars
        if _normalized:
            self.terms: Dict[Mono, Coefficient] = dict(terms)
        else:
            clean: Dict[Mono, Coefficient] = {}
            for mono, c in terms.items():
                if len(mono) != nvars:
                    raise DimensionError(
                        f"monomial {mono} does not have {nvars} exponents"
                    )
                c = field.coerce(c)
                if c:
                    clean[tuple(mono)] = c
            self.terms = clean

    @classmethod
    def zero(cls, field: FieldSpec, nvars: int) -> "Polynomial":
        return cls(field, nvars, {}, _normalized=True)

    @classmethod
    def constant(cls, field: FieldSpec, nvars: int, value) -> "Polynomial":
        c = field.coerce(value)
        if not c:
            return cls.zero(field, nvars)
        return cls(field, nvars, {(0,) * nvars: c}, _normalized=True)

    @classmethod
    def variable(cls, field: FieldSpec, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise DimensionError(f"variable index {index} out of range")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(field, nvars, {mono: field.one}, _normalized=True)

    def _shape(self) -> Tuple[int, ...]:
        return (self.nvars,)

    def _split_keys(self) -> Iterator[Term]:
        return zip(repeat(0), self.terms)

    _key_times = staticmethod(mono_mul)

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def constant_value(self) -> Coefficient:
        zero_mono = (0,) * self.nvars
        return self.terms.get(zero_mono, self.field.zero)

    __mul__ = __rmul__ = _Sparse._times

    def __pow__(self, n: int) -> "Polynomial":
        """The n-th power; refused before any multiplication when its degree
        passes the degree cap, or, for a constant over QQ, when its numerator
        or denominator passes ``INTEGER_BIT_CAP`` bits."""
        if n < 0:
            raise InputError("negative polynomial power")
        degree = n * self.degree()
        cap = current().degree_cap
        if degree > cap:
            raise degree_cap_error(degree, cap, ("polynomial power", self.nvars, 1, 1))
        if degree == 0 and not self.field.characteristic:
            c = self.constant_value()
            check_power_size(max(abs(c.numerator), c.denominator), n)
        result = Polynomial.constant(self.field, self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def degree(self, weights: Optional[Sequence[int]] = None) -> int:
        """Total (weighted) degree; -1 for the zero polynomial."""
        return _Sparse.degree(self, weights)

    def homogeneous_degree(
        self, weights: Optional[Sequence[int]] = None
    ) -> Optional[int]:
        """The common degree of all terms, or None if mixed or zero."""
        return _Sparse.homogeneous_degree(self, weights)

    def is_homogeneous(self, weights: Optional[Sequence[int]] = None) -> bool:
        return _Sparse.is_homogeneous(self, weights)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Evaluate at ``x_i -> images[i]``; images share one target ring."""
        if len(images) != self.nvars:
            raise DimensionError("one image per variable required")
        if not images:
            raise DimensionError("cannot substitute in a ring with no variables")
        target = images[0]
        result = Polynomial.zero(target.field, target.nvars)
        for mono, c in self.terms.items():
            term = Polynomial.constant(target.field, target.nvars, c)
            for i, e in enumerate(mono):
                if e:
                    term = term * (images[i] ** e)
            result = result + term
        return result

    def __repr__(self) -> str:
        from .syntax import format_polynomial

        names = tuple(f"x{i}" for i in range(self.nvars))
        return f"Polynomial({format_polynomial(self, names)})"


class FreeElement(_Sparse):
    """A vector in a free module R^rank with polynomial components."""

    __slots__ = ("field", "nvars", "rank", "terms")

    _mismatch = "free elements live in different modules"
    _factor_mismatch = "scalar from a different ring"

    def __init__(
        self,
        field: FieldSpec,
        nvars: int,
        rank: int,
        terms: Mapping[Term, Coefficient],
        *,
        _normalized: bool = False,
    ):
        self.field = field
        self.nvars = nvars
        self.rank = rank
        if _normalized:
            self.terms: Dict[Term, Coefficient] = dict(terms)
        else:
            clean: Dict[Term, Coefficient] = {}
            for (pos, mono), c in terms.items():
                if not 0 <= pos < rank:
                    raise DimensionError(f"position {pos} outside ambient rank {rank}")
                if len(mono) != nvars:
                    raise DimensionError(
                        f"monomial {mono} does not have {nvars} exponents"
                    )
                c = field.coerce(c)
                if c:
                    clean[(pos, tuple(mono))] = c
            self.terms = clean

    @classmethod
    def zero(cls, field: FieldSpec, nvars: int, rank: int) -> "FreeElement":
        return cls(field, nvars, rank, {}, _normalized=True)

    @classmethod
    def unit(cls, field: FieldSpec, nvars: int, rank: int, pos: int) -> "FreeElement":
        if not 0 <= pos < rank:
            raise DimensionError(f"position {pos} outside ambient rank {rank}")
        return cls(
            field, nvars, rank, {(pos, (0,) * nvars): field.one}, _normalized=True
        )

    @classmethod
    def from_components(
        cls, components: Sequence[Polynomial], rank: Optional[int] = None
    ) -> "FreeElement":
        if not components:
            raise DimensionError("a free element needs at least one component")
        field = components[0].field
        nvars = components[0].nvars
        rank = rank if rank is not None else len(components)
        terms: Dict[Term, Coefficient] = {}
        for pos, comp in enumerate(components):
            if (comp.field is not field and comp.field != field) or comp.nvars != nvars:
                raise DimensionError("components live in different rings")
            if comp.terms:
                for m, c in comp.terms.items():
                    terms[(pos, m)] = c
        return cls(field, nvars, rank, terms, _normalized=True)

    def component(self, pos: int) -> Polynomial:
        out = {
            m: c for (p, m), c in self.terms.items() if p == pos
        }
        return Polynomial(self.field, self.nvars, out, _normalized=True)

    def nonzero_components(self) -> Dict[int, Polynomial]:
        """The nonzero components by ascending position, from one pass over
        the terms; each keeps its terms' order."""
        buckets: Dict[int, Dict[Mono, Coefficient]] = {}
        for (pos, mono), c in self.terms.items():
            buckets.setdefault(pos, {})[mono] = c
        return {
            pos: Polynomial(self.field, self.nvars, buckets[pos], _normalized=True)
            for pos in sorted(buckets)
        }

    def components(self) -> list:
        """Every component, the dense view of ``nonzero_components``."""
        nonzero = self.nonzero_components()
        zero = Polynomial.zero(self.field, self.nvars)
        return [nonzero.get(pos, zero) for pos in range(self.rank)]

    def _shape(self) -> Tuple[int, ...]:
        return (self.nvars, self.rank)

    def _split_keys(self) -> Iterator[Term]:
        return iter(self.terms)

    @staticmethod
    def _key_times(key: Term, mono: Mono) -> Term:
        return (key[0], mono_mul(key[1], mono))

    def scaled(self, poly_or_coeff) -> "FreeElement":
        """Multiply by a ring element or a field coefficient."""
        return self._times(poly_or_coeff)

    def embedded(self, rank: int, offset: int = 0) -> "FreeElement":
        """The same vector inside a larger free module, shifted by offset."""
        if offset < 0 or self.rank + offset > rank:
            raise DimensionError("embedding does not fit in the target rank")
        return FreeElement(
            self.field,
            self.nvars,
            rank,
            {(pos + offset, m): c for (pos, m), c in self.terms.items()},
            _normalized=True,
        )

    def __repr__(self) -> str:
        from .syntax import format_vector

        names = tuple(f"x{i}" for i in range(self.nvars))
        return f"FreeElement({format_vector(self, names)})"


def polynomial_to_element(p: Polynomial) -> FreeElement:
    return FreeElement(
        p.field, p.nvars, 1, {(0, m): c for m, c in p.terms.items()}, _normalized=True
    )


def element_to_polynomial(f: FreeElement) -> Polynomial:
    if f.rank != 1:
        raise DimensionError("only rank-1 elements convert to polynomials")
    return f.component(0)


def lifted_ideal(gens: Sequence[Polynomial], rank: int) -> List[FreeElement]:
    """The vectors g * e_j spanning J * k[x]^rank, J = (gens): every g in
    order, and for each g the positions j in order."""
    return [
        FreeElement(
            g.field, g.nvars, rank, {(j, m): c for m, c in g.terms.items()},
            _normalized=True,
        )
        for g in gens
        for j in range(rank)
    ]
