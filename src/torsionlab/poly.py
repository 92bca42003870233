"""Exact multivariate polynomials and vectors in free modules.

``Polynomial`` maps exponent tuples to nonzero coefficients; ``FreeElement``
maps ``(position, exponents)`` terms to nonzero coefficients and carries the
ambient rank.  Both are immutable value objects over a fixed ``FieldSpec``.
Zero coefficients are never stored.
"""

from __future__ import annotations

from operator import add
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
    return sum(x * w for x, w in zip(e, weights))


class Polynomial:
    """An exact multivariate polynomial over a fixed coefficient field."""

    __slots__ = ("field", "nvars", "terms")

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

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.field != other.field or self.nvars != other.nvars:
            raise DimensionError("polynomials live in different rings")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def constant_value(self) -> Coefficient:
        zero_mono = (0,) * self.nvars
        return self.terms.get(zero_mono, self.field.zero)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(
            (self.field.characteristic, self.nvars, tuple(sorted(self.terms.items())))
        )

    def __neg__(self) -> "Polynomial":
        neg = self.field.neg
        return Polynomial(
            self.field,
            self.nvars,
            {m: neg(c) for m, c in self.terms.items()},
            _normalized=True,
        )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        field = self.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = field.add(out.get(m, field.zero), c)
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return Polynomial(field, self.nvars, out, _normalized=True)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            field = self.field
            out: Dict[Mono, Coefficient] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = mono_mul(m1, m2)
                    v = field.add(out.get(m, field.zero), field.mul(c1, c2))
                    if v:
                        out[m] = v
                    elif m in out:
                        del out[m]
            return Polynomial(field, self.nvars, out, _normalized=True)
        c = self.field.coerce(other)
        if not c:
            return Polynomial.zero(self.field, self.nvars)
        mul = self.field.mul
        return Polynomial(
            self.field,
            self.nvars,
            {m: mul(v, c) for m, v in self.terms.items()},
            _normalized=True,
        )

    def __rmul__(self, other):
        return self.__mul__(other)

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
        if not self.terms:
            return -1
        return max(mono_degree(m, weights) for m in self.terms)

    def homogeneous_degree(
        self, weights: Optional[Sequence[int]] = None
    ) -> Optional[int]:
        """The common degree of all terms, or None if mixed or zero."""
        degs = {mono_degree(m, weights) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self, weights: Optional[Sequence[int]] = None) -> bool:
        return len({mono_degree(m, weights) for m in self.terms}) <= 1

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


class FreeElement:
    """A vector in a free module R^rank with polynomial components."""

    __slots__ = ("field", "nvars", "rank", "terms")

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

    def _check_compatible(self, other: "FreeElement") -> None:
        if (
            self.field != other.field
            or self.nvars != other.nvars
            or self.rank != other.rank
        ):
            raise DimensionError("free elements live in different modules")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeElement):
            return NotImplemented
        return (
            self.field == other.field
            and self.nvars == other.nvars
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.field.characteristic,
                self.nvars,
                self.rank,
                tuple(sorted(self.terms.items())),
            )
        )

    def __neg__(self) -> "FreeElement":
        neg = self.field.neg
        return FreeElement(
            self.field,
            self.nvars,
            self.rank,
            {t: neg(c) for t, c in self.terms.items()},
            _normalized=True,
        )

    def __add__(self, other: "FreeElement") -> "FreeElement":
        if not isinstance(other, FreeElement):
            return NotImplemented
        self._check_compatible(other)
        field = self.field
        out = dict(self.terms)
        for t, c in other.terms.items():
            v = field.add(out.get(t, field.zero), c)
            if v:
                out[t] = v
            elif t in out:
                del out[t]
        return FreeElement(field, self.nvars, self.rank, out, _normalized=True)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self + (-other)

    def scaled(self, poly_or_coeff) -> "FreeElement":
        """Multiply by a ring element or a field coefficient."""
        field = self.field
        if isinstance(poly_or_coeff, Polynomial):
            if poly_or_coeff.field != field or poly_or_coeff.nvars != self.nvars:
                raise DimensionError("scalar from a different ring")
            out: Dict[Term, Coefficient] = {}
            for (pos, m1), c1 in self.terms.items():
                for m2, c2 in poly_or_coeff.terms.items():
                    t = (pos, mono_mul(m1, m2))
                    v = field.add(out.get(t, field.zero), field.mul(c1, c2))
                    if v:
                        out[t] = v
                    elif t in out:
                        del out[t]
            return FreeElement(field, self.nvars, self.rank, out, _normalized=True)
        c = field.coerce(poly_or_coeff)
        if not c:
            return FreeElement.zero(field, self.nvars, self.rank)
        mul = field.mul
        return FreeElement(
            field,
            self.nvars,
            self.rank,
            {t: mul(v, c) for t, v in self.terms.items()},
            _normalized=True,
        )

    def degree(
        self,
        weights: Optional[Sequence[int]] = None,
        position_degrees: Optional[Sequence[int]] = None,
    ) -> int:
        if not self.terms:
            return -1
        best = None
        for pos, m in self.terms:
            d = mono_degree(m, weights)
            if position_degrees is not None:
                d += position_degrees[pos]
            if best is None or d > best:
                best = d
        return best

    def homogeneous_degree(
        self,
        weights: Optional[Sequence[int]] = None,
        position_degrees: Optional[Sequence[int]] = None,
    ) -> Optional[int]:
        degs = set()
        for pos, m in self.terms:
            d = mono_degree(m, weights)
            if position_degrees is not None:
                d += position_degrees[pos]
            degs.add(d)
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(
        self,
        weights: Optional[Sequence[int]] = None,
        position_degrees: Optional[Sequence[int]] = None,
    ) -> bool:
        if not self.terms:
            return True
        return self.homogeneous_degree(weights, position_degrees) is not None

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

    def restricted(self, positions: Sequence[int]) -> "FreeElement":
        """Project onto the listed positions, reindexed in the given order."""
        index = {pos: i for i, pos in enumerate(positions)}
        out = {
            (index[p], m): c for (p, m), c in self.terms.items() if p in index
        }
        return FreeElement(
            self.field, self.nvars, len(positions), out, _normalized=True
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
