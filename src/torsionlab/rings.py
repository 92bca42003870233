"""Graded quotient rings R = k[x_1..x_n]/I with declared structural data.

A ``RingContext`` is immutable and freely shareable.  The defining ideal
must be homogeneous for the declared grading.  The irrelevant maximal
ideal (x_1, ..., x_n) plays the role of the maximal ideal in every local
statement; minimal primes are user-declared and only their containment of
I is verified, which the context records as a trust warning.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import InputError, StructuralError, UnsupportedError
from .fields import FieldSpec
from .groebner import (
    GroebnerBasis,
    empty_basis,
    groebner_basis,
    syzygy_generators,
)
from .orders import DEFAULT_ORDER, MonomialOrder
from .poly import (
    FreeElement,
    Polynomial,
    element_to_polynomial,
    polynomial_to_element,
)
from .syntax import format_polynomial, format_vector, parse_polynomial, parse_vector


class RingContext:
    """An exact graded quotient ring with cached Groebner data."""

    def __init__(
        self,
        field: FieldSpec,
        variables: Sequence[str],
        ideal_generators: Sequence[Polynomial],
        grading: Sequence[int],
        minimal_primes: Sequence[Sequence[Polynomial]],
        reduced: bool,
        complete_intersection: bool,
        warnings: Sequence[str],
        ideal_basis: GroebnerBasis,
    ):
        self.field = field
        self.variables: Tuple[str, ...] = tuple(variables)
        self.nvars = len(self.variables)
        self.grading: Tuple[int, ...] = tuple(grading)
        self.ideal_generators: Tuple[Polynomial, ...] = tuple(ideal_generators)
        self.minimal_primes: Tuple[Tuple[Polynomial, ...], ...] = tuple(
            tuple(p) for p in minimal_primes
        )
        self.reduced = reduced
        self.complete_intersection = complete_intersection
        self.warnings: Tuple[str, ...] = tuple(warnings)
        self.order: MonomialOrder = DEFAULT_ORDER
        self.ideal_basis = ideal_basis
        self._prime_bases: Dict[int, GroebnerBasis] = {}
        self._depth: Optional[int] = None

    # -- constructors for elements -------------------------------------

    def poly(self, text: str) -> Polynomial:
        return self.normal_form_poly(
            parse_polynomial(text, self.variables, self.field)
        )

    def vector(self, text: str) -> FreeElement:
        return parse_vector(text, self.variables, self.field)

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.field, self.nvars)

    def one(self) -> Polynomial:
        return Polynomial.constant(self.field, self.nvars, 1)

    def variable(self, index: int) -> Polynomial:
        return Polynomial.variable(self.field, self.nvars, index)

    def format(self, value) -> str:
        if isinstance(value, Polynomial):
            return format_polynomial(value, self.variables, self.order)
        return format_vector(value, self.variables, self.order)

    # -- reduction mod the defining ideal -------------------------------

    def normal_form_poly(self, f: Polynomial) -> Polynomial:
        if not self.ideal_generators:
            return f
        return element_to_polynomial(
            self.ideal_basis.normal_form(polynomial_to_element(f))
        )

    def is_zero_in_ring(self, f: Polynomial) -> bool:
        return self.normal_form_poly(f).is_zero()

    def is_in_maximal_ideal(self, f: Polynomial) -> bool:
        r = self.normal_form_poly(f)
        return not r.constant_value()

    # -- submodules of free modules over R -------------------------------

    def ideal_block(self, rank: int) -> List[FreeElement]:
        """The lift I * e_j of the defining ideal into k[x]^rank."""
        block: List[FreeElement] = []
        for g in self.ideal_basis:
            gp = element_to_polynomial(g)
            for j in range(rank):
                block.append(
                    FreeElement.unit(self.field, self.nvars, rank, j).scaled(gp)
                )
        return block

    def submodule_basis(
        self, columns: Sequence[FreeElement], rank: int
    ) -> GroebnerBasis:
        """Groebner basis, over k[x], of <columns> + I*R^rank.

        Normal form against it decides membership and element equality in
        the quotient module R^rank / <columns>.
        """
        gens = [c for c in columns if not c.is_zero()]
        gens.extend(self.ideal_block(rank))
        if not gens:
            return empty_basis(self.field, self.nvars, rank, self.order)
        return groebner_basis(gens, self.order)

    def minimal_subset(
        self,
        vectors: Sequence[FreeElement],
        rank: int,
        key: Callable[[FreeElement], object],
        modulo: Sequence[FreeElement] = (),
    ) -> List[FreeElement]:
        """Greedy minimal generating subset of <vectors> + <modulo>, over <modulo>.

        Graded Nakayama: the nonzero vectors are tried in ``key`` order and
        each is kept unless <modulo> plus the vectors kept so far already
        contain it.  For homogeneous input sorted by degree the kept vectors
        form a minimal generating set.  The basis of the span is built only
        when a vector has to be tested against it.
        """
        modulo = list(modulo)
        picked: List[FreeElement] = []
        basis = None
        for vec in sorted((v for v in vectors if not v.is_zero()), key=key):
            if basis is None:
                basis = self.submodule_basis(modulo + picked, rank)
            if not basis.normal_form(vec).is_zero():
                picked.append(vec)
                basis = None
        return picked

    def syzygies(
        self,
        columns: Sequence[FreeElement],
        rank: int,
    ) -> List[FreeElement]:
        """Generators of the R-syzygy module of the given columns.

        Lifts the defining ideal so relations are taken in the quotient;
        coefficients are returned in normal form mod I.
        """
        if not columns:
            return []
        raw = syzygy_generators(columns, lift=self.ideal_block(rank), order=self.order)
        out = []
        for vec in raw:
            comps = [self.normal_form_poly(c) for c in vec.components()]
            if any(not c.is_zero() for c in comps):
                out.append(FreeElement.from_components(comps, rank=len(columns)))
        return out

    # -- declared minimal primes -----------------------------------------

    def effective_minimal_primes(self) -> Tuple[Tuple[Polynomial, ...], ...]:
        """Declared primes; a polynomial ring defaults to the zero ideal."""
        if self.minimal_primes:
            return self.minimal_primes
        if not self.ideal_generators:
            return ((),)
        raise UnsupportedError(
            "this operation needs declared minimal primes on a proper quotient"
        )

    def prime_basis(self, index: int) -> GroebnerBasis:
        if index not in self._prime_bases:
            gens = [g for g in self.effective_minimal_primes()[index] if not g.is_zero()]
            if gens:
                self._prime_bases[index] = groebner_basis(
                    [polynomial_to_element(g) for g in gens], self.order
                )
            else:
                self._prime_bases[index] = empty_basis(
                    self.field, self.nvars, 1, self.order
                )
        return self._prime_bases[index]

    def prime_normal_form(self, f: Polynomial, index: int) -> Polynomial:
        """Normal form of f modulo the declared minimal prime ``index``.

        ``make_ring`` checks that every declared prime contains the defining
        ideal, so f needs no reduction modulo the ideal first.
        """
        return element_to_polynomial(
            self.prime_basis(index).normal_form(polynomial_to_element(f))
        )

    def in_prime(self, f: Polynomial, index: int) -> bool:
        return self.prime_normal_form(f, index).is_zero()

    def is_nonzerodivisor(self, f: Polynomial) -> bool:
        """True when f avoids every declared minimal prime.

        Valid for reduced rings, where the zerodivisors are the union of
        the minimal primes.
        """
        if not self.reduced:
            raise UnsupportedError("non-zerodivisor test needs a reduced ring")
        r = self.normal_form_poly(f)
        if r.is_zero():
            return False
        return all(
            not self.in_prime(r, i)
            for i in range(len(self.effective_minimal_primes()))
        )

    # -- invariants -------------------------------------------------------

    def depth(self) -> int:
        """Depth of R along the irrelevant maximal ideal, via Koszul homology."""
        if self._depth is None:
            from .homology import ring_depth

            self._depth = ring_depth(self)
        return self._depth

    def key(self) -> tuple:
        return (
            self.field.characteristic,
            self.variables,
            self.grading,
            tuple(self.format(g) for g in self.ideal_basis_polys()),
            tuple(
                tuple(sorted(self.format(g) for g in prime))
                for prime in self.minimal_primes
            ),
            self.reduced,
            self.complete_intersection,
        )

    def ideal_basis_polys(self) -> List[Polynomial]:
        return [element_to_polynomial(g) for g in self.ideal_basis]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingContext):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def descriptor(self) -> str:
        base = f"{self.field}[{','.join(self.variables)}]"
        if self.ideal_generators:
            gens = ", ".join(self.format(g) for g in self.ideal_generators)
            base += f"/({gens})"
        if self.grading != (1,) * self.nvars:
            base += f" grading={list(self.grading)}"
        return base

    def __repr__(self) -> str:
        return f"RingContext({self.descriptor()})"


def make_ring(
    field: FieldSpec,
    variables: Sequence[str],
    ideal: Sequence[Polynomial] = (),
    grading: Optional[Sequence[int]] = None,
    minimal_primes: Sequence[Sequence[Polynomial]] = (),
    reduced: bool = False,
    complete_intersection: bool = False,
) -> RingContext:
    """Validate and build a ring context.

    Rejects inhomogeneous defining ideals, complete-intersection flags whose
    generators fail the Koszul regularity test in k[x], and declared minimal
    primes that do not contain the ideal.  Reducedness and primality of the
    declared primes are trusted, with a recorded warning.
    """
    names = tuple(variables)
    if not names:
        raise InputError("a ring needs at least one variable")
    if len(set(names)) != len(names):
        raise InputError("variable names must be distinct")
    weights = tuple(grading) if grading is not None else (1,) * len(names)
    if len(weights) != len(names) or any(w < 1 for w in weights):
        raise InputError("grading must assign a positive degree to each variable")
    nvars = len(names)

    gens: List[Polynomial] = []
    for g in ideal:
        if g.field != field or g.nvars != nvars:
            raise InputError("ideal generator lives in a different ring")
        if g.is_zero():
            continue
        if not g.is_homogeneous(weights):
            raise InputError(
                f"defining ideal generator is not homogeneous for grading {weights}"
            )
        gens.append(g)

    if gens:
        ideal_basis = groebner_basis(
            [polynomial_to_element(g) for g in gens], DEFAULT_ORDER
        )
    else:
        ideal_basis = empty_basis(field, nvars, 1, DEFAULT_ORDER)

    warnings: List[str] = []
    primes: List[Tuple[Polynomial, ...]] = []
    for prime in minimal_primes:
        checked: List[Polynomial] = []
        for g in prime:
            if g.field != field or g.nvars != nvars:
                raise InputError("minimal prime generator lives in a different ring")
            if g.is_zero():
                continue
            if not g.is_homogeneous(weights):
                raise InputError("minimal prime generators must be homogeneous")
            checked.append(g)
        if checked:
            prime_gb = groebner_basis(
                [polynomial_to_element(g) for g in checked], DEFAULT_ORDER
            )
            for g in gens:
                if not prime_gb.normal_form(polynomial_to_element(g)).is_zero():
                    raise StructuralError(
                        "declared minimal prime does not contain the defining ideal"
                    )
        elif gens:
            raise StructuralError(
                "the zero ideal cannot be a minimal prime of a proper quotient"
            )
        primes.append(tuple(checked))
    if primes:
        warnings.append(
            "minimal primes are declared: primality and completeness of the "
            "list are trusted, containment of the ideal was verified"
        )
    if not gens:
        # the polynomial ring is a domain and trivially a complete
        # intersection: both flags hold without trust
        reduced = True
        complete_intersection = True
    elif reduced:
        warnings.append("reduced flag is declared and trusted, not verified")

    ring = RingContext(
        field=field,
        variables=names,
        ideal_generators=tuple(gens),
        grading=weights,
        minimal_primes=tuple(primes),
        reduced=reduced,
        complete_intersection=complete_intersection,
        warnings=tuple(warnings),
        ideal_basis=ideal_basis,
    )

    if complete_intersection and gens:
        ambient = RingContext(
            field=field,
            variables=names,
            ideal_generators=(),
            grading=weights,
            minimal_primes=(),
            reduced=True,
            complete_intersection=True,
            warnings=(),
            ideal_basis=empty_basis(field, nvars, 1, DEFAULT_ORDER),
        )
        if not is_regular_sequence(ambient, gens):
            raise StructuralError(
                "complete-intersection flag declared but the ideal generators "
                "are not a regular sequence in the polynomial ring"
            )
    return ring


class Ideal:
    """An ideal of R given by generators, with a cached Groebner basis."""

    def __init__(self, ring: RingContext, generators: Sequence[Polynomial]):
        self.ring = ring
        gens = []
        for g in generators:
            r = ring.normal_form_poly(g)
            if not r.is_zero():
                gens.append(r)
        self.generators: Tuple[Polynomial, ...] = tuple(gens)
        self._basis: Optional[GroebnerBasis] = None

    def basis(self) -> GroebnerBasis:
        if self._basis is None:
            elems = [polynomial_to_element(g) for g in self.generators]
            self._basis = self.ring.submodule_basis(elems, 1)
        return self._basis

    def contains(self, f: Polynomial) -> bool:
        return self.basis().normal_form(polynomial_to_element(f)).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.generators)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.contains_ideal(other) and other.contains_ideal(self)

    def __hash__(self):
        raise TypeError("ideals are compared by containment, not hashed")

    def is_zero(self) -> bool:
        return not self.generators

    def is_whole_ring(self) -> bool:
        return self.contains(self.ring.one())

    def minimal_generators(self) -> List[Polynomial]:
        """Greedy homogeneous minimal generating set (graded Nakayama)."""
        ring = self.ring

        def key(vec: FreeElement):
            g = element_to_polynomial(vec)
            return (g.degree(ring.grading), ring.format(g))

        vectors = [polynomial_to_element(g) for g in self.generators]
        picked = ring.minimal_subset(vectors, 1, key)
        return [element_to_polynomial(v) for v in picked]

    def contains_nonzerodivisor(self) -> bool:
        """True iff the ideal is not inside any declared minimal prime."""
        if not self.ring.reduced:
            raise UnsupportedError(
                "non-zerodivisor detection needs a declared-reduced ring"
            )
        primes = self.ring.effective_minimal_primes()
        for i in range(len(primes)):
            if all(self.ring.in_prime(g, i) for g in self.generators):
                return False
        return True

    def descriptor(self) -> str:
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(self.ring.format(g) for g in self.generators) + ")"

    def __repr__(self) -> str:
        return f"Ideal{self.descriptor()}"


def is_regular_sequence(ring: RingContext, sequence: Sequence[Polynomial]) -> bool:
    """Koszul test: the sequence is regular on R iff H_i vanishes for i >= 1.

    Requires a nonempty, homogeneous sequence inside the irrelevant maximal
    ideal, so the generated ideal is proper.
    """
    if not sequence:
        raise InputError("regularity test needs a nonempty sequence")
    seq = []
    for f in sequence:
        if f.field != ring.field or f.nvars != ring.nvars:
            raise InputError("sequence element lives in a different ring")
        if not f.is_homogeneous(ring.grading):
            raise InputError("sequence elements must be homogeneous")
        if not ring.is_in_maximal_ideal(f):
            raise InputError(
                "sequence elements must lie in the irrelevant maximal ideal"
            )
        seq.append(ring.normal_form_poly(f))

    from .homology import koszul_differentials

    diffs = koszul_differentials(ring, seq)
    d = len(seq)
    for i in range(1, d + 1):
        cols_i = diffs[i - 1]  # d_i columns, rank C(d, i-1)
        rank_i_minus = cols_i[0].rank if cols_i else 1
        kernel = ring.syzygies(cols_i, rank_i_minus)
        if not kernel:
            continue
        image_cols = diffs[i] if i < d else []
        rank_i = len(cols_i)
        image_basis = ring.submodule_basis(image_cols, rank_i)
        for v in kernel:
            if not image_basis.normal_form(v).is_zero():
                return False
    return True
