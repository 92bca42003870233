"""Graded quotient rings R = k[x_1..x_n]/I with declared structural data.

A ``RingContext`` is immutable and freely shareable.  The defining ideal
must be homogeneous for the declared grading.  The irrelevant maximal
ideal (x_1, ..., x_n) plays the role of the maximal ideal in every local
statement; minimal primes are user-declared and only their containment of
I is verified, which the context records as a trust warning.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import DimensionError, InputError, StructuralError, UnsupportedError
from .fields import FieldSpec
from .groebner import (
    Completion,
    GroebnerBasis,
    TermDict,
    empty_basis,
    groebner_basis,
    syzygy_generators,
)
from .poly import (
    FreeElement,
    Polynomial,
    element_to_polynomial,
    mono_divides,
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
            return format_polynomial(value, self.variables)
        return format_vector(value, self.variables)

    # -- reduction mod the defining ideal -------------------------------

    def normal_form_poly(self, f: Polynomial) -> Polynomial:
        if not self.ideal_generators:
            return f
        return element_to_polynomial(
            self.ideal_basis.normal_form(polynomial_to_element(f))
        )

    def normal_form_vector(self, vec: FreeElement) -> FreeElement:
        """``vec`` with every component in normal form mod I.  Only the
        nonzero components are reduced: a zero one already is."""
        if not self.ideal_generators or vec.is_zero():
            return vec
        buckets: Dict[int, Dict[Tuple[int, ...], object]] = {}
        for (pos, mono), c in vec.terms.items():
            buckets.setdefault(pos, {})[mono] = c
        terms: TermDict = {}
        for pos in sorted(buckets):
            comp = Polynomial(self.field, self.nvars, buckets[pos], _normalized=True)
            for mono, c in self.normal_form_poly(comp).terms.items():
                terms[(pos, mono)] = c
        return FreeElement(self.field, self.nvars, vec.rank, terms, _normalized=True)

    def is_zero_in_ring(self, f: Polynomial) -> bool:
        return self.normal_form_poly(f).is_zero()

    def is_in_maximal_ideal(self, f: Polynomial) -> bool:
        r = self.normal_form_poly(f)
        return not r.constant_value()

    # -- submodules of free modules over R -------------------------------

    def ideal_block(self, rank: int) -> List[FreeElement]:
        """The lift I * e_j of the defining ideal into k[x]^rank."""
        return _lift(self.ideal_basis, rank)

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
            return empty_basis(self.field, self.nvars, rank)
        return groebner_basis(gens)

    def minimal_subset(
        self,
        vectors: Sequence[FreeElement],
        rank: int,
        key: Callable[[FreeElement], object],
        modulo: Sequence[FreeElement] = (),
    ) -> List[FreeElement]:
        """Greedy minimal generating subset of <vectors> + <modulo>, over <modulo>.

        Graded Nakayama: the nonzero vectors are tried in ``key`` order and
        each is kept unless <modulo> + I*R^rank plus the vectors kept so far
        already contain it.  For homogeneous input sorted by degree the kept
        vectors form a minimal generating set.  One Buchberger completion
        runs through the whole call (Kreuzer-Robbiano, Computational
        Commutative Algebra 2, 4.6): it starts from <modulo> + I*R^rank,
        and a kept vector's remainder joins it, and is completed, only when
        the next vector is tested.  Full reduction against any Groebner
        basis of the span decides membership, so the kept vectors are those
        a reduced basis would pick.  The intermediate bases are not
        canonical and never reach the cache.
        """
        candidates = sorted((v for v in vectors if not v.is_zero()), key=key)
        base = [g for g in modulo if not g.is_zero()]
        for vec in (*candidates, *base):
            if vec.field != self.field or vec.nvars != self.nvars or vec.rank != rank:
                raise DimensionError("vector does not match the ambient module")
        if not candidates:
            return []
        state = Completion(
            self.field, self.nvars, rank, "minimal-generator completion"
        )
        for g in base + self.ideal_block(rank):
            state.add(g.terms)
        picked: List[FreeElement] = []
        kept: TermDict = {}
        for vec in candidates:
            if kept:
                state.add(kept)
            state.complete()
            kept = state.reduce(vec.terms)
            if kept:
                picked.append(vec)
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
        raw = syzygy_generators(columns, lift=self.ideal_block(rank))
        reduced = (self.normal_form_vector(vec) for vec in raw)
        return [vec for vec in reduced if not vec.is_zero()]

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
                    [polynomial_to_element(g) for g in gens]
                )
            else:
                self._prime_bases[index] = empty_basis(self.field, self.nvars, 1)
        return self._prime_bases[index]

    def in_prime(self, f: Polynomial, index: int) -> bool:
        """Does f lie in the declared minimal prime ``index``?

        ``make_ring`` checks that every declared prime contains the defining
        ideal, so f needs no reduction modulo the ideal first.
        """
        return self.prime_basis(index).contains(polynomial_to_element(f))

    def rank_at_prime(
        self, columns: Sequence[FreeElement], rank: int, index: int
    ) -> int:
        """Rank over Frac(R/p) of the matrix with these columns in R^rank,
        for the declared minimal prime p with index ``index``.

        One position-over-term completion of <columns> + p*R^rank over k[x]
        (Greuel-Pfister, A Singular Introduction to Commutative Algebra,
        2.4).  The basis is triangular: the i-th components of the elements
        leading at position i generate the ideal J_i >= p of i-th entries of
        the vectors that vanish before i, and their leads generate in(J_i).
        Over the domain R/p the matrix has a pivot at i exactly when
        J_i != p, that is when one of those leads lies outside in(p).  Over
        a reduced ring R_p = Frac(R/p), so this is the generic rank at p.
        The completion is not cached.
        """
        for col in columns:
            if col.field != self.field or col.nvars != self.nvars or col.rank != rank:
                raise DimensionError("column does not match the ambient module")
        prime = self.prime_basis(index)
        state = Completion(self.field, self.nvars, rank, "rank-at-prime completion")
        for vec in (*columns, *_lift(prime, rank)):
            if not vec.is_zero():
                state.add(vec.terms)
        state.complete()
        prime_leads = [mono for _, mono in prime.lead_terms()]
        pivots = {
            pos
            for pos, mono in state.leads
            if not any(mono_divides(lead, mono) for lead in prime_leads)
        }
        return len(pivots)

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


def _lift(basis: GroebnerBasis, rank: int) -> List[FreeElement]:
    """The lift J * e_j into k[x]^rank of the ideal J with this basis."""
    block: List[FreeElement] = []
    for g in basis:
        gp = element_to_polynomial(g)
        for j in range(rank):
            block.append(FreeElement.unit(gp.field, gp.nvars, rank, j).scaled(gp))
    return block


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
        ideal_basis = groebner_basis([polynomial_to_element(g) for g in gens])
    else:
        ideal_basis = empty_basis(field, nvars, 1)

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
            prime_gb = groebner_basis([polynomial_to_element(g) for g in checked])
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
            ideal_basis=empty_basis(field, nvars, 1),
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
    """Koszul test: the sequence is regular on R iff its depth on R is its
    length, that is iff H_i of the Koszul complex vanishes for i >= 1.

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

    from .homology import koszul_depth
    from .modules import FPModule

    return koszul_depth(seq, FPModule.free(ring, 1)).depth == len(seq)
