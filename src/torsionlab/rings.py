"""Graded quotient rings R = k[x_1..x_n]/I with declared structural data.

A ``RingContext`` is immutable and freely shareable.  The defining ideal
must be homogeneous for the declared grading.  The irrelevant maximal
ideal (x_1, ..., x_n) plays the role of the maximal ideal in every local
statement.  Minimal primes are user-declared, and the context holds their
Groebner bases.  ``make_ring`` refuses a prime that does not contain I or
contains another, a nonzero prime on a polynomial ring and the zero prime
on a quotient; primality and completeness stay trusted, with a warning.
The primes serve only the generic ranks and question2.12's domain check:
a non-zerodivisor is decided by the colon (0 :_R J) = 0.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from .errors import DimensionError, InputError, StructuralError, UnsupportedError
from .fields import FieldSpec
from .groebner import (
    Completion,
    GroebnerBasis,
    TermDict,
    groebner_basis,
    ideal_groebner_basis,
    syzygy_generators,
)
from .poly import (
    FreeElement,
    Polynomial,
    element_to_polynomial,
    lifted_ideal,
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
        reduced: bool,
        complete_intersection: bool,
        warnings: Sequence[str],
        ideal_basis: GroebnerBasis,
        prime_bases: Sequence[GroebnerBasis],
    ):
        self.field = field
        self.variables: Tuple[str, ...] = tuple(variables)
        self.nvars = len(self.variables)
        self.grading: Tuple[int, ...] = tuple(grading)
        self.ideal_generators: Tuple[Polynomial, ...] = tuple(ideal_generators)
        self.reduced = reduced
        self.complete_intersection = complete_intersection
        self.warnings: Tuple[str, ...] = tuple(warnings)
        self.ideal_basis = ideal_basis
        self._ideal_polys: Tuple[Polynomial, ...] = tuple(
            element_to_polynomial(g) for g in ideal_basis
        )
        self._prime_bases: Tuple[GroebnerBasis, ...] = tuple(prime_bases)
        self._depth: Optional[int] = None
        self._key: Optional[tuple] = None

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
        terms: TermDict = {}
        for pos, comp in vec.nonzero_components().items():
            for mono, c in self.normal_form_poly(comp).terms.items():
                terms[(pos, mono)] = c
        return FreeElement(self.field, self.nvars, vec.rank, terms, _normalized=True)

    def is_in_maximal_ideal(self, f: Polynomial) -> bool:
        r = self.normal_form_poly(f)
        return not r.constant_value()

    # -- submodules of free modules over R -------------------------------

    def ideal_block(self, rank: int) -> List[FreeElement]:
        """The lift I * e_j of the defining ideal into k[x]^rank."""
        return lifted_ideal(self._ideal_polys, rank)

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
            return GroebnerBasis(self.field, self.nvars, rank, ())
        return groebner_basis(gens)

    def minimal_subset(
        self,
        vectors: Sequence[FreeElement],
        rank: int,
        position_degrees: Sequence[int],
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

        The completion is keyed by ``position_degrees``, and each
        generator joins it with its degree for them.  It is taken up to the
        top degree of the vector tested, which decides its membership, so
        generators of a higher degree wait; once an inhomogeneous generator
        has joined, ``Completion`` takes it to the end.
        """
        candidates = sorted((v for v in vectors if not v.is_zero()), key=key)
        base = [g for g in modulo if not g.is_zero()]
        for vec in (*candidates, *base):
            if vec.field != self.field or vec.nvars != self.nvars or vec.rank != rank:
                raise DimensionError("vector does not match the ambient module")
        if not candidates:
            return []
        state = Completion(
            self.field, self.nvars, rank, "minimal-generator completion",
            position_degrees,
        )

        def degree_of(vec: FreeElement) -> Optional[int]:
            return vec.homogeneous_degree(self.grading, position_degrees)

        for g in (*base, *self.ideal_block(rank)):
            state.add(g.terms, degree_of(g))
        picked: List[FreeElement] = []
        kept: TermDict = {}
        kept_degree: Optional[int] = None
        for vec in candidates:
            if kept:
                state.add(kept, kept_degree)
            state.complete(up_to=vec.degree(self.grading, position_degrees))
            kept = state.reduce(vec.terms)
            if kept:
                picked.append(vec)
                kept_degree = degree_of(vec)
        return picked

    def syzygies(
        self,
        columns: Sequence[FreeElement],
        rank: int,
        modulo: Sequence[FreeElement] = (),
    ) -> List[FreeElement]:
        """Generators of the R-syzygies of the given columns modulo <modulo>:
        the v with sum v_i columns[i] in <modulo> + I*R^rank.

        ``modulo`` and the lifted defining ideal are the lift of
        ``syzygy_generators``, so only the columns get tag positions.  The
        result is that module's reduced basis over k[x], with coefficients
        in normal form mod I and zero vectors dropped.  It equals the
        columns' part of the syzygies of columns + modulo: under position
        over term the columns' tag block comes first, so those syzygies
        whose lead lies in it have the same leads and, restricted to it,
        form the same reduced basis, in the same order.
        """
        if not columns:
            return []
        raw = syzygy_generators(columns, lift=[*modulo, *self.ideal_block(rank)])
        reduced = (self.normal_form_vector(vec) for vec in raw)
        return [vec for vec in reduced if not vec.is_zero()]

    def is_nonzerodivisor(self, f: Polynomial) -> bool:
        """True when (0 :_R f) = 0, by ``Ideal.contains_nonzerodivisor`` on
        (f); zero in R is a zerodivisor."""
        return Ideal(self, [f]).contains_nonzerodivisor()

    # -- declared minimal primes -----------------------------------------

    def prime_bases(self) -> Tuple[GroebnerBasis, ...]:
        """Groebner bases of the declared minimal primes, built once by
        ``make_ring``; a polynomial ring defaults to the zero ideal.  They
        serve the generic ranks and the question2.12 probe's domain check.
        """
        if not self._prime_bases:
            raise UnsupportedError(
                "this operation needs declared minimal primes on a proper quotient"
            )
        return self._prime_bases

    def rank_at_prime(
        self, columns: Sequence[FreeElement], rank: int, prime: GroebnerBasis
    ) -> int:
        """Rank over Frac(R/p) of the matrix with these columns in R^rank,
        for the declared minimal prime p with Groebner basis ``prime``.

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
        state = Completion(self.field, self.nvars, rank, "rank-at-prime completion")
        prime_polys = [element_to_polynomial(g) for g in prime]
        for vec in (*columns, *lifted_ideal(prime_polys, rank)):
            if not vec.is_zero():
                state.add(vec.terms)
        state.complete()
        pivots = {
            pos for pos, mono in state.lead_terms() if prime.reducer((0, mono)) < 0
        }
        return len(pivots)

    # -- invariants -------------------------------------------------------

    def depth(self) -> int:
        """Depth of R along the irrelevant maximal ideal, via Koszul homology."""
        if self._depth is None:
            from .homology import ring_depth

            self._depth = ring_depth(self)
        return self._depth

    def key(self) -> tuple:
        if self._key is None:
            self._key = (
                self.field.characteristic,
                self.variables,
                self.grading,
                tuple(self.format(g) for g in self._ideal_polys),
                tuple(
                    tuple(self.format(element_to_polynomial(g)) for g in prime)
                    for prime in self._prime_bases
                ),
                self.reduced,
                self.complete_intersection,
            )
        return self._key

    def regraded(self, grading: Sequence[int]) -> "RingContext":
        """This ring with another positive grading for which its defining
        ideal is homogeneous.  It shares the Groebner bases of the ideal and
        of the primes, which degrevlex computes without the grading, and
        the flags and warnings, which do not depend on it."""
        return RingContext(
            field=self.field,
            variables=self.variables,
            ideal_generators=self.ideal_generators,
            grading=grading,
            reduced=self.reduced,
            complete_intersection=self.complete_intersection,
            warnings=self.warnings,
            ideal_basis=self.ideal_basis,
            prime_bases=self._prime_bases,
        )

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

    One routine checks the generators of the defining ideal and of each
    declared minimal prime and builds the reduced basis of what they
    generate.  Rejects inhomogeneous generators, complete-intersection flags
    whose generators fail the Koszul regularity test in k[x], declared
    minimal primes that do not contain the ideal or that contain one
    another, the zero prime on a proper quotient and a nonzero prime on a
    polynomial ring.  Reducedness and primality of the declared primes are
    trusted, with a recorded warning.
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

    def intake(
        kind: str, polys: Sequence[Polynomial]
    ) -> Tuple[List[Polynomial], GroebnerBasis]:
        """The nonzero generators among ``polys``, each checked to lie in
        this ring and to be homogeneous, and the reduced Groebner basis of
        the ideal they generate; ``kind`` names a generator in an error."""
        checked: List[Polynomial] = []
        for g in polys:
            if g.field != field or g.nvars != nvars:
                raise InputError(f"{kind} lives in a different ring")
            if g.is_zero():
                continue
            if not g.is_homogeneous(weights):
                raise InputError(f"{kind} is not homogeneous for grading {weights}")
            checked.append(g)
        if not checked:
            return checked, GroebnerBasis(field, nvars, 1, ())
        return checked, ideal_groebner_basis(checked)

    def contains(outer: GroebnerBasis, inner: GroebnerBasis) -> bool:
        return all(outer.contains(g) for g in inner)

    gens, ideal_basis = intake("defining ideal generator", ideal)
    warnings: List[str] = []
    prime_bases: List[GroebnerBasis] = []
    # the one minimal prime of the polynomial ring is the zero ideal
    for prime in minimal_primes or ([] if gens else [()]):
        prime_gens, prime_basis = intake("minimal prime generator", prime)
        if gens and not prime_gens:
            raise StructuralError(
                "the zero ideal cannot be a minimal prime of a proper quotient"
            )
        if prime_gens and not gens:
            raise StructuralError(
                "the zero ideal is the only minimal prime of a polynomial ring"
            )
        if not contains(prime_basis, ideal_basis):
            raise StructuralError(
                "declared minimal prime does not contain the defining ideal"
            )
        # minimal primes are pairwise incomparable: a repeated prime, or
        # one inside another, would count a component twice or not at all
        for earlier in prime_bases:
            if contains(earlier, prime_basis) or contains(prime_basis, earlier):
                raise StructuralError("a declared minimal prime contains another")
        prime_bases.append(prime_basis)
    if minimal_primes:
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
        reduced=reduced,
        complete_intersection=complete_intersection,
        warnings=tuple(warnings),
        ideal_basis=ideal_basis,
        prime_bases=prime_bases,
    )

    if complete_intersection and gens:
        ambient = make_ring(field, names, grading=weights)
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

    def minimal_generators(self) -> List[Polynomial]:
        """Greedy homogeneous minimal generating set (graded Nakayama)."""
        ring = self.ring

        def key(vec: FreeElement):
            g = element_to_polynomial(vec)
            return (g.degree(ring.grading), ring.format(g))

        vectors = [polynomial_to_element(g) for g in self.generators]
        picked = ring.minimal_subset(vectors, 1, (0,), key)
        return [element_to_polynomial(v) for v in picked]

    def contains_nonzerodivisor(self) -> bool:
        """True iff the ideal J holds a non-zerodivisor, that is iff
        (0 :_R J) = 0 (Kaplansky, Commutative Rings, Thm 82): iff the
        R-syzygies of the column of J's generators, reduced mod I, are all
        zero (Greuel-Pfister, 1.8).  No declared prime is read."""
        if not self.generators:
            return False
        column = FreeElement.from_components(self.generators)
        return not self.ring.syzygies([column], column.rank)

    def descriptor(self) -> str:
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(self.ring.format(g) for g in self.generators) + ")"

    def __repr__(self) -> str:
        return f"Ideal{self.descriptor()}"


def is_regular_sequence(ring: RingContext, sequence: Sequence[Polynomial]) -> bool:
    """Koszul test: the sequence is regular on R iff its depth on R is its
    length, that is iff H_1 of the Koszul complex vanishes.

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

    return koszul_depth(seq, FPModule.free(ring, 1)) == len(seq)
