"""Division with remainder, Buchberger completion, and syzygies.

Everything here works over a free module ``k[x]^rank``; quotient-ring
behaviour is layered on top by ``rings`` (lifting the defining ideal into
the generating set).  The engine is deterministic: identical inputs yield
identical reduced bases, element for element.

Vectors enter and leave as the term dicts of ``FreeElement``; the public
surface wraps them back into value objects.  One routine,
``_reduced_completion``, leads from generators to a cached reduced basis:
it looks the request up and, on a miss, completes the generators and
autoreduces and stores the elements leading in the wanted positions, all
of them for ``groebner_basis`` and a graph's tag block for
``syzygy_generators``.

One class, ``_Divisors``, holds every set of divisors the kernel reduces
by: the elements of a ``GroebnerBasis``, the growing basis of a
``Completion`` and the kept set of ``_autoreduce``.  It stores element i as
its lead term, lead coefficient and tail, indexes the leads by position,
and owns the one search for a reducer of a term and the two reductions.
``_normalized`` is the one place that picks an element's scalar multiple:
monic vectors of ints mod p over GF(p), and over QQ content-free integer
vectors (primitive, with a positive lead coefficient).  Over QQ the kernel
never divides: a reduction step scales the work vector by the reducer's
lead coefficient over a gcd, and an S-polynomial crosses the two lead
coefficients the same way.  Each intermediate vector is a nonzero rational
multiple of the one monic arithmetic would give, so every lead, every zero
remainder and every kept element is the same.  ``Fraction`` coefficients
appear only at the boundary: the monic elements of a ``GroebnerBasis``,
its ``normal_form`` and ``Completion.reduce``.

Inside the kernel a module term ``(pos, e)`` is one int (``_Layout``; the
packed exponent vectors of Bachmann and Schoenemann, "Monomial
representations for Groebner bases computations", ISSAC 1998).  From the
most significant end it holds the position, then ``top - deg e``, then the
exponents with the last variable highest, each in a field of ``bits`` bits
whose highest bit is a guard bit, zero in every code.  So:

- a smaller int is exactly a larger term in position over term with
  degrevlex, so a heap of bare ints pops the lead first and ``min`` of a
  vector's terms is its lead;
- multiplying a term by x^s is one addition: for a lead l dividing t,
  ``g + (t - l)`` is the code of g * x^(t - l), as long as that product
  has degree at most ``top`` (no field overflows or borrows);
- l divides t at the same position exactly when ``((t | G) - l) & G ==
  G``, G the guard bits of the exponent fields: the guard bit of a field
  survives the subtraction when t's exponent is at least l's.

The degree cap keeps every product within ``top``: a reduction step
compares the degree of its multiplier plus the reducer's largest tail
degree with the cap before forming any sum, and only when that passes the
cap does a slow path walk the tail in dict order to raise the error.  An
S-polynomial whose products may pass the cap is built in a layout widened
to hold them, and its first term over the cap, in dict order, raises.  A
layout holds degrees up to ``top`` >= max(degree cap, input degrees),
fitted when the divisor set is built; a later call with a higher cap or a
higher input degree re-encodes the set in a wider layout (``_fit``),
because a ``GroebnerBasis`` outlives a ``run_scope``.  Terms are decoded
where they leave the kernel: remainders, reduced bases and ``lead_terms``.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import cache
from .errors import AbortedError, DimensionError
from .fields import FieldSpec
from .limits import current, degree_cap_error
from .poly import (
    FreeElement,
    Polynomial,
    polynomial_to_element,
)

Term = Tuple[int, Tuple[int, ...]]
TermDict = Dict[Term, object]
Packed = Dict[int, object]


class _Layout:
    """The packing of the module terms of ``nvars`` variables into ints,
    for total degrees up to ``top`` >= ``bound`` (see the module
    docstring)."""

    __slots__ = (
        "nvars", "bits", "top", "mask", "shifts", "weights", "ones", "guards",
        "values", "dshift", "pshift", "sumshift",
    )

    def __init__(self, nvars: int, bound: int):
        bits = (bound + 1).bit_length() + 1
        self.nvars = nvars
        self.bits = bits
        self.top = (1 << (bits - 1)) - 1
        self.mask = (1 << bits) - 1
        # exponent e[k] sits at bit bits * k
        self.shifts = tuple(bits * k for k in range(nvars))
        self.weights = tuple(1 << s for s in self.shifts)
        self.ones = sum(self.weights)
        self.guards = self.ones << (bits - 1)
        self.values = self.guards - self.ones
        self.dshift = bits * nvars
        self.pshift = self.dshift + bits
        # multiplying the exponent fields by ``ones`` sums them into the
        # field of the last variable; the sum of two degrees fits a field
        self.sumshift = bits * max(nvars - 1, 0)

    def encode(self, term: Term) -> int:
        pos, e = term
        return (
            (pos << self.pshift)
            + ((self.top - sum(e)) << self.dshift)
            + sum(map(mul, e, self.weights))
        )

    def decode(self, code: int) -> Term:
        mask = self.mask
        return code >> self.pshift, tuple([(code >> s) & mask for s in self.shifts])

    def degree(self, code: int) -> int:
        return self.top - ((code >> self.dshift) & self.mask)

    def pack(self, terms: TermDict) -> Packed:
        encode = self.encode
        return {encode(t): c for t, c in terms.items()}

    def unpack(self, terms: Packed) -> TermDict:
        decode = self.decode
        return {decode(t): c for t, c in terms.items()}

    def lcm(self, a: int, b: int) -> Tuple[int, int]:
        """The exponent fields of the lcm of the monomials of codes a and
        b, and its degree, which may pass ``top``."""
        guards = self.guards
        # guard bit set in the fields where a's exponent is at least b's
        ge = ((a | guards) - b) & guards
        keep = ge - (ge >> (self.bits - 1))
        e = (a & keep) | (b & (self.values ^ keep))
        return e, ((e * self.ones) >> self.sumshift) & self.mask


def _max_degree(terms: TermDict) -> int:
    return max([sum(m) for _, m in terms], default=0)


def _primitive(terms: Dict, pivot) -> Tuple[Dict, Fraction]:
    """Over QQ: the primitive integer vector v whose coefficient at ``pivot``
    is positive, and the rational u with ``terms == u * v``.  ``terms``
    holds ints or ``Fraction``s."""
    den = math.lcm(*[c.denominator for c in terms.values()])
    ints = {t: c.numerator * (den // c.denominator) for t, c in terms.items()}
    content = gcd(*ints.values())
    if ints[pivot] < 0:
        content = -content
    if content != 1:
        ints = {t: c // content for t, c in ints.items()}
    return ints, Fraction(content, den)


def _normalized(field: FieldSpec, terms: Packed, lead: int) -> Packed:
    """The kernel's multiple of the nonzero vector ``terms``: monic over
    GF(p), the primitive integer vector with a positive lead over QQ."""
    if not field.characteristic:
        return _primitive(terms, lead)[0]
    lc = terms[lead]
    if lc == field.one:
        return terms
    inv = field.inv(lc)
    return {t: field.mul(c, inv) for t, c in terms.items()}


def _s_polynomial(first: Iterable, second: Iterable, ci, cj, p: int) -> Dict:
    """``ci * first - cj * second`` for two shifted tails given as (term,
    coefficient) pairs; its terms are in the order they first appear."""
    spoly = {t: ci * c for t, c in first}
    for t, c in second:
        old = spoly.get(t)
        v = (old or 0) - cj * c
        if p:
            v %= p
        if v:
            spoly[t] = v
        elif old is not None:
            del spoly[t]
    return spoly


class _Divisors:
    """The kernel's divisor set: element i is ``lcs[i] * leads[i] +
    tails[i]``, a vector in ``_normalized`` form with packed terms, and
    ``by_position`` lists the elements leading at each position, in the
    order they were added.  ``rises[i]`` is the largest degree of a term
    of ``tails[i]`` minus the degree of ``leads[i]``: a multiple of the
    element by x^s has no term above deg s + ``rises[i]`` + deg lead."""

    def __init__(self, field: FieldSpec, layout: _Layout):
        self.field = field
        self.nvars = layout.nvars
        self.layout = layout
        self.leads: List[int] = []
        self.lcs: List[int] = []
        self.tails: List[Packed] = []
        self.rises: List[int] = []
        self.by_position: Dict[int, List[int]] = {}

    def _fit(self, bound: int) -> None:
        """Make the layout hold degrees up to ``bound``, re-encoding the
        elements when it has to widen."""
        old = self.layout
        if bound <= old.top:
            return
        new = _Layout(self.nvars, bound)
        decode, encode = old.decode, new.encode
        self.leads = [encode(decode(t)) for t in self.leads]
        self.tails = [
            {encode(decode(t)): c for t, c in tail.items()} for tail in self.tails
        ]
        self.layout = new

    def _pack(self, terms: TermDict, cap: int) -> Packed:
        """``terms`` packed, the layout first made to hold them and ``cap``."""
        self._fit(max(cap, _max_degree(terms)))
        return self.layout.pack(terms)

    def _rise(self, lead: int, tail: Packed) -> int:
        # a smaller degree field is a larger degree
        dshift, mask = self.layout.dshift, self.layout.mask
        low = min([(t >> dshift) & mask for t in tail], default=self.layout.top)
        return ((lead >> dshift) & mask) - low

    def _append(self, lead: int, lc, tail: Packed) -> None:
        """Add the element ``lc * lead + tail``."""
        self.by_position.setdefault(lead >> self.layout.pshift, []).append(
            len(self.leads)
        )
        self.leads.append(lead)
        self.lcs.append(lc)
        self.tails.append(tail)
        self.rises.append(self._rise(lead, tail))

    def lead_terms(self) -> List[Term]:
        decode = self.layout.decode
        return [decode(t) for t in self.leads]

    def reducer(self, term: Term) -> int:
        """The first element whose lead divides ``term``, or -1 when
        ``term`` lies outside the initial module of the set."""
        self._fit(sum(term[1]))
        return self._find(self.layout.encode(term))

    def _find(self, t: int) -> int:
        """``reducer`` of the packed term ``t``."""
        guards = self.layout.guards
        marked = t | guards
        leads = self.leads
        for i in self.by_position.get(t >> self.layout.pshift, ()):
            if (marked - leads[i]) & guards == guards:
                return i
        return -1

    def _reduce_full(
        self, terms: Packed, where: Tuple[str, int, int, int]
    ) -> Tuple[Packed, int]:
        """Fully reduce the packed vector ``terms``: no term of the result
        is divisible by a lead.  The layout must hold the degree cap.

        Returns ``(R, s)``; the remainder is R / s.  Over GF(p) every
        lead coefficient is 1 and s is 1.  Over QQ ``terms``, ``lcs`` and
        ``tails`` hold ints with positive ``lcs``: to cancel a term c by a
        lead a, the work vector is first multiplied by a/h, h = gcd(a, c),
        and s is the product of these factors, so the routine never divides.

        Each lead comes from a heap of the packed terms kept beside
        ``work``: a term is pushed once, when it first enters ``work``.  A
        term that cancels stays in ``work`` as 0 until it is popped, so a
        later step that re-creates it finds it there and pushes nothing,
        and a popped 0 is skipped.  Every term a reduction step adds is
        smaller than the lead it removes, so terms leave ``work`` largest
        first and a popped term never comes back.
        ``where`` names the layer and its input shape for a degree-cap
        error.
        """
        p = self.field.characteristic
        leads, lcs, tails, rises = self.leads, self.lcs, self.tails, self.rises
        find = self._find
        layout = self.layout
        top, mask, dshift = layout.top, layout.mask, layout.dshift
        settings = current()
        cap = settings.degree_cap
        hook = settings.abort_hook
        work = dict(terms)
        heap = list(work)
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        remainder: Packed = {}
        scale = 1
        while heap:
            t = heappop(heap)
            c = work.pop(t)
            if not c:
                continue
            if hook is not None and hook():
                raise AbortedError("computation cancelled")
            reducer = find(t)
            if reducer < 0:
                remainder[t] = c
                continue
            a = lcs[reducer]
            if a != 1:
                h = gcd(a, c)
                c //= h
                m = a // h
                if m != 1:
                    scale *= m
                    for k in work:
                        work[k] *= m
                    for k in remainder:
                        remainder[k] *= m
            # deg t + the reducer's rise bounds every product's degree
            if top - ((t >> dshift) & mask) + rises[reducer] > cap:
                self._check_cap(t, reducer, cap, where)
            shift = t - leads[reducer]
            for g, gc in tails[reducer].items():
                tt = g + shift
                old = work.get(tt)
                if old is None:
                    # a product of nonzero field elements is nonzero
                    work[tt] = -c * gc % p if p else -c * gc
                    heappush(heap, tt)
                    continue
                work[tt] = (old - c * gc) % p if p else old - c * gc
        return remainder, scale

    def _check_cap(self, t: int, reducer: int, cap: int, where) -> None:
        """Raise the degree-cap error for the first term of the reducer's
        tail, in dict order, whose product with x^(t - lead) passes the cap."""
        degree = self.layout.degree
        shift = degree(t) - degree(self.leads[reducer])
        for g in self.tails[reducer]:
            if degree(g) + shift > cap:
                raise degree_cap_error(degree(g) + shift, cap, where)

    def _reduce_exact(
        self, terms: TermDict, where: Tuple[str, int, int, int]
    ) -> TermDict:
        """The remainder of ``terms`` with field coefficients, as field
        coefficients: over QQ the input is cleared to a primitive integer
        vector first and the remainder comes back as ``Fraction``s."""
        packed = self._pack(terms, current().degree_cap)
        if self.field.characteristic:
            return self.layout.unpack(self._reduce_full(packed, where)[0])
        if not packed:
            return {}
        # the sign of a vector to reduce does not matter: any term may pivot
        ints, unit = _primitive(packed, next(iter(packed)))
        remainder, scale = self._reduce_full(ints, where)
        unit /= scale
        decode = self.layout.decode
        return {decode(t): c * unit for t, c in remainder.items()}


class GroebnerBasis(_Divisors):
    """A reduced Groebner basis of a submodule of ``k[x]^rank``.

    Elements are monic, pairwise autoreduced, and sorted by descending lead
    term, which makes the object canonical for its submodule.  Over QQ
    reduction runs on one integer copy of each element, d * g with d the
    lcm of g's denominators.  The divisor set is packed when the basis is
    built, in a layout that holds its elements and the degree cap.
    """

    def __init__(
        self,
        field: FieldSpec,
        nvars: int,
        rank: int,
        elements: Sequence[FreeElement],
    ):
        self.elements: Tuple[FreeElement, ...] = tuple(elements)
        top = max([_max_degree(g.terms) for g in self.elements], default=0)
        super().__init__(field, _Layout(nvars, max(top, current().degree_cap)))
        self.rank = rank
        self._where = ("reduction of normal_form", nvars, rank, len(self.elements))
        for g in self.elements:
            terms = self.layout.pack(g.terms)
            lead = min(terms)
            terms = _normalized(field, terms, lead)
            self._append(lead, terms.pop(lead), terms)

    def normal_form(self, f: FreeElement) -> FreeElement:
        if f.nvars != self.nvars or f.rank != self.rank or f.field != self.field:
            raise DimensionError("element does not match the basis ambient module")
        reduced = self._reduce_exact(f.terms, self._where)
        return FreeElement(self.field, self.nvars, self.rank, reduced, _normalized=True)

    def contains(self, f: FreeElement) -> bool:
        return self.normal_form(f).is_zero()

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


class Completion(_Divisors):
    """Buchberger completion state over ``k[x]^rank``, kept between steps.

    ``add`` records a generator with its degree, and it waits there;
    ``complete`` takes waiting generators into the basis (in
    ``_normalized`` form, queueing their pairs) and reduces queued S-pairs
    until none is left, and ``reduce`` fully reduces a vector against the
    current basis.  After ``complete`` the basis is a Groebner basis, not
    reduced, of everything added, so ``reduce`` gives zero exactly on the
    members of its span.  ``add`` and ``complete`` read the degree cap and
    the abort hook from ``current()`` when called; ``layer`` names the
    computation in a degree-cap error, which counts every generator added,
    waiting or not.

    A pair is keyed by the total degree of its lcm, plus the degree of its
    position when ``position_degrees`` is given.  For generators that are
    homogeneous for some positive grading and those position degrees, the
    key is never above the degree of the pair's S-polynomial, and the part
    of their span in degrees <= D is spanned by the generators of degree
    <= D.  So ``complete(up_to=D)`` takes in only the waiting generators
    of degree <= D, in (degree, insertion) order, and reduces only the
    pairs keyed <= D; after it the basis is a Groebner basis of everything
    added in degrees <= D (degree-truncated Buchberger; Kreuzer-Robbiano,
    Computational Commutative Algebra 2, Ch. 4): ``reduce`` gives the
    normal form of a vector whose terms all have degree <= D, and a
    monomial of degree <= D lies in the initial module exactly when a lead
    divides it.  The generators and pairs above D wait for a later call;
    ``complete()`` takes in every waiting generator.  A generator added
    without a degree makes the state ungraded: truncating inhomogeneous
    generators is unsound, so from then on every ``complete`` ignores its
    bound and runs to the end.  A call that raises may have dropped the
    pair it was reducing, so the state must then be discarded.
    """

    def __init__(
        self,
        field: FieldSpec,
        nvars: int,
        rank: int,
        layer: str,
        position_degrees: Optional[Sequence[int]] = None,
    ):
        super().__init__(field, _Layout(nvars, current().degree_cap))
        self.rank = rank
        self.layer = layer
        self.position_degrees = (
            tuple(position_degrees) if position_degrees is not None else None
        )
        self.ngens = 0
        self.graded = True
        # (degree, insertion index, terms) of the generators not taken in;
        # a generator without a degree sorts first
        self.waiting: List[Tuple[float, int, TermDict]] = []
        self.pairs: List[Tuple[int, int, int]] = []
        self.pending = set()

    def _where(self, step: str) -> Tuple[str, int, int, int]:
        return (f"{step} of {self.layer}", self.nvars, self.rank, self.ngens)

    def _push(self, terms: Packed) -> None:
        """Add the nonzero packed vector ``terms``, which it takes over."""
        lt = min(terms)
        terms = _normalized(self.field, terms, lt)
        j = len(self.leads)
        lcm, leads = self.layout.lcm, self.leads
        pos = lt >> self.layout.pshift
        shift = self.position_degrees[pos] if self.position_degrees else 0
        # each unordered pair once, as (i, j) with i < j: the position
        # lists are ascending
        for i in self.by_position.get(pos, ()):
            heapq.heappush(self.pairs, (lcm(leads[i], lt)[1] + shift, i, j))
            self.pending.add((i, j))
        self._append(lt, terms.pop(lt), terms)

    def add(self, terms: TermDict, degree: Optional[int] = None) -> None:
        """Record a nonzero generator of degree ``degree``, None for an
        inhomogeneous one; it waits for a ``complete`` that takes it in."""
        self.graded = self.graded and degree is not None
        key = -math.inf if degree is None else degree
        heapq.heappush(self.waiting, (key, self.ngens, terms))
        self.ngens += 1

    def reduce(self, terms: TermDict) -> TermDict:
        """Full reduction of ``terms`` against the current basis, with
        field coefficients."""
        return self._reduce_exact(terms, self._where("reduction"))

    def complete(self, up_to: Optional[int] = None) -> None:
        """Take in the waiting generators of degree <= ``up_to`` (all of
        them without it, or once the state is ungraded), then reduce queued
        S-pairs, adding each nonzero remainder, until the queue is empty
        or, with ``up_to``, until every pair left has a key above it."""
        if not self.graded:
            up_to = None
        waiting = self.waiting
        if waiting:
            cap = current().degree_cap
            while waiting and (up_to is None or waiting[0][0] <= up_to):
                self._push(self._pack(heapq.heappop(waiting)[2], cap))
        if not self.pairs or (up_to is not None and self.pairs[0][0] > up_to):
            return
        settings = current()
        cap, hook = settings.degree_cap, settings.abort_hook
        self._fit(cap)
        p = self.field.characteristic
        rank = self.rank
        layout = self.layout
        guards, top = layout.guards, layout.top
        dshift, pshift = layout.dshift, layout.pshift
        leads, lcs, tails, rises = self.leads, self.lcs, self.tails, self.rises
        by_position, pairs, pending = self.by_position, self.pairs, self.pending
        where = self._where("S-polynomials")
        while pairs and (up_to is None or pairs[0][0] <= up_to):
            if hook is not None and hook():
                raise AbortedError("computation cancelled")
            _, i, j = heapq.heappop(pairs)
            pending.remove((i, j))
            li, lj = leads[i], leads[j]
            e, degree = layout.lcm(li, lj)
            # Product criterion is only sound for rank-1 (ideal) inputs.
            if rank == 1 and degree == layout.degree(li) + layout.degree(lj):
                continue
            # Chain criterion: a third element dividing the lcm whose pairs
            # with i and j were both already handled makes this pair redundant.
            marked = e | guards
            skip = False
            for k in by_position[li >> pshift]:
                if k == i or k == j:
                    continue
                if (marked - leads[k]) & guards == guards:
                    pik = (min(i, k), max(i, k))
                    pjk = (min(j, k), max(j, k))
                    if pik not in pending and pjk not in pending:
                        skip = True
                        break
            if skip:
                continue
            # (a_j/h) x^shift_i g_i - (a_i/h) x^shift_j g_j, h = gcd(a_i, a_j);
            # every element is monic over GF(p), and the leads cancel
            if p:
                ci = cj = 1
            else:
                h = gcd(lcs[i], lcs[j])
                ci, cj = lcs[j] // h, lcs[i] // h
            rise = degree + max(rises[i], rises[j])
            if rise > cap:
                # a product may pass the cap: widen so every product fits,
                # and raise on the first term over the cap in dict order
                self._fit(rise)
                layout = self.layout
                guards, top = layout.guards, layout.top
                dshift, pshift = layout.dshift, layout.pshift
                leads, tails = self.leads, self.tails
                li, lj = leads[i], leads[j]
                e = layout.lcm(li, lj)[0]
            # the lcm as a code; its degree field may be negative, but the
            # differences are the codes of the two multipliers
            lcm = ((li >> pshift) << pshift) + ((top - degree) << dshift) + e
            si, sj = lcm - li, lcm - lj
            spoly = _s_polynomial(
                ((g + si, c) for g, c in tails[i].items()),
                ((g + sj, c) for g, c in tails[j].items()),
                ci, cj, p,
            )
            if rise > cap:
                for t in spoly:
                    if layout.degree(t) > cap:
                        raise degree_cap_error(layout.degree(t), cap, where)
            remainder = self._reduce_full(spoly, where)[0]
            if remainder:
                self._push(remainder)


def _buchberger(
    field: FieldSpec,
    nvars: int,
    rank: int,
    gens: Sequence[TermDict],
    layer: str,
) -> Completion:
    """The completion of ``gens``: its divisor set is a Groebner basis of
    them, not reduced; ``layer`` names the computation in a degree-cap
    error."""
    state = Completion(field, nvars, rank, layer)
    for g in gens:
        if g:
            state.add(g)
    state.complete()
    return state


def _autoreduce(
    state: _Divisors,
    indices: Iterable[int],
    where: Tuple[str, int, int, int],
) -> List[Packed]:
    """Drop redundant leads among the elements ``indices`` of ``state``,
    then tail-reduce them to the canonical reduced basis, whose elements
    are monic with field coefficients and packed in ``state``'s layout."""
    field = state.field
    leads = state.leads
    kept = _Divisors(field, state.layout)
    # smallest lead first, so a lead is dropped when a kept lead divides it
    for i in sorted(indices, key=leads.__getitem__, reverse=True):
        if kept._find(leads[i]) < 0:
            kept._append(leads[i], state.lcs[i], state.tails[i])
    lcs, tails = kept.lcs, kept.tails
    out: List[Packed] = []
    for i, lt in enumerate(kept.leads):
        # every term of tail i, and every term its reduction produces, is
        # smaller than lead i, and a multiple of lead i in the same position
        # never is: element i is never picked to reduce its own tail
        tail, scale = kept._reduce_full(tails[i], where)
        kept.rises[i] = kept._rise(lt, tail)
        if field.characteristic:
            tails[i] = tail
            out.append({**tail, lt: field.one})
            continue
        # element i is now (scale * lcs[i]) * lead + tail; keep it primitive
        lc = scale * lcs[i]
        content = gcd(lc, *tail.values())
        lcs[i] = lc // content
        tails[i] = {t: c // content for t, c in tail.items()}
        out.append({**{t: Fraction(c, lc) for t, c in tail.items()}, lt: field.one})
    # kept leads ascend; the reduced basis lists them largest first
    return out[::-1]


def _reduced_completion(
    field: FieldSpec,
    nvars: int,
    rank: int,
    gens: Sequence[FreeElement],
    op: str,
    layer: str,
    first: int,
) -> List[FreeElement]:
    """The elements, shifted down to rank ``rank - first``, of the reduced
    basis of the nonzero vectors ``gens`` in ``k[x]^rank`` that lead in
    positions >= ``first``: cached under request op ``op``, else computed
    by ``_buchberger`` (``layer`` names it in a degree-cap error) and
    ``_autoreduce``.  Under position over term such an element lies wholly
    in those positions, and only such elements divide its lead or reduce
    its tail, so autoreducing them alone gives them in the basis's order.
    """
    out_rank = rank - first
    request = cache.groebner_request(field, nvars, rank, gens, op=op)
    cached = cache.lookup_groebner(request, field, nvars, out_rank)
    if cached is not None:
        return cached
    state = _buchberger(field, nvars, rank, [g.terms for g in gens], layer)
    layout = state.layout
    offset = first << layout.pshift
    kept = [i for i, lt in enumerate(state.leads) if lt >= offset]
    where = (f"autoreduction of {layer}", nvars, rank, len(gens))
    decode = layout.decode
    out = [
        FreeElement(
            field, nvars, out_rank, {decode(t - offset): c for t, c in terms.items()},
            _normalized=True,
        )
        for terms in _autoreduce(state, kept, where)
    ]
    cache.store_groebner(request, out)
    return out


def groebner_basis(gens: Sequence[FreeElement]) -> GroebnerBasis:
    """The reduced Groebner basis of the submodule generated by ``gens``.

    Idempotent: running it on its own output returns an equal basis.
    """
    live = [g for g in gens if not g.is_zero()]
    if not live:
        raise DimensionError("cannot infer the ambient module from no generators")
    field, nvars, rank = live[0].field, live[0].nvars, live[0].rank
    for g in live:
        if g.field != field or g.nvars != nvars or g.rank != rank:
            raise DimensionError("generators live in different modules")
    elements = _reduced_completion(
        field, nvars, rank, live, "groebner", "Groebner completion", 0
    )
    return GroebnerBasis(field, nvars, rank, elements)


def syzygy_generators(
    columns: Sequence[FreeElement],
    lift: Sequence[FreeElement] = (),
) -> List[FreeElement]:
    """Generators of ``{v : sum v_i columns[i] in <lift>}`` in k[x]^len(columns).

    With an empty ``lift`` this is the kernel of the map defined by the
    columns.  The lift slot is how quotient rings feed in ``I * e_j``.
    The graph of the map, the augmented vectors ``columns[i] (+) e_i`` and
    the lift vectors in rank ``rank + s``, takes the route of
    ``groebner_basis``, ``_reduced_completion`` (request op
    ``"syzygies"``), from the first tag position: the tag-lead elements of
    its reduced basis, shifted down to rank s, are the syzygies.
    """
    if not columns:
        return []
    field, nvars, rank = columns[0].field, columns[0].nvars, columns[0].rank
    s = len(columns)
    total = rank + s
    aug: List[FreeElement] = []
    for i, col in enumerate(columns):
        if col.field != field or col.nvars != nvars or col.rank != rank:
            raise DimensionError("columns live in different modules")
        vec = col.embedded(total) + FreeElement.unit(field, nvars, total, rank + i)
        aug.append(vec)
    for extra in lift:
        if extra.field != field or extra.nvars != nvars or extra.rank != rank:
            raise DimensionError("lift vectors live in a different module")
        if not extra.is_zero():
            aug.append(extra.embedded(total))
    return _reduced_completion(field, nvars, total, aug, "syzygies", "syzygies", rank)


def syzygy_matrix(
    rows: Sequence[Sequence[Polynomial]],
) -> List[List[Polynomial]]:
    """Syzygies of an m x n matrix given as rows; returns the columns of
    an n x s matrix S with A*S = 0 whose columns generate the kernel."""
    if not rows:
        return []
    n = len(rows[0])
    for row in rows:
        if len(row) != n:
            raise DimensionError("ragged matrix")
    m = len(rows)
    columns = []
    for j in range(n):
        comps = [rows[i][j] for i in range(m)]
        columns.append(FreeElement.from_components(comps))
    syz = syzygy_generators(columns)
    return [vec.components() for vec in syz]


def ideal_groebner_basis(gens: Sequence[Polynomial]) -> GroebnerBasis:
    live = [polynomial_to_element(g) for g in gens if not g.is_zero()]
    if not live:
        if not gens:
            raise DimensionError("cannot infer the ring from no generators")
        return GroebnerBasis(gens[0].field, gens[0].nvars, 1, ())
    return groebner_basis(live)
