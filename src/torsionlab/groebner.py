"""Division with remainder, Buchberger completion, and syzygies.

Everything here works over a free module ``k[x]^rank``; quotient-ring
behaviour is layered on top by ``rings`` (lifting the defining ideal into
the generating set).  The engine is deterministic: identical inputs yield
identical reduced bases, element for element.

Internally vectors are the term dicts of ``FreeElement``; the public
surface wraps them back into value objects.

Over GF(p) the kernel keeps monic vectors of ints mod p.  Over QQ it keeps
content-free integer vectors (primitive, with a positive lead coefficient)
and never divides: a reduction step scales the work vector by the
reducer's lead coefficient over a gcd, and an S-polynomial crosses the two
lead coefficients the same way.  Each intermediate vector is a nonzero
rational multiple of the one monic arithmetic would give, so every lead,
every zero remainder and every kept element is the same.  ``Fraction``
coefficients appear only at the boundary: the monic elements of a
``GroebnerBasis``, its ``normal_form`` and ``Completion.reduce``.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from math import gcd
from typing import Dict, List, Sequence, Tuple

from . import cache
from .errors import AbortedError, DimensionError
from .fields import FieldSpec
from .limits import current, degree_cap_error
from .orders import term_key
from .poly import (
    FreeElement,
    Polynomial,
    mono_coprime,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_sub,
    polynomial_to_element,
)

Term = Tuple[int, Tuple[int, ...]]
TermDict = Dict[Term, object]


def _lead(terms: TermDict) -> Term:
    return min(terms, key=term_key)


def _monic(field: FieldSpec, terms: TermDict, lead: Term) -> TermDict:
    lc = terms[lead]
    if lc == field.one:
        return terms
    inv = field.inv(lc)
    mul = field.mul
    return {t: mul(c, inv) for t, c in terms.items()}


def _primitive(terms: TermDict, pivot: Term) -> Tuple[TermDict, Fraction]:
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


def _reduce_full(
    field: FieldSpec,
    terms: TermDict,
    by_position: Dict[int, List[int]],
    leads: Sequence[Term],
    lcs: Sequence[int],
    tails: Sequence[TermDict],
    where: Tuple[str, int, int, int],
) -> Tuple[TermDict, int]:
    """Fully reduce ``terms``: no term of the result is divisible by a lead.

    Returns ``(R, s)``; the remainder is R / s.  Element i is
    ``lcs[i] * leads[i] + tails[i]``.  Over GF(p) every ``lcs[i]`` is 1 and
    s is 1.  Over QQ ``terms``, ``lcs`` and ``tails`` hold ints with
    positive ``lcs``: to cancel a term c by a lead a, the work vector is
    first multiplied by a/h, h = gcd(a, c), and s is the product of these
    factors, so the routine never divides.

    Each lead comes from a heap of ``(term_key, term)`` kept beside
    ``work``: a term is pushed when it enters ``work``, and an entry whose
    term has cancelled since is skipped.  Every term a reduction step adds is smaller
    than the lead it removes, so terms leave ``work`` largest first and a
    popped lead never comes back.  ``where`` names the layer and its input
    shape for a degree-cap error.
    """
    p = field.characteristic
    settings = current()
    cap = settings.degree_cap
    hook = settings.abort_hook
    work = dict(terms)
    heap = [(term_key(t), t) for t in work]
    heapq.heapify(heap)
    remainder: TermDict = {}
    scale = 1
    while heap:
        t = heapq.heappop(heap)[1]
        c = work.pop(t, None)
        if c is None:
            continue
        if hook is not None and hook():
            raise AbortedError("computation cancelled")
        pos, mono = t
        reducer = -1
        for i in by_position.get(pos, ()):
            if mono_divides(leads[i][1], mono):
                reducer = i
                break
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
        shift = mono_sub(mono, leads[reducer][1])
        for (gp, gm), gc in tails[reducer].items():
            tm = mono_mul(gm, shift)
            if sum(tm) > cap:
                raise degree_cap_error(sum(tm), cap, where)
            tt = (gp, tm)
            old = work.get(tt)
            if old is None:
                # a product of nonzero field elements is nonzero
                work[tt] = -c * gc % p if p else -c * gc
                heapq.heappush(heap, (term_key(tt), tt))
                continue
            v = (old - c * gc) % p if p else old - c * gc
            if v:
                work[tt] = v
            else:
                del work[tt]
    return remainder, scale


def _reduce_exact(
    field: FieldSpec,
    terms: TermDict,
    by_position: Dict[int, List[int]],
    leads: Sequence[Term],
    lcs: Sequence[int],
    tails: Sequence[TermDict],
    where: Tuple[str, int, int, int],
) -> TermDict:
    """The remainder of ``terms`` with field coefficients, as field
    coefficients: over QQ the input is cleared to a primitive integer
    vector first and the remainder comes back as ``Fraction``s."""
    if field.characteristic:
        return _reduce_full(field, terms, by_position, leads, lcs, tails, where)[0]
    if not terms:
        return {}
    # the sign of a vector to reduce does not matter: any term may pivot
    ints, unit = _primitive(terms, next(iter(terms)))
    remainder, scale = _reduce_full(
        field, ints, by_position, leads, lcs, tails, where
    )
    unit /= scale
    return {t: c * unit for t, c in remainder.items()}


class GroebnerBasis:
    """A reduced Groebner basis of a submodule of ``k[x]^rank``.

    Elements are monic, pairwise autoreduced, and sorted by descending lead
    term, which makes the object canonical for its submodule.  Over QQ
    reduction runs on one integer copy of each element, d * g with d the
    lcm of g's denominators.
    """

    def __init__(
        self,
        field: FieldSpec,
        nvars: int,
        rank: int,
        elements: Sequence[FreeElement],
    ):
        self.field = field
        self.nvars = nvars
        self.rank = rank
        self.elements: Tuple[FreeElement, ...] = tuple(elements)
        self._where = ("reduction of normal_form", nvars, rank, len(self.elements))
        self._leads: List[Term] = []
        self._lcs: List[int] = []
        self._tails: List[TermDict] = []
        self._by_position: Dict[int, List[int]] = {}
        for i, g in enumerate(self.elements):
            lt = _lead(g.terms)
            self._leads.append(lt)
            if field.characteristic:
                tail = dict(g.terms)
            else:
                tail = _primitive(g.terms, lt)[0]
            self._lcs.append(tail.pop(lt))
            self._tails.append(tail)
            self._by_position.setdefault(lt[0], []).append(i)

    def lead_terms(self) -> List[Term]:
        return list(self._leads)

    def normal_form(self, f: FreeElement) -> FreeElement:
        if f.nvars != self.nvars or f.rank != self.rank or f.field != self.field:
            raise DimensionError("element does not match the basis ambient module")
        reduced = _reduce_exact(
            self.field,
            f.terms,
            self._by_position,
            self._leads,
            self._lcs,
            self._tails,
            self._where,
        )
        return FreeElement(self.field, self.nvars, self.rank, reduced, _normalized=True)

    def contains(self, f: FreeElement) -> bool:
        return self.normal_form(f).is_zero()

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def _spair_degree(lead_i: Term, lead_j: Term) -> int:
    return sum(mono_lcm(lead_i[1], lead_j[1]))


class Completion:
    """Buchberger completion state over ``k[x]^rank``, kept between steps.

    ``add`` puts a generator into the basis (made monic over GF(p), a
    primitive integer vector over QQ) and queues its pairs, ``complete``
    reduces queued S-pairs until none is left, and ``reduce`` fully reduces
    a vector against the current basis.  After ``complete`` the basis is a
    Groebner basis, not reduced, of everything added, so ``reduce`` gives
    zero exactly on the members of its span.  ``lcs[i]`` is the lead
    coefficient of ``basis[i]``.  ``complete`` uses the degree cap and the
    abort hook read when the state was made; ``layer`` names the
    computation in a degree-cap error.
    """

    def __init__(self, field: FieldSpec, nvars: int, rank: int, layer: str):
        self.field = field
        self.nvars = nvars
        self.rank = rank
        self.layer = layer
        self.ngens = 0
        settings = current()
        self.cap = settings.degree_cap
        self.hook = settings.abort_hook
        self.basis: List[TermDict] = []
        self.leads: List[Term] = []
        self.lcs: List[int] = []
        self.tails: List[TermDict] = []
        self.by_position: Dict[int, List[int]] = {}
        self.pairs: List[Tuple[int, int, int]] = []
        self.pending = set()

    def _where(self, step: str) -> Tuple[str, int, int, int]:
        return (f"{step} of {self.layer}", self.nvars, self.rank, self.ngens)

    def _push(self, terms: TermDict) -> None:
        lt = _lead(terms)
        if self.field.characteristic:
            terms = _monic(self.field, terms, lt)
        else:
            terms = _primitive(terms, lt)[0]
        j = len(self.basis)
        self.basis.append(terms)
        self.leads.append(lt)
        tail = dict(terms)
        self.lcs.append(tail.pop(lt))
        self.tails.append(tail)
        positions = self.by_position.setdefault(lt[0], [])
        # each unordered pair once, as (i, j) with i < j: the position
        # lists are ascending
        for i in positions:
            heapq.heappush(self.pairs, (_spair_degree(self.leads[i], lt), i, j))
            self.pending.add((i, j))
        positions.append(j)

    def add(self, terms: TermDict) -> None:
        """Add a nonzero generator; its pairs wait for ``complete``."""
        self.ngens += 1
        self._push(dict(terms))

    def reduce(self, terms: TermDict) -> TermDict:
        """Full reduction of ``terms`` against the current basis, with
        field coefficients."""
        return _reduce_exact(
            self.field,
            terms,
            self.by_position,
            self.leads,
            self.lcs,
            self.tails,
            self._where("reduction"),
        )

    def complete(self) -> None:
        """Reduce queued S-pairs, adding each nonzero remainder, until the
        queue is empty."""
        if not self.pairs:
            return
        p = self.field.characteristic
        cap = self.cap
        hook = self.hook
        rank = self.rank
        basis, leads, lcs, tails = self.basis, self.leads, self.lcs, self.tails
        by_position, pairs, pending = self.by_position, self.pairs, self.pending
        where = self._where("S-polynomials")
        while pairs:
            if hook is not None and hook():
                raise AbortedError("computation cancelled")
            _, i, j = heapq.heappop(pairs)
            pending.remove((i, j))
            li, lj = leads[i], leads[j]
            # Product criterion is only sound for rank-1 (ideal) inputs.
            if rank == 1 and mono_coprime(li[1], lj[1]):
                continue
            lcm = mono_lcm(li[1], lj[1])
            # Chain criterion: a third element dividing the lcm whose pairs
            # with i and j were both already handled makes this pair redundant.
            skip = False
            for k in by_position.get(li[0], ()):
                if k == i or k == j:
                    continue
                if mono_divides(leads[k][1], lcm):
                    pik = (min(i, k), max(i, k))
                    pjk = (min(j, k), max(j, k))
                    if pik not in pending and pjk not in pending:
                        skip = True
                        break
            if skip:
                continue
            shift_i = mono_sub(lcm, li[1])
            shift_j = mono_sub(lcm, lj[1])
            # (a_j/h) x^shift_i g_i - (a_i/h) x^shift_j g_j, h = gcd(a_i, a_j);
            # every element is monic over GF(p)
            if p:
                ci = cj = 1
            else:
                h = gcd(lcs[i], lcs[j])
                ci, cj = lcs[j] // h, lcs[i] // h
            spoly: TermDict = {}
            for (gp, gm), gc in basis[i].items():
                t = (gp, mono_mul(gm, shift_i))
                spoly[t] = ci * gc
            for (gp, gm), gc in basis[j].items():
                t = (gp, mono_mul(gm, shift_j))
                old = spoly.get(t)
                if p:
                    v = ((old or 0) - gc) % p
                else:
                    v = (old if old is not None else 0) - cj * gc
                if v:
                    spoly[t] = v
                elif old is not None:
                    del spoly[t]
            for _, tm in spoly:
                if sum(tm) > cap:
                    raise degree_cap_error(sum(tm), cap, where)
            remainder = _reduce_full(
                self.field, spoly, by_position, leads, lcs, tails, where
            )[0]
            if remainder:
                self._push(remainder)


def _buchberger(
    field: FieldSpec,
    nvars: int,
    rank: int,
    gens: Sequence[TermDict],
) -> Tuple[List[TermDict], List[Term]]:
    """Completion of ``gens``.  Returns the basis dicts (monic over GF(p),
    primitive integer vectors over QQ) and their lead terms."""
    state = Completion(field, nvars, rank, "Groebner completion")
    for g in gens:
        if g:
            state.add(g)
    state.complete()
    return state.basis, state.leads


def _autoreduce(
    field: FieldSpec,
    basis: List[TermDict],
    leads: List[Term],
    where: Tuple[str, int, int, int],
) -> List[TermDict]:
    """Drop redundant leads, then tail-reduce to the canonical reduced
    basis, whose elements are monic with field coefficients.  ``basis`` is
    a ``Completion``'s: lead coefficients are read from it."""
    # smallest lead first, so a lead is dropped when a kept lead divides it
    order_idx = sorted(
        range(len(basis)), key=lambda i: term_key(leads[i]), reverse=True
    )
    keep: List[int] = []
    for i in order_idx:
        li = leads[i]
        redundant = any(
            leads[j][0] == li[0] and mono_divides(leads[j][1], li[1]) for j in keep
        )
        if not redundant:
            keep.append(i)
    kept_leads = [leads[i] for i in keep]
    by_position: Dict[int, List[int]] = {}
    lcs: List[int] = []
    tails: List[TermDict] = []
    for i, lt in enumerate(kept_leads):
        by_position.setdefault(lt[0], []).append(i)
        tail = dict(basis[keep[i]])
        lcs.append(tail.pop(lt))
        tails.append(tail)
    kept: List[TermDict] = []
    for i, lt in enumerate(kept_leads):
        # every term of tail i, and every term its reduction produces, is
        # smaller than lead i, and a multiple of lead i in the same position
        # never is: element i is never picked to reduce its own tail
        tail, scale = _reduce_full(
            field, tails[i], by_position, kept_leads, lcs, tails, where
        )
        if field.characteristic:
            tails[i] = tail
            kept.append({**tail, lt: field.one})
            continue
        # element i is now (scale * lcs[i]) * lead + tail; keep it primitive
        lc = scale * lcs[i]
        content = gcd(lc, *tail.values())
        lcs[i] = lc // content
        tails[i] = {t: c // content for t, c in tail.items()}
        kept.append({**{t: Fraction(c, lc) for t, c in tail.items()}, lt: field.one})
    # kept leads ascend; the reduced basis lists them largest first
    return kept[::-1]


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
    request = cache.groebner_request(field, nvars, rank, live)
    cached = cache.lookup_groebner(request, field, nvars, rank)
    if cached is not None:
        return GroebnerBasis(field, nvars, rank, cached)
    basis, leads = _buchberger(field, nvars, rank, [g.terms for g in live])
    where = ("autoreduction of Groebner completion", nvars, rank, len(live))
    reduced = _autoreduce(field, basis, leads, where)
    elements = [
        FreeElement(field, nvars, rank, terms, _normalized=True) for terms in reduced
    ]
    cache.store_groebner(request, elements)
    return GroebnerBasis(field, nvars, rank, elements)


def empty_basis(field: FieldSpec, nvars: int, rank: int) -> GroebnerBasis:
    return GroebnerBasis(field, nvars, rank, ())


def syzygy_generators(
    columns: Sequence[FreeElement],
    lift: Sequence[FreeElement] = (),
) -> List[FreeElement]:
    """Generators of ``{v : sum v_i columns[i] in <lift>}`` in k[x]^len(columns).

    With an empty ``lift`` this is the kernel of the map defined by the
    columns.  The lift slot is how quotient rings feed in ``I * e_j``.
    Computed by a basis of the graph of the map under position over
    term: augmented vectors
    ``columns[i] (+) e_i`` are completed, and the basis elements supported
    purely in the tag block are the syzygies.
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
        if extra.rank != rank:
            raise DimensionError("lift vectors live in a different module")
        aug.append(extra.embedded(total))
    gb = groebner_basis(aug)
    out: List[FreeElement] = []
    for g in gb:
        if all(pos >= rank for pos, _ in g.terms):
            out.append(g.restricted(range(rank, total)))
    return out


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
        g0 = gens[0]
        return empty_basis(g0.field, g0.nvars, 1)
    return groebner_basis(live)
