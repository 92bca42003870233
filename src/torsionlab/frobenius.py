"""Characteristic-p machinery: twist functors, restriction of scalars,
universal pushforwards, and the regularity and torsion-carrier verifiers.

The power functor acts on presentations by raising every matrix entry to
the q-th power, which is exact in characteristic p because entrywise
Frobenius commutes with matrix products there.  Restriction of scalars is
computed by the pushforward-along-a-finite-map technique: adjoin fresh
target variables y_i with relations y_i - x_i^q, eliminate the x-block
with a Groebner basis, and read off generators and relations over the
target copy of the ring (which carries the q-dilated grading).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from itertools import product as iter_product
from typing import Dict, List, Optional, Sequence, Tuple

from .certificates import Certificate
from .errors import InputError, ResourceLimitError, UnsupportedError
from .groebner import Completion, groebner_basis
from .homology import PD_INFINITE, _homology_between, free_resolution, pd
from .modules import (
    FPModule,
    annihilator,
    dual_generators,
    rank_info,
    tensor,
)
from .orders import MonomialOrder
from .poly import FreeElement, Polynomial, polynomial_to_element
from .rings import RingContext, make_ring
from .torsion import torsion_split


@dataclass(frozen=True)
class FrobeniusPower:
    """The e-th power of the p-th power endomorphism; q = p^e."""

    p: int
    e: int

    def __post_init__(self):
        if self.p <= 0:
            raise UnsupportedError("Frobenius powers need positive characteristic")
        if self.e < 1:
            raise InputError("the twist exponent must be a positive integer")

    @property
    def q(self) -> int:
        return self.p ** self.e


def _powered_column(col: FreeElement, q: int) -> FreeElement:
    return FreeElement(
        col.field,
        col.nvars,
        col.rank,
        {(pos, tuple(q * x for x in mono)): c for (pos, mono), c in col.terms.items()},
        _normalized=True,
    )


def frobenius_functor(module: FPModule, e: int) -> FPModule:
    """The twist of M by the e-th power endomorphism: entrywise q-th powers
    of the presentation matrix, with generator degrees dilated by q."""
    ring = module.ring
    power = FrobeniusPower(ring.field.characteristic, e)
    q = power.q
    cols = [_powered_column(c, q) for c in module.relations]
    return FPModule(
        ring, cols, module.ngens, tuple(q * d for d in module.gen_degrees)
    )


def tor_frobenius(module: FPModule, e: int, i: int) -> FPModule:
    """Tor_i(M, twisted R): homology of the entrywise-powered minimal
    resolution of M.  Exact for any i once the resolution reaches i + 1."""
    ring = module.ring
    power = FrobeniusPower(ring.field.characteristic, e)
    if i < 1:
        raise InputError("the twisted Tor check starts at homological degree 1")
    q = power.q
    res = free_resolution(module, i + 1)
    betti = res.betti
    if i >= len(betti) or betti[i] == 0:
        return FPModule.zero_module(ring)

    outgoing = [_powered_column(c, q) for c in res.differentials[i - 1]]
    incoming = (
        [_powered_column(c, q) for c in res.differentials[i]]
        if res.length > i
        else []
    )
    amb_degrees = tuple(q * d for d in res.step_degrees[i])
    return _homology_between(
        ring,
        incoming,
        betti[i],
        amb_degrees,
        [],
        outgoing,
        betti[i - 1],
        [],
    )


# ---------------------------------------------------------------------------
# restriction of scalars


def restricted_ring(ring: RingContext, e: int) -> RingContext:
    """The target copy of R for the e-th restriction: same presentation,
    q-dilated grading (a degree-t element becomes degree q*t)."""
    q = FrobeniusPower(ring.field.characteristic, e).q
    return make_ring(
        ring.field,
        ring.variables,
        ideal=list(ring.ideal_generators),
        grading=tuple(q * w for w in ring.grading),
        minimal_primes=[list(p) for p in ring.minimal_primes],
        reduced=ring.reduced,
        complete_intersection=ring.complete_intersection,
    )


def _embed_x(poly: Polynomial, total_vars: int) -> Polynomial:
    n = poly.nvars
    pad = (0,) * (total_vars - n)
    return Polynomial(
        poly.field,
        total_vars,
        {mono + pad: c for mono, c in poly.terms.items()},
        _normalized=True,
    )


def restrict_scalars(module: FPModule, e: int) -> FPModule:
    """M viewed over R through the e-th power map: r acts as r^q.

    Generators are x^alpha g_j for exponent vectors alpha below q; the
    relations among them over the target ring come out of an x-eliminating
    Groebner basis on the graph of the generating set.  The q-power
    compatibility of the scalar action is spot-checked before returning.
    """
    ring = module.ring
    p = ring.field.characteristic
    power = FrobeniusPower(p, e)
    q = power.q
    # FieldSpec only models prime fields, which is exactly the F-finite case
    n = ring.nvars
    m = module.ngens
    result_ring = restricted_ring(ring, e)
    if m == 0:
        return FPModule.zero_module(result_ring)

    total_vars = 2 * n
    alphas = list(iter_product(range(q), repeat=n))
    alpha_index = {a: k for k, a in enumerate(alphas)}
    block = len(alphas)
    ntags = m * block
    if ntags > 4096:
        raise ResourceLimitError(
            f"restriction of scalars needs {ntags} generators; "
            "lower e or the module size"
        )
    total_rank = m + ntags

    field = ring.field

    def x_power(mono: Tuple[int, ...]) -> Polynomial:
        return Polynomial(
            field, total_vars, {mono + (0,) * n: field.one}, _normalized=True
        )

    defining: List[FreeElement] = []
    for col in module.relations:
        comps = [_embed_x(col.component(i), total_vars) for i in range(m)]
        defining.append(FreeElement.from_components(comps, rank=m))
    for i in range(n):
        y_minus_xq = Polynomial(
            field,
            total_vars,
            {
                tuple(0 if k != n + i else 1 for k in range(total_vars)): field.one,
                tuple(q if k == i else 0 for k in range(total_vars)): field.neg(
                    field.one
                ),
            },
            _normalized=True,
        )
        for j in range(m):
            defining.append(
                FreeElement.unit(field, total_vars, m, j).scaled(y_minus_xq)
            )
    for g in ring.ideal_generators:
        lifted = _embed_x(g, total_vars)
        for j in range(m):
            defining.append(FreeElement.unit(field, total_vars, m, j).scaled(lifted))

    # block order: defining positions dominate the tags, x-elimination
    # dominates position inside the tag block (so an x-free lead forces an
    # entirely x-free basis element there)
    big_order = MonomialOrder(
        elim_split=n, module="position-blocks", block_split=m
    )
    tagged: List[FreeElement] = []
    for j in range(m):
        for a in alphas:
            vec = FreeElement.unit(field, total_vars, total_rank, j).scaled(
                x_power(a)
            ) + FreeElement.unit(
                field, total_vars, total_rank, m + j * block + alpha_index[a]
            )
            tagged.append(vec)
    big_gens = [d.embedded(total_rank) for d in defining] + tagged
    big_basis = groebner_basis(big_gens, big_order)

    def strip_to_target(poly_terms) -> Polynomial:
        out = {}
        for mono, c in poly_terms.items():
            assert not any(mono[:n]), "relation coefficient still involves x"
            out[mono[n:]] = c
        return Polynomial(field, n, out, _normalized=True)

    relation_cols: List[FreeElement] = []
    for g in big_basis:
        if all(pos >= m and not any(mono[:n]) for (pos, mono) in g.terms):
            comps = []
            for t in range(ntags):
                comp_terms = {
                    mono: c for (pos, mono), c in g.terms.items() if pos == m + t
                }
                comps.append(strip_to_target(comp_terms))
            relation_cols.append(FreeElement.from_components(comps, rank=ntags))

    gen_degrees = tuple(
        module.gen_degrees[j]
        + sum(a[i] * ring.grading[i] for i in range(n))
        for j in range(m)
        for a in alphas
    )
    result = FPModule(result_ring, relation_cols, ntags, gen_degrees)
    _spot_check_scalar_action(
        module, result, e, defining, alphas, alpha_index
    )
    return result


def _spot_check_scalar_action(
    module: FPModule,
    result: FPModule,
    e: int,
    defining: Sequence[FreeElement],
    alphas: Sequence[Tuple[int, ...]],
    alpha_index: Dict[Tuple[int, ...], int],
    samples: int = 4,
) -> None:
    """Verify on samples that y_i acting on the presented module matches
    multiplication by x_i^q upstairs: express(x_i^q x^a g_j) = y_i v_{j,a}."""
    ring = module.ring
    field = ring.field
    q = FrobeniusPower(field.characteristic, e).q
    n = ring.nvars
    m = module.ngens
    block = len(alphas)
    elim_order = MonomialOrder(elim_split=n)
    u_basis = groebner_basis(list(defining), elim_order)
    total_vars = 2 * n

    def express(vec: FreeElement) -> FreeElement:
        nf = u_basis.normal_form(vec)
        comps = [Polynomial.zero(field, n) for _ in range(m * block)]
        for (pos, mono), c in nf.terms.items():
            alpha = mono[:n]
            assert all(a < q for a in alpha), "normal form escaped the tag range"
            beta = mono[n:]
            target = pos * block + alpha_index[alpha]
            comps[target] = comps[target] + Polynomial(
                field, n, {beta: c}, _normalized=True
            )
        return FreeElement.from_components(comps, rank=m * block)

    checked = 0
    for j in range(m):
        for a in alphas:
            if checked >= samples:
                return
            for i in range(n):
                mono = tuple(
                    (a[k] + (q if k == i else 0)) if k < n else 0
                    for k in range(total_vars)
                )
                upstairs = FreeElement(
                    field, total_vars, m, {(j, mono): field.one}, _normalized=True
                )
                lhs = express(upstairs)
                rhs = FreeElement.unit(
                    field, n, m * block, j * block + alpha_index[a]
                ).scaled(result.ring.variable(i))
                if not result.element_is_zero(lhs - rhs):
                    raise InputError(
                        "restriction of scalars failed its q-power action check"
                    )
            checked += 1


# ---------------------------------------------------------------------------
# universal pushforward


@dataclass
class Pushforward:
    """The exact sequence 0 -> M -> R^nu -> N -> 0 built from dual generators."""

    module: FPModule
    free_rank: int
    evaluation_columns: Tuple[FreeElement, ...]
    cokernel: FPModule


def universal_pushforward(module: FPModule) -> Pushforward:
    """Embed a torsion-free module into a free module through a minimal
    generating set of its dual, and present the cokernel."""
    ring = module.ring
    if not ring.reduced:
        raise UnsupportedError("the pushforward needs a declared-reduced ring")
    split = torsion_split(module)
    if not split.is_torsion_free:
        raise InputError("the universal pushforward needs a torsion-free module")
    rows, row_degrees = dual_generators(module)
    nu_star = len(rows)
    target_degrees = tuple(-d for d in row_degrees)
    columns = []
    for j in range(module.ngens):
        comps = [rows[i].component(j) for i in range(nu_star)]
        if nu_star:
            columns.append(FreeElement.from_components(comps, rank=nu_star))
        else:
            columns.append(FreeElement.zero(ring.field, ring.nvars, 0))
    cokernel = FPModule(ring, columns, nu_star, target_degrees)
    return Pushforward(
        module=module,
        free_rank=nu_star,
        evaluation_columns=tuple(columns),
        cokernel=cokernel,
    )


# ---------------------------------------------------------------------------
# regularity decision


def ring_is_regular_linear_forms(ring: RingContext) -> bool:
    """Regularity of R = k[x_1..x_n]/I at the irrelevant ideal m, for any
    positive grading: R is regular exactly when its embedding dimension
    dim_k m/(m^2 + I) = n - rank(linear parts of the generators of I)
    equals dim R.  dim R is read off the lead-term ideal of I: the largest
    set of variables that supports no lead monomial."""
    n = ring.nvars
    # row echelon form of the linear parts: a remainder against the kept
    # forms is zero or leads with a variable none of them leads with
    echelon = Completion(ring.field, n, 1, ring.order.term_sort_key(), "linear parts")
    linear_rank = 0
    for g in ring.ideal_generators:
        part = {mono: c for mono, c in g.terms.items() if sum(mono) == 1}
        form = polynomial_to_element(Polynomial(ring.field, n, part, _normalized=True))
        remainder = echelon.reduce(form.terms)
        if remainder:
            echelon.add(remainder)
            linear_rank += 1
    leads = [mono for _, mono in ring.ideal_basis.lead_terms()]
    for size in range(n, -1, -1):
        for free in combinations(range(n), size):
            if not any(
                all(e == 0 or k in free for k, e in enumerate(mono)) for mono in leads
            ):
                return n - linear_rank == size
    # a unit lead: I is the whole ring, and R = 0 is not a regular ring
    return False


def residue_field_module(ring: RingContext) -> FPModule:
    return FPModule.cyclic(ring, [ring.variable(i) for i in range(ring.nvars)])


# ---------------------------------------------------------------------------
# verifiers


def verify_frobenius_torsion_equivalence(module: FPModule, e: int) -> Certificate:
    """Both sides of the torsion-freeness equivalence for the power functor
    over a reduced complete intersection, computed independently
    (claim id thm3.5), plus the sampled Tor-vanishing consequence."""
    ring = module.ring
    cert = Certificate(
        claim="thm3.5",
        context={
            "ring": ring.descriptor(),
            "module": module.descriptor(),
            "e": e,
        },
        trusted_assumptions=list(ring.warnings),
    )
    if ring.field.characteristic == 0:
        return cert.mark_inapplicable("the ring has characteristic zero")
    if not ring.complete_intersection:
        return cert.mark_inapplicable("the ring is not flagged complete intersection")
    if not ring.reduced:
        return cert.mark_inapplicable("the ring is not flagged reduced")
    try:
        info = rank_info(module)
    except UnsupportedError as exc:
        return cert.mark_inapplicable(str(exc))
    # over a reduced ring the localization at each declared minimal prime is
    # a field, so the module is generically free; the per-prime ranks are
    # recorded and need not agree
    cert.info("generic-ranks", per_prime=list(info.per_prime))

    split = torsion_split(module)
    dimension = pd(module)
    side_finite = split.is_torsion_free and dimension != PD_INFINITE
    cert.info(
        "module-side",
        torsion_free=split.is_torsion_free,
        projective_dimension=dimension,
    )
    twisted = frobenius_functor(module, e)
    twisted_split = torsion_split(twisted)
    cert.info(
        "twisted-side",
        torsion_free=twisted_split.is_torsion_free,
        torsion_generators=twisted_split.torsion.nu(),
    )
    cert.check(
        "torsion-freeness-equivalence",
        twisted_split.is_torsion_free == side_finite,
        twisted_torsion_free=twisted_split.is_torsion_free,
        module_torsion_free_finite_pd=side_finite,
    )
    if side_finite:
        for e_prime in (1, 2):
            for i in (1, 2):
                cert.check(
                    f"sampled-tor-vanishing-e{e_prime}-i{i}",
                    tor_frobenius(module, e_prime, i).is_zero(),
                )
        cert.info(
            "sampled-quantifier",
            note="vanishing certified on the recorded finite sample only",
            sample="e in {1,2}, i in {1,2}",
        )
    return cert


def verify_regularity_probe(
    ring: RingContext, module: FPModule, e: int = 1, e_prime: int = 1
) -> Certificate:
    """Torsion-freeness of the twisted restriction against two independent
    regularity decisions (claim id cor3.7)."""
    cert = Certificate(
        claim="cor3.7",
        context={
            "ring": ring.descriptor(),
            "module": module.descriptor(),
            "e": e,
            "e_prime": e_prime,
        },
        trusted_assumptions=list(ring.warnings),
    )
    if ring.field.characteristic == 0:
        return cert.mark_inapplicable("the ring has characteristic zero")
    if not ring.reduced:
        return cert.mark_inapplicable("the ring is not flagged reduced")
    if not ring.complete_intersection:
        return cert.mark_inapplicable("the ring is not flagged complete intersection")
    if module.nu() == 0:
        return cert.mark_inapplicable("the module is zero")

    regular_by_forms = ring_is_regular_linear_forms(ring)
    pd_residue = pd(residue_field_module(ring))
    regular_by_pd = pd_residue != PD_INFINITE
    cert.check(
        "regularity-decisions-agree",
        regular_by_forms == regular_by_pd,
        linear_forms=regular_by_forms,
        residue_field_pd=pd_residue,
    )
    # over a regular ring the twist of a module with torsion has torsion
    # too, so only torsion-free modules can witness regularity; a
    # disagreement above still fails the probe
    if cert.passed and not torsion_split(module).is_torsion_free:
        return cert.mark_inapplicable("the module has torsion")

    restricted = restrict_scalars(module, e_prime)
    twisted = frobenius_functor(restricted, e)
    split = torsion_split(twisted)
    cert.check(
        "torsion-freeness-matches-regularity",
        split.is_torsion_free == regular_by_forms,
        torsion_free=split.is_torsion_free,
        torsion_generators=split.torsion.nu(),
        regular=regular_by_forms,
    )
    return cert


@dataclass
class ModuleAlgebra:
    """A module-finite ring extension presented as an R-module with
    declared multiplication structure constants and a unit generator."""

    module: FPModule
    unit_index: int = 0
    products: Optional[Dict[Tuple[int, int], FreeElement]] = None


def verify_integral_closure_carrier(
    ring: RingContext, closure: ModuleAlgebra, module: FPModule
) -> Certificate:
    """On a one-dimensional graded stand-in: if tensoring with the supplied
    closure is torsion-free then the module is free (claim id thm3.2).

    The closure must come with its module structure, a unit, and structure
    constants; the tool verifies it is torsion-free and contains a copy of
    the ring, then certifies the implication on this instance."""
    cert = Certificate(
        claim="thm3.2",
        context={
            "ring": ring.descriptor(),
            "closure": closure.module.descriptor(),
            "module": module.descriptor(),
        },
        trusted_assumptions=list(ring.warnings)
        + ["the supplied module is trusted to be the integral closure"],
    )
    if closure.products is None:
        return cert.mark_inapplicable(
            "no multiplication structure constants were supplied"
        )
    if not ring.reduced:
        return cert.mark_inapplicable("the ring is not flagged reduced")
    bar = closure.module
    unit = bar.generator(closure.unit_index)
    for (i, j), value in sorted(closure.products.items()):
        if closure.unit_index in (i, j):
            other = j if i == closure.unit_index else i
            cert.check(
                f"unit-acts-trivially-{i}-{j}",
                bar.element_is_zero(value - bar.generator(other).coords),
            )
    cert.check(
        "closure-torsion-free",
        torsion_split(bar).is_torsion_free,
    )
    cert.check(
        "closure-contains-the-ring",
        annihilator(bar, unit).is_zero(),
    )
    split = torsion_split(tensor(bar, module))
    torsion_free = split.is_torsion_free
    cert.info(
        "closure-tensor-torsion",
        torsion_free=torsion_free,
        torsion_generators=split.torsion.nu(),
    )
    if torsion_free:
        cert.check("torsion-free-forces-free", module.is_free())
    else:
        cert.check(
            "implication-vacuous",
            True,
            note="the tensor product has torsion, so the implication holds",
            module_free=module.is_free(),
        )
    return cert
