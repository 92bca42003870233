"""Characteristic-p machinery: twist functors, restriction of scalars,
universal pushforwards, and the regularity and torsion-carrier verifiers.

The power functor acts on presentations by raising every matrix entry to
the q-th power, which is exact in characteristic p because entrywise
Frobenius commutes with matrix products there.  Restriction of scalars is
presented in the basis x^alpha (every alpha_i < q) of k[x] over
k[y] = k[x^q]: each k[y]-spanning vector of the relations is rewritten
term by term, x^gamma going to y^(gamma div q) on the generator of
x^(gamma mod q), with no Groebner basis; the result lives over the target
copy of the ring, which carries the q-dilated grading.
"""

from __future__ import annotations

from itertools import combinations
from itertools import product as iter_product
from typing import Dict, List, NamedTuple, Optional, Tuple

from .certificates import Certificate
from .errors import InputError, ResourceLimitError, UnsupportedError
from .fields import FieldSpec
from .groebner import Completion
from .homology import PD_INFINITE, complex_homology, free_resolution, pd
from .limits import GENERATOR_CAP
from .modules import (
    FPModule,
    annihilator,
    dual_evaluation,
    dual_generators,
    rank_info,
    tensor,
)
from .poly import FreeElement, Polynomial, lifted_ideal, polynomial_to_element
from .rings import RingContext
from .torsion import residue_field_module, torsion_split


def frobenius_q(field: FieldSpec, e: int) -> int:
    """q = p^e for the e-th power of the p-th power endomorphism of a field
    of characteristic p."""
    p = field.characteristic
    if p <= 0:
        raise UnsupportedError("Frobenius powers need positive characteristic")
    if e < 1:
        raise InputError("the twist exponent must be a positive integer")
    return p**e


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
    q = frobenius_q(ring.field, e)
    cols = [_powered_column(c, q) for c in module.relations]
    return FPModule(
        ring, cols, module.ngens, tuple(q * d for d in module.gen_degrees)
    )


def tor_frobenius(module: FPModule, e: int, i: int) -> FPModule:
    """Tor_i(M, twisted R): homology of the entrywise-powered minimal
    resolution of M.  Exact for any i once the resolution reaches i + 1."""
    ring = module.ring
    q = frobenius_q(ring.field, e)
    if i < 1:
        raise InputError("the twisted Tor check starts at homological degree 1")
    res = free_resolution(module, i + 1)
    diffs = [[_powered_column(c, q) for c in cols] for cols in res.differentials]
    degrees = [tuple(q * d for d in degs) for degs in res.step_degrees]
    return complex_homology(diffs, degrees, FPModule.free(ring, 1), i)


# ---------------------------------------------------------------------------
# restriction of scalars


def restricted_ring(ring: RingContext, e: int) -> RingContext:
    """The target copy of R for the e-th restriction: same presentation,
    q-dilated grading (a degree-t element becomes degree q*t).  A form
    homogeneous for the grading is homogeneous for its q-dilation, so the
    copy shares R's Groebner data."""
    q = frobenius_q(ring.field, e)
    return ring.regraded(tuple(q * w for w in ring.grading))


def restrict_scalars(module: FPModule, e: int) -> FPModule:
    """M viewed over R through the e-th power map: r acts as r^q.

    With y_i = x_i^q, k[x]^m is free over k[y] on the x^alpha e_j with every
    alpha_i < q; these are the generators.  U = <relations> + I*k[x]^m is
    spanned over k[y] by the x^beta u for beta < q and u a relation column
    or g*e_j for a defining generator g.  Writing each term c*x^gamma e_j
    of x^beta u as c*y^(gamma div q) on the generator (j, gamma mod q) gives
    the relations over the target ring; coefficients lie in F_p, so
    c^q = c.  The result's Hilbert function is checked against the
    source's up to one q-dilated step past its top generator degree.
    """
    ring = module.ring
    field = ring.field
    q = frobenius_q(field, e)
    n = ring.nvars
    m = module.ngens
    block = q**n
    if m * block > GENERATOR_CAP:
        # str() refuses an int of more than 4300 digits, so a count of
        # more than about 3900 digits is shown as a power
        if block.bit_length() <= 13000:
            needs = f"{m * block} generators ({m} x {block})"
        else:
            needs = f"{m} x {field.characteristic}^{e * n} generators"
        raise ResourceLimitError(
            f"restriction of scalars needs {needs}, over the cap of {GENERATOR_CAP}"
        )
    result_ring = restricted_ring(ring, e)
    if m == 0:
        return FPModule.zero_module(result_ring)

    alphas = list(iter_product(range(q), repeat=n))
    alpha_index = {a: k for k, a in enumerate(alphas)}
    spanning = [*module.relations, *lifted_ideal(ring.ideal_generators, m)]
    relation_cols: List[FreeElement] = []
    for u in spanning:
        for beta in alphas:
            terms = {}
            for (j, gamma), c in u.terms.items():
                shifted = [a + b for a, b in zip(gamma, beta)]
                tag = j * block + alpha_index[tuple(s % q for s in shifted)]
                terms[(tag, tuple(s // q for s in shifted))] = c
            relation_cols.append(
                FreeElement(field, n, m * block, terms, _normalized=True)
            )

    gen_degrees = tuple(
        module.gen_degrees[j]
        + sum(a[i] * ring.grading[i] for i in range(n))
        for j in range(m)
        for a in alphas
    )
    result = FPModule(result_ring, relation_cols, m * block, gen_degrees)
    top = max(gen_degrees) + q * max(ring.grading)
    for degree in range(top + 1):
        if result.hilbert_function(degree) != module.hilbert_function(degree):
            raise InputError(
                "restriction of scalars failed its Hilbert function check "
                f"in degree {degree}"
            )
    return result


# ---------------------------------------------------------------------------
# universal pushforward


class Pushforward(NamedTuple):
    """The exact sequence 0 -> M -> R^nu -> N -> 0 built from dual generators."""

    module: FPModule
    free_rank: int
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
    columns, target_degrees = dual_evaluation(module, *dual_generators(module))
    cokernel = FPModule(ring, columns, len(target_degrees), target_degrees)
    return Pushforward(module=module, free_rank=len(target_degrees), cokernel=cokernel)


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
    echelon = Completion(ring.field, n, 1, "linear parts")
    linear_rank = 0
    for g in ring.ideal_generators:
        part = {mono: c for mono, c in g.terms.items() if sum(mono) == 1}
        form = polynomial_to_element(Polynomial(ring.field, n, part, _normalized=True))
        remainder = echelon.reduce(form.terms)
        if remainder:
            echelon.add(remainder)
            echelon.complete()
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


# ---------------------------------------------------------------------------
# verifiers


def verify_frobenius_torsion_equivalence(module: FPModule, e: int) -> Certificate:
    """Both sides of the torsion-freeness equivalence for the power functor
    over a reduced complete intersection, computed independently
    (claim id thm3.5), plus the sampled Tor-vanishing consequence."""
    ring = module.ring
    cert = Certificate.over("thm3.5", ring, module=module.descriptor(), e=e)
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
    cert = Certificate.over(
        "cor3.7", ring, module=module.descriptor(), e=e, e_prime=e_prime
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


class ModuleAlgebra(NamedTuple):
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
    cert = Certificate.over(
        "thm3.2",
        ring,
        "the supplied module is trusted to be the integral closure",
        closure=closure.module.descriptor(),
        module=module.descriptor(),
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
