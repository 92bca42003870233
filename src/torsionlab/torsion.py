"""Torsion submodules, alternating tensors, and tensor-power verifiers.

The torsion submodule of M over a declared-reduced ring has two routes.

The dual route, the default, computes t(M) as the kernel of the
evaluation map into a free module at a generating set of Hom(M, R): over
a reduced Noetherian ring a class dies under every functional exactly
when a non-zerodivisor kills it, so this kernel is the torsion submodule
without any fraction arithmetic.  Any generating set of M* gives the same
kernel, so the split evaluates at the reduced syzygy basis that computing
M* yields and never picks minimal generators of M*.

The saturation route takes a freeing element: a homogeneous
non-zerodivisor f such that M_f is projective over R_f.  Then
t(M) = (0 :_M f^infinity).  A class killed by a power of f is torsion,
since f is a non-zerodivisor.  Conversely t(M) maps into t(M_f), and a
projective module over R_f embeds in a free one, so it has no torsion:
each torsion class dies in M_f, that is, a power of f kills it.  So the
preimage of t(M) in the cover R^g is the saturation (N + I R^g : f^inf)
of the relation module N, reached by repeated quotients by f, with
neither M* nor the evaluation map.  Its reduced basis is unique, so both
routes give the same generators, relations and certificates.

Only ``verify_koszul_tensor_powers`` takes the saturation route, with the
first entry r_1 of its regular sequence: the Koszul module K is free over
R_{r_1}, where r_1 is a unit, and so is every tensor power of it.  Every
other caller (the script's torsion functions, the question2.12 probe, the
Frobenius verifiers, thm2.10, the carrier claim and the panel) keeps the
dual route, because it has no freeing element with a proof behind it, and
a wrong one would give a torsion module that is too small.

Verifiers certify claims on concrete instances and never assert the
general statements.
"""

from __future__ import annotations

import random
from itertools import chain, combinations
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .certificates import Certificate
from .errors import AbortedError, InputError, UnsupportedError
from .fields import FieldSpec
from .homology import free_resolution, pd, tor
from .limits import current
from .modules import (
    FPModule,
    ModuleElement,
    ModuleMap,
    annihilator,
    dual_evaluation,
    dual_syzygies,
    kernel_of_map,
    present_classes,
    presentation_ideal,
    rank_info,
    tensor,
    tensor_coords,
    tensor_power,
)
from .poly import FreeElement, Polynomial, lifted_ideal
from .randgen import random_nonfree_module
from .rings import Ideal, RingContext, is_regular_sequence, make_ring


class TorsionSplit(NamedTuple):
    """The exact sequence 0 -> t(M) -> M -> tf(M) -> 0."""

    module: FPModule
    torsion: FPModule
    torsion_free_part: FPModule
    inclusion_columns: Tuple[FreeElement, ...]

    @property
    def is_torsion_free(self) -> bool:
        return self.torsion.is_zero()


def torsion_split(
    module: FPModule, *, freeing: Optional[Polynomial] = None
) -> TorsionSplit:
    """Split off the torsion submodule of M over a declared-reduced ring.

    Both routes find the preimage of t(M) in the cover as a reduced basis,
    which is unique, and hand it to ``modules.present_classes``; so t(M),
    its inclusion and the torsion-free part do not depend on the route.
    The torsion-free part embeds into a free module by construction, which
    is what makes the split exact and tf(M) honestly torsion-free.

    Without ``freeing`` (the dual route), t(M) is the kernel of the
    evaluation at the rows of ``dual_syzygies``.  Its preimage in the cover
    is {v : phi(v) in I for every phi in M*}, which does not depend on the
    generating set of M*, and ``kernel_of_map`` reads it off; so t(M) is
    the one a minimal generating set of M* gives.  The rows go in ascending
    lead order, the reverse of the basis order: the order does not change
    the kernel, but eliminating the target block costs least this way
    round.  ``ModuleMap`` checks that the evaluation is well defined, and
    ``kernel_of_map`` pushes each kernel generator through the map and
    tests it by graded membership.

    With ``freeing`` = f, a homogeneous non-zerodivisor with M_f projective
    over R_f, t(M) = (0 :_M f^inf) (see the module docstring), and its
    preimage is the saturation of the relations at f (``_saturated``).  The
    caller vouches that M_f is projective; the split refuses an f that is
    zero, inhomogeneous, a unit or a zerodivisor with ``InputError`` before
    the saturation starts, since f = 0 would make all of M torsion.  The
    zerodivisor test is the colon (0 :_R f) = 0 of
    ``RingContext.is_nonzerodivisor``, which needs no declared minimal
    primes.  Each torsion generator v is checked on another path than the
    syzygies that found it: f^k v must be zero in M by graded membership,
    where k is the number of quotients the saturation took.

    The split runs no kernel of its own inclusion: that would repeat the
    syzygy computation that presented t(M), so it could not catch a wrong
    syzygy.  The tests compare both routes with each other and with the
    dense linear-algebra oracle.
    """
    ring = module.ring
    if not ring.reduced:
        raise UnsupportedError(
            "torsion computations require a declared-reduced ring"
        )
    if freeing is None:
        rows, row_degrees = dual_syzygies(module)
        columns, target_degrees = dual_evaluation(
            module, rows[::-1], row_degrees[::-1]
        )
        target = FPModule.free(ring, len(target_degrees), target_degrees)
        torsion, inclusion = kernel_of_map(ModuleMap(module, target, columns))
        gens = inclusion.columns
    else:
        f = _checked_freeing(ring, freeing)
        preimage, steps = _saturated(module, f)
        torsion, gens = present_classes(module, preimage)
        power = f**steps
        for g in gens:
            if not module.element_is_zero(g.scaled(power)):
                raise InputError(
                    "a torsion generator is not killed by a power of the "
                    "freeing element"
                )
    torsion_free = FPModule(
        ring,
        list(module.relations) + list(gens),
        module.ngens,
        module.gen_degrees,
    )
    return TorsionSplit(
        module=module,
        torsion=torsion,
        torsion_free_part=torsion_free,
        inclusion_columns=tuple(gens),
    )


def _checked_freeing(ring: RingContext, freeing: Polynomial) -> Polynomial:
    """The freeing element in normal form, refused unless it is nonzero,
    homogeneous, of positive degree (a unit makes (0 :_M f^inf) = 0 on the
    caller's word alone) and a non-zerodivisor, (0 :_R f) = 0.
    """
    f = ring.normal_form_poly(freeing)
    if f.is_zero():
        raise InputError("the freeing element is zero in the ring")
    if not f.is_homogeneous(ring.grading):
        raise InputError("the freeing element is not homogeneous")
    if f.degree(ring.grading) == 0:
        raise InputError("the freeing element is a unit")
    if not ring.is_nonzerodivisor(f):
        raise InputError("the freeing element is a zerodivisor")
    return f


def _saturated(module: FPModule, f: Polynomial) -> Tuple[List[FreeElement], int]:
    """The reduced basis of (N + I R^g : f^inf), N the relations of M in its
    cover R^g, and the number k of quotients by f that reached it.

    N_0 = N, and N_{k+1} = (N_k + I R^g : f) is the reduced basis of the
    syzygies of f e_1, ..., f e_g modulo N_k.  The chain grows and stops,
    since R^g is Noetherian; it has stopped when two consecutive reduced
    bases are equal.  N_0 itself is never compared, since the relations
    are not a reduced basis.  So f^k kills every class of the result.  The
    abort hook is polled once per quotient.
    """
    ring, g = module.ring, module.ngens
    hook = current().abort_hook
    columns = [
        FreeElement.unit(ring.field, ring.nvars, g, i).scaled(f) for i in range(g)
    ]
    basis: Optional[List[FreeElement]] = None
    modulo, steps = module.relations, 0
    while True:
        if hook is not None and hook():
            raise AbortedError("computation cancelled")
        following = ring.syzygies(columns, g, modulo)
        if following == basis:
            return following, steps
        basis = modulo = following
        steps += 1


# ---------------------------------------------------------------------------
# the alternating tensor


def alternating_tensor(
    module: FPModule, elements: Sequence[ModuleElement]
) -> ModuleElement:
    """The signed sum over all permutations of the d-fold tensor.

    It is built by subsets of the entries, not by permutations: tau({i}) is
    v_i, and tau(S) is the sum over i in S of (-1)^#{j in S : j > i} times
    tau(S - {i}) (x) v_i, which groups the permutations of S by their last
    entry.  That is at most d * 2^(d-1) pure-tensor steps in place of
    d! * (d-1).  A tau(S) that is zero in the free cover adds nothing to
    the next level, so it is dropped, and the build stops at the first
    empty level: two equal entries make their pair's tau zero, so d copies
    of one element take d * (d-1) steps.  The abort hook is polled once per
    step.  For d = 1 this is the element itself; repeated entries cancel
    to zero by strict skew-commutativity of the shuffle product.
    """
    if not elements:
        raise InputError("the alternating tensor needs at least one element")
    for el in elements:
        if el.module is not module:
            raise InputError("elements must belong to the given module")
    hook = current().abort_hook
    d = len(elements)
    coords = [el.coords for el in elements]
    # tau(S) for every subset S of one size, keyed by the bit mask of S
    level = {1 << i: vec for i, vec in enumerate(coords) if vec}
    for k in range(1, d):
        if not level:
            break
        left = module.tensor_power(k)
        grown: Dict[int, FreeElement] = {}
        for subset, piece in level.items():
            for i, vec in enumerate(coords):
                if subset >> i & 1:
                    continue
                if hook is not None and hook():
                    raise AbortedError("computation cancelled")
                term = tensor_coords(left, module, piece, vec)
                if (subset >> i).bit_count() % 2:
                    term = -term
                mask = subset | 1 << i
                grown[mask] = grown[mask] + term if mask in grown else term
        level = {mask: piece for mask, piece in grown.items() if piece}
    power = tensor_power(module, d)
    ring = module.ring
    zero = FreeElement.zero(ring.field, ring.nvars, power.ngens)
    return ModuleElement(power, level.get((1 << d) - 1, zero))


def element_outside_max_ideal_multiple(
    module: FPModule, coords: FreeElement
) -> bool:
    """True when the class is nonzero in M / mM (graded Nakayama witness),
    decided by graded membership in M / mM."""
    ring = module.ring
    variables = [ring.variable(v) for v in range(ring.nvars)]
    relations = [*module.relations, *lifted_ideal(variables, module.ngens)]
    quotient = FPModule(ring, relations, module.ngens, module.gen_degrees)
    return not quotient.element_is_zero(coords)


# ---------------------------------------------------------------------------
# Koszul syzygy modules


def koszul_syzygy_module(
    ring: RingContext, sequence: Sequence[Polynomial]
) -> FPModule:
    """coker([r_1..r_d]^t : R -> R^d) for a regular sequence in m."""
    if not is_regular_sequence(ring, sequence):
        raise InputError("the sequence is not regular on the ring")
    rows = [[ring.normal_form_poly(r)] for r in sequence]
    return FPModule.from_rows(ring, rows)


def universal_koszul_module(
    d: int, field: FieldSpec
) -> Tuple[RingContext, FPModule]:
    """The generic source of alternating-tensor relations: the Koszul
    syzygy module on the variables of a fresh d-variable polynomial ring."""
    if d < 1:
        raise InputError("the universal module needs d >= 1")
    names = tuple(f"u{i + 1}" for i in range(d))
    ring = make_ring(field, names, reduced=True)
    module = FPModule.from_rows(ring, [[ring.variable(i)] for i in range(d)])
    return ring, module


# ---------------------------------------------------------------------------
# verifiers


def check_relation_annihilates(
    module: FPModule,
    elements: Sequence[ModuleElement],
    coefficients: Sequence[Polynomial],
) -> Certificate:
    """Certificate for: a relation sum r_i m_i = 0 forces every r_j to kill
    the alternating tensor of the m_i (claim id prop2.2)."""
    ring = module.ring
    if len(elements) != len(coefficients) or not elements:
        raise InputError("need matching nonempty elements and coefficients")
    relation = None
    for el, r in zip(elements, coefficients):
        piece = el.coords.scaled(r)
        relation = piece if relation is None else relation + piece
    if not module.element_is_zero(relation):
        raise InputError("the claimed relation does not hold in the module")
    cert = Certificate.over(
        "prop2.2",
        ring,
        module=module.descriptor(),
        coefficients=[ring.format(r) for r in coefficients],
    )
    tau = alternating_tensor(module, elements)
    power = tau.module
    for j, r in enumerate(coefficients):
        killed = power.element_is_zero(tau.coords.scaled(r))
        cert.check(
            f"coefficient-{j + 1}-kills-alternating-tensor",
            killed,
            coefficient=ring.format(r),
        )
    return cert


def _ideals_equal(cert: Certificate, name: str, left: Ideal, right: Ideal) -> None:
    cert.check(
        name,
        left == right,
        left=left.descriptor(),
        right=right.descriptor(),
    )


def verify_koszul_tensor_powers(
    ring: RingContext, sequence: Sequence[Polynomial]
) -> Certificate:
    """Full certificate for the tensor-power behaviour of a Koszul syzygy
    module on a regular sequence (claim id thm2.8).

    Sub-claims: torsion-freeness below the top power, the annihilator of
    the alternating tensor, cyclicity of the top torsion, Tor-independence
    and projective dimensions of the powers, the Nakayama nonvanishing,
    and the universal specialization.
    """
    seq = [ring.normal_form_poly(r) for r in sequence]
    module = koszul_syzygy_module(ring, seq)  # raises on non-regular input
    d = len(seq)
    cert = Certificate.over(
        "thm2.8", ring, sequence=[ring.format(r) for r in seq], d=d
    )
    for n in range(1, d):
        split = torsion_split(tensor_power(module, n), freeing=seq[0])
        cert.check(
            f"tensor-power-{n}-torsion-free",
            split.is_torsion_free,
            torsion_generators=split.torsion.nu(),
        )

    generators = [module.generator(i) for i in range(d)]
    tau = alternating_tensor(module, generators)
    seq_ideal = Ideal(ring, seq)
    ann_tau = annihilator(tau.module, tau)
    _ideals_equal(cert, "alternating-tensor-annihilator", ann_tau, seq_ideal)

    top = tensor_power(module, d)
    split = torsion_split(top, freeing=seq[0])
    torsion = split.torsion
    cyclic = cert.check(
        "top-power-torsion-cyclic",
        torsion.nu() == 1,
        torsion_generators=torsion.nu(),
    )
    if cyclic:
        gen_coords = split.inclusion_columns[0]
        ann_gen = annihilator(top, ModuleElement(top, gen_coords))
        _ideals_equal(cert, "top-power-torsion-annihilator", ann_gen, seq_ideal)
    cert.info(
        "complement-invariants",
        complement_generators=split.torsion_free_part.nu(),
        complement_torsion_free="by exactness: the torsion-free part embeds "
        "into a free module",
    )

    for n in range(2, d + 1):
        lower = tensor_power(module, n - 1)
        for i in (1, 2):
            cert.check(
                f"tor-independence-n{n}-i{i}",
                tor(module, lower, i).is_zero(),
            )
    for n in range(1, d + 1):
        power_n = tensor_power(module, n)
        dimension = pd(power_n)
        betti = free_resolution(power_n, d + 1).betti
        cert.check(
            f"projective-dimension-power-{n}",
            dimension == n,
            expected=n,
            betti_table=list(betti),
        )

    cert.check(
        "alternating-tensor-outside-m-times-power",
        element_outside_max_ideal_multiple(top, tau.coords),
    )

    _check_universal_specialization(cert, ring, module, seq, tau)
    return cert


def _check_universal_specialization(
    cert: Certificate,
    ring: RingContext,
    module: FPModule,
    seq: Sequence[Polynomial],
    tau: ModuleElement,
) -> None:
    """Push the generic alternating tensor through the specialization that
    sends the generic variables to the sequence; it must land on tau."""
    d = len(seq)
    _, universal = universal_koszul_module(d, ring.field)
    u_generators = [universal.generator(i) for i in range(d)]
    u_tau = alternating_tensor(universal, u_generators)
    images = list(seq)
    rank = tau.coords.rank
    specialized: Dict = {}
    field = ring.field
    total = FreeElement.zero(field, ring.nvars, rank)
    for (pos, mono), coeff in u_tau.coords.terms.items():
        poly = Polynomial(field, d, {mono: coeff}, _normalized=True)
        image = poly.substitute(images)
        total = total + FreeElement(
            field, ring.nvars, rank, {(pos, (0,) * ring.nvars): field.one},
            _normalized=True,
        ).scaled(image)
    power = tau.module
    cert.check(
        "universal-specialization-hits-alternating-tensor",
        power.element_is_zero(total - tau.coords),
    )


# find_nonzerodivisor tries sums of at most this many minimal generators
NONZERODIVISOR_SUBSET_CAP = 8


def find_nonzerodivisor(ideal: Ideal) -> Optional[Polynomial]:
    """Deterministic search for a non-zerodivisor in the ideal: single
    generators first, then subset sums in lexicographic order.  None when
    no sum of at most ``NONZERODIVISOR_SUBSET_CAP`` minimal generators is a
    non-zerodivisor, which does not prove the ideal has none."""
    ring = ideal.ring
    gens = ideal.minimal_generators()
    if not gens:
        return None
    k = min(len(gens), NONZERODIVISOR_SUBSET_CAP)
    for size in range(1, k + 1):
        for subset in combinations(range(len(gens)), size):
            candidate = gens[subset[0]]
            for idx in subset[1:]:
                candidate = candidate + gens[idx]
            if candidate.is_homogeneous(ring.grading) and ring.is_nonzerodivisor(
                candidate
            ):
                return candidate
    return None


def verify_presentation_torsion_bound(
    module: FPModule, other: FPModule, case: int
) -> Certificate:
    """Certificate that high tensor powers against any nonzero module pick
    up torsion (claim ids thm2.10-case1 / thm2.10-case2).

    Case 1 needs a non-zerodivisor in the presentation ideal and uses
    b = nu(M); case 2 needs a well-defined generic rank and uses
    b = rank + 1.  Hypothesis failures are reported as inapplicable, not as
    theorem failures.
    """
    ring = module.ring
    if case not in (1, 2):
        raise InputError("case must be 1 or 2")
    cert = Certificate.over(
        f"thm2.10-case{case}",
        ring,
        module=module.descriptor(),
        other=other.descriptor(),
    )
    if module.is_free():
        return cert.mark_inapplicable("the module is free")
    if other.nu() == 0:
        return cert.mark_inapplicable("the second module is zero")

    minimal = module.minimal()
    nu = minimal.ngens
    if case == 1:
        if not ring.reduced:  # the closing torsion split needs it
            raise UnsupportedError(
                "non-zerodivisor detection needs a declared-reduced ring"
            )
        ideal = presentation_ideal(module)
        cert.info("presentation-ideal", ideal=ideal.descriptor())
        if not ideal.contains_nonzerodivisor():
            return cert.mark_inapplicable(
                "the presentation ideal consists of zerodivisors"
            )
        bound = nu
        chosen = list(range(nu))
        annihilating = ideal.minimal_generators()
        nzd = find_nonzerodivisor(ideal)
        if nzd is None:
            return cert.mark_inapplicable(
                "no non-zerodivisor was found within the search bound: sums "
                f"of at most {NONZERODIVISOR_SUBSET_CAP} minimal generators "
                "of the presentation ideal"
            )
    else:
        info = rank_info(module)
        cert.info("generic-ranks", per_prime=list(info.per_prime))
        if not info.has_rank:
            return cert.mark_inapplicable("the module has no well-defined rank")
        bound = info.value + 1
        if nu < bound:
            return cert.mark_inapplicable(
                "fewer minimal generators than rank + 1"
            )
        found = _choose_case2_generators(cert, ring, minimal, info.value)
        if found is None:
            return cert.mark_inapplicable(
                "no generator subset with a non-zerodivisor relation was found "
                "within the search bound"
            )
        chosen, relation = found
        annihilating = [c for c in relation if not c.is_zero()]
        nzd = relation[-1]

    cert.info("tensor-exponent", b=bound)
    elements = [minimal.generator(i) for i in chosen[:bound]]
    tau = alternating_tensor(minimal, elements)
    power = tau.module
    for idx, coeff in enumerate(annihilating):
        cert.check(
            f"witness-annihilated-{idx}",
            power.element_is_zero(tau.coords.scaled(coeff)),
            coefficient=ring.format(coeff),
        )
    cert.check(
        "witness-outside-m-power",
        element_outside_max_ideal_multiple(power, tau.coords),
    )
    # each case has returned inapplicable unless its search found one
    cert.check(
        "non-zerodivisor-annihilator-found", True, witness=ring.format(nzd)
    )

    other_min = other.minimal()
    x = other_min.generator(0)  # first minimal generator: outside m*N
    product = tensor(power, other_min)
    witness_coords = tensor_coords(power, other_min, tau.coords, x.coords)
    cert.check(
        "tensor-witness-nonzero",
        element_outside_max_ideal_multiple(product, witness_coords),
    )
    cert.check(
        "tensor-witness-killed-by-non-zerodivisor",
        product.element_is_zero(witness_coords.scaled(nzd)),
        witness=ring.format(nzd),
    )
    split = torsion_split(product)
    cert.check(
        "torsion-nonzero-direct",
        not split.is_torsion_free,
        torsion_generators=split.torsion.nu(),
    )
    return cert


def _matrix_spans_generically(
    ring: RingContext, minimal: FPModule, subset: Sequence[int]
) -> bool:
    """Do the chosen generators span M at every declared minimal prime?

    Tested as: the rank of [relations | chosen unit columns] at each prime
    equals the generator count."""
    nu = minimal.ngens
    columns = list(minimal.relations)
    columns.extend(FreeElement.unit(ring.field, ring.nvars, nu, s) for s in subset)
    return all(
        ring.rank_at_prime(columns, nu, prime) == nu for prime in ring.prime_bases()
    )


def _choose_case2_generators(
    cert: Certificate,
    ring: RingContext,
    minimal: FPModule,
    rank_value: int,
) -> Optional[Tuple[List[int], List[Polynomial]]]:
    """Deterministic search for rank-many generators spanning generically,
    one extra generator, and a relation whose last coefficient is a
    non-zerodivisor.  Records the chosen subset; None when the search
    bound is exhausted."""
    nu = minimal.ngens
    for subset in combinations(range(nu), rank_value):
        if not _matrix_spans_generically(ring, minimal, subset):
            continue
        for extra in range(nu):
            if extra in subset:
                continue
            chosen = list(subset) + [extra]
            columns = [
                FreeElement.unit(ring.field, ring.nvars, nu, i) for i in chosen
            ]
            candidates = ring.syzygies(columns, nu, minimal.relations)
            # the single relations first, then bounded pairwise sums
            pair_sums = (a + b for a, b in combinations(candidates, 2))
            for h in chain(candidates, pair_sums):
                coeffs = h.components()
                last = coeffs[-1]
                if (
                    not last.is_zero()
                    and last.is_homogeneous(ring.grading)
                    and ring.is_nonzerodivisor(last)
                ):
                    cert.info(
                        "chosen-generators",
                        subset=chosen,
                        relation=[ring.format(c) for c in coeffs],
                    )
                    return chosen, coeffs
    return None


def verify_maximal_ideal_carrier(module: FPModule) -> Certificate:
    """Over a positive-depth ring: Tor_1(k, M) vanishes exactly for free M,
    and tensoring a non-free M with the maximal ideal creates torsion
    (claim id carrier-maximal-ideal)."""
    ring = module.ring
    cert = Certificate.over(
        "carrier-maximal-ideal", ring, module=module.descriptor()
    )
    if ring.depth() < 1:
        return cert.mark_inapplicable("the ring has depth zero")
    maximal = maximal_ideal_module(ring)
    is_free = module.is_free()
    tor1 = tor(residue_field_module(ring), module, 1)
    cert.check(
        "tor1-vanishes-iff-free",
        tor1.is_zero() == is_free,
        tor1_generators=tor1.nu(),
        module_free=is_free,
    )
    if is_free:
        cert.info("free-module", note="no torsion claim for free modules")
        return cert
    split = torsion_split(tensor(maximal, module))
    cert.check(
        "maximal-ideal-tensor-has-torsion",
        not split.is_torsion_free,
        torsion_generators=split.torsion.nu(),
    )
    return cert


def maximal_ideal_module(ring: RingContext) -> FPModule:
    """The irrelevant maximal ideal as a module: generated by the variables,
    presented by their syzygies over R."""
    columns = lifted_ideal([ring.variable(i) for i in range(ring.nvars)], 1)
    syzygies = ring.syzygies(columns, 1)
    return FPModule(ring, syzygies, ring.nvars, tuple(ring.grading))


def residue_field_module(ring: RingContext) -> FPModule:
    """The residue field k = R/m as the cyclic module on the variables."""
    return FPModule.cyclic(ring, [ring.variable(i) for i in range(ring.nvars)])


def explore_torsion_onset(
    ring: RingContext,
    panel_size: int,
    seed: int,
    cap: int = 4,
) -> dict:
    """Exploratory report: for random non-free modules, the least tensor
    power with nonzero torsion, or none up to the cap.  Asserts nothing."""
    if len(ring.prime_bases()) != 1 or not ring.reduced:
        raise InputError(
            "the exploration needs a declared domain (reduced, one minimal prime)"
        )
    rng = random.Random(seed)
    entries = []
    for index in range(panel_size):
        module = random_nonfree_module(ring, rng)
        if module is None:
            entries.append({"index": index, "status": "draw-failed"})
            continue
        onset = None
        for n in range(1, cap + 1):
            split = torsion_split(tensor_power(module, n))
            if not split.is_torsion_free:
                onset = n
                break
        entries.append(
            {
                "index": index,
                "module": module.minimal().descriptor(),
                "nu": module.nu(),
                "least_power_with_torsion": onset
                if onset is not None
                else f"none<= {cap}",
            }
        )
    return {
        "claim": "question2.12",
        "kind": "exploratory-report",
        "ring": ring.descriptor(),
        "seed": seed,
        "cap": cap,
        "entries": entries,
        "note": "observational only: no assertion about the question",
    }
