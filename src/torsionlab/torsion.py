"""Torsion submodules, alternating tensors, and tensor-power verifiers.

The torsion submodule of M over a declared-reduced ring is computed as the
kernel of the evaluation map into R^{nu*} built from a minimal generating
set of Hom(M, R): over a reduced Noetherian ring a class dies under every
functional exactly when a non-zerodivisor kills it, so this kernel is the
torsion submodule without any fraction arithmetic.  Verifiers certify
claims on concrete instances and never assert the general statements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations, permutations
from typing import Dict, List, Optional, Sequence, Tuple

from .certificates import Certificate
from .errors import InputError, UnsupportedError
from .fields import FieldSpec
from .homology import free_resolution, pd, tor
from .modules import (
    FPModule,
    ModuleElement,
    ModuleMap,
    annihilator,
    dual_evaluation,
    kernel_of_map,
    presentation_ideal,
    rank_info,
    relations_among,
    tensor,
    tensor_coords,
    tensor_power,
)
from .poly import FreeElement, Polynomial
from .randgen import random_nonfree_module
from .rings import Ideal, RingContext, is_regular_sequence, make_ring


@dataclass
class TorsionSplit:
    """The exact sequence 0 -> t(M) -> M -> tf(M) -> 0."""

    module: FPModule
    torsion: FPModule
    torsion_free_part: FPModule
    inclusion_columns: Tuple[FreeElement, ...]

    @property
    def is_torsion_free(self) -> bool:
        return self.torsion.is_zero()

    @property
    def is_torsion(self) -> bool:
        return self.torsion_free_part.is_zero()


def torsion_split(module: FPModule, verify: bool = True) -> TorsionSplit:
    """Split off the torsion submodule of M over a declared-reduced ring.

    t(M) is the kernel of the evaluation through the dual generators; the
    torsion-free part embeds into a free module by construction, which is
    what makes the split exact and tf(M) honestly torsion-free.
    """
    ring = module.ring
    if not ring.reduced:
        raise UnsupportedError(
            "torsion computations require a declared-reduced ring"
        )
    columns, target_degrees = dual_evaluation(module)
    target = FPModule.free(ring, len(target_degrees), target_degrees)
    evaluation = ModuleMap(module, target, columns, check=bool(target_degrees))
    torsion, inclusion = kernel_of_map(evaluation)
    torsion_free = FPModule(
        ring,
        list(module.relations) + list(inclusion.columns),
        module.ngens,
        module.gen_degrees,
    )
    split = TorsionSplit(
        module=module,
        torsion=torsion,
        torsion_free_part=torsion_free,
        inclusion_columns=tuple(inclusion.columns),
    )
    if verify and not torsion.is_zero():
        inner, _ = kernel_of_map(inclusion)
        if not inner.is_zero():
            raise InputError("torsion inclusion unexpectedly has a kernel")
    return split


# ---------------------------------------------------------------------------
# the alternating tensor


def pure_tensor_coords(
    module: FPModule, coord_list: Sequence[FreeElement]
) -> FreeElement:
    """Coordinates of v_1 (x) ... (x) v_d in the cover of the left-fold power."""
    out = coord_list[0]
    for k, vec in enumerate(coord_list[1:], start=1):
        out = tensor_coords(module.tensor_power(k), module, out, vec)
    return out


def alternating_tensor(
    module: FPModule, elements: Sequence[ModuleElement]
) -> ModuleElement:
    """The signed sum over all permutations of the d-fold tensor.

    For d = 1 this is the element itself; repeated entries cancel to zero
    by strict skew-commutativity of the shuffle product.
    """
    if not elements:
        raise InputError("the alternating tensor needs at least one element")
    for el in elements:
        if el.module is not module:
            raise InputError("elements must belong to the given module")
    d = len(elements)
    power = tensor_power(module, d)
    coords = [el.coords for el in elements]
    total: Optional[FreeElement] = None
    for perm, sign in _signed_permutations(d):
        piece = pure_tensor_coords(module, [coords[i] for i in perm])
        if sign < 0:
            piece = -piece
        total = piece if total is None else total + piece
    return ModuleElement(power, total)


def _signed_permutations(d: int):
    for perm in permutations(range(d)):
        inversions = sum(
            1
            for a in range(d)
            for b in range(a + 1, d)
            if perm[a] > perm[b]
        )
        yield perm, (-1) ** inversions


def element_outside_max_ideal_multiple(
    module: FPModule, coords: FreeElement
) -> bool:
    """True when the class is nonzero in M / mM (graded Nakayama witness)."""
    ring = module.ring
    extra = list(module.relations)
    for v in range(ring.nvars):
        xv = ring.variable(v)
        for i in range(module.ngens):
            extra.append(
                FreeElement.unit(ring.field, ring.nvars, module.ngens, i).scaled(xv)
            )
    basis = ring.submodule_basis(extra, module.ngens)
    return not basis.normal_form(coords).is_zero()


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
    cert = Certificate(
        claim="prop2.2",
        context={
            "ring": ring.descriptor(),
            "module": module.descriptor(),
            "coefficients": [ring.format(r) for r in coefficients],
        },
        trusted_assumptions=list(ring.warnings),
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
    cert = Certificate(
        claim="thm2.8",
        context={
            "ring": ring.descriptor(),
            "sequence": [ring.format(r) for r in seq],
            "d": d,
        },
        trusted_assumptions=list(ring.warnings),
    )
    for n in range(1, d):
        split = torsion_split(tensor_power(module, n))
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
    split = torsion_split(top)
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


def find_nonzerodivisor(ideal: Ideal, max_subset: int = 8) -> Optional[Polynomial]:
    """Deterministic search for a non-zerodivisor in the ideal: single
    generators first, then subset sums in lexicographic order."""
    ring = ideal.ring
    gens = ideal.minimal_generators()
    if not gens:
        return None
    k = min(len(gens), max_subset)
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
    cert = Certificate(
        claim=f"thm2.10-case{case}",
        context={
            "ring": ring.descriptor(),
            "module": module.descriptor(),
            "other": other.descriptor(),
        },
        trusted_assumptions=list(ring.warnings),
    )
    if module.is_free():
        return cert.mark_inapplicable("the module is free")
    if other.nu() == 0:
        return cert.mark_inapplicable("the second module is zero")

    minimal = module.minimal().module
    nu = minimal.ngens
    if case == 1:
        ideal, has_nzd = presentation_ideal(module)
        cert.info("presentation-ideal", ideal=ideal.descriptor())
        if not has_nzd:
            return cert.mark_inapplicable(
                "the presentation ideal consists of zerodivisors"
            )
        bound = nu
        chosen = list(range(nu))
        annihilating = [
            g for g in ideal.minimal_generators()
        ]
        nzd = find_nonzerodivisor(ideal)
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
    have_nzd = cert.check(
        "non-zerodivisor-annihilator-found",
        nzd is not None,
        witness=ring.format(nzd) if nzd is not None else None,
    )

    other_min = other.minimal().module
    x = other_min.generator(0)  # first minimal generator: outside m*N
    product = tensor(power, other_min)
    witness_coords = tensor_coords(power, other_min, tau.coords, x.coords)
    cert.check(
        "tensor-witness-nonzero",
        element_outside_max_ideal_multiple(product, witness_coords),
    )
    if have_nzd:
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
    primes = ring.effective_minimal_primes()
    return all(
        ring.rank_at_prime(columns, nu, pi) == nu for pi in range(len(primes))
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
            candidates = relations_among(ring, columns, minimal.relations, nu)
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
    cert = Certificate(
        claim="carrier-maximal-ideal",
        context={"ring": ring.descriptor(), "module": module.descriptor()},
        trusted_assumptions=list(ring.warnings),
    )
    if ring.depth() < 1:
        return cert.mark_inapplicable("the ring has depth zero")
    variables = [ring.variable(i) for i in range(ring.nvars)]
    residue_field = FPModule.cyclic(ring, variables)
    maximal = maximal_ideal_module(ring)
    is_free = module.is_free()
    tor1 = tor(residue_field, module, 1)
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
    columns = [
        FreeElement.unit(ring.field, ring.nvars, 1, 0).scaled(ring.variable(i))
        for i in range(ring.nvars)
    ]
    syzygies = ring.syzygies(columns, 1)
    return FPModule(ring, syzygies, ring.nvars, tuple(ring.grading))


def explore_torsion_onset(
    ring: RingContext,
    panel_size: int,
    seed: int,
    cap: int = 4,
) -> dict:
    """Exploratory report: for random non-free modules, the least tensor
    power with nonzero torsion, or none up to the cap.  Asserts nothing."""
    primes = ring.effective_minimal_primes()
    if not ring.reduced or len(primes) != 1:
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
                "module": module.minimal().module.descriptor(),
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
