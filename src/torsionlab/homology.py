"""Minimal graded free resolutions, Tor, Koszul complexes, and depth.

Resolutions are built by iterated syzygies over the quotient ring, with a
greedy homogeneous minimal generating set at each step, so differentials
automatically have entries in the irrelevant maximal ideal.  Depth comes
from the first vanishing Koszul homology H_1, H_2, ...: Koszul homology is
rigid, so every later one vanishes too, and the depth is read off without
computing them.  Projective dimension is decided against the depth of the
ring, which bounds any finite projective dimension in the graded setting.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence, Tuple

from .errors import InputError
from .modules import (
    FPModule,
    _minimal_homogeneous_subset,
    block_ambient,
    induced_columns,
    present_submodule,
    tensor,
)
from .poly import FreeElement, Polynomial, lifted_ideal
from .rings import RingContext

PD_INFINITE = float("inf")


class FreeResolution:
    """A bounded minimal graded complex of free modules over R.  The one a
    module keeps grows in place as longer resolutions are asked for."""

    __slots__ = ("module", "differentials", "step_degrees", "complete")

    def __init__(
        self,
        module: FPModule,
        differentials: Tuple[Tuple[FreeElement, ...], ...],
        step_degrees: Tuple[Tuple[int, ...], ...],
        complete: bool,
    ):
        self.module = module
        self.differentials = differentials
        self.step_degrees = step_degrees
        self.complete = complete

    @property
    def betti(self) -> Tuple[int, ...]:
        return tuple(len(degs) for degs in self.step_degrees)

    @property
    def length(self) -> int:
        return len(self.differentials)

    def betti_table(self) -> str:
        """Fixed textual grid: homological index, total Betti number, and
        the generator degrees of each step."""
        lines = ["i  betti  degrees"]
        for i, degs in enumerate(self.step_degrees):
            shown = ",".join(str(d) for d in sorted(degs))
            lines.append(f"{i}  {len(degs)}  [{shown}]")
        if not self.complete:
            lines.append("(truncated)")
        return "\n".join(lines)


def _extend_resolution(module: FPModule, steps: int) -> FreeResolution:
    """The resolution kept on ``module``, extended until it has ``steps``
    differentials or ends.  Its first differential is the relation matrix
    of ``module.minimal()``; each later one is a minimal generating set of
    the syzygies of the one before."""
    ring = module.ring
    res = module._resolution
    if res is None:
        base = module.minimal()
        res = FreeResolution(module, (), (base.gen_degrees,), not base.relations)
        if base.relations:
            res.differentials = (base.relations,)
            res.step_degrees += (base.relation_degrees(),)
        module._resolution = res
    while not res.complete and res.length < steps:
        last = res.differentials[-1]
        syz = ring.syzygies(list(last), last[0].rank)
        gens, degrees = _minimal_homogeneous_subset(
            ring, syz, len(last), res.step_degrees[-1]
        )
        if gens:
            res.differentials += (tuple(gens),)
            res.step_degrees += (degrees,)
        else:
            res.complete = True
    return res


def free_resolution(module: FPModule, bound: int) -> FreeResolution:
    """Minimal graded free resolution out to homological degree <= bound."""
    if bound < 0:
        raise InputError("resolution bound must be nonnegative")
    res = _extend_resolution(module, bound)
    take = min(bound, res.length)
    return FreeResolution(
        module=module,
        differentials=res.differentials[:take],
        step_degrees=res.step_degrees[: take + 1],
        complete=res.complete and take == res.length,
    )


def pd(module: FPModule):
    """Projective dimension, or float('inf').

    A graded module of finite projective dimension resolves within
    depth(R) steps, so a nonzero Betti number past that bound certifies
    infinite projective dimension.
    """
    depth_ring = module.ring.depth()
    res = free_resolution(module, depth_ring + 1)
    if res.complete:
        return res.length
    return PD_INFINITE


# ---------------------------------------------------------------------------
# complexes of the form F (x) N


def complex_homology(
    diffs: Sequence[Sequence[FreeElement]],
    step_degrees: Sequence[Sequence[int]],
    n_module: FPModule,
    i: int,
) -> FPModule:
    """H_i(F (x) N), minimized, for a bounded complex F of free modules.

    F_j has one generator per entry of ``step_degrees[j]``, of that degree,
    and ``diffs[j - 1]`` holds the columns of d_j : F_j -> F_{j-1}.  The
    cycles are the relations among the columns of d_i (x) N modulo the
    relations of F_{i-1} (x) N; the boundaries are the columns of
    d_{i+1} (x) N.
    """
    ring = n_module.ring
    if i >= len(step_degrees):
        return FPModule.zero_module(ring)
    rank, degrees, relations = block_ambient(n_module, step_degrees[i])
    if rank == 0:
        return FPModule.zero_module(ring)
    if i == 0:
        cycles = [
            FreeElement.unit(ring.field, ring.nvars, rank, r) for r in range(rank)
        ]
    else:
        target_rank, _, target_relations = block_ambient(
            n_module, step_degrees[i - 1]
        )
        outgoing = induced_columns(diffs[i - 1], n_module)
        cycles = ring.syzygies(outgoing, target_rank, target_relations)
    boundaries = induced_columns(diffs[i], n_module) if i < len(diffs) else []
    module, _ = present_submodule(ring, rank, degrees, cycles, boundaries + relations)
    return module.minimal()


def tor(m_module: FPModule, n_module: FPModule, i: int) -> FPModule:
    """Tor_i(M, N) as homology of (minimal resolution of M) tensored with N."""
    if i < 0:
        raise InputError("Tor index must be nonnegative")
    if m_module.ring != n_module.ring:
        raise InputError("Tor needs modules over one ring")
    if i == 0:
        return tensor(m_module.minimal(), n_module).minimal()
    res = free_resolution(m_module, i + 1)
    return complex_homology(res.differentials, res.step_degrees, n_module, i)


# ---------------------------------------------------------------------------
# Koszul complexes


def koszul_differentials(
    ring: RingContext, sequence: Sequence[Polynomial]
) -> List[List[FreeElement]]:
    """Columns of d_i : K_i -> K_{i-1} for i = 1..d on the exterior basis.

    Basis vectors of K_i are the sorted i-subsets of the sequence indices;
    d(e_S) = sum over s in S of alternating signs times the element."""
    d = len(sequence)
    diffs: List[List[FreeElement]] = []
    for i in range(1, d + 1):
        source = list(combinations(range(d), i))
        target = list(combinations(range(d), i - 1))
        index = {S: k for k, S in enumerate(target)}
        cols = []
        for S in source:
            vec = FreeElement.zero(ring.field, ring.nvars, len(target))
            for t, s in enumerate(S):
                rest = tuple(x for x in S if x != s)
                unit = FreeElement.unit(
                    ring.field, ring.nvars, len(target), index[rest]
                )
                piece = unit.scaled(sequence[s])
                vec = vec + piece if t % 2 == 0 else vec - piece
            cols.append(vec)
        diffs.append(cols)
    return diffs


def koszul_depth(sequence: Sequence[Polynomial], module: FPModule) -> int:
    """Depth of the ideal J of the sequence x = x_1..x_d on M: d - i + 1 for
    the first i >= 1 with H_i(x; M) = 0, or 0 when there is none.

    Requires J M != M, which is checked through the minimal generator count
    of M/JM = H_0(x; M).  Depth sensitivity gives depth = d - max{ i :
    H_i(x; M) != 0 }, and the first zero is enough because Koszul homology
    is rigid: H_i(x; M) = 0 forces H_j(x; M) = 0 for every j > i.  By
    induction on d, with x' = x_1..x_{d-1}; for d = 1 there is no H_j with
    j > 1.  The exact sequence of complexes 0 -> K(x') -> K(x) -> K(x')[-1]
    -> 0 gives the exact sequence

        H_i(x'; M) --(+-x_d)--> H_i(x'; M) -> H_i(x; M) -> H_{i-1}(x'; M),

    so H_i(x; M) = 0 makes x_d act surjectively on the finitely generated
    graded module H_i(x'; M), and graded Nakayama (x_d is homogeneous of
    positive degree, or zero) gives H_i(x'; M) = 0.  By induction H_j(x'; M)
    = 0 for every j >= i, and H_j(x'; M) -> H_j(x; M) -> H_{j-1}(x'; M) is
    exact, so H_j(x; M) = 0 for j > i (Bruns-Herzog, Cohen-Macaulay Rings,
    Section 1.6).
    """
    ring = module.ring
    if not sequence:
        raise InputError("depth needs a nonempty sequence")
    seq = []
    for f in sequence:
        nf = ring.normal_form_poly(f)
        if not nf.is_homogeneous(ring.grading):
            raise InputError("depth sequence must be homogeneous")
        seq.append(nf)
    d = len(seq)
    quotient_rels = [*module.relations, *lifted_ideal(seq, module.ngens)]
    m_mod_jm = FPModule(ring, quotient_rels, module.ngens, module.gen_degrees)
    if m_mod_jm.nu() == 0:
        raise InputError("the sequence generates the unit ideal on M: JM = M")

    diffs = koszul_differentials(ring, seq)
    seq_degrees = [f.degree(ring.grading) for f in seq]
    step_degrees = [
        [sum(seq_degrees[s] for s in S) for S in combinations(range(d), i)]
        for i in range(d + 1)
    ]
    for i in range(1, d + 1):
        if complex_homology(diffs, step_degrees, module, i).is_zero():
            return d - i + 1
    return 0


def ring_depth(ring: RingContext) -> int:
    """Depth of R along the irrelevant maximal ideal."""
    variables = [ring.variable(i) for i in range(ring.nvars)]
    module = FPModule.free(ring, 1)
    return koszul_depth(variables, module)
