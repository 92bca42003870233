"""Finitely presented graded R-modules and their calculus.

A module is the cokernel of a homogeneous matrix over the ring context,
stored column-wise: ``M = coker(A : R^a -> R^m)`` with one ``FreeElement``
of rank m per relation.  Elements are residue classes of vectors in the
free cover; equality is decided by normal form against the Groebner basis
of the column space plus the lifted defining ideal.

Abstract module equality is never tested; verifiers compare isomorphism
invariants (minimal generator count, annihilators, Betti data, Hilbert
values) instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DegenerateError, DimensionError, InputError, UnsupportedError
from .groebner import GroebnerBasis
from .poly import FreeElement, Polynomial
from .rings import Ideal, RingContext
from .syntax import format_vector


def infer_generator_degrees(
    ring: RingContext, rows: Sequence[Sequence[Polynomial]]
) -> Tuple[int, ...]:
    """Assign generator degrees making every relation column homogeneous.

    Walks the bipartite incidence graph of generators and relations; free
    choices are pinned to zero.  Fails if the constraints are inconsistent,
    in which case explicit degrees are required.
    """
    m = len(rows)
    a = len(rows[0]) if m else 0
    gen_deg: List[Optional[int]] = [None] * m
    rel_deg: List[Optional[int]] = [None] * a
    weights = ring.grading

    entry_degree: Dict[Tuple[int, int], int] = {}
    for i in range(m):
        for j in range(a):
            e = rows[i][j]
            if e.is_zero():
                continue
            d = e.homogeneous_degree(weights)
            if d is None:
                raise InputError("matrix entries must be homogeneous")
            entry_degree[(i, j)] = d

    for start in range(m):
        if gen_deg[start] is not None:
            continue
        gen_deg[start] = 0
        stack = [("g", start)]
        while stack:
            kind, idx = stack.pop()
            if kind == "g":
                for j in range(a):
                    if (idx, j) in entry_degree:
                        want = gen_deg[idx] + entry_degree[(idx, j)]
                        if rel_deg[j] is None:
                            rel_deg[j] = want
                            stack.append(("r", j))
                        elif rel_deg[j] != want:
                            raise InputError(
                                "cannot infer consistent generator degrees; "
                                "supply them explicitly"
                            )
            else:
                for i in range(m):
                    if (i, idx) in entry_degree:
                        want = rel_deg[idx] - entry_degree[(i, idx)]
                        if gen_deg[i] is None:
                            gen_deg[i] = want
                            stack.append(("g", i))
                        elif gen_deg[i] != want:
                            raise InputError(
                                "cannot infer consistent generator degrees; "
                                "supply them explicitly"
                            )
    shift = min(gen_deg) if gen_deg else 0
    return tuple(d - shift for d in gen_deg)


@dataclass
class MinimalPresentation:
    module: "FPModule"
    nu: int
    is_free: bool


class FPModule:
    """A finitely presented graded module over a ring context."""

    def __init__(
        self,
        ring: RingContext,
        relations: Sequence[FreeElement],
        ngens: int,
        gen_degrees: Optional[Sequence[int]] = None,
    ):
        self.ring = ring
        self.ngens = ngens
        if gen_degrees is None:
            gen_degrees = (0,) * ngens
        if len(gen_degrees) != ngens:
            raise DimensionError("one degree per generator required")
        self.gen_degrees: Tuple[int, ...] = tuple(gen_degrees)
        cleaned: List[FreeElement] = []
        for col in relations:
            if col.rank != ngens or col.nvars != ring.nvars or col.field != ring.field:
                raise DimensionError("relation column does not match the module")
            comps = [ring.normal_form_poly(c) for c in col.components()] if ngens else []
            vec = (
                FreeElement.from_components(comps, rank=ngens)
                if ngens
                else FreeElement.zero(ring.field, ring.nvars, 0)
            )
            if vec.is_zero():
                continue
            if not vec.is_homogeneous(ring.grading, self.gen_degrees):
                raise InputError(
                    "relation columns must be homogeneous for the generator degrees"
                )
            cleaned.append(vec)
        self.relations: Tuple[FreeElement, ...] = tuple(cleaned)
        self._cover_basis: Optional[GroebnerBasis] = None
        self._minimal: Optional[MinimalPresentation] = None
        self._dual: Optional[Tuple[Tuple[FreeElement, ...], Tuple[int, ...]]] = None
        self._tensor_powers: Dict[int, "FPModule"] = {}
        self._resolution = None  # filled by homology.free_resolution

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        ring: RingContext,
        rows: Sequence[Sequence[Polynomial]],
        gen_degrees: Optional[Sequence[int]] = None,
    ) -> "FPModule":
        m = len(rows)
        if m == 0:
            return cls(ring, [], 0, ())
        a = len(rows[0])
        for row in rows:
            if len(row) != a:
                raise DimensionError("ragged presentation matrix")
        if gen_degrees is None:
            gen_degrees = infer_generator_degrees(ring, rows)
        cols = []
        for j in range(a):
            comps = [rows[i][j] for i in range(m)]
            cols.append(FreeElement.from_components(comps, rank=m))
        return cls(ring, cols, m, gen_degrees)

    @classmethod
    def free(
        cls, ring: RingContext, rank: int, gen_degrees: Optional[Sequence[int]] = None
    ) -> "FPModule":
        return cls(ring, [], rank, gen_degrees)

    @classmethod
    def zero_module(cls, ring: RingContext) -> "FPModule":
        return cls(ring, [], 0, ())

    @classmethod
    def cyclic(cls, ring: RingContext, ideal_gens: Sequence[Polynomial]) -> "FPModule":
        """R modulo the given homogeneous ideal generators."""
        rows = [list(ideal_gens)] if ideal_gens else [[]]
        return cls.from_rows(ring, rows, (0,))

    # -- elements ----------------------------------------------------------

    def cover_basis(self) -> GroebnerBasis:
        if self._cover_basis is None:
            self._cover_basis = self.ring.submodule_basis(self.relations, self.ngens)
        return self._cover_basis

    def element(self, coords) -> "ModuleElement":
        if isinstance(coords, str):
            coords = self.ring.vector(coords)
        if isinstance(coords, (list, tuple)):
            coords = FreeElement.from_components(list(coords), rank=self.ngens)
        if coords.rank != self.ngens:
            raise DimensionError("coordinate vector does not match the module rank")
        return ModuleElement(self, coords)

    def generator(self, i: int) -> "ModuleElement":
        if not 0 <= i < self.ngens:
            raise DimensionError(f"generator index {i} out of range")
        return ModuleElement(
            self, FreeElement.unit(self.ring.field, self.ring.nvars, self.ngens, i)
        )

    def element_normal_form(self, coords: FreeElement) -> FreeElement:
        return self.cover_basis().normal_form(coords)

    def element_is_zero(self, coords: FreeElement) -> bool:
        return self.element_normal_form(coords).is_zero()

    def relation_degrees(self) -> Tuple[int, ...]:
        return tuple(
            col.homogeneous_degree(self.ring.grading, self.gen_degrees)
            for col in self.relations
        )

    # -- minimal presentation ---------------------------------------------

    def minimal(self) -> MinimalPresentation:
        if self._minimal is None:
            self._minimal = _minimalize(self)
        return self._minimal

    def nu(self) -> int:
        return self.minimal().nu

    def is_free(self) -> bool:
        return self.minimal().is_free

    def is_zero(self) -> bool:
        return self.nu() == 0

    # -- tensor powers -------------------------------------------------

    def tensor_power(self, t: int) -> "FPModule":
        if t < 0:
            raise InputError("tensor powers need a nonnegative exponent")
        if t not in self._tensor_powers:
            if t == 0:
                power = FPModule.free(self.ring, 1)
            elif t == 1:
                power = self
            else:
                power = tensor(self.tensor_power(t - 1), self)
            self._tensor_powers[t] = power
        return self._tensor_powers[t]

    # -- invariants ---------------------------------------------------------

    def hilbert_function(self, degree: int) -> int:
        """Dimension over k of the homogeneous piece of the given degree."""
        leads_by_pos: Dict[int, List] = {}
        for pos, mono in self.cover_basis().lead_terms():
            leads_by_pos.setdefault(pos, []).append(mono)
        total = 0
        for i in range(self.ngens):
            want = degree - self.gen_degrees[i]
            if want < 0:
                continue
            for mono in _monomials_of_weighted_degree(
                self.ring.nvars, self.ring.grading, want
            ):
                if not any(
                    all(a <= b for a, b in zip(lead, mono))
                    for lead in leads_by_pos.get(i, ())
                ):
                    total += 1
        return total

    def descriptor(self) -> str:
        return (
            f"coker({self.ngens}x{len(self.relations)}) over {self.ring.descriptor()}"
        )

    def __repr__(self) -> str:
        return f"FPModule({self.descriptor()})"


def _monomials_of_weighted_degree(nvars: int, weights, degree: int):
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    w = weights[0]
    for e in range(degree // w + 1):
        for rest in _monomials_of_weighted_degree(nvars - 1, weights[1:], degree - e * w):
            yield (e,) + rest


class ModuleElement:
    """A residue class in an FPModule, held as free-cover coordinates."""

    def __init__(self, module: FPModule, coords: FreeElement):
        self.module = module
        self.coords = coords

    def is_zero(self) -> bool:
        return self.module.element_is_zero(self.coords)

    def normal_form(self) -> FreeElement:
        return self.module.element_normal_form(self.coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModuleElement):
            return NotImplemented
        if other.module is not self.module:
            raise DimensionError("elements of different modules are not comparable")
        return self.module.element_is_zero(self.coords - other.coords)

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        return ModuleElement(self.module, self.coords + other.coords)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return ModuleElement(self.module, self.coords - other.coords)

    def scaled(self, poly) -> "ModuleElement":
        return ModuleElement(self.module, self.coords.scaled(poly))

    def degree(self) -> Optional[int]:
        return self.coords.homogeneous_degree(
            self.module.ring.grading, self.module.gen_degrees
        )

    def __repr__(self) -> str:
        return f"ModuleElement({format_vector(self.coords, self.module.ring.variables)})"


class ModuleMap:
    """A map of FP modules given on generators; well-definedness is checked."""

    def __init__(
        self,
        source: FPModule,
        target: FPModule,
        columns: Sequence[FreeElement],
        check: bool = True,
    ):
        if source.ring != target.ring:
            raise DimensionError("source and target live over different rings")
        if len(columns) != source.ngens:
            raise DimensionError("one image column per source generator required")
        for col in columns:
            if col.rank != target.ngens:
                raise DimensionError("image columns must live in the target cover")
        self.source = source
        self.target = target
        self.columns: Tuple[FreeElement, ...] = tuple(columns)
        if check:
            basis = target.cover_basis()
            for rel in source.relations:
                image = self.push_coords(rel)
                if not basis.normal_form(image).is_zero():
                    raise InputError(
                        "map is not well defined: a source relation has "
                        "nonzero image in the target"
                    )

    def push_coords(self, coords: FreeElement) -> FreeElement:
        ring = self.source.ring
        out = FreeElement.zero(ring.field, ring.nvars, self.target.ngens)
        for column, comp in zip(self.columns, coords.components()):
            if not comp.is_zero():
                out = out + column.scaled(comp)
        return out


# ---------------------------------------------------------------------------
# minimal presentations


def _minimalize(module: FPModule) -> MinimalPresentation:
    ring = module.ring
    degrees = list(module.gen_degrees)
    cols: List[List[Polynomial]] = [list(c.components()) for c in module.relations]

    # eliminate unit entries (degree-zero constants) by Gaussian moves
    while True:
        pivot = None
        rank_now = len(degrees)
        for j, col in enumerate(cols):
            for i in range(rank_now):
                e = col[i]
                if not e.is_zero() and e.is_constant():
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        u = cols[j][i].constant_value()
        inv_u = ring.field.inv(u)
        pivot_col = cols[j]
        for jj, col in enumerate(cols):
            if jj == j:
                continue
            factor = col[i]
            if factor.is_zero():
                continue
            scale = factor * inv_u
            for r in range(rank_now):
                col[r] = ring.normal_form_poly(col[r] - scale * pivot_col[r])
        keep = [r for r in range(rank_now) if r != i]
        cols = [
            [col[r] for r in keep] for jj, col in enumerate(cols) if jj != j
        ]
        degrees = [degrees[r] for r in keep]

    rank_now = len(degrees)
    live_cols = [
        FreeElement.from_components(col, rank=rank_now)
        for col in cols
        if any(not e.is_zero() for e in col)
    ]
    picked = _minimal_homogeneous_subset(ring, live_cols, rank_now, degrees)
    minimal_module = FPModule(ring, picked, rank_now, degrees)
    return MinimalPresentation(module=minimal_module, nu=rank_now, is_free=not picked)


def minimal_presentation(module: FPModule) -> Tuple[FPModule, int, bool]:
    """Isomorphic module whose relation matrix has all entries in m."""
    data = module.minimal()
    return data.module, data.nu, data.is_free


# ---------------------------------------------------------------------------
# tensor products


def block_ambient(
    n_module: FPModule, shifts: Sequence[int]
) -> Tuple[int, Tuple[int, ...], List[FreeElement]]:
    """Rank, position degrees, and relations of F (x) N for a free module F
    whose generators carry the given degree shifts (one block per shift)."""
    n = n_module.ngens
    copies = len(shifts)
    rank = n * copies
    degrees = tuple(s + d for s in shifts for d in n_module.gen_degrees)
    relations = []
    for b in range(copies):
        for col in n_module.relations:
            relations.append(col.embedded(rank, offset=b * n))
    return rank, degrees, relations


def induced_columns(
    diff_cols: Sequence[FreeElement], n_module: FPModule
) -> List[FreeElement]:
    """Columns of d (x) N on free covers: block (c, t) -> sum_r d[r][c] e_{(r,t)}."""
    ring = n_module.ring
    n = n_module.ngens
    out = []
    for col in diff_cols:
        target_rank = col.rank * n
        for t in range(n):
            terms = {}
            for (r, mono), coeff in col.terms.items():
                terms[(r * n + t, mono)] = coeff
            out.append(
                FreeElement(ring.field, ring.nvars, target_rank, terms, _normalized=True)
            )
    return out


def tensor(left: FPModule, right: FPModule) -> FPModule:
    """Presentation of M (x) N on generators e_i (x) f_j.

    The cover is F (x) N for the free cover F of M, so generator (i, j) has
    flat index i * ngens(N) + j.  Relation columns are the usual two blocks:
    the relations of M induced over N, then the relations of N once per
    generator of M.
    """
    if left.ring != right.ring:
        raise DimensionError("tensor factors live over different rings")
    rank, degrees, relations = block_ambient(right, left.gen_degrees)
    cols = induced_columns(left.relations, right) + relations
    return FPModule(left.ring, cols, rank, degrees)


def tensor_power(module: FPModule, t: int) -> FPModule:
    return module.tensor_power(t)


def tensor_coords(
    left: FPModule, right: FPModule, u: FreeElement, v: FreeElement
) -> FreeElement:
    """Coordinates of the pure tensor u (x) v in the cover of tensor(left, right)."""
    ring = left.ring
    n = right.ngens
    rank = left.ngens * n
    field = ring.field
    terms: Dict[Tuple[int, tuple], object] = {}
    for (pi, mi), ci in u.terms.items():
        for (pj, mj), cj in v.terms.items():
            pos = pi * n + pj
            mono = tuple(a + b for a, b in zip(mi, mj))
            t = (pos, mono)
            val = field.add(terms.get(t, field.zero), field.mul(ci, cj))
            if val:
                terms[t] = val
            elif t in terms:
                del terms[t]
    return FreeElement(field, ring.nvars, rank, terms, _normalized=True)


# ---------------------------------------------------------------------------
# kernels and subquotients


def _minimal_homogeneous_subset(
    ring: RingContext,
    vectors: Sequence[FreeElement],
    rank: int,
    position_degrees: Sequence[int],
    modulo: Sequence[FreeElement] = (),
) -> List[FreeElement]:
    """Greedy minimal generating subset of <vectors> + <modulo>, over <modulo>,
    trying vectors by degree, then by their text."""

    def sort_key(vec: FreeElement):
        deg = vec.homogeneous_degree(ring.grading, position_degrees)
        if deg is None:
            deg = vec.degree(ring.grading, position_degrees)
        return (deg, format_vector(vec, ring.variables))

    return ring.minimal_subset(vectors, rank, sort_key, modulo)


def relations_among(
    ring: RingContext,
    gens: Sequence[FreeElement],
    modulo: Sequence[FreeElement],
    rank: int,
) -> List[FreeElement]:
    """Nonzero relations among ``gens`` modulo <modulo>: the ``gens`` part
    of each syzygy of gens + modulo in R^rank."""
    syz = ring.syzygies(list(gens) + list(modulo), rank)
    heads = (vec.restricted(range(len(gens))) for vec in syz)
    return [head for head in heads if not head.is_zero()]


def kernel_of_map(phi: ModuleMap) -> Tuple[FPModule, ModuleMap]:
    """The kernel of a module map, with its inclusion into the source.

    Generators come from the syzygies of the matrix [Phi | target relations];
    their source parts sweep out every class mapping into the image of the
    target relations.
    """
    source, target = phi.source, phi.target
    ring = source.ring
    m = source.ngens
    heads = relations_among(ring, phi.columns, target.relations, target.ngens)
    candidates = [
        head
        for head in map(source.element_normal_form, heads)
        if not head.is_zero()
    ]
    gens = _minimal_homogeneous_subset(
        ring, candidates, m, source.gen_degrees, modulo=source.relations
    )
    target_basis = target.cover_basis()
    for g in gens:
        if not target_basis.normal_form(phi.push_coords(g)).is_zero():
            raise InputError("kernel generator does not map to zero")
    gen_degrees = tuple(
        g.homogeneous_degree(ring.grading, source.gen_degrees) for g in gens
    )
    if any(d is None for d in gen_degrees):
        raise InputError("kernel generators came out inhomogeneous")
    if not gens:
        kernel = FPModule.zero_module(ring)
        inclusion = ModuleMap(kernel, source, (), check=False)
        return kernel, inclusion
    rel_cols = relations_among(ring, gens, source.relations, m)
    kernel = FPModule(ring, rel_cols, len(gens), gen_degrees)
    inclusion = ModuleMap(kernel, source, gens, check=True)
    return kernel, inclusion


def present_subquotient(
    ring: RingContext,
    rank: int,
    position_degrees: Sequence[int],
    numerators: Sequence[FreeElement],
    denominators: Sequence[FreeElement],
    ambient_relations: Sequence[FreeElement],
) -> Tuple[FPModule, List[FreeElement]]:
    """Present (<num> + rel) / (<den> + rel) inside R^rank / rel.

    Returns the module together with the numerator vectors chosen as its
    generators.  Callers guarantee den + rel contains nothing outside
    <num> + rel that they care about (homology use: den is the image,
    num the kernel, den a subset of <num> + rel).
    """
    modulo = list(denominators) + list(ambient_relations)
    gens = _minimal_homogeneous_subset(
        ring, numerators, rank, position_degrees, modulo=modulo
    )
    if not gens:
        return FPModule.zero_module(ring), []
    rel_cols = relations_among(ring, gens, modulo, rank)
    gen_degrees = tuple(
        g.homogeneous_degree(ring.grading, position_degrees) for g in gens
    )
    module = FPModule(ring, rel_cols, len(gens), gen_degrees)
    return module, gens


# ---------------------------------------------------------------------------
# duals, annihilators, presentation ideals, rank


def dual_generators(module: FPModule) -> Tuple[List[FreeElement], List[int]]:
    """Rows of a minimal homogeneous generating set of M* = Hom(M, R).

    Each row phi lives in R^ngens and satisfies phi . A = 0; the evaluation
    m -> (phi_1(m), ..) is then a well-defined map M -> R^{nu*}.  Returns
    the rows and their degrees as functionals.
    """
    if module._dual is not None:
        rows, degs = module._dual
        return list(rows), list(degs)
    ring = module.ring
    m = module.ngens
    a = len(module.relations)
    if m == 0:
        module._dual = ((), ())
        return [], []
    if a == 0:
        rows = [FreeElement.unit(ring.field, ring.nvars, m, i) for i in range(m)]
        degs = [-d for d in module.gen_degrees]
        module._dual = (tuple(rows), tuple(degs))
        return rows, degs
    syz = ring.syzygies(transpose(module.relations, m), a)
    dual_pos_degrees = tuple(-d for d in module.gen_degrees)
    rows = _minimal_homogeneous_subset(ring, syz, m, dual_pos_degrees)
    degs = [r.homogeneous_degree(ring.grading, dual_pos_degrees) for r in rows]
    module._dual = (tuple(rows), tuple(degs))
    return rows, degs


def dual_evaluation(module: FPModule) -> Tuple[List[FreeElement], Tuple[int, ...]]:
    """The evaluation M -> R^{nu*} through the dual generators: one image
    column per generator of M (the transpose of the dual rows), and the
    degrees of the generators of R^{nu*}."""
    rows, row_degrees = dual_generators(module)
    if not rows:
        ring = module.ring
        zero = FreeElement.zero(ring.field, ring.nvars, 0)
        return [zero] * module.ngens, ()
    return transpose(rows, module.ngens), tuple(-d for d in row_degrees)


def transpose(vectors: Sequence[FreeElement], rank: int) -> List[FreeElement]:
    """The columns of the transpose of the matrix with the given nonempty
    list of columns in R^rank: one column of length len(vectors) per
    position."""
    entries = [vec.components() for vec in vectors]
    return [
        FreeElement.from_components([row[i] for row in entries], rank=len(vectors))
        for i in range(rank)
    ]


def annihilator(module: FPModule, element: Optional[ModuleElement] = None) -> Ideal:
    """ann(v) as the kernel of R -> M, 1 -> v; ann(M) via all generators."""
    ring = module.ring
    if element is not None:
        if element.module is not module:
            raise InputError("element does not belong to the module")
        vec = element.normal_form()
        if vec.is_zero():
            return Ideal(ring, [ring.one()])
        modulo, rank = module.relations, module.ngens
    else:
        mm = module.minimal().module
        k = mm.ngens
        if k == 0:
            return Ideal(ring, [ring.one()])
        rank = k * k
        stacked_terms = {}
        for i in range(k):
            stacked_terms[(i * k + i, (0,) * ring.nvars)] = ring.field.one
        vec = FreeElement(ring.field, ring.nvars, rank, stacked_terms, _normalized=True)
        modulo = [
            col.embedded(rank, offset=i * k) for i in range(k) for col in mm.relations
        ]
    gens = [h.component(0) for h in relations_among(ring, [vec], modulo, rank)]
    return Ideal(ring, Ideal(ring, gens).minimal_generators())


def presentation_ideal(module: FPModule) -> Tuple[Ideal, bool]:
    """The ideal of entries of a minimal relation matrix, and whether it
    contains a non-zerodivisor (tested against the declared minimal primes)."""
    data = module.minimal()
    if data.is_free:
        raise DegenerateError(
            "the presentation ideal is only defined for non-free modules"
        )
    entries = []
    for col in data.module.relations:
        for comp in col.components():
            if not comp.is_zero():
                entries.append(comp)
    ideal = Ideal(module.ring, Ideal(module.ring, entries).minimal_generators())
    return ideal, ideal.contains_nonzerodivisor()


@dataclass
class RankInfo:
    per_prime: Tuple[int, ...]
    has_rank: bool
    value: Optional[int]


def rank_info(module: FPModule) -> RankInfo:
    """Generic ranks over each declared minimal prime p: ngens minus the
    rank of the minimal relation matrix over Frac(R/p), from
    ``RingContext.rank_at_prime``.  Needs a reduced ring with declared
    minimal primes (a polynomial ring counts with its zero ideal).
    """
    ring = module.ring
    if not ring.reduced:
        raise UnsupportedError("rank needs a declared-reduced ring")
    primes = ring.effective_minimal_primes()
    mm = module.minimal().module
    k = mm.ngens
    ranks = [
        k - ring.rank_at_prime(mm.relations, k, pi) for pi in range(len(primes))
    ]
    has_rank = len(set(ranks)) == 1
    return RankInfo(tuple(ranks), has_rank, ranks[0] if has_rank else None)


# ---------------------------------------------------------------------------
# isomorphism-relevant comparison


def modules_equivalent(
    left: FPModule, right: FPModule, hilbert_window: int = 10
) -> bool:
    """Invariant-level comparison: nu, graded generator and relation data,
    annihilators, and Hilbert values on an initial window."""
    lm = left.minimal().module
    rm = right.minimal().module
    if lm.ngens != rm.ngens:
        return False
    if sorted(lm.gen_degrees) != sorted(rm.gen_degrees):
        return False
    if sorted(lm.relation_degrees()) != sorted(rm.relation_degrees()):
        return False
    if annihilator(left) != annihilator(right):
        return False
    for j in range(hilbert_window + 1):
        if lm.hilbert_function(j) != rm.hilbert_function(j):
            return False
    return True
