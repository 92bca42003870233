"""Finitely presented graded R-modules and their calculus.

A module is the cokernel of a homogeneous matrix over the ring context,
stored column-wise: ``M = coker(A : R^a -> R^m)`` with one ``FreeElement``
of rank m per relation.  Elements are residue classes of vectors in the
free cover; equality is decided by normal form against a Groebner basis
of the column space plus the lifted defining ideal, completed only up to
the degree of the element tested.

Abstract module equality is never tested; verifiers compare isomorphism
invariants (minimal generator count, annihilators, Betti data, Hilbert
values) instead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    DegenerateError,
    DimensionError,
    InputError,
    ResourceLimitError,
    UnsupportedError,
)
from .groebner import Completion
from .limits import GENERATOR_CAP, current, degree_cap_error
from .poly import FreeElement, Polynomial, _accumulate, mono_mul
from .rings import Ideal, RingContext
from .syntax import format_vector


def infer_generator_degrees(
    ring: RingContext, rows: Sequence[Sequence[Polynomial]]
) -> Tuple[int, ...]:
    """Assign generator degrees making every relation column homogeneous.

    Walks the incidence graph on the m generators and the relations: an
    entry of degree d in row i and column j is the edge g_i -> r_j of
    weight +d and r_j -> g_i of weight -d.  The first generator of each
    component is pinned to zero, which fixes the rest of it.  Fails if the
    constraints are inconsistent, in which case explicit degrees are
    required.
    """
    m = len(rows)
    a = len(rows[0]) if m else 0
    edges: List[List[Tuple[int, int]]] = [[] for _ in range(m + a)]
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if e.is_zero():
                continue
            d = e.homogeneous_degree(ring.grading)
            if d is None:
                raise InputError("matrix entries must be homogeneous")
            edges[i].append((m + j, d))
            edges[m + j].append((i, -d))
    degree: List[Optional[int]] = [None] * len(edges)
    for start in range(m):
        if degree[start] is not None:
            continue
        degree[start] = 0
        stack = [start]
        while stack:
            node = stack.pop()
            for other, d in edges[node]:
                want = degree[node] + d
                if degree[other] is None:
                    degree[other] = want
                    stack.append(other)
                elif degree[other] != want:
                    raise InputError(
                        "cannot infer consistent generator degrees; "
                        "supply them explicitly"
                    )
    gen_deg = degree[:m]
    shift = min(gen_deg) if gen_deg else 0
    return tuple(d - shift for d in gen_deg)


class FPModule:
    """A finitely presented graded module over a ring context.

    Membership in the span N of the relations plus I*R^ngens has one path:
    one resumable ``Completion`` of those generators, with the generator
    degrees as position degrees, grows as element tests need it.  An
    element of degree at most D is reduced after ``complete(up_to=D)``, and
    ``hilbert_function(d)`` counts the standard monomials of degree d after
    ``complete(up_to=d)``.  Each generator is added with its degree (a
    relation's is recorded here, where its homogeneity is checked), so
    ``complete(up_to=D)`` takes in only the relations and ideal vectors of
    degree <= D; the rest wait for a test of higher degree.  Relations and
    ideal are homogeneous, so the truncated state is a Groebner basis of N
    in degrees <= D and the remainder is the unique normal form, the one a
    reduced basis of N gives.  The completion is not cached; when one of
    its steps raises, the module drops it and the next test starts over.
    """

    def __init__(
        self,
        ring: RingContext,
        relations: Sequence[FreeElement],
        ngens: int,
        gen_degrees: Optional[Sequence[int]] = None,
        *,
        relation_degrees: Optional[Sequence[int]] = None,
    ):
        """``relation_degrees``, when given, vouches that ``relations`` are
        nonzero, in normal form mod I, and homogeneous of those degrees, so
        they are taken as they are; ``tensor`` passes them for its columns,
        which are re-indexed relations of its factors.  Every other caller
        leaves it out, and each relation is reduced and its degree checked."""
        self.ring = ring
        self.ngens = ngens
        if gen_degrees is None:
            gen_degrees = (0,) * ngens
        if len(gen_degrees) != ngens:
            raise DimensionError("one degree per generator required")
        self.gen_degrees: Tuple[int, ...] = tuple(gen_degrees)
        if relation_degrees is None:
            cleaned: List[FreeElement] = []
            degrees: List[int] = []
            for col in relations:
                if (
                    col.rank != ngens
                    or col.nvars != ring.nvars
                    or col.field != ring.field
                ):
                    raise DimensionError("relation column does not match the module")
                vec = ring.normal_form_vector(col)
                if vec.is_zero():
                    continue
                degree = vec.homogeneous_degree(ring.grading, self.gen_degrees)
                if degree is None:
                    raise InputError(
                        "relation columns must be homogeneous for the generator degrees"
                    )
                cleaned.append(vec)
                degrees.append(degree)
            relations, relation_degrees = cleaned, degrees
        self.relations: Tuple[FreeElement, ...] = tuple(relations)
        self._relation_degrees: Tuple[int, ...] = tuple(relation_degrees)
        self._membership: Optional[Completion] = None
        self._minimal: Optional["FPModule"] = None
        self._dual_syzygies: Optional[Tuple[Tuple[FreeElement, ...], Tuple[int, ...]]] = None
        self._dual: Optional[Tuple[Tuple[FreeElement, ...], Tuple[int, ...]]] = None
        self._tensor_powers: Dict[int, "FPModule"] = {}
        self._resolution = None  # filled by homology._extend_resolution

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

    def _completed_to(self, degree: int) -> Completion:
        """The membership completion, complete in degrees <= ``degree``."""
        state = self._membership
        if state is None:
            ring = self.ring
            state = Completion(
                ring.field, ring.nvars, self.ngens, "membership completion",
                self.gen_degrees,
            )
            for g, relation_degree in zip(self.relations, self._relation_degrees):
                state.add(g.terms, relation_degree)
            for g in ring.ideal_block(self.ngens):
                state.add(g.terms, g.degree(ring.grading, self.gen_degrees))
            self._membership = state
        try:
            state.complete(up_to=degree)
        except BaseException:
            # the pair being reduced is lost: start over next time
            self._membership = None
            raise
        return state

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
        """The normal form of ``coords`` modulo the relations and I*R^ngens,
        from the membership completion taken up to its top degree."""
        ring = self.ring
        if (
            coords.nvars != ring.nvars
            or coords.rank != self.ngens
            or coords.field != ring.field
        ):
            raise DimensionError("element does not match the module cover")
        if coords.is_zero():
            return coords
        state = self._completed_to(coords.degree(ring.grading, self.gen_degrees))
        return FreeElement(
            ring.field, ring.nvars, self.ngens, state.reduce(coords.terms),
            _normalized=True,
        )

    def element_is_zero(self, coords: FreeElement) -> bool:
        return self.element_normal_form(coords).is_zero()

    def relation_degrees(self) -> Tuple[int, ...]:
        return self._relation_degrees

    # -- minimal presentation ---------------------------------------------

    def minimal(self) -> "FPModule":
        """An isomorphic module whose relation matrix has all entries in m."""
        if self._minimal is None:
            self._minimal = _minimalize(self)
        return self._minimal

    def nu(self) -> int:
        return self.minimal().ngens

    def is_free(self) -> bool:
        return not self.minimal().relations

    def is_zero(self) -> bool:
        return self.nu() == 0

    # -- tensor powers -------------------------------------------------

    def tensor_power(self, t: int) -> "FPModule":
        if t < 0:
            raise InputError("tensor powers need a nonnegative exponent")
        powers = self._tensor_powers
        if t not in powers:
            if t == 0:
                powers[0] = FPModule.free(self.ring, 1)
            else:
                # built in a loop from the largest power cached, not by
                # recursion, so a high power is no deeper than a low one
                powers.setdefault(1, self)
                top = max(k for k in powers if k <= t)
                for s in range(top, t):
                    powers[s + 1] = tensor(powers[s], self)
        return powers[t]

    # -- invariants ---------------------------------------------------------

    def hilbert_function(self, degree: int) -> int:
        """Dimension over k of the homogeneous piece of the given degree:
        the standard monomials of that degree, counted against the
        membership completion taken up to it.  A degree whose monomials may
        pass the degree cap raises ``ResourceLimitError`` before any is
        enumerated."""
        ring = self.ring
        wants = {degree - d for d in self.gen_degrees if degree - d >= 0}
        if not wants:
            return 0
        # the largest total degree of a monomial of weighted degree want
        top = max(wants) // min(ring.grading)
        cap = current().degree_cap
        if top > cap:
            raise degree_cap_error(
                top, cap,
                ("monomials of hilbert_function", ring.nvars, self.ngens,
                 len(self.relations)),
            )
        state = self._completed_to(degree)
        monomials = {
            want: list(_monomials_of_weighted_degree(ring.nvars, ring.grading, want))
            for want in wants
        }
        total = 0
        for i, gen_degree in enumerate(self.gen_degrees):
            for mono in monomials.get(degree - gen_degree, ()):
                if state.reducer((i, mono)) < 0:
                    total += 1
        return total

    def descriptor(self) -> str:
        return (
            f"coker({self.ngens}x{len(self.relations)}) over {self.ring.descriptor()}"
        )

    def __repr__(self) -> str:
        return f"FPModule({self.descriptor()})"


def _monomials_of_weighted_degree(nvars: int, weights, degree: int):
    """The exponent vectors of weighted degree ``degree`` in ``nvars`` >= 1
    variables; the exponent of the last variable is the one that fits,
    when one does."""
    w = weights[0]
    if nvars == 1:
        if degree >= 0 and degree % w == 0:
            yield (degree // w,)
        return
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
        return self.module.element_is_zero(self.coords - self._coords_of(other))

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        return ModuleElement(self.module, self.coords + self._coords_of(other))

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return ModuleElement(self.module, self.coords - self._coords_of(other))

    def _coords_of(self, other: "ModuleElement") -> FreeElement:
        """The coordinates of an element of the same module."""
        if other.module is not self.module:
            raise DimensionError("elements of different modules are not comparable")
        return other.coords

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
        self, source: FPModule, target: FPModule, columns: Sequence[FreeElement]
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
        self._integer_columns: Optional[Tuple[List[Dict], int]] = None
        for rel in source.relations:
            if not target.element_is_zero(self.push_coords(rel)):
                raise InputError(
                    "map is not well defined: a source relation has "
                    "nonzero image in the target"
                )

    def push_coords(self, coords: FreeElement) -> FreeElement:
        """The image of the source vector ``coords``, summed in one term dict.

        Over GF(p) the sums are ints reduced mod p.  Over QQ they are ints
        too: the columns are cleared to one common denominator once per map
        and ``coords`` once per call, so each sum is a fixed integer multiple
        of the image coefficient, zero exactly when that is, and one
        ``Fraction`` is made per output term.  A term enters the dict when
        its sum turns nonzero and leaves it when the sum cancels."""
        field = self.source.ring.field
        p = field.characteristic
        if p:
            columns = [col.terms for col in self.columns]
            terms = coords.terms
        else:
            if self._integer_columns is None:
                self._integer_columns = _cleared([col.terms for col in self.columns])
            columns, den = self._integer_columns
            (terms,), coords_den = _cleared([coords.terms])
        out: Dict[Tuple[int, tuple], int] = {}
        for (pos, mono), c in terms.items():
            for (tp, tm), tc in columns[pos].items():
                t = (tp, mono_mul(tm, mono))
                old = out.get(t, 0)
                v = (old + c * tc) % p if p else old + c * tc
                if v:
                    out[t] = v
                else:
                    out.pop(t, None)
        if not p:
            den *= coords_den
            out = {t: Fraction(v, den) for t, v in out.items()}
        return FreeElement(field, coords.nvars, self.target.ngens, out, _normalized=True)


def _cleared(vectors: Sequence[Dict]) -> Tuple[List[Dict], int]:
    """Rational term dicts as int dicts over one common denominator d:
    vector i is ``ints[i] / d``.  Keys keep their order."""
    den = math.lcm(*(c.denominator for terms in vectors for c in terms.values()))
    ints = [
        {t: c.numerator * (den // c.denominator) for t, c in terms.items()}
        for terms in vectors
    ]
    return ints, den


# ---------------------------------------------------------------------------
# minimal presentations


def _minimalize(module: FPModule) -> FPModule:
    """Eliminate unit entries by Gaussian moves on columns kept as row ->
    nonzero entry dicts, pivoting on the first constant entry in
    column-major order.  A move leaves the pivot row zero in every column,
    so pivot rows are dropped once, at the end."""
    ring = module.ring
    field, nvars = ring.field, ring.nvars
    zero = Polynomial.zero(field, nvars)
    cols = [col.nonzero_components() for col in module.relations]
    dropped = set()
    while True:
        for j, col in enumerate(cols):
            units = [r for r, e in col.items() if e.is_constant()]
            if units:
                break
        else:
            break
        i = min(units)
        pivot_col = cols.pop(j)
        inv_u = field.inv(pivot_col.pop(i).constant_value())
        for col in cols:
            factor = col.pop(i, None)
            if factor is None:
                continue
            scale = factor * inv_u
            for r, e in pivot_col.items():
                col[r] = ring.normal_form_poly(col.get(r, zero) - scale * e)
                if col[r].is_zero():
                    del col[r]
        dropped.add(i)

    kept = [r for r in range(module.ngens) if r not in dropped]
    index = {r: k for k, r in enumerate(kept)}
    live_cols = []
    for col in filter(None, cols):
        terms = {(index[r], m): c for r in sorted(col) for m, c in col[r].terms.items()}
        live_cols.append(FreeElement(field, nvars, len(kept), terms, _normalized=True))
    degrees = [module.gen_degrees[r] for r in kept]
    picked, _ = _minimal_homogeneous_subset(ring, live_cols, len(kept), degrees)
    return FPModule(ring, picked, len(kept), degrees)


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
    generator of M.  A product with more than ``GENERATOR_CAP`` generators
    raises ``ResourceLimitError`` before it is built.
    """
    if left.ring != right.ring:
        raise DimensionError("tensor factors live over different rings")
    ngens = left.ngens * right.ngens
    if ngens > GENERATOR_CAP:
        raise ResourceLimitError(
            f"tensor product needs {ngens} generators "
            f"({left.ngens} x {right.ngens}), over the cap of {GENERATOR_CAP}"
        )
    rank, degrees, relations = block_ambient(right, left.gen_degrees)
    cols = induced_columns(left.relations, right) + relations
    # column (c, t) has the degree of relation c of M plus that of f_t, and
    # a copy of relation r of N in block i that of r plus that of e_i
    relation_degrees = [
        dc + dt for dc in left.relation_degrees() for dt in right.gen_degrees
    ] + [di + dr for di in left.gen_degrees for dr in right.relation_degrees()]
    return FPModule(
        left.ring, cols, rank, degrees, relation_degrees=relation_degrees
    )


def tensor_power(module: FPModule, t: int) -> FPModule:
    return module.tensor_power(t)


def tensor_coords(
    left: FPModule, right: FPModule, u: FreeElement, v: FreeElement
) -> FreeElement:
    """Coordinates of the pure tensor u (x) v in the cover of tensor(left, right)."""
    ring = left.ring
    n = right.ngens
    field = ring.field
    times = field.mul
    pairs = (
        ((pi * n + pj, mono_mul(mi, mj)), times(ci, cj))
        for (pi, mi), ci in u.terms.items()
        for (pj, mj), cj in v.terms.items()
    )
    return FreeElement(
        field, ring.nvars, left.ngens * n, _accumulate(field, {}, pairs),
        _normalized=True,
    )


# ---------------------------------------------------------------------------
# kernels and submodules


def _minimal_homogeneous_subset(
    ring: RingContext,
    vectors: Sequence[FreeElement],
    rank: int,
    position_degrees: Sequence[int],
    modulo: Sequence[FreeElement] = (),
) -> Tuple[List[FreeElement], Tuple[int, ...]]:
    """Greedy minimal generating subset of <vectors> + <modulo>, over <modulo>,
    trying vectors by degree, then by their text; returns the kept vectors
    and their degrees for the given position degrees.  A kept vector that
    is not homogeneous raises ``InputError``."""

    def sort_key(vec: FreeElement):
        deg = vec.homogeneous_degree(ring.grading, position_degrees)
        if deg is None:
            deg = vec.degree(ring.grading, position_degrees)
        return (deg, format_vector(vec, ring.variables))

    picked = ring.minimal_subset(vectors, rank, position_degrees, sort_key, modulo)
    degrees = tuple(
        vec.homogeneous_degree(ring.grading, position_degrees) for vec in picked
    )
    if None in degrees:
        raise InputError("minimal generators came out inhomogeneous")
    return picked, degrees


def present_submodule(
    ring: RingContext,
    rank: int,
    position_degrees: Sequence[int],
    vectors: Sequence[FreeElement],
    modulo: Sequence[FreeElement],
) -> Tuple[FPModule, List[FreeElement]]:
    """Present (<vectors> + <modulo>) / <modulo> inside R^rank / <modulo>.

    Returns the module together with the vectors chosen as its minimal
    generators; its relations are the relations among them modulo
    <modulo>.
    """
    gens, degrees = _minimal_homogeneous_subset(
        ring, vectors, rank, position_degrees, modulo
    )
    if not gens:
        return FPModule.zero_module(ring), []
    rel_cols = ring.syzygies(gens, rank, modulo)
    return FPModule(ring, rel_cols, len(gens), degrees), gens


def present_classes(
    module: FPModule, vectors: Sequence[FreeElement]
) -> Tuple[FPModule, List[FreeElement]]:
    """Present the submodule of M that the classes of ``vectors``, vectors
    of its cover, generate: their normal forms in M, the zero ones dropped,
    go to ``present_submodule`` modulo the relations.  Returns the module
    and its minimal generators as vectors of the cover."""
    candidates = [
        vec for vec in map(module.element_normal_form, vectors) if not vec.is_zero()
    ]
    return present_submodule(
        module.ring, module.ngens, module.gen_degrees, candidates, module.relations
    )


def kernel_of_map(phi: ModuleMap) -> Tuple[FPModule, ModuleMap]:
    """The kernel of a module map, with its inclusion into the source.

    Generators come from the syzygies of Phi modulo the target relations:
    they sweep out every class mapping into the image of those relations.
    """
    source, target = phi.source, phi.target
    heads = source.ring.syzygies(phi.columns, target.ngens, target.relations)
    kernel, gens = present_classes(source, heads)
    for g in gens:
        if not target.element_is_zero(phi.push_coords(g)):
            raise InputError("kernel generator does not map to zero")
    return kernel, ModuleMap(kernel, source, gens)


# ---------------------------------------------------------------------------
# duals, annihilators, presentation ideals, rank


def dual_syzygies(module: FPModule) -> Tuple[List[FreeElement], List[int]]:
    """Rows spanning M* = Hom(M, R): the reduced syzygy basis of the
    transposed relation matrix, largest lead first, or the unit rows of a
    free module.

    Each row phi lives in R^ngens and satisfies phi . A = 0, so evaluation
    at the rows is well defined on M.  Returns the rows and their degrees
    as functionals; both are computed once per module.  A row that is not
    homogeneous raises ``InputError``.
    """
    if module._dual_syzygies is None:
        ring, m = module.ring, module.ngens
        position_degrees = tuple(-d for d in module.gen_degrees)
        if module.relations:
            rows = ring.syzygies(transpose(module.relations, m), len(module.relations))
        else:
            rows = [FreeElement.unit(ring.field, ring.nvars, m, i) for i in range(m)]
        degrees = tuple(
            row.homogeneous_degree(ring.grading, position_degrees) for row in rows
        )
        if None in degrees:
            raise InputError("minimal generators came out inhomogeneous")
        module._dual_syzygies = (tuple(rows), degrees)
    rows, degrees = module._dual_syzygies
    return list(rows), list(degrees)


def dual_generators(module: FPModule) -> Tuple[List[FreeElement], List[int]]:
    """Rows of a minimal homogeneous generating set of M* = Hom(M, R), with
    their degrees as functionals: the minimal subset of ``dual_syzygies``
    (all of them for a free module), computed once per module."""
    if module._dual is None:
        rows, degrees = dual_syzygies(module)
        if module.relations:
            position_degrees = tuple(-d for d in module.gen_degrees)
            rows, degrees = _minimal_homogeneous_subset(
                module.ring, rows, module.ngens, position_degrees
            )
        module._dual = (tuple(rows), tuple(degrees))
    rows, degrees = module._dual
    return list(rows), list(degrees)


def dual_evaluation(
    module: FPModule, rows: Sequence[FreeElement], row_degrees: Sequence[int]
) -> Tuple[List[FreeElement], Tuple[int, ...]]:
    """The evaluation M -> R^len(rows) at the given rows of M*: one image
    column per generator of M (the transpose of the rows), and the degrees
    of the generators of R^len(rows)."""
    if not rows:
        ring = module.ring
        zero = FreeElement.zero(ring.field, ring.nvars, 0)
        return [zero] * module.ngens, ()
    return transpose(rows, module.ngens), tuple(-d for d in row_degrees)


def transpose(vectors: Sequence[FreeElement], rank: int) -> List[FreeElement]:
    """The columns of the transpose of the matrix with the given nonempty
    list of columns in R^rank: one column of length len(vectors) per
    position.  One pass buckets the terms by position; column i lists them
    by vector, each vector's in its own order."""
    field, nvars = vectors[0].field, vectors[0].nvars
    buckets: List[Dict] = [{} for _ in range(rank)]
    for j, vec in enumerate(vectors):
        for (pos, mono), c in vec.terms.items():
            buckets[pos][(j, mono)] = c
    return [
        FreeElement(field, nvars, len(vectors), terms, _normalized=True)
        for terms in buckets
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
        mm = module.minimal()
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
    gens = [h.component(0) for h in ring.syzygies([vec], rank, modulo)]
    return Ideal(ring, Ideal(ring, gens).minimal_generators())


def presentation_ideal(module: FPModule) -> Ideal:
    """The ideal of entries of a minimal relation matrix."""
    relations = module.minimal().relations
    if not relations:
        raise DegenerateError(
            "the presentation ideal is only defined for non-free modules"
        )
    entries = [c for col in relations for c in col.nonzero_components().values()]
    return Ideal(module.ring, Ideal(module.ring, entries).minimal_generators())


class RankInfo(NamedTuple):
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
    primes = ring.prime_bases()
    mm = module.minimal()
    k = mm.ngens
    ranks = [k - ring.rank_at_prime(mm.relations, k, prime) for prime in primes]
    has_rank = len(set(ranks)) == 1
    return RankInfo(tuple(ranks), has_rank, ranks[0] if has_rank else None)


# ---------------------------------------------------------------------------
# isomorphism-relevant comparison


# the top degree at which modules_equivalent compares Hilbert values
_HILBERT_WINDOW = 10


def modules_equivalent(left: FPModule, right: FPModule) -> bool:
    """Invariant-level comparison: nu, graded generator and relation data,
    annihilators, and Hilbert values in degrees 0..``_HILBERT_WINDOW``."""
    lm = left.minimal()
    rm = right.minimal()
    if lm.ngens != rm.ngens:
        return False
    if sorted(lm.gen_degrees) != sorted(rm.gen_degrees):
        return False
    if sorted(lm.relation_degrees()) != sorted(rm.relation_degrees()):
        return False
    if annihilator(left) != annihilator(right):
        return False
    for j in range(_HILBERT_WINDOW + 1):
        if lm.hilbert_function(j) != rm.hilbert_function(j):
            return False
    return True
