"""Independent oracles for the core operations.

Each test recomputes an engine result by a different route: dense linear
algebra over F_p on graded pieces, or direct witness searches.  None of the
oracles call the Groebner machinery they are checking.
"""

from __future__ import annotations

import random
from itertools import product as iter_product

import pytest

from torsionlab.fields import GF
from torsionlab.homology import tor
from torsionlab.modules import ModuleMap, annihilator, kernel_of_map
from torsionlab.poly import FreeElement, Polynomial
from torsionlab.randgen import random_nonfree_module
from torsionlab.rings import make_ring
from torsionlab.torsion import find_nonzerodivisor, torsion_split

P = 5


def monomials_of_degree(nvars: int, degree: int):
    return [
        m
        for m in iter_product(range(degree + 1), repeat=nvars)
        if sum(m) == degree
    ]


def rank_mod_p(rows, p=P) -> int:
    matrix = [list(r) for r in rows]
    rank = 0
    ncols = len(matrix[0]) if matrix else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col] % p), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = pow(matrix[rank][col], -1, p)
        matrix[rank] = [(v * inv) % p for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] % p:
                f = matrix[r][col]
                matrix[r] = [
                    (a - f * b) % p for a, b in zip(matrix[r], matrix[rank])
                ]
        rank += 1
    return rank


def graded_submodule_dimension(ring, columns, rank, gen_degrees, degree) -> int:
    """dim_k of the degree piece of <columns> + I*R^rank inside R^rank,
    computed by flattening all monomial multiples into vectors."""
    nvars = ring.nvars
    span_vectors = []
    generators = list(columns)
    for g in ring.ideal_generators:
        for j in range(rank):
            generators.append(
                FreeElement.unit(ring.field, nvars, rank, j).scaled(g)
            )
    basis_terms = []
    for pos in range(rank):
        want = degree - gen_degrees[pos]
        if want < 0:
            continue
        for mono in monomials_of_degree(nvars, want):
            basis_terms.append((pos, mono))
    index = {t: i for i, t in enumerate(basis_terms)}
    for g in generators:
        gdeg = g.homogeneous_degree(ring.grading, gen_degrees)
        if gdeg is None:
            continue
        shift = degree - gdeg
        if shift < 0:
            continue
        for mult in monomials_of_degree(nvars, shift):
            vec = [0] * len(basis_terms)
            hit = True
            for (pos, mono), c in g.terms.items():
                target = (pos, tuple(a + b for a, b in zip(mono, mult)))
                if target not in index:
                    hit = False
                    break
                vec[index[target]] = c % P
            if hit and any(vec):
                span_vectors.append(vec)
    if not span_vectors:
        return 0
    return rank_mod_p(span_vectors)


@pytest.fixture
def plane():
    return make_ring(GF(P), ("x", "y"), reduced=True)


@pytest.fixture
def node():
    from conftest import node_ring

    return node_ring(P)


class TestHilbertOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_hilbert_matches_dense_count(self, seed, plane, node):
        for ring in (plane, node):
            rng = random.Random(3000 + seed)
            module = random_nonfree_module(ring, rng)
            if module is None:
                continue
            nvars = ring.nvars
            for degree in range(6):
                cover_dim = sum(
                    len(monomials_of_degree(nvars, degree - d))
                    for d in module.gen_degrees
                    if degree - d >= 0
                )
                span_dim = graded_submodule_dimension(
                    ring,
                    list(module.relations),
                    module.ngens,
                    module.gen_degrees,
                    degree,
                )
                assert module.hilbert_function(degree) == cover_dim - span_dim


class TestAnnihilatorOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_graded_dimensions_agree(self, seed, plane):
        # ann(v) degree piece == solutions of a dense linear system
        rng = random.Random(4000 + seed)
        module = random_nonfree_module(plane, rng)
        if module is None:
            pytest.skip("random draw failed")
        v = module.generator(0)
        ideal = annihilator(module, v)
        basis = ideal.basis()
        lead_monos = [t[1] for t in basis.lead_terms()]
        nvars = plane.nvars
        for degree in range(5):
            monos = monomials_of_degree(nvars, degree)
            # engine: dimension of the degree piece of the annihilator ideal
            engine_dim = sum(
                1
                for m in monos
                if any(all(a <= b for a, b in zip(lm, m)) for lm in lead_monos)
            )
            # oracle: r of this degree with r*v inside the relation span
            target_degree = degree  # v has degree 0 generators
            rel_dim = graded_submodule_dimension(
                plane,
                list(module.relations),
                module.ngens,
                module.gen_degrees,
                target_degree,
            )
            combined = list(module.relations) + [v.coords.scaled(
                Polynomial(plane.field, nvars, {m: 1}, _normalized=True)
            ) for m in monos]
            combined_dim = graded_submodule_dimension(
                plane, combined, module.ngens, module.gen_degrees, target_degree
            )
            # r*v for independent r outside ann contribute new directions:
            # count of annihilating monomial combinations = #monos - added dims
            oracle_dim = len(monos) - (combined_dim - rel_dim)
            assert engine_dim == oracle_dim, f"degree {degree}"


class TestTorsionOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_torsion_generators_are_certified_torsion(self, seed, node):
        # independent direction: every reported torsion generator is killed
        # by a non-zerodivisor found through prime avoidance
        rng = random.Random(5000 + seed)
        module = random_nonfree_module(node, rng)
        if module is None:
            pytest.skip("random draw failed")
        split = torsion_split(module)
        for column in split.inclusion_columns:
            element = module.element(list(column.components()))
            witness = find_nonzerodivisor(annihilator(module, element))
            assert witness is not None, "torsion generator without a witness"

    @pytest.mark.parametrize("seed", range(6))
    def test_colon_kernels_land_in_torsion(self, seed, node):
        # opposite direction: anything killed by a sampled non-zerodivisor
        # must lie inside the computed torsion submodule
        rng = random.Random(6000 + seed)
        module = random_nonfree_module(node, rng)
        if module is None:
            pytest.skip("random draw failed")
        split = torsion_split(module)
        torsion_basis = node.submodule_basis(
            list(module.relations) + list(split.inclusion_columns), module.ngens
        )
        for text in ("x + y", "x + 2*y", "x^2 + y^2"):
            s = node.poly(text)
            assert node.is_nonzerodivisor(s)
            mult = ModuleMap(
                module,
                module,
                [
                    FreeElement.unit(node.field, node.nvars, module.ngens, i).scaled(s)
                    for i in range(module.ngens)
                ],
            )
            kernel, inclusion = kernel_of_map(mult)
            for col in inclusion.columns:
                assert torsion_basis.normal_form(col).is_zero()


class TestTorBalancingOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_tor_is_balanced_over_the_node(self, seed, node):
        rng = random.Random(7000 + seed)
        left = random_nonfree_module(node, rng)
        right = random_nonfree_module(node, rng)
        if left is None or right is None:
            pytest.skip("random draw failed")
        for i in (0, 1):
            assert tor(left, right, i).nu() == tor(right, left, i).nu()


class TestTensorWellDefined:
    @pytest.mark.parametrize("seed", range(5))
    def test_relation_shifts_vanish_in_the_product(self, seed, plane, node):
        # shifting a representative by a relation must not move the class
        # of the pure tensor: the block presentation absorbs it
        from torsionlab.modules import tensor, tensor_coords

        for ring in (plane, node):
            rng = random.Random(8000 + seed)
            left = random_nonfree_module(ring, rng)
            right = random_nonfree_module(ring, rng)
            if left is None or right is None or not left.relations:
                continue
            product = tensor(left, right)
            u = left.generator(0).coords
            v = right.generator(right.ngens - 1).coords
            shift = left.relations[0]
            plain = tensor_coords(left, right, u, v)
            shifted = tensor_coords(left, right, u + shift, v)
            assert product.element_is_zero(shifted - plain)


class TestKernelCompletenessOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_low_degree_kernel_classes_are_generated(self, seed, plane, node):
        # dense oracle: every degree-bounded cover vector whose image lands
        # in the target relation span must lie in <kernel gens + relations>;
        # multiplication maps are always well defined and have real kernels
        ring = node if seed % 2 else plane
        rng = random.Random(9000 + seed)
        source = random_nonfree_module(ring, rng)
        if source is None:
            pytest.skip("random draw failed")
        target = source
        from torsionlab.randgen import random_homogeneous_polynomial

        factor = random_homogeneous_polynomial(ring, rng.randint(1, 2), rng)
        if factor.is_zero():
            factor = ring.variable(0)
        columns = [
            FreeElement.unit(ring.field, ring.nvars, source.ngens, i).scaled(factor)
            for i in range(source.ngens)
        ]
        phi = ModuleMap(source, target, columns)
        kernel, inclusion = kernel_of_map(phi)
        span = ring.submodule_basis(
            list(inclusion.columns) + list(source.relations), source.ngens
        )
        # full graded nullspace: solve for every degree-d source vector whose
        # image lies in the span of the target relations, then demand it is
        # generated by the computed kernel plus the source relations
        shift = max(
            (
                col.homogeneous_degree(ring.grading, target.gen_degrees) or 0
                for col in columns
            ),
            default=0,
        )
        for degree in range(3):
            source_terms = []
            for pos in range(source.ngens):
                want = degree - source.gen_degrees[pos]
                if want >= 0:
                    for mono in monomials_of_degree(ring.nvars, want):
                        source_terms.append((pos, mono))
            if not source_terms:
                continue
            for c_vec in _kernel_into_span(
                ring, phi, target, source_terms, degree + shift + 1
            ):
                terms = {
                    t: c for t, c in zip(source_terms, c_vec) if c % P
                }
                if not terms:
                    continue
                vec = FreeElement(
                    ring.field, ring.nvars, source.ngens, terms, _normalized=True
                )
                assert span.normal_form(vec).is_zero(), (
                    f"degree {degree} kernel class missed"
                )


def _kernel_into_span(ring, phi, target, source_terms, max_image_degree):
    """Coefficient vectors c with phi(sum c_t e_t) inside the target-relation
    span, by dense linear algebra on flattened graded pieces."""
    all_keys = set()
    images = []
    for pos, mono in source_terms:
        unit = FreeElement(
            ring.field,
            ring.nvars,
            phi.source.ngens,
            {(pos, mono): 1},
            _normalized=True,
        )
        image = phi.push_coords(unit)
        images.append(image)
        all_keys.update(image.terms)
    span_gens = []
    for col in list(target.relations) + ring.ideal_block(target.ngens):
        gdeg = col.homogeneous_degree(ring.grading, target.gen_degrees)
        if gdeg is None:
            continue
        for extra in range(max_image_degree + 1):
            for mult in monomials_of_degree(ring.nvars, extra):
                scaled = col.scaled(
                    Polynomial(ring.field, ring.nvars, {mult: 1}, _normalized=True)
                )
                span_gens.append(scaled)
                all_keys.update(scaled.terms)
    keys = sorted(all_keys)
    index = {k: i for i, k in enumerate(keys)}

    def flatten(fe):
        out = [0] * len(keys)
        for t, c in fe.terms.items():
            out[index[t]] = c % P
        return out

    n_c = len(images)
    columns_flat = [flatten(im) for im in images] + [flatten(s) for s in span_gens]
    total = len(columns_flat)
    # nullspace of the column matrix; keep the first n_c coordinates
    rows = [[columns_flat[c][r] for c in range(total)] for r in range(len(keys))]
    pivots = {}
    rank = 0
    matrix = [list(r) for r in rows]
    for col in range(total):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col] % P), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = pow(matrix[rank][col], -1, P)
        matrix[rank] = [(v * inv) % P for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] % P:
                f = matrix[r][col]
                matrix[r] = [(a - f * b) % P for a, b in zip(matrix[r], matrix[rank])]
        pivots[col] = rank
        rank += 1
    out = []
    for free_col in (c for c in range(total) if c not in pivots):
        v = [0] * total
        v[free_col] = 1
        for col, r in pivots.items():
            v[col] = (-matrix[r][free_col]) % P
        out.append(v[:n_c])
    return out


