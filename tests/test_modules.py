"""Module calculus: presentations, tensor, kernels, duals, annihilators, rank."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torsionlab.engine import run_source
from torsionlab.errors import (
    DegenerateError,
    DimensionError,
    InputError,
    ResourceLimitError,
)
from torsionlab.fields import GF, QQ
from torsionlab.modules import (
    FPModule,
    ModuleMap,
    annihilator,
    dual_generators,
    kernel_of_map,
    modules_equivalent,
    presentation_ideal,
    rank_info,
    tensor,
    tensor_power,
    transpose,
)
from torsionlab.poly import FreeElement, Polynomial
from torsionlab.randgen import random_homogeneous_polynomial
from torsionlab.rings import Ideal, make_ring
from torsionlab.suite import dense_kernel_oracle, in_oracle_span
from torsionlab.syntax import parse_polynomial


def koszul_module(ring, texts):
    """coker of the column of the given elements: R -> R^d."""
    polys = [ring.poly(t) for t in texts]
    rows = [[p] for p in polys]
    return FPModule.from_rows(ring, rows)


class TestMinimalPresentation:
    def test_identity_cokernel_is_zero(self, QQxy):
        one = QQxy.one()
        zero = QQxy.zero()
        m = FPModule.from_rows(QQxy, [[one, zero], [zero, one]])
        assert m.nu() == m.minimal().ngens == 0 and m.is_free()
        assert m.is_zero()

    def test_already_minimal(self, QQxy):
        m = koszul_module(QQxy, ["x", "y"])
        mm = m.minimal()
        assert m.nu() == mm.ngens == 2 and not m.is_free()
        assert len(mm.relations) == 1

    def test_unit_entry_elimination(self, QQxy):
        # coker [x 1; y 0] collapses to the cyclic module R/(y)
        rows = [
            [QQxy.poly("x"), QQxy.poly("1")],
            [QQxy.poly("y"), QQxy.poly("0")],
        ]
        m = FPModule.from_rows(QQxy, rows, gen_degrees=(0, 0))
        mm = m.minimal()
        assert m.nu() == mm.ngens == 1 and not m.is_free()
        ideal = Ideal(QQxy, [c.component(0) for c in mm.relations])
        assert ideal == Ideal(QQxy, [QQxy.poly("y")])

    def test_entries_land_in_maximal_ideal(self, node5):
        m = koszul_module(node5, ["x + y"])
        mm = m.minimal()
        for col in mm.relations:
            for comp in col.components():
                assert comp.is_zero() or not comp.constant_value()


def graded_random_module(ring, rng):
    """A module on two or three generators of degrees 0..2, with two or
    three random homogeneous relations of degree up to 4."""
    gen_degrees = [rng.randint(0, 2) for _ in range(rng.randint(2, 3))]
    columns = []
    for _ in range(rng.randint(2, 3)):
        degree = rng.randint(max(gen_degrees), 4)
        entries = [
            random_homogeneous_polynomial(ring, degree - d, rng, nonzero=False)
            for d in gen_degrees
        ]
        columns.append(FreeElement.from_components(entries, rank=len(gen_degrees)))
    return FPModule(ring, columns, len(gen_degrees), gen_degrees)


TENSOR_RINGS = {
    "quotient GF(5)": lambda: make_ring(
        GF(5),
        ("x", "y", "z"),
        ideal=[parse_polynomial("x*y - z^2", ("x", "y", "z"), GF(5))],
    ),
    "weighted QQ": lambda: make_ring(QQ, ("x", "y"), grading=(1, 2)),
    "weighted quotient GF(7)": lambda: make_ring(
        GF(7), ("x", "y"), ideal=[parse_polynomial("x^3 + y^2", ("x", "y"), GF(7))],
        grading=(2, 3),
    ),
}


class TestTensor:
    @pytest.mark.parametrize("name", TENSOR_RINGS)
    @pytest.mark.parametrize("seed", range(6))
    def test_a_product_takes_its_relation_degrees_from_its_factors(self, name, seed):
        # tensor passes each column's degree instead of recomputing it;
        # the checked constructor must find the same columns and degrees
        ring = TENSOR_RINGS[name]()
        rng = random.Random(seed)
        left = graded_random_module(ring, rng)
        right = graded_random_module(ring, rng)
        product = tensor(left, right)
        degrees = [
            col.homogeneous_degree(ring.grading, product.gen_degrees)
            for col in product.relations
        ]
        assert degrees == list(product.relation_degrees())
        assert len(degrees) == (
            len(left.relations) * right.ngens + left.ngens * len(right.relations)
        )
        checked = FPModule(ring, product.relations, product.ngens, product.gen_degrees)
        assert checked.relations == product.relations
        assert checked.relation_degrees() == product.relation_degrees()

    def test_unit_of_tensor(self, QQxy):
        m = koszul_module(QQxy, ["x", "y"])
        r_free = FPModule.free(QQxy, 1)
        t = tensor(r_free, m)
        assert modules_equivalent(t, m)

    def test_node_tensor_power_stays_cyclic(self, node5):
        m = FPModule.cyclic(node5, [node5.poly("x")])
        cubed = tensor_power(m, 3)
        mm = cubed.minimal()
        assert mm.ngens == 1
        ideal = Ideal(node5, [c.component(0) for c in mm.relations])
        assert ideal == Ideal(node5, [node5.poly("x")])

    def test_a_product_over_the_generator_cap_is_refused(self, QQxy):
        # 64 x 64 = 4096 generators is the cap itself
        assert tensor(FPModule.free(QQxy, 64), FPModule.free(QQxy, 64)).ngens == 4096
        with pytest.raises(ResourceLimitError) as error:
            tensor(FPModule.free(QQxy, 65), FPModule.free(QQxy, 64))
        assert str(error.value) == (
            "tensor product needs 4160 generators (65 x 64), over the cap of 4096"
        )

    def test_thm2_10_case_two_stops_at_the_generator_cap(self):
        # case 2 takes tensor powers of T, 9 generators; the fourth has 9^4
        report = run_source(
            "ring Q = QQ[x,y,z];\n"
            "module K = coker [[x],[y],[z]] over Q;\n"
            "let T = tensor(K, K);\n"
            "verify thm2.10 T K case=2;\n"
        )
        assert report.exit_code == 3
        assert report.results[-1].error == (
            "ResourceLimitError: tensor product needs 6561 generators "
            "(729 x 9), over the cap of 4096"
        )

    def test_tensor_power_edge_cases(self, QQxy):
        m = koszul_module(QQxy, ["x", "y"])
        assert tensor_power(m, 0).is_free()
        assert tensor_power(m, 1) is m

    def test_nu_is_multiplicative(self, QQxy, node5):
        rng = random.Random(7)
        panels = [
            (koszul_module(QQxy, ["x", "y"]), koszul_module(QQxy, ["x^2", "y^3"])),
            (
                FPModule.cyclic(node5, [node5.poly("x")]),
                FPModule.cyclic(node5, [node5.poly("y")]),
            ),
        ]
        for left, right in panels:
            t = tensor(left, right)
            assert t.nu() == left.nu() * right.nu()

    def test_tensor_symmetry_invariants(self, QQxy):
        a = koszul_module(QQxy, ["x", "y"])
        b = FPModule.cyclic(QQxy, [QQxy.poly("x^2")])
        assert modules_equivalent(tensor(a, b), tensor(b, a))

    @pytest.mark.parametrize("seed", range(5))
    def test_tensor_symmetry_on_random_panel(self, seed, QQxy):
        from torsionlab.randgen import random_nonfree_module

        rng = random.Random(4100 + seed)
        left = random_nonfree_module(QQxy, rng)
        right = random_nonfree_module(QQxy, rng)
        if left is None or right is None:
            pytest.skip("random draw failed")
        lr = tensor(left, right).minimal()
        rl = tensor(right, left).minimal()
        assert lr.ngens == rl.ngens
        assert sorted(lr.relation_degrees()) == sorted(rl.relation_degrees())

    def test_tensor_associativity_invariants(self, QQxy):
        a = koszul_module(QQxy, ["x", "y"])
        b = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        c = FPModule.cyclic(QQxy, [QQxy.poly("y")])
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert left.nu() == right.nu()
        assert annihilator(left) == annihilator(right)
        lm, rm = left.minimal(), right.minimal()
        assert sorted(lm.relation_degrees()) == sorted(rm.relation_degrees())

    def test_ring_mismatch_rejected(self, QQxy, node5):
        with pytest.raises(DimensionError):
            tensor(FPModule.free(QQxy, 1), FPModule.free(node5, 1))

    @pytest.mark.parametrize(
        "ring_name, left_rows, left_degrees, right_rows, right_degrees",
        [
            (
                "QQxy",
                [["x^2", "y^3"], ["y", "x^2"]],
                (0, 1),
                [["x", "y"], ["y^3", "0"]],
                (2, 0),
            ),
            ("node5", [["x", "y"], ["y", "x"]], (0, 0), [["y", "x^2"]], (1,)),
        ],
        ids=["QQxy", "node5"],
    )
    def test_relations_are_the_two_block_presentation(
        self, request, ring_name, left_rows, left_degrees, right_rows, right_degrees
    ):
        """tensor(M, N) is coker [A (x) I_n | I_m (x) B], generator (i, j) at
        i * n + j, written out here entry by entry."""
        ring = request.getfixturevalue(ring_name)
        a = [[ring.poly(t) for t in row] for row in left_rows]
        b = [[ring.poly(t) for t in row] for row in right_rows]
        m, n = len(a), len(b)
        zero = ring.zero()
        # columns of A (x) I_n ordered by (c, j), then of I_m (x) B by (i, c)
        rows = []
        for i in range(m):
            for j in range(n):
                row = []
                for c in range(len(a[0])):
                    row.extend(a[i][c] if jj == j else zero for jj in range(n))
                for ii in range(m):
                    row.extend(b[j][c] if ii == i else zero for c in range(len(b[0])))
                rows.append(row)
        degrees = tuple(
            left_degrees[i] + right_degrees[j] for i in range(m) for j in range(n)
        )
        expected = FPModule.from_rows(ring, rows, degrees)
        product = tensor(
            FPModule.from_rows(ring, a, left_degrees),
            FPModule.from_rows(ring, b, right_degrees),
        )
        assert product.gen_degrees == expected.gen_degrees
        assert product.relations == expected.relations


class TestKernel:
    def test_a_map_that_is_not_well_defined_is_refused(self, QQxy):
        # e1 -> e1 from R/(x) to R/(y): the relation x maps to x, not in (y)
        source = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        target = FPModule.cyclic(QQxy, [QQxy.poly("y")])
        with pytest.raises(InputError, match="not well defined"):
            ModuleMap(source, target, [FreeElement.unit(QQxy.field, 2, 1, 0)])

    def test_identity_has_zero_kernel(self, QQxy):
        m = koszul_module(QQxy, ["x", "y"])
        identity = ModuleMap(
            m, m, [FreeElement.unit(QQxy.field, 2, 2, i) for i in range(2)]
        )
        kernel, _ = kernel_of_map(identity)
        assert kernel.is_zero()

    def test_multiplication_by_x_on_domain(self):
        ring = make_ring(QQ, ("x",), reduced=True)
        free = FPModule.free(ring, 1)
        mult = ModuleMap(
            free, free, [FreeElement.unit(ring.field, 1, 1, 0).scaled(ring.poly("x"))]
        )
        kernel, _ = kernel_of_map(mult)
        assert kernel.is_zero()

    def test_multiplication_by_x_on_node(self, node5):
        free = FPModule.free(node5, 1)
        mult = ModuleMap(
            free,
            free,
            [FreeElement.unit(node5.field, 2, 1, 0).scaled(node5.poly("x"))],
        )
        kernel, inclusion = kernel_of_map(mult)
        # ann(x) = (y) on the node: kernel is the principal module on y
        assert kernel.nu() == 1
        gen = inclusion.columns[0]
        assert Ideal(node5, [gen.component(0)]) == Ideal(node5, [node5.poly("y")])

    def test_inclusion_composes_to_zero_and_is_injective(self, node5):
        free = FPModule.free(node5, 1)
        mult = ModuleMap(
            free,
            free,
            [FreeElement.unit(node5.field, 2, 1, 0).scaled(node5.poly("x"))],
        )
        kernel, inclusion = kernel_of_map(mult)
        for i in range(kernel.ngens):
            image = mult.push_coords(inclusion.columns[i])
            assert free.element_is_zero(image)
        inner_kernel, _ = kernel_of_map(inclusion)
        assert inner_kernel.is_zero()


def plain_push(phi, coords):
    """The image of ``coords`` summed with field arithmetic, one product at
    a time: a term enters when its sum turns nonzero, leaves when it
    cancels."""
    field = phi.source.ring.field
    out = {}
    for (pos, mono), c in coords.terms.items():
        for (tp, tm), tc in phi.columns[pos].terms.items():
            t = (tp, tuple(a + b for a, b in zip(tm, mono)))
            v = field.add(out.get(t, field.zero), field.mul(c, tc))
            if v:
                out[t] = v
            else:
                out.pop(t, None)
    return out


@pytest.mark.parametrize("field", [GF(7), QQ], ids=str)
@pytest.mark.parametrize("seed", range(8))
def test_push_coords_matches_the_field_arithmetic_sum(field, seed):
    rng = random.Random(8300 + seed)
    ring = make_ring(field, ("x", "y"), reduced=True)
    nsource, ntarget = rng.randint(1, 4), rng.randint(1, 3)
    # few monomials and coefficients, so that sums cancel and terms re-enter
    monos = [(0, 0), (1, 0), (0, 1), (1, 1)]
    values = [1, -1, 2, 3]
    if not field.characteristic:
        values = [1, -1, Fraction(1, 2), Fraction(-2, 3)]

    def vector(rank):
        terms = {
            (rng.randrange(rank), rng.choice(monos)): rng.choice(values)
            for _ in range(rng.randint(1, 6))
        }
        return FreeElement(field, 2, rank, terms)

    columns = [vector(ntarget) for _ in range(nsource)]
    phi = ModuleMap(FPModule.free(ring, nsource), FPModule.free(ring, ntarget), columns)
    for _ in range(6):
        coords = vector(nsource)
        image = phi.push_coords(coords)
        assert image.rank == ntarget
        assert list(image.terms.items()) == list(plain_push(phi, coords).items())
        assert all(type(c) is type(field.one) for c in image.terms.values())


class TestDual:
    def test_free_module_dual(self, QQxy):
        rows, _ = dual_generators(FPModule.free(QQxy, 1))
        assert len(rows) == 1
        assert rows[0].component(0) == QQxy.one()

    def test_torsion_module_over_domain_has_zero_dual(self, QQxy):
        m = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        rows, _ = dual_generators(m)
        assert rows == []

    def test_koszul_module_dual_is_the_koszul_relation(self, QQxy):
        m = koszul_module(QQxy, ["x", "y"])
        rows, _ = dual_generators(m)
        assert len(rows) == 1
        row = rows[0]
        # the single functional is (y, -x) up to sign
        a, b = row.component(0), row.component(1)
        assert {QQxy.format(a), QQxy.format(b)} in ({"y", "-x"}, {"-y", "x"})
        # evaluation is well defined: the row kills the relation column
        rel = m.relations[0]
        pairing = a * rel.component(0) + b * rel.component(1)
        assert QQxy.normal_form_poly(pairing).is_zero()


class TestModuleElement:
    def test_arithmetic_within_a_module(self, QQxy):
        m = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        g = m.generator(0)
        assert (g + g) - g == g
        assert g - g == m.element([QQxy.zero()])

    @pytest.mark.parametrize("op", ["__eq__", "__add__", "__sub__"])
    def test_elements_of_different_modules_do_not_combine(self, QQxy, op):
        m = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        n = FPModule.cyclic(QQxy, [QQxy.poly("y")])
        with pytest.raises(DimensionError, match="different modules"):
            getattr(m.generator(0), op)(n.generator(0))


class TestAnnihilator:
    def test_zero_element(self, QQxy):
        m = koszul_module(QQxy, ["x", "y"])
        zero = m.element([QQxy.zero(), QQxy.zero()])
        assert annihilator(m, zero).contains(QQxy.one())

    def test_cyclic_module(self, QQxy):
        m = FPModule.cyclic(QQxy, [QQxy.poly("x"), QQxy.poly("y")])
        one = m.generator(0)
        assert annihilator(m, one) == Ideal(QQxy, [QQxy.poly("x"), QQxy.poly("y")])

    def test_module_annihilator(self, node5):
        m = FPModule.cyclic(node5, [node5.poly("x")])
        assert annihilator(m) == Ideal(node5, [node5.poly("x")])

    def test_element_annihilator_contains_module_annihilator(self, node5):
        m = FPModule.cyclic(node5, [node5.poly("x^2")])
        v = m.generator(0).scaled(node5.poly("x"))
        ann_m = annihilator(m)
        ann_v = annihilator(m, v)
        assert ann_v.contains_ideal(ann_m)


class TestPresentationIdeal:
    def test_koszul_module(self, QQxy):
        m = koszul_module(QQxy, ["x", "y"])
        ideal = presentation_ideal(m)
        assert ideal == Ideal(QQxy, [QQxy.poly("x"), QQxy.poly("y")])
        assert ideal.contains_nonzerodivisor()

    def test_node_branch_module_fails_nzd(self, node5):
        m = FPModule.cyclic(node5, [node5.poly("x")])
        ideal = presentation_ideal(m)
        assert ideal == Ideal(node5, [node5.poly("x")])
        assert not ideal.contains_nonzerodivisor()

    def test_node_diagonal_module_has_nzd(self, node5):
        m = FPModule.cyclic(node5, [node5.poly("x + y")])
        assert presentation_ideal(m).contains_nonzerodivisor()

    def test_free_module_rejected(self, QQxy):
        with pytest.raises(DegenerateError):
            presentation_ideal(FPModule.free(QQxy, 2))


class TestRank:
    def test_free_module(self, QQxy):
        info = rank_info(FPModule.free(QQxy, 3))
        assert info.has_rank and info.value == 3

    def test_koszul_module_rank_one(self, QQxy):
        info = rank_info(koszul_module(QQxy, ["x", "y"]))
        assert info.has_rank and info.value == 1

    def test_node_branch_module_has_no_rank(self, node5):
        info = rank_info(FPModule.cyclic(node5, [node5.poly("x")]))
        # rank 1 over the branch killed by x, rank 0 over the other
        assert sorted(info.per_prime) == [0, 1]
        assert not info.has_rank


class TestInference:
    def test_degree_inference_weighted(self):
        ring = make_ring(GF(5), ("a", "b"), grading=(2, 3), reduced=True)
        m = koszul_module(ring, ["a", "b"])
        # relation column (a, b): degrees must differ to stay homogeneous
        d0, d1 = m.gen_degrees
        assert d0 - d1 == 1  # deg b - deg a

    def test_inconsistent_matrix_rejected(self, QQxy):
        rows = [[QQxy.poly("x + x^2")]]
        with pytest.raises(InputError):
            FPModule.from_rows(QQxy, rows)


def test_transpose_keeps_each_columns_term_order():
    rng = random.Random(12)
    field = GF(5)
    for _ in range(30):
        rank = rng.randint(1, 4)
        vectors = []
        for _ in range(rng.randint(1, 4)):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                mono = (rng.randint(0, 2), rng.randint(0, 2))
                terms[(rng.randrange(rank), mono)] = rng.randint(1, 4)
            vectors.append(FreeElement(field, 2, rank, terms))
        # the matrix's entries, read off the dense components
        entries = [vec.components() for vec in vectors]
        expected = [
            FreeElement.from_components([row[i] for row in entries], rank=len(vectors))
            for i in range(rank)
        ]
        columns = transpose(vectors, rank)
        assert columns == expected
        assert [list(c.terms.items()) for c in columns] == [
            list(c.terms.items()) for c in expected
        ]


# rings for the oracle comparisons: both fields, with and without a
# principal defining ideal, whose lift f * e_j the oracle solves for
ORACLE_RINGS = {
    "GF(7)": (GF(7), None),
    "QQ": (QQ, None),
    "GF(7) node": (GF(7), "x*y"),
    "QQ x^2 - y^2": (QQ, "x^2 - y^2"),
}
ORACLE_BOUND = 3
ORACLE_SUPPRESSED = [HealthCheck.function_scoped_fixture, HealthCheck.too_slow]


def oracle_ring(name):
    field, quotient = ORACLE_RINGS[name]
    if quotient is None:
        return make_ring(field, ("x", "y"))
    ideal = [parse_polynomial(quotient, ("x", "y"), field)]
    return make_ring(field, ("x", "y"), ideal=ideal)


@st.composite
def homogeneous_columns(draw, ring, rank, max_count):
    """0..max_count columns of R^rank, each homogeneous of its own degree
    0-2 with every position in degree 0, entries in normal form mod I."""
    coeffs = (0, 1, -1, 2) if ring.field.characteristic else (0, 1, -1, Fraction(1, 2))
    columns = []
    for _ in range(draw(st.integers(1 if max_count else 0, max_count))):
        degree = draw(st.integers(0, 2))
        monos = [(a, degree - a) for a in range(degree + 1)]
        comps = []
        for _ in range(rank):
            terms = {m: draw(st.sampled_from(coeffs)) for m in monos}
            comps.append(ring.normal_form_poly(Polynomial(ring.field, 2, terms)))
        columns.append(FreeElement.from_components(comps, rank=rank))
    return columns


def oracle_for(ring, columns, modulo, rank):
    """The oracle's span of the v of degree <= ORACLE_BOUND whose image
    sum v_j columns[j] lies in <modulo> + I*R^rank."""
    rows = [[col.component(r) for col in columns] for r in range(rank)]
    lift = [
        vec.components()
        for vec in (*modulo, *ring.ideal_block(rank))
        if not vec.is_zero()
    ]
    return dense_kernel_oracle(rows, 2, ORACLE_BOUND, ring.field, lift)


def check_against_oracle(ring, generators, modulo, oracle):
    """The oracle lies in <generators> + <modulo> + I, and every generator
    of degree at most the bound lies in the oracle's span."""
    width = generators[0].rank if generators else len(oracle[0]) if oracle else 0
    if oracle:
        basis = ring.submodule_basis(list(generators) + list(modulo), width)
        for vec in oracle:
            vec = FreeElement.from_components(vec, rank=width)
            assert basis.normal_form(vec).is_zero()
    for gen in generators:
        if gen.degree() <= ORACLE_BOUND:
            assert in_oracle_span(gen.components(), oracle, ring.field)


class TestKernelOracle:
    """``RingContext.syzygies`` modulo a submodule and ``kernel_of_map``
    against the dense linear-algebra oracle of ``suite``, over GF(7) and
    QQ."""

    @pytest.mark.parametrize("ring_name", sorted(ORACLE_RINGS))
    @given(data=st.data())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=ORACLE_SUPPRESSED,
    )
    def test_syzygies_modulo(self, ring_name, data):
        ring = oracle_ring(ring_name)
        rank = data.draw(st.integers(1, 2), label="rank")
        gens = data.draw(homogeneous_columns(ring, rank, 3), label="gens")
        modulo = data.draw(homogeneous_columns(ring, rank, 2), label="modulo")
        relations = ring.syzygies(gens, rank, modulo)
        # the modulo vectors go into the lift, untagged; the result is the
        # gens part of the syzygies of gens + modulo, where each modulo
        # vector has a tag position, vector for vector and in that order
        heads = (
            {(pos, mono): c for (pos, mono), c in vec.terms.items() if pos < len(gens)}
            for vec in ring.syzygies(gens + modulo, rank)
        )
        assert [list(v.terms.items()) for v in relations] == [
            list(h.items()) for h in heads if h
        ]
        # each relation maps into <modulo> + I
        target = ring.submodule_basis(modulo, rank)
        for rel in relations:
            image = FreeElement.zero(ring.field, 2, rank)
            for j, comp in enumerate(rel.components()):
                image = image + gens[j].scaled(comp)
            assert target.contains(image)
        check_against_oracle(ring, relations, [], oracle_for(ring, gens, modulo, rank))

    @pytest.mark.parametrize("ring_name", sorted(ORACLE_RINGS))
    @given(data=st.data())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=ORACLE_SUPPRESSED,
    )
    def test_kernel_of_map(self, ring_name, data):
        ring = oracle_ring(ring_name)
        ntarget = data.draw(st.integers(1, 2), label="target rank")
        target_relations = data.draw(
            homogeneous_columns(ring, ntarget, 2), label="target relations"
        )
        target = FPModule(ring, target_relations, ntarget)
        columns = data.draw(homogeneous_columns(ring, ntarget, 3), label="columns")
        degrees = [
            col.homogeneous_degree() if not col.is_zero() else 0 for col in columns
        ]
        # the source relations: some of the relations the map respects
        respected = ring.syzygies(columns, ntarget, target.relations)
        keep = data.draw(
            st.lists(st.booleans(), min_size=len(respected), max_size=len(respected)),
            label="kept source relations",
        )
        source_relations = [rel for rel, k in zip(respected, keep) if k]
        source = FPModule(ring, source_relations, len(columns), degrees)
        phi = ModuleMap(source, target, columns)
        kernel, inclusion = kernel_of_map(phi)
        gens = list(inclusion.columns)
        assert kernel.ngens == len(gens)
        for gen in gens:
            assert target.element_is_zero(phi.push_coords(gen))
        oracle = oracle_for(ring, columns, target.relations, ntarget)
        check_against_oracle(ring, gens, source.relations, oracle)
