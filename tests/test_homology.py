"""Resolutions, projective dimension, Tor, and Koszul depth."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torsionlab.errors import InputError
from torsionlab.fields import GF, QQ
from torsionlab.homology import (
    PD_INFINITE,
    complex_homology,
    free_resolution,
    koszul_depth,
    koszul_differentials,
    pd,
    tor,
)
from torsionlab.modules import (
    FPModule,
    _monomials_of_weighted_degree,
    annihilator,
    tensor_power,
)
from torsionlab.poly import FreeElement, Polynomial
from torsionlab.rings import Ideal, make_ring
from torsionlab.syntax import parse_polynomial

from conftest import node_ring


def koszul_module(ring, texts):
    return FPModule.from_rows(ring, [[ring.poly(t)] for t in texts])


def koszul_homologies(ring, sequence, module):
    """H_0 .. H_d of the Koszul complex of ``sequence`` tensored with
    ``module``, each from ``complex_homology``."""
    d = len(sequence)
    degrees = [f.degree(ring.grading) for f in sequence]
    step_degrees = [
        [sum(degrees[s] for s in S) for S in combinations(range(d), i)]
        for i in range(d + 1)
    ]
    differentials = koszul_differentials(ring, sequence)
    return [
        complex_homology(differentials, step_degrees, module, i) for i in range(d + 1)
    ]


class TestFreeResolution:
    def test_free_module_resolves_immediately(self, QQxy):
        res = free_resolution(FPModule.free(QQxy, 1), 5)
        assert res.complete and res.length == 0
        assert res.betti == (1,)

    def test_koszul_module_length_one(self, QQxy):
        res = free_resolution(koszul_module(QQxy, ["x", "y"]), 5)
        assert res.complete and res.length == 1
        assert res.betti == (2, 1)

    def test_node_branch_is_periodic(self, node2):
        m = FPModule.cyclic(node2, [node2.poly("x")])
        res = free_resolution(m, 5)
        assert not res.complete
        assert res.betti == (1, 1, 1, 1, 1, 1)
        # alternating differentials x, y, x, y, x
        entries = [cols[0].component(0) for cols in res.differentials]
        formatted = [node2.format(e) for e in entries]
        assert formatted == ["x", "y", "x", "y", "x"]

    def test_differentials_compose_to_zero(self, QQxyz):
        m = tensor_power(koszul_module(QQxyz, ["x", "y", "z"]), 2)
        res = free_resolution(m, 4)
        for step in range(1, res.length):
            upper = res.differentials[step]
            lower = res.differentials[step - 1]
            for col in upper:
                acc = None
                for pos in range(col.rank):
                    comp = col.component(pos)
                    if comp.is_zero():
                        continue
                    piece = lower[pos].scaled(comp)
                    acc = piece if acc is None else acc + piece
                basis = QQxyz.submodule_basis([], lower[0].rank)
                assert acc is None or basis.normal_form(acc).is_zero()

    def test_minimality(self, QQxyz):
        m = tensor_power(koszul_module(QQxyz, ["x", "y", "z"]), 2)
        res = free_resolution(m, 3)
        for cols in res.differentials:
            for col in cols:
                for comp in col.components():
                    assert comp.is_zero() or not comp.constant_value()

    def test_tensor_square_betti_numbers(self, QQxy):
        # resolution of the tensor square of the rank-2 Koszul module is the
        # tensored complex: ranks 4, 4, 1
        m = tensor_power(koszul_module(QQxy, ["x", "y"]), 2)
        res = free_resolution(m, 5)
        assert res.complete
        assert res.betti == (4, 4, 1)


class TestPd:
    def test_free(self, QQxy):
        assert pd(FPModule.free(QQxy, 2)) == 0

    def test_tensor_square_over_three_variables(self, QQxyz):
        m = tensor_power(koszul_module(QQxyz, ["x", "y", "z"]), 2)
        assert pd(m) == 2

    def test_node_branch_infinite(self, node2):
        m = FPModule.cyclic(node2, [node2.poly("x")])
        assert pd(m) == PD_INFINITE

    def test_pd_plus_depth_is_ring_depth(self, QQxy):
        # pd(M) + depth(m, M) = depth(R) for finite-pd modules over k[x,y]
        mvars = [QQxy.poly("x"), QQxy.poly("y")]
        panel = [
            FPModule.free(QQxy, 1),
            koszul_module(QQxy, ["x", "y"]),
            FPModule.cyclic(QQxy, [QQxy.poly("x"), QQxy.poly("y")]),
        ]
        for m in panel:
            p = pd(m)
            assert p != PD_INFINITE
            depth_m = koszul_depth(mvars, m)
            assert p + depth_m == QQxy.depth()


class TestTor:
    def test_flat_free_module(self, QQxy):
        n = koszul_module(QQxy, ["x", "y"])
        for i in (1, 2):
            assert tor(FPModule.free(QQxy, 1), n, i).is_zero()

    def test_transverse_hypersurfaces(self, QQxy):
        a = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        b = FPModule.cyclic(QQxy, [QQxy.poly("y")])
        assert tor(a, b, 1).is_zero()

    def test_self_tor_of_hypersurface(self, QQxy):
        a = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        t = tor(a, a, 1)
        assert t.nu() == 1
        assert annihilator(t) == Ideal(QQxy, [QQxy.poly("x")])

    def test_tor_zero_matches_tensor(self, QQxy):
        from torsionlab.modules import tensor

        a = koszul_module(QQxy, ["x", "y"])
        b = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        t0 = tor(a, b, 0)
        direct = tensor(a, b)
        assert t0.nu() == direct.nu()
        assert annihilator(t0) == annihilator(direct)

    def test_koszul_tower_tor_independence(self, QQxyz):
        # the rank-3 Koszul module is Tor-independent from itself
        m = koszul_module(QQxyz, ["x", "y", "z"])
        for i in (1, 2):
            assert tor(m, m, i).is_zero()

    def test_balancing_on_small_panel(self, QQxy):
        a = koszul_module(QQxy, ["x", "y"])
        b = FPModule.cyclic(QQxy, [QQxy.poly("x^2")])
        for i in (0, 1, 2):
            assert tor(a, b, i).nu() == tor(b, a, i).nu()


class TestKoszulDepth:
    def test_regular_sequence_on_ring(self, QQxy):
        seq = [QQxy.poly("x"), QQxy.poly("y")]
        ring_module = FPModule.free(QQxy, 1)
        assert koszul_depth(seq, ring_module) == 2
        homologies = koszul_homologies(QQxy, seq, ring_module)
        assert [h.is_zero() for h in homologies] == [False, True, True]

    def test_tensor_square_depth_drop(self, QQxyz):
        m = tensor_power(koszul_module(QQxyz, ["x", "y", "z"]), 2)
        seq = [QQxyz.poly(v) for v in ("x", "y", "z")]
        assert koszul_depth(seq, m) == 1

    def test_killed_module_depth_zero(self, QQxy):
        m = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        assert koszul_depth([QQxy.poly("x")], m) == 0
        assert not koszul_homologies(QQxy, [QQxy.poly("x")], m)[1].is_zero()

    def test_unit_action_rejected(self, QQxy):
        m = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        with pytest.raises(InputError):
            koszul_depth([QQxy.poly("x + 1")], m)

    def test_depth_tor_formula_agreement(self, QQxy, QQxyz):
        from torsionlab.rings import is_regular_sequence

        cases = [
            (QQxy, ["x", "y"], koszul_module(QQxy, ["x", "y"])),
            (QQxy, ["x", "y"], FPModule.cyclic(QQxy, [QQxy.poly("x")])),
            (QQxyz, ["x", "y", "z"], koszul_module(QQxyz, ["x", "y", "z"])),
        ]
        for ring, seq_texts, module in cases:
            seq = [ring.poly(t) for t in seq_texts]
            assert is_regular_sequence(ring, seq)
            quotient = FPModule.cyclic(ring, seq)
            d = len(seq)
            sup = 0
            for i in range(d, -1, -1):
                if not tor(quotient, module, i).is_zero():
                    sup = i
                    break
            assert koszul_depth(seq, module) == d - sup


def weighted_cusp():
    cusp = parse_polynomial("y^2 - x^3", ("x", "y"), GF(5))
    return make_ring(GF(5), ("x", "y"), ideal=[cusp], grading=(2, 3))


DEPTH_RINGS = {
    "QQ[x,y,z]": lambda: make_ring(QQ, ("x", "y", "z")),
    "GF(5)[x,y,z]": lambda: make_ring(GF(5), ("x", "y", "z")),
    "node GF(5)[x,y]/(xy)": lambda: node_ring(5),
    "cusp GF(5)[x,y]/(y^2-x^3), weights (2,3)": weighted_cusp,
}


@st.composite
def graded_modules(draw, ring):
    """coker of 0-2 columns over 1-2 generators of degree 0 or 1, each
    column homogeneous of its own degree 1-4, entries in normal form mod I."""
    coeffs = (0, 1, -1, 2) if ring.field.characteristic else (0, 1, -1, Fraction(1, 2))
    gen_degrees = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    columns = []
    for _ in range(draw(st.integers(0, 2))):
        degree = draw(st.integers(1, 4))
        comps = []
        for gen_degree in gen_degrees:
            monos = _monomials_of_weighted_degree(
                ring.nvars, ring.grading, degree - gen_degree
            )
            terms = {m: draw(st.sampled_from(coeffs)) for m in monos}
            comps.append(ring.normal_form_poly(Polynomial(ring.field, ring.nvars, terms)))
        columns.append(FreeElement.from_components(comps, rank=len(gen_degrees)))
    return FPModule(ring, columns, len(gen_degrees), gen_degrees)


@st.composite
def variable_power_sequences(draw, ring):
    """1 to nvars distinct variables in any order, each to the power 1 or 2."""
    order = draw(st.permutations(range(ring.nvars)))
    count = draw(st.integers(1, ring.nvars))
    return [ring.variable(v) ** draw(st.integers(1, 2)) for v in order[:count]]


class TestDepthAtTheFirstZeroHomology:
    @pytest.mark.parametrize("ring_name", sorted(DEPTH_RINGS))
    @given(data=st.data())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_depth_is_d_minus_the_top_nonzero_homology(self, ring_name, data):
        """koszul_depth stops at the first zero H_i; the answer is the one
        read from every H_i, as depth sensitivity states it."""
        ring = DEPTH_RINGS[ring_name]()
        module = data.draw(graded_modules(ring), label="module")
        sequence = data.draw(variable_power_sequences(ring), label="sequence")
        if module.is_zero():
            with pytest.raises(InputError):
                koszul_depth(sequence, module)
            return
        homologies = koszul_homologies(ring, sequence, module)
        top = max(i for i, h in enumerate(homologies) if not h.is_zero())
        assert koszul_depth(sequence, module) == len(sequence) - top


class TestHomologyCallers:
    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
    def test_tor_against_residue_field_is_koszul_homology(self, field):
        """tor(k, M, i) and tor(M, k, i) both compute H_i(K (x) M), and
        complex_homology on the Koszul complex is a third way; the depth of
        M is 3 minus the top index where they are nonzero."""
        ring = make_ring(field, ("x", "y", "z"), reduced=True)
        variables = [ring.poly(v) for v in ("x", "y", "z")]
        residue_field = FPModule.cyclic(ring, variables)
        syzygy = koszul_module(ring, ["x", "y", "z"])
        modules = [
            FPModule.free(ring, 1),
            syzygy,
            tensor_power(syzygy, 2),
            FPModule.cyclic(ring, [ring.poly("x")]),
            FPModule.cyclic(ring, [ring.poly("x^2"), ring.poly("y*z")]),
        ]
        differentials = koszul_differentials(ring, variables)
        step_degrees = [[i] * rank for i, rank in enumerate((1, 3, 3, 1))]
        for module in modules:
            nonzero = []
            for i in range(4):
                computed = [
                    tor(residue_field, module, i),
                    tor(module, residue_field, i),
                    complex_homology(differentials, step_degrees, module, i),
                ]
                invariants = {
                    (h.is_zero(), h.nu(), tuple(sorted(h.gen_degrees)))
                    for h in computed
                }
                assert len(invariants) == 1, (module, i, invariants)
                if not computed[-1].is_zero():
                    nonzero.append(i)
            assert koszul_depth(variables, module) == 3 - max(nonzero)


class TestKoszulComplex:
    def test_ranks_and_d_squared(self, QQxyz):
        seq = [QQxyz.poly(v) for v in ("x", "y", "z")]
        differentials = koszul_differentials(QQxyz, seq)
        # d_i : K_i -> K_{i-1}, and K has ranks 1, 3, 3, 1
        assert [len(cols) for cols in differentials] == [3, 3, 1]
        assert [cols[0].rank for cols in differentials] == [1, 3, 3]
        for i in range(1, len(differentials)):
            upper = differentials[i]
            lower = differentials[i - 1]
            for col in upper:
                acc = None
                for pos in range(col.rank):
                    comp = col.component(pos)
                    if comp.is_zero():
                        continue
                    piece = lower[pos].scaled(comp)
                    acc = piece if acc is None else acc + piece
                assert acc is None or acc.is_zero()
