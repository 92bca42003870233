"""Resolutions, projective dimension, Tor, and Koszul depth."""

from __future__ import annotations

import pytest

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
from torsionlab.modules import FPModule, annihilator, tensor_power
from torsionlab.rings import Ideal, make_ring


def koszul_module(ring, texts):
    return FPModule.from_rows(ring, [[ring.poly(t)] for t in texts])


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
            depth_m = koszul_depth(mvars, m).depth
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
        result = koszul_depth(seq, FPModule.free(QQxy, 1))
        assert result.depth == 2
        assert set(result.homologies) == {0}

    def test_tensor_square_depth_drop(self, QQxyz):
        m = tensor_power(koszul_module(QQxyz, ["x", "y", "z"]), 2)
        seq = [QQxyz.poly(v) for v in ("x", "y", "z")]
        result = koszul_depth(seq, m)
        assert result.depth == 1

    def test_killed_module_depth_zero(self, QQxy):
        m = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        result = koszul_depth([QQxy.poly("x")], m)
        assert result.depth == 0
        assert 1 in result.homologies

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
            assert koszul_depth(seq, module).depth == d - sup


class TestHomologyCallers:
    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
    def test_tor_against_residue_field_is_koszul_homology(self, field):
        """tor(k, M, i) and koszul_depth on the variables both compute
        H_i(K (x) M); complex_homology on the Koszul complex is a third way."""
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
            homologies = koszul_depth(variables, module).homologies
            for i in range(4):
                computed = [
                    tor(residue_field, module, i),
                    homologies.get(i, FPModule.zero_module(ring)),
                    complex_homology(differentials, step_degrees, module, i),
                ]
                invariants = {
                    (h.is_zero(), h.nu(), tuple(sorted(h.gen_degrees)))
                    for h in computed
                }
                assert len(invariants) == 1, (module, i, invariants)


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
