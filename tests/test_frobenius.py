"""Twist functors, restriction of scalars, pushforwards, and verifiers."""

from __future__ import annotations

import pytest

from torsionlab.engine import run_source
from torsionlab.errors import InputError, UnsupportedError
from torsionlab.fields import GF, QQ
from torsionlab.frobenius import (
    ModuleAlgebra,
    frobenius_functor,
    residue_field_module,
    restrict_scalars,
    ring_is_regular_linear_forms,
    tor_frobenius,
    universal_pushforward,
    verify_frobenius_torsion_equivalence,
    verify_integral_closure_carrier,
    verify_regularity_probe,
)
from torsionlab.homology import PD_INFINITE, pd
from torsionlab.modules import FPModule, annihilator, modules_equivalent
from torsionlab.poly import FreeElement
from torsionlab.rings import Ideal, make_ring
from torsionlab.torsion import koszul_syzygy_module, maximal_ideal_module


def fermat_cubic_ring():
    field = GF(2)
    names = ("x", "y", "z")
    from torsionlab.syntax import parse_polynomial

    cubic = parse_polynomial("x^3 + y^3 + z^3", names, field)
    return make_ring(
        field,
        names,
        ideal=[cubic],
        minimal_primes=[[cubic]],
        reduced=True,
        complete_intersection=True,
    )


def regular_f2():
    return make_ring(
        GF(2), ("x", "y"), reduced=True, complete_intersection=True
    )


class TestFrobeniusFunctor:
    def test_free_module_fixed(self, node2):
        free = FPModule.free(node2, 2)
        assert frobenius_functor(free, 3).is_free()

    def test_node_branch_squares(self, node2):
        m = FPModule.cyclic(node2, [node2.poly("x")])
        fm = frobenius_functor(m, 1)
        assert annihilator(fm) == Ideal(node2, [node2.poly("x^2")])

    def test_entrywise_powers(self):
        ring = fermat_cubic_ring()
        m = koszul_syzygy_module(ring, [ring.poly("y"), ring.poly("z")])
        fm = frobenius_functor(m, 1)
        entries = sorted(
            ring.format(c) for c in fm.relations[0].components()
        )
        assert entries == ["y^2", "z^2"]

    def test_entrywise_powers_char_three_quadric(self):
        from torsionlab.syntax import parse_polynomial

        names = ("x", "y", "z")
        quadric = parse_polynomial("x^2 + y^2 + z^2", names, GF(3))
        ring = make_ring(
            GF(3),
            names,
            ideal=[quadric],
            minimal_primes=[[quadric]],
            reduced=True,
            complete_intersection=True,
        )
        m = koszul_syzygy_module(ring, [ring.poly("y"), ring.poly("z")])
        fm = frobenius_functor(m, 1)
        entries = sorted(ring.format(c) for c in fm.relations[0].components())
        assert entries == ["y^3", "z^3"]

    def test_composition_matches_single_step(self, node2):
        m = FPModule.cyclic(node2, [node2.poly("x")])
        twice = frobenius_functor(frobenius_functor(m, 1), 1)
        direct = frobenius_functor(m, 2)
        assert modules_equivalent(twice, direct)

    def test_characteristic_zero_rejected(self, QQxy):
        with pytest.raises(UnsupportedError):
            frobenius_functor(FPModule.free(QQxy, 1), 1)


class TestTorFrobenius:
    def test_regular_ring_flatness(self):
        ring = regular_f2()
        panel = [
            FPModule.cyclic(ring, [ring.poly("x")]),
            koszul_syzygy_module(ring, [ring.poly("x"), ring.poly("y")]),
            maximal_ideal_module(ring),
        ]
        for module in panel:
            for e in (1, 2):
                for i in (1, 2):
                    assert tor_frobenius(module, e, i).is_zero()

    def test_node_branch_obstruction(self, node2):
        # hand value: H_1 = ann(x^2)/(y^2) = (y)/(y^2), one generator killed by m
        m = FPModule.cyclic(node2, [node2.poly("x")])
        h1 = tor_frobenius(m, 1, 1)
        assert h1.nu() == 1
        assert annihilator(h1) == Ideal(node2, [node2.poly("x"), node2.poly("y")])

    def test_free_module_vanishes(self, node2):
        assert tor_frobenius(FPModule.free(node2, 1), 1, 1).is_zero()

    def test_vanishing_tracks_finite_pd_both_directions(self, node2):
        # on each instance: twisted Tor vanishes somewhere iff pd is finite
        panel = [
            FPModule.free(node2, 1),
            FPModule.cyclic(node2, [node2.poly("x + y")]),
            FPModule.cyclic(node2, [node2.poly("x")]),
            FPModule.cyclic(node2, [node2.poly("y")]),
        ]
        for module in panel:
            finite = pd(module) != PD_INFINITE
            vanishes_somewhere = any(
                tor_frobenius(module, e, i).is_zero()
                for e in (1, 2)
                for i in (1, 2)
            )
            assert vanishes_somewhere == finite, module.descriptor()


class TestRestrictScalars:
    def test_one_variable_line(self):
        ring = make_ring(GF(2), ("x",), reduced=True)
        result = restrict_scalars(FPModule.free(ring, 1), 1)
        assert result.is_free()
        assert result.nu() == 2

    def test_two_variable_plane(self):
        ring = regular_f2()
        result = restrict_scalars(FPModule.free(ring, 1), 1)
        assert result.is_free()
        assert result.nu() == 4

    def test_node_pushforward_minimal_generators(self, node2):
        # x^(1,1) = xy dies in the node, so the minimal count drops to 3
        result = restrict_scalars(FPModule.free(node2, 1), 1)
        assert not result.is_free()
        assert result.nu() == 3

    def test_dilated_grading(self, node2):
        result = restrict_scalars(FPModule.free(node2, 1), 1)
        assert result.ring.grading == (2, 2)

    def test_hilbert_series_identity(self, node2):
        # dimension in each degree equals that of the source module: the
        # underlying graded space is unchanged, only the action dilates
        source = FPModule.free(node2, 1)
        result = restrict_scalars(source, 1)
        for degree in range(13):
            assert result.hilbert_function(degree) == source.hilbert_function(degree)

    def test_hilbert_series_identity_nontrivial_module(self):
        ring = regular_f2()
        source = koszul_syzygy_module(ring, [ring.poly("x"), ring.poly("y")])
        result = restrict_scalars(source, 1)
        for degree in range(13):
            assert result.hilbert_function(degree) == source.hilbert_function(degree)

    def test_characteristic_zero_rejected(self, QQxy):
        with pytest.raises(UnsupportedError):
            restrict_scalars(FPModule.free(QQxy, 1), 1)


class TestUniversalPushforward:
    def test_free_module(self, QQxy):
        push = universal_pushforward(FPModule.free(QQxy, 1))
        assert push.free_rank == 1
        assert push.cokernel.is_zero()

    def test_koszul_module_cokernel_cyclic(self, QQxy):
        m = koszul_syzygy_module(QQxy, [QQxy.poly("x"), QQxy.poly("y")])
        push = universal_pushforward(m)
        assert push.free_rank == 1
        n = push.cokernel
        assert n.nu() == 1
        assert annihilator(n) == Ideal(QQxy, [QQxy.poly("x"), QQxy.poly("y")])

    def test_node_branch_embeds_via_the_other_branch(self, node5):
        m = FPModule.cyclic(node5, [node5.poly("x")])
        push = universal_pushforward(m)
        assert push.free_rank == 1
        assert annihilator(push.cokernel) == Ideal(node5, [node5.poly("y")])

    def test_torsion_module_rejected(self, QQxy):
        m = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        with pytest.raises(InputError):
            universal_pushforward(m)


class TestRegularityDecision:
    def test_polynomial_ring_regular(self):
        assert ring_is_regular_linear_forms(regular_f2())

    def test_node_not_regular(self, node2):
        assert not ring_is_regular_linear_forms(node2)

    def test_linear_form_substituted_away(self):
        from torsionlab.syntax import parse_polynomial

        names = ("x", "y")
        f = parse_polynomial("x + y", names, QQ)
        ring = make_ring(QQ, names, ideal=[f])
        assert ring_is_regular_linear_forms(ring)

    def test_agreement_with_residue_field_pd(self, node2):
        for ring in (regular_f2(), node2):
            by_forms = ring_is_regular_linear_forms(ring)
            by_pd = pd(residue_field_module(ring)) != PD_INFINITE
            assert by_forms == by_pd

    def test_weighted_grading_decided_without_the_grading(self):
        # y - x^2 is homogeneous for weights (1,2); the ring is k[x], regular
        ring = weighted_parabola()
        assert ring_is_regular_linear_forms(ring)
        assert pd(residue_field_module(ring)) == 1
        # the graded cusp has no linear part and dimension 1: singular
        cusp = semigroup_ring()
        assert not ring_is_regular_linear_forms(cusp)
        assert pd(residue_field_module(cusp)) == PD_INFINITE


WEIGHTED_PROBE = (
    "ring R = GF(2)[x,y] / (y - x^2) with grading (1,2) "
    "minimal_primes [(y - x^2)] reduced ci;\n"
    "module N = coker [[x]] over R;\n"
    "probe regularity R N;\n"
)


def weighted_parabola():
    from torsionlab.syntax import parse_polynomial

    f = parse_polynomial("y - x^2", ("x", "y"), GF(2))
    return make_ring(
        GF(2),
        ("x", "y"),
        ideal=[f],
        grading=(1, 2),
        minimal_primes=[[f]],
        reduced=True,
        complete_intersection=True,
    )


class TestWeightedRegularityProbe:
    def test_script_no_longer_fails(self):
        report = run_source(WEIGHTED_PROBE)
        assert [r.status for r in report.results] == ["ok", "ok", "inapplicable"]
        (cert,) = report.certificates
        assert cert.inapplicable_reason == "the module has torsion"
        (decision,) = cert.subclaims
        assert decision.name == "regularity-decisions-agree"
        assert decision.passed
        assert decision.witnesses == {"linear_forms": True, "residue_field_pd": 1}

    def test_free_module_passes(self):
        source = WEIGHTED_PROBE.replace("coker [[x]]", "coker [[0]]")
        report = run_source(source)
        assert report.exit_code == 0, [r.summary for r in report.results]

    def test_disagreeing_decisions_fail_a_module_with_torsion(self, monkeypatch):
        import torsionlab.frobenius as frobenius

        monkeypatch.setattr(frobenius, "ring_is_regular_linear_forms", lambda ring: False)
        report = run_source(WEIGHTED_PROBE)
        (cert,) = report.certificates
        assert cert.verdict == "fail"
        assert cert.failed_subclaims() == ["regularity-decisions-agree"]
        assert report.exit_code == 1


class TestTheorem35:
    def test_node_negative_instance(self, node2):
        # R/(x): torsion-free but infinite pd; its twist R/(x^2) has torsion
        m = FPModule.cyclic(node2, [node2.poly("x")])
        cert = verify_frobenius_torsion_equivalence(m, 1)
        assert cert.applicable
        assert cert.passed, cert.failed_subclaims()
        sides = {sc.name: sc for sc in cert.subclaims}
        assert sides["module-side"].witnesses["projective_dimension"] == PD_INFINITE

    def test_fermat_cubic_positive_instance(self):
        ring = fermat_cubic_ring()
        m = koszul_syzygy_module(ring, [ring.poly("y"), ring.poly("z")])
        cert = verify_frobenius_torsion_equivalence(m, 1)
        assert cert.applicable
        assert cert.passed, cert.failed_subclaims()

    def test_free_module_trivial(self, node2):
        cert = verify_frobenius_torsion_equivalence(FPModule.free(node2, 1), 1)
        assert cert.applicable and cert.passed

    def test_missing_ci_flag_inapplicable(self):
        from torsionlab.syntax import parse_polynomial

        names = ("x", "y")
        xy = parse_polynomial("x*y", names, GF(2))
        x = parse_polynomial("x", names, GF(2))
        y = parse_polynomial("y", names, GF(2))
        ring = make_ring(
            GF(2), names, ideal=[xy], minimal_primes=[[x], [y]], reduced=True
        )
        cert = verify_frobenius_torsion_equivalence(FPModule.free(ring, 1), 1)
        assert not cert.applicable


class TestRegularityProbe:
    def test_regular_plane(self):
        ring = regular_f2()
        m = koszul_syzygy_module(ring, [ring.poly("x"), ring.poly("y")])
        cert = verify_regularity_probe(ring, m, 1, 1)
        assert cert.applicable
        assert cert.passed, cert.failed_subclaims()

    def test_node_detects_singularity(self, node2):
        cert = verify_regularity_probe(node2, FPModule.free(node2, 1), 1, 1)
        assert cert.applicable
        assert cert.passed, cert.failed_subclaims()
        names = {sc.name: sc for sc in cert.subclaims}
        assert names["torsion-freeness-matches-regularity"].witnesses[
            "torsion_free"
        ] is False

    def test_one_variable_line(self):
        ring = make_ring(
            GF(5), ("x",), reduced=True, complete_intersection=True
        )
        cert = verify_regularity_probe(ring, FPModule.free(ring, 1), 1, 1)
        assert cert.passed


def semigroup_ring():
    """GF(5)[a,b]/(a^3 - b^2) with weights (2, 3): the graded cusp."""
    field = GF(5)
    names = ("a", "b")
    from torsionlab.syntax import parse_polynomial

    f = parse_polynomial("a^3 - b^2", names, field)
    return make_ring(
        field,
        names,
        ideal=[f],
        grading=(2, 3),
        minimal_primes=[[f]],
        reduced=True,
        complete_intersection=True,
    )


def semigroup_closure(ring):
    rows = [
        [ring.poly("b"), ring.poly("a^2")],
        [-ring.poly("a"), -ring.poly("b")],
    ]
    bar = FPModule.from_rows(ring, rows, gen_degrees=(0, 1))
    products = {
        (0, 0): bar.generator(0).coords,
        (0, 1): bar.generator(1).coords,
        (1, 1): FreeElement.from_components([ring.poly("a"), ring.zero()]),
    }
    return ModuleAlgebra(module=bar, unit_index=0, products=products)


class TestIntegralClosureCarrier:
    def test_free_module_instance(self):
        ring = semigroup_ring()
        closure = semigroup_closure(ring)
        cert = verify_integral_closure_carrier(ring, closure, FPModule.free(ring, 1))
        assert cert.applicable
        assert cert.passed, cert.failed_subclaims()

    def test_maximal_ideal_gets_torsion(self):
        ring = semigroup_ring()
        closure = semigroup_closure(ring)
        m = maximal_ideal_module(ring)
        assert not m.is_free()
        cert = verify_integral_closure_carrier(ring, closure, m)
        assert cert.applicable
        assert cert.passed, cert.failed_subclaims()
        names = {sc.name: sc for sc in cert.subclaims}
        assert names["closure-tensor-torsion"].witnesses["torsion_free"] is False

    def test_rank_two_free(self):
        ring = semigroup_ring()
        closure = semigroup_closure(ring)
        cert = verify_integral_closure_carrier(ring, closure, FPModule.free(ring, 2))
        assert cert.passed

    def test_missing_structure_inapplicable(self):
        ring = semigroup_ring()
        closure = semigroup_closure(ring)
        bare = ModuleAlgebra(module=closure.module, products=None)
        cert = verify_integral_closure_carrier(ring, bare, FPModule.free(ring, 1))
        assert not cert.applicable
