"""Ring context construction, validation, and regular-sequence detection."""

from __future__ import annotations

import itertools

import pytest

from torsionlab.errors import InputError, StructuralError
from torsionlab.fields import GF, QQ
from torsionlab.poly import FreeElement
from torsionlab.rings import Ideal, is_regular_sequence, make_ring

from conftest import node_ring


class TestMakeRing:
    def test_polynomial_ring(self, QQxy):
        assert QQxy.ideal_generators == ()
        assert QQxy.nvars == 2
        assert QQxy.depth() == 2

    def test_node_example(self, node5):
        # GF(5)[x,y]/(xy) with branches (x) and (y): the graded node
        assert len(node5.prime_bases()) == 2
        assert node5.reduced and node5.complete_intersection
        assert node5.normal_form_poly(node5.poly("x*y")).is_zero()
        assert not node5.normal_form_poly(node5.poly("x^2")).is_zero()

    def test_a_ring_computes_its_key_once(self):
        # equality and hashing read the key, which formats every basis
        first, second = node_ring(), node_ring()
        assert first.key() is first.key()
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert first != node_ring(7)

    def test_inhomogeneous_ideal_rejected(self):
        from torsionlab.syntax import parse_polynomial

        bad = parse_polynomial("x^2 + y", ("x", "y"), QQ)
        with pytest.raises(InputError):
            make_ring(QQ, ("x", "y"), ideal=[bad])

    def test_weighted_homogeneous_accepted(self):
        # a^3 - b^2 is homogeneous for weights (2, 3)
        from torsionlab.syntax import parse_polynomial

        f = parse_polynomial("a^3 - b^2", ("a", "b"), GF(5))
        ring = make_ring(GF(5), ("a", "b"), ideal=[f], grading=(2, 3), reduced=True)
        assert ring.grading == (2, 3)

    def test_false_ci_flag_rejected(self):
        from torsionlab.syntax import parse_polynomial

        names = ("x", "y")
        gens = [
            parse_polynomial("x*y", names, QQ),
            parse_polynomial("x^2", names, QQ),
        ]
        # (xy, x^2) is not a regular sequence in QQ[x,y]
        with pytest.raises(StructuralError):
            make_ring(QQ, names, ideal=gens, complete_intersection=True)

    def test_prime_not_containing_ideal_rejected(self):
        from torsionlab.syntax import parse_polynomial

        names = ("x", "y")
        xy = parse_polynomial("x*y", names, QQ)
        z_ideal = [parse_polynomial("x + y", names, QQ)]
        with pytest.raises(StructuralError):
            make_ring(QQ, names, ideal=[xy], minimal_primes=[z_ideal])

    def test_reduced_flag_trusted_with_warning(self):
        from torsionlab.syntax import parse_polynomial

        names = ("x", "y")
        x2 = parse_polynomial("x^2", names, GF(2))
        # declaring GF(2)[x,y]/(x^2) reduced is wrong but trusted
        ring = make_ring(GF(2), names, ideal=[x2], reduced=True)
        assert any("reduced" in w for w in ring.warnings)

    def test_determinism(self, node5):
        other = node_ring(5)
        assert other == node5
        assert [g.terms for g in other.ideal_basis] == [
            g.terms for g in node5.ideal_basis
        ]

    def test_a_prime_is_compared_by_its_reduced_basis(self):
        from torsionlab.syntax import parse_polynomial

        # (x, y) and (x + y, y) are one prime of GF(5)[x,y,z]/(xz, yz)
        names = ("x", "y", "z")

        def ring(*primes):
            def poly(text):
                return parse_polynomial(text, names, GF(5))

            return make_ring(
                GF(5),
                names,
                ideal=[poly("x*z"), poly("y*z")],
                minimal_primes=[[poly(t) for t in prime] for prime in primes],
                reduced=True,
            )

        assert ring(["z"], ["x", "y"]) == ring(["z"], ["x + y", "y"])
        assert ring(["z"], ["x", "y"]) != ring(["x", "y"], ["z"])

    def test_the_polynomial_ring_declares_the_zero_prime_by_default(self):
        declared = make_ring(QQ, ("x", "y"), minimal_primes=[[]])
        default = make_ring(QQ, ("x", "y"))
        assert declared == default
        assert default.warnings == ()
        assert declared.warnings != ()


class TestRegularSequences:
    def test_variables_are_regular(self, QQxyz):
        seq = [QQxyz.poly(v) for v in ("x", "y", "z")]
        assert is_regular_sequence(QQxyz, seq)

    def test_zerodivisor_not_regular(self, node5):
        assert not is_regular_sequence(node5, [node5.poly("x")])

    def test_repeated_element_not_regular(self, QQxy):
        # H_1 of the Koszul complex on (x, x) contains the class of (1, -1)
        x = QQxy.poly("x")
        assert not is_regular_sequence(QQxy, [x, x])

    def test_unit_rejected(self, QQxy):
        with pytest.raises(InputError):
            is_regular_sequence(QQxy, [QQxy.poly("x + 1")])

    def test_nonzerodivisor_on_node(self, node5):
        assert is_regular_sequence(node5, [node5.poly("x + y")])

    def test_powers_still_regular(self, QQxy):
        seq = [QQxy.poly("x^2"), QQxy.poly("y^3")]
        assert is_regular_sequence(QQxy, seq)

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
    def test_permutation_invariance(self, QQxyz, perm):
        base = [QQxyz.poly("x"), QQxyz.poly("y + z"), QQxyz.poly("z")]
        seq = [base[i] for i in perm]
        assert is_regular_sequence(QQxyz, seq)


class TestNormalFormVector:
    def test_reduces_every_component_mod_the_ideal(self, node5):
        vec = FreeElement.from_components(
            [node5.poly("x") * node5.poly("y"), node5.poly("x^2"), node5.zero()]
        )
        reduced = node5.normal_form_vector(vec)
        assert reduced == FreeElement.from_components(
            [node5.zero(), node5.poly("x^2"), node5.zero()]
        )
        assert node5.normal_form_vector(
            FreeElement.from_components([node5.poly("x") * node5.poly("y")])
        ).is_zero()

    def test_returns_the_vector_itself_when_nothing_reduces(self, QQxy, node5):
        vec = FreeElement.from_components([QQxy.poly("x*y"), QQxy.poly("y^2")])
        assert QQxy.normal_form_vector(vec) is vec
        zero = FreeElement.zero(node5.field, node5.nvars, 3)
        assert node5.normal_form_vector(zero) is zero


class TestIdeal:
    def test_membership(self, QQxy):
        ideal = Ideal(QQxy, [QQxy.poly("x^2"), QQxy.poly("x*y + y^2")])
        assert ideal.contains(QQxy.poly("y^3"))
        assert not ideal.contains(QQxy.poly("y^2"))

    def test_equality_two_way(self, QQxy):
        a = Ideal(QQxy, [QQxy.poly("x"), QQxy.poly("y")])
        b = Ideal(QQxy, [QQxy.poly("x + y"), QQxy.poly("y")])
        assert a == b

    def test_nonzerodivisor_detection_on_node(self, node5):
        assert not Ideal(node5, [node5.poly("x")]).contains_nonzerodivisor()
        assert Ideal(node5, [node5.poly("x + y")]).contains_nonzerodivisor()
        assert Ideal(
            node5, [node5.poly("x"), node5.poly("y")]
        ).contains_nonzerodivisor()

    def test_minimal_generators(self, QQxy):
        ideal = Ideal(QQxy, [QQxy.poly("x"), QQxy.poly("x^2"), QQxy.poly("y")])
        mins = ideal.minimal_generators()
        assert sorted(QQxy.format(g) for g in mins) == ["x", "y"]
