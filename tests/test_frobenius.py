"""Twist functors, restriction of scalars, pushforwards, and verifiers."""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import torsionlab.frobenius as frobenius
from torsionlab.engine import run_source
from torsionlab.errors import InputError, ResourceLimitError, UnsupportedError
from torsionlab.fields import GF, QQ
from torsionlab.frobenius import (
    ModuleAlgebra,
    _powered_column,
    frobenius_functor,
    restrict_scalars,
    restricted_ring,
    ring_is_regular_linear_forms,
    tor_frobenius,
    universal_pushforward,
    verify_frobenius_torsion_equivalence,
    verify_integral_closure_carrier,
    verify_regularity_probe,
)
from torsionlab.homology import PD_INFINITE, pd
from torsionlab.modules import (
    FPModule,
    _monomials_of_weighted_degree,
    annihilator,
    modules_equivalent,
)
from torsionlab.poly import FreeElement, Polynomial
from torsionlab.rings import Ideal, make_ring
from torsionlab.syntax import parse_polynomial
from torsionlab.torsion import (
    koszul_syzygy_module,
    maximal_ideal_module,
    residue_field_module,
    torsion_split,
)

from conftest import node_ring


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
    def test_powered_column_is_the_entrywise_qth_power(self):
        from torsionlab.syntax import parse_polynomial

        entries = [
            parse_polynomial(text, ("x", "y"), GF(5))
            for text in ("x + 2*y", "0", "3*x^2*y - y^3")
        ]
        column = FreeElement.from_components(entries)
        powered = FreeElement.from_components([f ** 5 for f in entries])
        assert _powered_column(column, 5) == powered

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


def _reduced_ci_ring(p, names, ideal, primes, grading=None):
    field = GF(p)

    def poly(text):
        return parse_polynomial(text, names, field)

    return make_ring(
        field,
        names,
        ideal=[poly(t) for t in ideal],
        grading=grading,
        minimal_primes=[[poly(t) for t in prime] for prime in primes],
        reduced=True,
        complete_intersection=True,
    )


RESTRICTION_RINGS = {
    "GF(2) node": lambda: node_ring(2),
    "GF(3) node": lambda: node_ring(3),
    "GF(2) Fermat cubic": fermat_cubic_ring,
    "GF(3) plane grading (1,2)": lambda: _reduced_ci_ring(
        3, ("x", "y"), [], [], grading=(1, 2)
    ),
    "GF(2) cusp grading (2,3)": lambda: _reduced_ci_ring(
        2, ("x", "y"), ["x^3 + y^2"], [["x^3 + y^2"]], grading=(2, 3)
    ),
}


@st.composite
def homogeneous_modules(draw, ring):
    """A module on 1-2 generators of degree 0 or 1 with 0-2 homogeneous
    relation columns."""
    gen_degrees = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    columns = []
    for _ in range(draw(st.integers(0, 2))):
        degree = draw(st.integers(1, 3))
        comps = []
        for gen_degree in gen_degrees:
            want = degree - gen_degree
            monos = _monomials_of_weighted_degree(ring.nvars, ring.grading, want)
            terms = {}
            for mono in monos if want >= 0 else ():
                c = draw(st.sampled_from((0, 0, 1, -1)))
                if c:
                    terms[mono] = c
            comps.append(Polynomial(ring.field, ring.nvars, terms))
        columns.append(FreeElement.from_components(comps, rank=len(gen_degrees)))
    return FPModule(ring, columns, len(gen_degrees), gen_degrees)


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

    @pytest.mark.parametrize("ring_name", sorted(RESTRICTION_RINGS))
    def test_the_target_ring_shares_the_groebner_data(self, ring_name):
        ring = RESTRICTION_RINGS[ring_name]()
        target = restricted_ring(ring, 1)
        q = ring.field.characteristic
        assert target.grading == tuple(q * w for w in ring.grading)
        assert target.ideal_basis is ring.ideal_basis
        assert list(map(id, target.prime_bases())) == list(map(id, ring.prime_bases()))
        assert target.warnings == ring.warnings

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

    def test_over_the_generator_cap_is_refused_with_the_count(self):
        ring = make_ring(GF(3), ("x", "y", "z", "w"), reduced=True)
        with pytest.raises(ResourceLimitError) as error:
            restrict_scalars(FPModule.free(ring, 1), 2)
        assert str(error.value) == (
            "restriction of scalars needs 6561 generators (1 x 6561), "
            "over the cap of 4096"
        )

    @pytest.mark.parametrize(
        "e, needs",
        [
            (40, f"{2**80} generators (1 x {2**80})"),
            # 2^20000 has more digits than str() will print
            (10000, "1 x 2^20000 generators"),
        ],
    )
    def test_a_huge_exponent_is_refused_before_anything_is_built(
        self, monkeypatch, e, needs
    ):
        # listing 2^(2e) exponent vectors, or building the target ring,
        # would never finish
        def unreachable(ring, e):
            raise AssertionError("the target ring was built")

        monkeypatch.setattr(frobenius, "restricted_ring", unreachable)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as error:
            restrict_scalars(FPModule.free(regular_f2(), 1), e)
        assert time.perf_counter() - start < 1.0
        assert str(error.value) == (
            f"restriction of scalars needs {needs}, over the cap of 4096"
        )

    @pytest.mark.parametrize(
        "ring_name, rows, e, expected",
        [
            ("GF(2) node", None, 1, (4, 3, 2, 3)),
            ("GF(3) node", [["x"]], 2, (81, 9, 9, 9)),
            ("GF(2) Fermat cubic", [["x"], ["y"]], 1, (16, 10, 6, 10)),
            ("GF(2) Fermat cubic", None, 2, (64, 36, 19, 34)),
            ("GF(3) plane grading (1,2)", [["x"], ["y"]], 2, (162, 82, 0, 82)),
            ("GF(2) cusp grading (2,3)", None, 2, (16, 8, 4, 4)),
        ],
    )
    def test_pinned_invariants(self, ring_name, rows, e, expected):
        # ngens and nu of the restriction, then the torsion and torsion-free
        # nu of its twist; pinned from an independent construction, an
        # x-eliminating Groebner basis on the graph of the generators
        ring = RESTRICTION_RINGS[ring_name]()
        if rows is None:
            source = FPModule.free(ring, 1)
        else:
            source = FPModule.from_rows(
                ring, [[ring.poly(t) for t in row] for row in rows]
            )
        result = restrict_scalars(source, e)
        split = torsion_split(frobenius_functor(result, 1))
        got = (result.ngens, result.nu(), split.torsion.nu())
        assert got + (split.torsion_free_part.nu(),) == expected

    def test_cusp_hilbert_values(self):
        ring = RESTRICTION_RINGS["GF(2) cusp grading (2,3)"]()
        result = restrict_scalars(FPModule.free(ring, 1), 2)
        values = [result.hilbert_function(d) for d in range(8)]
        assert values == [1, 0, 1, 1, 1, 1, 1, 1]

    @given(data=st.data())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_hilbert_function_of_random_modules_is_kept(self, data):
        name = data.draw(st.sampled_from(sorted(RESTRICTION_RINGS)))
        ring = RESTRICTION_RINGS[name]()
        source = data.draw(homogeneous_modules(ring))
        result = restrict_scalars(source, data.draw(st.integers(1, 2)))
        for degree in range(9):
            assert result.hilbert_function(degree) == source.hilbert_function(degree)


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
