"""Torsion splits, alternating tensors, and the tensor-power verifiers."""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import torsionlab.torsion as torsion
from conftest import node_ring
from torsionlab.engine import run_source
from torsionlab.errors import AbortedError, InputError, UnsupportedError
from torsionlab.fields import GF, QQ
from torsionlab.homology import pd
from torsionlab.limits import run_scope
from torsionlab.modules import (
    FPModule,
    ModuleMap,
    annihilator,
    dual_evaluation,
    dual_generators,
    dual_syzygies,
    kernel_of_map,
    tensor_coords,
    tensor_power,
)
from torsionlab.poly import FreeElement, Polynomial
from torsionlab.randgen import random_module_with_planted_relation
from torsionlab.rings import Ideal, RingContext, make_ring
from torsionlab.suite import dense_kernel_oracle, in_oracle_span
from torsionlab.syntax import parse_polynomial
from torsionlab.torsion import (
    alternating_tensor,
    check_relation_annihilates,
    explore_torsion_onset,
    koszul_syzygy_module,
    maximal_ideal_module,
    torsion_split,
    universal_koszul_module,
    verify_koszul_tensor_powers,
    verify_maximal_ideal_carrier,
    verify_presentation_torsion_bound,
)


def koszul_module(ring, texts):
    return koszul_syzygy_module(ring, [ring.poly(t) for t in texts])


class TestTorsionSplit:
    def test_free_module_is_torsion_free(self, QQxy):
        split = torsion_split(FPModule.free(QQxy, 2))
        assert split.is_torsion_free and not split.torsion_free_part.is_zero()

    def test_node_branch_is_torsion_free(self, node5):
        split = torsion_split(FPModule.cyclic(node5, [node5.poly("x")]))
        assert split.is_torsion_free

    def test_nilpotent_style_class_is_torsion(self, node5):
        # in R/(x^2) over the node, the class of x is killed by x + y
        m = FPModule.cyclic(node5, [node5.poly("x^2")])
        split = torsion_split(m)
        assert not split.is_torsion_free
        x_class = m.element([node5.poly("x")])
        assert not x_class.is_zero()
        assert m.element_is_zero(x_class.coords.scaled(node5.poly("x + y")))
        # and the class of x lies in the computed torsion submodule
        basis = node5.submodule_basis(
            list(m.relations) + list(split.inclusion_columns), m.ngens
        )
        assert basis.normal_form(x_class.coords).is_zero()

    def test_torsion_module_over_domain(self, QQxy):
        m = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        split = torsion_split(m)
        assert split.torsion_free_part.is_zero()
        assert split.torsion.nu() == m.nu()

    def test_split_exactness(self, QQxy):
        m = FPModule.from_rows(
            QQxy,
            [[QQxy.poly("x"), QQxy.poly("0")], [QQxy.poly("0"), QQxy.poly("0")]],
            gen_degrees=(0, 0),
        )
        split = torsion_split(m)
        # torsion part: the R/(x) summand; torsion-free part: the free one
        assert split.torsion.nu() == 1
        assert split.torsion_free_part.nu() == 1
        # idempotence: the torsion-free part has no torsion left
        again = torsion_split(split.torsion_free_part)
        assert again.is_torsion_free

    def test_requires_reduced_flag(self):
        x2 = parse_polynomial("x^2", ("x", "y"), GF(5))
        ring = make_ring(GF(5), ("x", "y"), ideal=[x2])
        with pytest.raises(UnsupportedError):
            torsion_split(FPModule.free(ring, 1))


SPLIT_RINGS = {
    "GF(7)": lambda: make_ring(GF(7), ("x", "y"), reduced=True),
    "QQ": lambda: make_ring(QQ, ("x", "y"), reduced=True),
    "GF(7) node": lambda: node_ring(7),
}
SPLIT_ORACLE_BOUND = 3


@st.composite
def small_modules(draw, ring):
    """coker of columns in R^1..R^3, fewer than the generators when there
    are two or more, so that M* is mostly nonzero: generators in degree 0,
    each column homogeneous of its own degree 0-2, entries in normal form
    mod I."""
    coeffs = (0, 1, -1, 2) if ring.field.characteristic else (0, 1, -1, Fraction(1, 2))
    ngens = draw(st.integers(1, 3))
    columns = []
    for _ in range(draw(st.integers(1, max(1, ngens - 1)))):
        degree = draw(st.integers(0, 2))
        monos = [(a, degree - a) for a in range(degree + 1)]
        comps = [
            ring.normal_form_poly(
                Polynomial(ring.field, 2, {m: draw(st.sampled_from(coeffs)) for m in monos})
            )
            for _ in range(ngens)
        ]
        columns.append(FreeElement.from_components(comps, rank=ngens))
    return FPModule(ring, columns, ngens)


class TestTorsionSplitOracle:
    """The split on random small modules, against the dense linear-algebra
    oracle of ``suite`` and against the evaluation at a minimal generating
    set of M*."""

    @pytest.mark.parametrize("ring_name", sorted(SPLIT_RINGS))
    @given(data=st.data())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    def test_split_matches_the_oracle(self, ring_name, data):
        ring = SPLIT_RINGS[ring_name]()
        check_split(ring, data.draw(small_modules(ring), label="module"))

    def test_a_dual_whose_reduced_syzygy_basis_is_not_minimal(self):
        ring = SPLIT_RINGS["GF(7)"]()
        texts = ["2*x^2", "2*x^2 + x*y + y^2", "2*x^2 + 6*x*y + y^2"]
        module = FPModule.from_rows(ring, [[ring.poly(t)] for t in texts])
        assert len(dual_syzygies(module)[0]) == 3
        assert len(dual_generators(module)[0]) == 2
        check_split(ring, module)


def check_split(ring, module, freeing=None):
    split = torsion_split(module, freeing=freeing)
    m = module.ngens

    # the evaluation kernel is the same through the reduced dual syzygies,
    # in the split's order, and through dual_generators
    rows, degrees = dual_syzygies(module)
    minimal_rows, minimal_degrees = dual_generators(module)
    through_all, _ = dual_evaluation(module, rows[::-1], degrees[::-1])
    through_minimal, _ = dual_evaluation(module, minimal_rows, minimal_degrees)
    kernel_all = ring.syzygies(through_all, len(rows))
    kernel_minimal = ring.syzygies(through_minimal, len(minimal_rows))
    assert [list(v.terms.items()) for v in kernel_all] == [
        list(v.terms.items()) for v in kernel_minimal
    ]

    # t(M) injects into M
    if not split.is_torsion_free:
        inclusion = ModuleMap(split.torsion, module, split.inclusion_columns)
        inner, _ = kernel_of_map(inclusion)
        assert inner.is_zero()

    # the preimage of t(M) is {v : phi(v) in I for the minimal phi}
    if not minimal_rows:
        assert split.torsion_free_part.is_zero()
        return
    k = len(minimal_rows)
    oracle = dense_kernel_oracle(
        [[col.component(r) for col in through_minimal] for r in range(k)],
        2,
        SPLIT_ORACLE_BOUND,
        ring.field,
        [vec.components() for vec in ring.ideal_block(k)],
    )
    preimage = ring.submodule_basis(
        list(split.inclusion_columns) + list(module.relations), m
    )
    for vec in oracle:
        assert preimage.contains(FreeElement.from_components(vec, rank=m))
    for gen in split.inclusion_columns:
        if gen.degree() <= SPLIT_ORACLE_BOUND:
            assert in_oracle_span(gen.components(), oracle, ring.field)


def certify_case(seed):
    """The field, variables and dense GF(32003) thm2.8 sequence of the
    certify benchmark's script for ``seed``, read from
    ``perfbench/certify.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "certify.py"
    spec = importlib.util.spec_from_file_location("perfbench_certify", path)
    certify = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(certify)
    modular, _ = certify.sequences(seed)
    return GF(certify.PRIME), certify.VARIABLES, modular


def terms_of(vectors):
    return [list(vec.terms.items()) for vec in vectors]


ROUTE_CASES = {
    "QQ (x, y)": (QQ, ("x", "y"), ["x", "y"]),
    "QQ (x^2, y^3)": (QQ, ("x", "y"), ["x^2", "y^3"]),
    "GF(5) (x, y, z)": (GF(5), ("x", "y", "z"), ["x", "y", "z"]),
    "GF(32003) certify seed 0": certify_case(0),
}


class TestSaturationRoute:
    """The split freed by r_1 on the tensor powers of a Koszul module gives
    what the dual route gives, term for term."""

    @pytest.mark.parametrize("case", sorted(ROUTE_CASES))
    def test_the_routes_agree_on_every_tensor_power(self, case):
        field, names, texts = ROUTE_CASES[case]
        ring = make_ring(field, names, reduced=True)
        seq = [ring.poly(t) for t in texts]
        module = koszul_syzygy_module(ring, seq)
        for n in range(1, len(seq) + 1):
            power = tensor_power(module, n)
            dual = torsion_split(power)
            saturated = torsion_split(power, freeing=seq[0])
            assert terms_of(saturated.inclusion_columns) == terms_of(
                dual.inclusion_columns
            ), n
            assert terms_of(saturated.torsion.relations) == terms_of(
                dual.torsion.relations
            ), n
            assert terms_of(saturated.torsion_free_part.relations) == terms_of(
                dual.torsion_free_part.relations
            ), n
            # the theorem: torsion-free below the top power, cyclic at it
            assert saturated.torsion.nu() == (n == len(seq)), n

    @pytest.mark.parametrize("texts", [["x", "y"], ["x^2", "y^3"]])
    @pytest.mark.parametrize("n", [1, 2])
    def test_the_saturation_route_matches_the_oracle(self, QQxy, texts, n):
        seq = [QQxy.poly(t) for t in texts]
        power = tensor_power(koszul_syzygy_module(QQxy, seq), n)
        check_split(QQxy, power, freeing=seq[0])

    def test_a_saturation_that_takes_two_quotients(self, QQxy):
        # M = R/(x^2) + R is free after inverting x; (x^2 e1 : x) = (x e1)
        # is not yet saturated, (x e1 : x) = (e1) is, and x^2 kills e1 in M
        module = FPModule.from_rows(
            QQxy, [[QQxy.poly("x^2")], [QQxy.poly("0")]], gen_degrees=(0, 0)
        )
        dual = torsion_split(module)
        saturated = torsion_split(module, freeing=QQxy.poly("x"))
        assert terms_of(saturated.inclusion_columns) == terms_of(dual.inclusion_columns)
        assert saturated.inclusion_columns == (FreeElement.unit(QQxy.field, 2, 2, 0),)
        assert terms_of(saturated.torsion.relations) == terms_of(dual.torsion.relations)

    def test_an_abort_hook_stops_the_saturation(self, QQxy):
        power = tensor_power(koszul_module(QQxy, ["x", "y"]), 2)
        with run_scope(abort_hook=lambda: True):
            with pytest.raises(AbortedError):
                torsion_split(power, freeing=QQxy.poly("x"))

    def test_a_generator_no_power_of_f_kills_is_refused(self, QQxy, monkeypatch):
        # the f^k check takes another path than the syzygies: a preimage
        # that holds a free generator of M fails it
        module = FPModule.free(QQxy, 1)
        unit = FreeElement.unit(QQxy.field, 2, 1, 0)
        monkeypatch.setattr(torsion, "_saturated", lambda m, f: ([unit], 1))
        with pytest.raises(InputError, match="not killed by a power"):
            torsion_split(module, freeing=QQxy.poly("x"))


class TestFreeingGuard:
    """A freeing element that is zero, inhomogeneous, a unit or a
    zerodivisor is refused before the saturation starts.  Zero and an
    inhomogeneous element are refused before any syzygy is computed; the
    zerodivisor test is the colon (0 :_R f) = 0, so it computes one syzygy
    over R and none of the module."""

    @staticmethod
    def refuse_syzygies(monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("a syzygy was computed")

        monkeypatch.setattr(RingContext, "syzygies", refuse)

    @staticmethod
    def refuse_saturation(monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("the saturation started")

        monkeypatch.setattr(torsion, "_saturated", refuse)

    def test_zero_is_refused(self, node5, monkeypatch):
        # x*y is zero in the node's ring
        module = FPModule.cyclic(node5, [node5.poly("x")])
        self.refuse_syzygies(monkeypatch)
        with pytest.raises(InputError, match="zero in the ring"):
            torsion_split(module, freeing=node5.poly("x*y"))

    def test_an_inhomogeneous_element_is_refused(self, QQxy, monkeypatch):
        power = tensor_power(koszul_module(QQxy, ["x", "y"]), 2)
        self.refuse_syzygies(monkeypatch)
        with pytest.raises(InputError, match="not homogeneous"):
            torsion_split(power, freeing=QQxy.poly("x + y^2"))

    def test_a_unit_is_refused(self, QQxy, monkeypatch):
        # (0 :_R 2) = 0, so only the degree test stands between a unit and
        # a saturation that finds no torsion in R/(x)
        module = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        self.refuse_saturation(monkeypatch)
        with pytest.raises(InputError, match="is a unit"):
            torsion_split(module, freeing=QQxy.poly("2"))

    def test_a_zerodivisor_is_refused(self, node5, monkeypatch):
        module = FPModule.cyclic(node5, [node5.poly("x")])
        self.refuse_saturation(monkeypatch)
        with pytest.raises(InputError, match="zerodivisor"):
            torsion_split(module, freeing=node5.poly("x"))

    def test_the_zerodivisor_test_needs_no_declared_primes(self, monkeypatch):
        # GF(5)[x,y]/(xy) declared reduced with no minimal primes: x is
        # refused, and x + y frees R/(x + y), all of which is torsion
        ring = undeclared_node_ring()
        module = FPModule.cyclic(ring, [ring.poly("x + y")])
        assert torsion_split(module, freeing=ring.poly("x + y")).torsion.nu() == 1
        self.refuse_saturation(monkeypatch)
        with pytest.raises(InputError, match="zerodivisor"):
            torsion_split(module, freeing=ring.poly("x"))


def undeclared_node_ring():
    """GF(5)[x,y]/(xy), declared reduced, with no minimal primes."""
    field = GF(5)
    xy = parse_polynomial("x*y", ("x", "y"), field)
    return make_ring(field, ("x", "y"), ideal=[xy], reduced=True)


def test_nonzerodivisors_need_no_declared_primes():
    ring = undeclared_node_ring()
    assert not Ideal(ring, [ring.poly("x")]).contains_nonzerodivisor()
    assert Ideal(ring, [ring.poly("x + y")]).contains_nonzerodivisor()


def test_thm28_runs_on_a_reduced_ring_without_declared_primes():
    # nothing on thm2.8's path needs the prime list, so the freeing guard
    # may not need it either
    report = run_source(
        "ring R = GF(5)[x,y] / (x*y) with reduced;\n"
        "verify thm2.8 over R with sequence (x + y);\n"
    )
    assert [r.status for r in report.results] == ["ok", "pass"]
    assert report.exit_code == 0


def permutation_tau(module, elements):
    """The defining sum of sign(p) v_p(1) (x) ... (x) v_p(d) over all
    permutations p, as coordinates in the cover of the d-fold power."""
    d = len(elements)
    total = None
    for perm in permutations(range(d)):
        piece = elements[perm[0]].coords
        for k, i in enumerate(perm[1:], start=1):
            left = module.tensor_power(k)
            piece = tensor_coords(left, module, piece, elements[i].coords)
        inversions = sum(perm[a] > perm[b] for a in range(d) for b in range(a + 1, d))
        if inversions % 2:
            piece = -piece
        total = piece if total is None else total + piece
    return total


class TestAlternatingTensor:
    @pytest.mark.parametrize("field", [GF(7), QQ], ids=["GF7", "QQ"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_the_permutation_sum(self, field, d):
        ring = make_ring(field, ("x", "y"), reduced=True)
        rows = (("x", "y"), ("y", "0"), ("0", "x"), ("x", "x"))
        m = FPModule.from_rows(ring, [[ring.poly(t) for t in row] for row in rows])
        vectors = ("1, 0, 0, 0", "0, 1, 3, 0", "x, 0, -y, 0", "0, 1, 0, y")
        pool = [m.element(f"[{v}]") for v in vectors]
        elements = pool[:d]
        tau = alternating_tensor(m, elements)
        assert tau.module is m.tensor_power(d)
        assert tau.coords == permutation_tau(m, elements)
        assert not tau.coords.is_zero()
        repeated = alternating_tensor(m, elements[:-1] + [elements[0]])
        assert repeated.coords == permutation_tau(m, elements[:-1] + [elements[0]])

    def test_pure_tensor_steps_grow_by_subsets(self, monkeypatch):
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return tensor_coords(*args)

        monkeypatch.setattr(torsion, "tensor_coords", counted)
        ring = make_ring(GF(7), ("x", "y"), reduced=True)
        m = FPModule.cyclic(ring, [ring.poly("x")])
        tau = alternating_tensor(m, [m.generator(0)] * 8)
        assert tau.coords.is_zero()
        assert calls[0] <= 8 * 2**7

    def test_an_abort_hook_stops_the_build(self):
        ring = make_ring(GF(7), ("x", "y"), reduced=True)
        m = FPModule.cyclic(ring, [ring.poly("x")])
        with run_scope(abort_hook=lambda: True):
            with pytest.raises(AbortedError):
                alternating_tensor(m, [m.generator(0)] * 6)

    def test_repeated_entries_stop_at_the_first_empty_level(self):
        # every tau of two equal entries is zero in the free cover, so the
        # build stops after the 24 * 23 steps of the second level
        polls = []
        ring = make_ring(GF(7), ("x", "y"), reduced=True)
        m = FPModule.cyclic(ring, [ring.poly("x")])
        with run_scope(abort_hook=lambda: polls.append(1) and False):
            tau = alternating_tensor(m, [m.generator(0)] * 24)
        assert tau.coords.is_zero()
        assert tau.module is m.tensor_power(24)
        assert 0 < len(polls) <= 24 * 23

    def test_a_zero_entry_gives_the_zero_tensor(self, QQxy):
        m = koszul_module(QQxy, ["x", "y"])
        zero = m.element("[0, 0]")
        for elements in ([zero], [m.generator(0), zero, m.generator(1)]):
            tau = alternating_tensor(m, elements)
            assert tau.module is m.tensor_power(len(elements))
            assert tau.coords.is_zero()
            assert tau.coords == permutation_tau(m, elements)

    def test_ten_repeated_entries_from_a_script(self):
        elements = ", ".join(["e1"] * 10)
        report = run_source(
            "ring R = GF(7)[x,y];\n"
            "module M = coker [[x]] over R;\n"
            f"print tau(M, [{elements}]);\n"
        )
        assert [r.status for r in report.results] == ["ok", "ok", "ok"]
        assert report.results[-1].output == "[0]"

    def test_single_element_identity(self, QQxy):
        m = koszul_module(QQxy, ["x", "y"])
        g = m.generator(0)
        tau = alternating_tensor(m, [g])
        assert tau.module is m.tensor_power(1)
        assert tau.coords == g.coords

    def test_two_elements_antisymmetrized(self, QQxy):
        m = koszul_module(QQxy, ["x", "y"])
        tau = alternating_tensor(m, [m.generator(0), m.generator(1)])
        coords = tau.coords
        # e1 (x) e2 - e2 (x) e1 has coordinates +1 at slot 1 and -1 at slot 2
        assert coords.component(1) == QQxy.one()
        assert coords.component(2) == -QQxy.one()
        assert coords.component(0).is_zero() and coords.component(3).is_zero()

    def test_repeated_element_vanishes(self, QQxy):
        m = koszul_module(QQxy, ["x", "y"])
        g = m.generator(0)
        tau = alternating_tensor(m, [g, g])
        assert tau.coords.is_zero()


class TestRelationCertificate:
    def test_single_element_relation(self, QQxy):
        m = FPModule.cyclic(QQxy, [QQxy.poly("x^2")])
        cert = check_relation_annihilates(
            m, [m.generator(0)], [QQxy.poly("x^2")]
        )
        assert cert.passed

    def test_koszul_standard_relation(self, QQxyz):
        m = koszul_module(QQxyz, ["x", "y", "z"])
        gens = [m.generator(i) for i in range(3)]
        seq = [QQxyz.poly(v) for v in ("x", "y", "z")]
        cert = check_relation_annihilates(m, gens, seq)
        assert cert.passed

    def test_false_relation_rejected(self, QQxy):
        m = FPModule.free(QQxy, 1)
        with pytest.raises(InputError):
            check_relation_annihilates(m, [m.generator(0)], [QQxy.poly("x")])

    @pytest.mark.parametrize("seed", range(8))
    def test_planted_relations(self, seed, QQxy):
        rng = random.Random(1234 + seed)
        module, planted = random_module_with_planted_relation(QQxy, rng)
        gens = [module.generator(i) for i in range(module.ngens)]
        cert = check_relation_annihilates(module, gens, planted)
        assert cert.passed


class TestKoszulSyzygyModule:
    def test_single_element(self, QQxy):
        m = koszul_module(QQxy, ["x"])
        assert m.nu() == 1
        assert annihilator(m) == Ideal(QQxy, [QQxy.poly("x")])

    def test_two_variables(self, QQxy):
        m = koszul_module(QQxy, ["x", "y"])
        assert m.nu() == 2
        assert pd(m) == 1

    def test_universal_module(self):
        ring, module = universal_koszul_module(3, GF(5))
        assert ring.nvars == 3
        assert module.nu() == 3
        assert len(module.relations) == 1

    def test_non_regular_sequence_rejected(self, node5):
        with pytest.raises(InputError):
            koszul_module(node5, ["x"])


class TestTheorem28:
    def test_rank_two_rational(self, QQxy):
        cert = verify_koszul_tensor_powers(
            QQxy, [QQxy.poly("x"), QQxy.poly("y")]
        )
        assert cert.passed, cert.failed_subclaims()

    def test_non_variable_regular_sequence(self, QQxy):
        cert = verify_koszul_tensor_powers(
            QQxy, [QQxy.poly("x^2"), QQxy.poly("y^3")]
        )
        assert cert.passed, cert.failed_subclaims()

    def test_torsion_part_values(self, QQxy):
        # freeze the d = 2 sub-structure: t((x)M^2) is cyclic with
        # annihilator (x, y)
        m = koszul_module(QQxy, ["x", "y"])
        square = tensor_power(m, 2)
        split = torsion_split(square)
        assert split.torsion.nu() == 1
        from torsionlab.modules import ModuleElement

        gen = ModuleElement(square, split.inclusion_columns[0])
        assert annihilator(square, gen) == Ideal(
            QQxy, [QQxy.poly("x"), QQxy.poly("y")]
        )


class TestTheorem210:
    def test_case1_rank_two_koszul(self, QQxy):
        m = koszul_module(QQxy, ["x", "y"])
        cert = verify_presentation_torsion_bound(m, FPModule.free(QQxy, 1), 1)
        assert cert.applicable
        assert cert.passed, cert.failed_subclaims()

    def test_case2_with_cyclic_second_factor(self, QQxy):
        m = koszul_module(QQxy, ["x", "y"])
        n = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        cert = verify_presentation_torsion_bound(m, n, 2)
        assert cert.applicable
        assert cert.passed, cert.failed_subclaims()

    def test_case1_inapplicable_on_node_branch(self, node5):
        m = FPModule.cyclic(node5, [node5.poly("x")])
        n = FPModule.free(node5, 1)
        cert = verify_presentation_torsion_bound(m, n, 1)
        assert not cert.applicable
        assert "zerodivisor" in cert.inapplicable_reason

    def test_case1_inapplicable_when_the_search_finds_no_nonzerodivisor(self):
        # (x, y) holds the non-zerodivisor x^2 + xy + y^2, but x, y and x + y
        # each lie in a minimal prime: a search that stops short is no
        # failure of the theorem
        report = run_source(
            "ring R = GF(2)[x,y] / (x^2*y + x*y^2)"
            " with minimal_primes [(x),(y),(x + y)] reduced;\n"
            "module M = coker [[x, y]] over R;\n"
            "module N = coker [[x]] over R;\n"
            "verify thm2.10 M N case=1;\n"
        )
        assert report.results[-1].status == "inapplicable"
        (cert,) = report.certificates
        assert cert.inapplicable_reason == (
            "no non-zerodivisor was found within the search bound: sums of at "
            f"most {torsion.NONZERODIVISOR_SUBSET_CAP} minimal generators of "
            "the presentation ideal"
        )
        assert report.exit_code == 2

    def test_case1_witness_is_a_computed_nonzerodivisor(self):
        # the list leaves out the prime (y), which would pass y as a
        # witness although x*y = 0
        report = run_source(
            "ring U = GF(7)[x,y] / (x*y) with minimal_primes [(x)] reduced;\n"
            "module S = coker [[x, y]] over U;\n"
            "verify thm2.10 S S;\n"
        )
        assert report.results[-1].status == "pass"
        (cert,) = report.certificates
        witnesses = {sub.name: sub.witnesses for sub in cert.subclaims}
        for name in (
            "non-zerodivisor-annihilator-found",
            "tensor-witness-killed-by-non-zerodivisor",
        ):
            assert witnesses[name] == {"witness": "x + y"}, name

    def test_case1_needs_no_declared_primes(self):
        report = run_source(
            "ring B = GF(5)[x,y] / (x*y) with reduced;\n"
            "module M = coker [[x]] over B;\n"
            "verify thm2.10 M M case=1;\n"
        )
        assert report.results[-1].status == "inapplicable"
        (cert,) = report.certificates
        assert cert.inapplicable_reason == (
            "the presentation ideal consists of zerodivisors"
        )

    def test_case1_refuses_a_ring_not_declared_reduced(self):
        # the colon test would run here, but the torsion split would not
        report = run_source(
            "ring V = GF(7)[x,y] / (x^2);\n"
            "module S = coker [[x, y]] over V;\n"
            "module T = coker [[x]] over V;\n"
            "verify thm2.10 S S;\n"
            "verify thm2.10 T T;\n"
        )
        assert [r.summary for r in report.results[-2:]] == [
            "UnsupportedError: non-zerodivisor detection needs a "
            "declared-reduced ring"
        ] * 2

    def test_free_module_inapplicable(self, QQxy):
        cert = verify_presentation_torsion_bound(
            FPModule.free(QQxy, 1), FPModule.free(QQxy, 1), 1
        )
        assert not cert.applicable


class TestMaximalIdealCarrier:
    def test_free_module(self, QQxy):
        cert = verify_maximal_ideal_carrier(FPModule.free(QQxy, 2))
        assert cert.passed

    def test_hypersurface_quotient(self, QQxy):
        m = FPModule.cyclic(QQxy, [QQxy.poly("x")])
        cert = verify_maximal_ideal_carrier(m)
        assert cert.passed, cert.failed_subclaims()

    def test_node_branch_still_carries_torsion(self, node5):
        # the tensor powers of R/(x) stay torsion-free, but m (x) R/(x) does not
        m = FPModule.cyclic(node5, [node5.poly("x")])
        assert torsion_split(tensor_power(m, 2)).is_torsion_free
        cert = verify_maximal_ideal_carrier(m)
        assert cert.passed, cert.failed_subclaims()

    def test_maximal_ideal_module_shape(self, node5):
        m = maximal_ideal_module(node5)
        assert m.ngens == 2
        assert m.nu() == 2


class TestExploration:
    def test_report_shape(self, QQxy):
        report = explore_torsion_onset(QQxy, panel_size=3, seed=42, cap=3)
        assert report["claim"] == "question2.12"
        assert len(report["entries"]) == 3
        for entry in report["entries"]:
            if "least_power_with_torsion" in entry:
                assert entry["least_power_with_torsion"] in (1, 2, 3, "none<= 3")

    def test_needs_declared_domain(self, node5):
        with pytest.raises(InputError):
            explore_torsion_onset(node5, panel_size=1, seed=0)

    def test_deterministic_given_seed(self, QQxy):
        a = explore_torsion_onset(QQxy, panel_size=2, seed=9, cap=2)
        b = explore_torsion_onset(QQxy, panel_size=2, seed=9, cap=2)
        assert a == b

    def test_koszul_modules_hit_torsion_at_two(self, QQxy):
        # over the plane, rank-two syzygy modules stay torsion-free only
        # up to the first power
        for texts in (["x", "y"], ["x^2", "y^3"], ["x + y", "y^2"]):
            m = koszul_module(QQxy, texts)
            assert torsion_split(tensor_power(m, 1)).is_torsion_free
            assert not torsion_split(tensor_power(m, 2)).is_torsion_free

    def test_cubic_hypersurface_domain(self):
        from torsionlab.fields import QQ
        from torsionlab.syntax import parse_polynomial

        names = ("x", "y", "z")
        cubic = parse_polynomial("x^3 + y^3 + z^3", names, QQ)
        ring = make_ring(
            QQ,
            names,
            ideal=[cubic],
            minimal_primes=[[cubic]],
            reduced=True,
            complete_intersection=True,
        )
        report = explore_torsion_onset(ring, panel_size=3, seed=42, cap=4)
        assert len(report["entries"]) == 3
        assert report["note"].startswith("observational")
