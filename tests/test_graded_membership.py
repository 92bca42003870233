"""Graded membership: a module's element tests and Hilbert values come from
its relation basis completed only up to the degree asked about, and must
agree with the full reduced basis of the relations plus I*R^n."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torsionlab import modules
from torsionlab.errors import AbortedError, ResourceLimitError
from torsionlab.fields import GF, QQ
from torsionlab.limits import run_scope
from torsionlab.modules import FPModule, _monomials_of_weighted_degree
from torsionlab.poly import FreeElement, Polynomial
from torsionlab.rings import make_ring
from torsionlab.syntax import format_vector, parse_polynomial

from conftest import node_ring


def weighted_cusp():
    """GF(5)[x,y]/(y^2 - x^3) with grading (2,3)."""
    names = ("x", "y")
    cusp = parse_polynomial("y^2 - x^3", names, GF(5))
    return make_ring(GF(5), names, ideal=[cusp], grading=(2, 3))


RINGS = {
    "GF(7)": lambda: make_ring(GF(7), ("x", "y")),
    "QQ": lambda: make_ring(QQ, ("x", "y")),
    "GF(5) node": node_ring,
    "QQ grading (1,2)": lambda: make_ring(QQ, ("x", "y"), grading=(1, 2)),
    "GF(5) cusp grading (2,3)": weighted_cusp,
}

DEGREES = range(6)
SUPPRESSED = [HealthCheck.function_scoped_fixture, HealthCheck.too_slow]


def brute_monomials(weights, degree):
    """Every exponent vector of weighted degree ``degree``, in lex order."""
    if degree < 0:
        return []
    return [
        e
        for e in product(range(degree + 1), repeat=len(weights))
        if sum(a * w for a, w in zip(e, weights)) == degree
    ]


@st.composite
def homogeneous_vector(draw, ring, gen_degrees, degree):
    """A vector of R^n, homogeneous of ``degree`` for the generator degrees
    (possibly zero), with entries in normal form mod I."""
    comps = []
    for gen_degree in gen_degrees:
        terms = {}
        for mono in brute_monomials(ring.grading, degree - gen_degree):
            c = draw(st.sampled_from((0, 0, 1, 2, -1)))
            if c:
                terms[mono] = c
        comps.append(ring.normal_form_poly(Polynomial(ring.field, ring.nvars, terms)))
    return FreeElement.from_components(comps, rank=len(gen_degrees))


@st.composite
def modules_and_tests(draw, ring):
    """A homogeneous presentation with 1-3 generators and 0-4 relations,
    then element and Hilbert tests in a shuffled degree order.  Some
    elements are multiples of relations (zero in M), some are sums of two
    homogeneous vectors of different degrees (inhomogeneous)."""
    ngens = draw(st.integers(1, 3))
    gen_degrees = tuple(
        draw(st.lists(st.integers(0, 2), min_size=ngens, max_size=ngens))
    )
    relations = []
    for _ in range(draw(st.integers(0, 4))):
        degree = draw(st.integers(min(gen_degrees), max(gen_degrees) + 3))
        relations.append(draw(homogeneous_vector(ring, gen_degrees, degree)))
    module = FPModule(ring, relations, ngens, gen_degrees)
    tests = [("hilbert", d) for d in DEGREES]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("homogeneous", "relation", "inhomogeneous")))
        low = draw(st.integers(0, 5))
        vec = draw(homogeneous_vector(ring, gen_degrees, low))
        if kind == "relation" and module.relations:
            rel = draw(st.sampled_from(module.relations))
            monos = brute_monomials(ring.grading, draw(st.integers(0, 2)))
            if monos:
                mono = draw(st.sampled_from(monos))
                vec = rel.scaled(Polynomial(ring.field, ring.nvars, {mono: 1}))
        elif kind == "inhomogeneous":
            high = draw(st.integers(low + 1, 7))
            vec = vec + draw(homogeneous_vector(ring, gen_degrees, high))
        tests.append(("element", vec))
    return module, draw(st.permutations(tests))


def full_hilbert(ring, module, full, degree):
    """dim_k M_degree from the leads of the full reduced basis."""
    return sum(
        1
        for i, gen_degree in enumerate(module.gen_degrees)
        for mono in brute_monomials(ring.grading, degree - gen_degree)
        if full.reducer((i, mono)) < 0
    )


def check(ring, module, full, test):
    kind, value = test
    if kind == "hilbert":
        assert module.hilbert_function(value) == full_hilbert(ring, module, full, value)
        return
    graded = module.element_normal_form(value)
    expected = full.normal_form(value)
    assert graded == expected
    # the same terms, in the same order, with the same coefficient types
    assert [(t, type(c), c) for t, c in graded.terms.items()] == [
        (t, type(c), c) for t, c in expected.terms.items()
    ]
    names = ring.variables
    assert format_vector(graded, names) == format_vector(expected, names)
    assert module.element_is_zero(value) == expected.is_zero()


class TestGradedMembership:
    @pytest.mark.parametrize("ring_name", sorted(RINGS))
    @given(data=st.data())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=SUPPRESSED,
    )
    def test_normal_forms_and_hilbert_values_match_the_full_basis(
        self, ring_name, data
    ):
        ring = RINGS[ring_name]()
        module, tests = data.draw(modules_and_tests(ring), label="module and tests")
        full = ring.submodule_basis(module.relations, module.ngens)
        for test in tests:
            check(ring, module, full, test)

    @pytest.mark.parametrize("ring_name", sorted(RINGS))
    @given(data=st.data())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=SUPPRESSED,
    )
    def test_answers_after_cap_errors_match_the_full_basis(self, ring_name, data):
        ring = RINGS[ring_name]()
        module, tests = data.draw(modules_and_tests(ring), label="module and tests")
        full = ring.submodule_basis(module.relations, module.ngens)
        cap = data.draw(st.integers(1, 3), label="low cap")
        for test in tests:
            try:
                with run_scope(degree_cap=cap):
                    check(ring, module, full, test)
            except ResourceLimitError:
                pass
        for test in tests:
            check(ring, module, full, test)


def cap_example(field):
    """R^2 over field[x,y] with e2 in degree 2 and relations x*y e1 and
    (x^2 + y^2) e1.  Their S-pair has degree 3 and gives y^3 e1, which no
    lead divides: testing x e2 (degree 3) reduces it."""
    ring = make_ring(field, ("x", "y"))

    def vec(text, pos):
        comps = [ring.poly(text) if i == pos else ring.zero() for i in range(2)]
        return FreeElement.from_components(comps, rank=2)

    module = FPModule(ring, [vec("x*y", 0), vec("x^2 + y^2", 0)], 2, (0, 2))
    return ring, module, vec("x", 1), vec("y^3", 0)


@pytest.mark.parametrize("field", [GF(7), QQ])
def test_a_cap_error_mid_completion_drops_the_completion(field):
    ring, module, probe, y3 = cap_example(field)
    with run_scope(degree_cap=2):
        with pytest.raises(ResourceLimitError) as raised:
            module.element_is_zero(probe)
    assert str(raised.value) == (
        "term degree 3 exceeds the degree cap 2 in the S-polynomials of "
        "membership completion (2 variables, rank 2, generators: 2)"
    )
    # the pair that raised was popped; a kept state would miss y^3 e1
    full = ring.submodule_basis(module.relations, 2)
    assert full.normal_form(y3).is_zero()
    assert module.element_normal_form(y3) == full.normal_form(y3)
    assert not module.element_is_zero(probe)
    for degree in DEGREES:
        expected = full_hilbert(ring, module, full, degree)
        assert module.hilbert_function(degree) == expected


@pytest.mark.parametrize("field", [GF(7), QQ])
def test_an_abort_at_any_step_leaves_the_next_test_right(field):
    consulted = []
    ring, module, probe, y3 = cap_example(field)
    with run_scope(abort_hook=lambda: consulted.append(1) or False):
        module.element_is_zero(probe)
    steps = len(consulted)
    assert steps > 2
    for stop in range(1, steps + 1):
        consulted.clear()
        ring, module, probe, y3 = cap_example(field)
        hook = lambda: consulted.append(1) or len(consulted) == stop  # noqa: E731
        with run_scope(abort_hook=hook):
            with pytest.raises(AbortedError):
                module.element_is_zero(probe)
        assert module.element_is_zero(y3)


class TestMonomialsOfWeightedDegree:
    @pytest.mark.parametrize(
        "weights", [(1,), (3,), (1, 1), (2, 3), (1, 2, 3), (2, 2, 1)]
    )
    def test_match_brute_force_in_lex_order(self, weights):
        for degree in range(-2, 13):
            assert list(
                _monomials_of_weighted_degree(len(weights), weights, degree)
            ) == brute_monomials(weights, degree)

    def test_the_last_exponent_is_yielded_without_a_search(self, monkeypatch):
        calls = []
        inner = modules._monomials_of_weighted_degree

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(modules, "_monomials_of_weighted_degree", counted)
        monos = list(modules._monomials_of_weighted_degree(2, (1, 1), 1000))
        assert len(monos) == 1001
        # the first call, then one per exponent of x
        assert len(calls) == 1002


class TestHilbertDegreeCap:
    def test_a_degree_past_the_cap_is_refused_before_enumeration(
        self, QQxy, monkeypatch
    ):
        module = FPModule.from_rows(QQxy, [[QQxy.poly("x")], [QQxy.poly("y")]])
        assert module.hilbert_function(64) == 66

        def refuse(*args):
            raise AssertionError("monomials enumerated")

        monkeypatch.setattr(modules, "_monomials_of_weighted_degree", refuse)
        with pytest.raises(ResourceLimitError) as raised:
            module.hilbert_function(65)
        assert str(raised.value) == (
            "term degree 65 exceeds the degree cap 64 in the monomials of "
            "hilbert_function (2 variables, rank 2, generators: 1)"
        )

    def test_weighted_degrees_count_the_lightest_variable(self):
        ring = make_ring(QQ, ("x", "y"), grading=(2, 3))
        module = FPModule.free(ring, 1)
        # degree 129 holds x^63*y, of total degree 64; degree 130 holds x^65
        assert module.hilbert_function(129) == len(brute_monomials((2, 3), 129))
        with pytest.raises(ResourceLimitError, match="hilbert_function"):
            module.hilbert_function(130)
        with run_scope(degree_cap=65):
            assert module.hilbert_function(130) == len(brute_monomials((2, 3), 130))

    def test_a_high_degree_under_a_high_cap_is_fast(self, QQxy):
        module = FPModule.from_rows(QQxy, [[QQxy.poly("x")], [QQxy.poly("y")]])
        with run_scope(degree_cap=20000):
            assert module.hilbert_function(20000) == 20002
