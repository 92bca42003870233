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
def modules_and_tests(draw, ring, shift=0):
    """A homogeneous presentation with 1-3 generators and 0-4 relations,
    then element and Hilbert tests in a shuffled degree order.  Some
    elements are multiples of relations (zero in M), some are sums of two
    homogeneous vectors of different degrees (inhomogeneous).  Every
    degree is lowered by ``shift``: a positive shift gives the negative
    generator degrees a dual has."""
    ngens = draw(st.integers(1, 3))
    gen_degrees = tuple(
        d - shift
        for d in draw(st.lists(st.integers(0, 2), min_size=ngens, max_size=ngens))
    )
    relations = []
    for _ in range(draw(st.integers(0, 4))):
        degree = draw(st.integers(min(gen_degrees), max(gen_degrees) + 3))
        relations.append(draw(homogeneous_vector(ring, gen_degrees, degree)))
    module = FPModule(ring, relations, ngens, gen_degrees)
    tests = [("hilbert", d - shift) for d in DEGREES]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("homogeneous", "relation", "inhomogeneous")))
        low = draw(st.integers(0, 5)) - shift
        vec = draw(homogeneous_vector(ring, gen_degrees, low))
        if kind == "relation" and module.relations:
            rel = draw(st.sampled_from(module.relations))
            monos = brute_monomials(ring.grading, draw(st.integers(0, 2)))
            if monos:
                mono = draw(st.sampled_from(monos))
                vec = rel.scaled(Polynomial(ring.field, ring.nvars, {mono: 1}))
        elif kind == "inhomogeneous":
            high = draw(st.integers(low + 1, 7 - shift))
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
    def test_negative_generator_degrees_match_the_full_basis(self, ring_name, data):
        # generators wait by degree, and a relation's degree may be negative
        ring = RINGS[ring_name]()
        module, tests = data.draw(
            modules_and_tests(ring, shift=3), label="module and tests"
        )
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
def test_a_cap_error_names_every_generator_while_some_wait(field):
    ring, module, probe, _ = cap_example(field)
    x4 = FreeElement.from_components([ring.zero(), ring.poly("x^4")], rank=2)
    module = FPModule(ring, [*module.relations, x4], 2, module.gen_degrees)
    with run_scope(degree_cap=2):
        with pytest.raises(ResourceLimitError) as raised:
            module.element_is_zero(probe)
    assert str(raised.value) == (
        "term degree 3 exceeds the degree cap 2 in the S-polynomials of "
        "membership completion (2 variables, rank 2, generators: 3)"
    )
    # the same test under the default cap leaves x^4 e2 (degree 6) waiting
    assert not module.element_is_zero(probe)
    assert [key for key, _, _ in module._membership.waiting] == [6]


def taken_in(module):
    """How many generators the membership completion has taken in, and
    the degrees of those still waiting, in ascending order."""
    state = module._membership
    waiting = sorted(key for key, _, _ in state.waiting)
    return state.ngens - len(waiting), waiting


class TestIntakeByDegree:
    def node_module(self):
        """R^2 over the node GF(5)[x,y]/(xy), e2 in degree 1, with relations
        x e1 (degree 1), y^2 e1 + y e2 (degree 2) and y^2 e2 (degree 3); the
        ideal adds xy e1 (degree 2) and xy e2 (degree 3)."""
        ring = node_ring()

        def vec(first, second):
            return FreeElement.from_components(
                [ring.poly(first), ring.poly(second)], rank=2
            )

        relations = [vec("x", "0"), vec("y^2", "y"), vec("0", "y^2")]
        module = FPModule(ring, relations, 2, (0, 1))
        return ring, module, vec

    def test_a_test_takes_in_exactly_the_generators_up_to_its_degree(self):
        ring, module, vec = self.node_module()
        assert module.relation_degrees() == (1, 2, 3)
        degrees = [1, 2, 3, 2, 3]
        tests = ((1, vec("y", "0")), (2, vec("0", "x")), (3, vec("y^3", "0")))
        for degree, element in tests:
            module.element_is_zero(element)
            taken, waiting = taken_in(module)
            assert taken == sum(d <= degree for d in degrees)
            assert waiting == sorted(d for d in degrees if d > degree)
        assert module._membership.ngens == len(degrees)

    def test_a_higher_test_takes_in_the_rest(self):
        ring, module, vec = self.node_module()
        assert not module.element_is_zero(vec("y", "0"))
        assert taken_in(module) == (1, [2, 2, 3, 3])
        assert module.element_is_zero(vec("y^3", "0"))
        assert taken_in(module) == (5, [])
        full = ring.submodule_basis(module.relations, 2)
        for degree in DEGREES:
            expected = full_hilbert(ring, module, full, degree)
            assert module.hilbert_function(degree) == expected

    def test_hilbert_values_take_in_by_degree(self):
        ring, module, _ = self.node_module()
        module.hilbert_function(2)
        assert taken_in(module) == (3, [3, 3])


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
