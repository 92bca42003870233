"""Greedy minimal generating sets (graded Nakayama) and ranks at a minimal prime."""

from __future__ import annotations

import os
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torsionlab import cache
from torsionlab.engine import run_source
from torsionlab.errors import AbortedError, ResourceLimitError
from torsionlab.fields import GF, QQ
from torsionlab.limits import (
    reset_abort_hook,
    reset_degree_cap,
    set_abort_hook,
    set_degree_cap,
)
from torsionlab.modules import (
    FPModule,
    _minimal_homogeneous_subset,
    _monomials_of_weighted_degree,
    rank_info,
)
from torsionlab.poly import FreeElement, Polynomial, polynomial_to_element
from torsionlab.rings import Ideal, make_ring
from torsionlab.syntax import format_vector, parse_polynomial
from torsionlab.torsion import _matrix_spans_generically

from conftest import node_ring


def quotient_qq():
    """QQ[x,y]/(x^2 - y^2), with its two lines declared as minimal primes."""
    names = ("x", "y")
    poly = lambda text: parse_polynomial(text, names, QQ)  # noqa: E731
    return make_ring(
        QQ,
        names,
        ideal=[poly("x^2 - y^2")],
        minimal_primes=[[poly("x - y")], [poly("x + y")]],
        reduced=True,
    )


RINGS = {
    "GF(5) grading (1,2)": lambda: make_ring(GF(5), ("x", "y"), grading=(1, 2)),
    "QQ grading (1,2)": lambda: make_ring(QQ, ("x", "y"), grading=(1, 2)),
    "GF(5) node": node_ring,
    "QQ quotient": quotient_qq,
}

POSITION_DEGREES = (0, 1)


@st.composite
def homogeneous_vectors(draw, ring, max_count):
    """Homogeneous vectors of R^2 for POSITION_DEGREES, some of them
    combinations of earlier ones so that the greedy pass has work to drop."""
    vectors = []
    for _ in range(draw(st.integers(0, max_count))):
        if vectors and draw(st.booleans()):
            base = draw(st.sampled_from(vectors))
            index = draw(st.integers(-1, ring.nvars - 1))
            vectors.append(base if index < 0 else base.scaled(ring.variable(index)))
            continue
        degree = draw(st.integers(1, 3))
        comps = []
        for pos_degree in POSITION_DEGREES:
            terms = {}
            want = degree - pos_degree
            monos = _monomials_of_weighted_degree(ring.nvars, ring.grading, want)
            for mono in monos if want >= 0 else ():
                c = draw(st.sampled_from((0, 0, 1, 2, -1)))
                if c:
                    terms[mono] = c
            comps.append(ring.normal_form_poly(Polynomial(ring.field, ring.nvars, terms)))
        vectors.append(FreeElement.from_components(comps, rank=len(POSITION_DEGREES)))
    return vectors


def in_span(ring, vec, gens):
    return ring.submodule_basis(list(gens), len(POSITION_DEGREES)).normal_form(vec).is_zero()


class TestGreedyMinimalSubset:
    @pytest.mark.parametrize("ring_name", sorted(RINGS))
    @given(data=st.data())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_kept_vectors_generate_minimally(self, ring_name, data):
        ring = RINGS[ring_name]()
        vectors = data.draw(homogeneous_vectors(ring, 5), label="vectors")
        modulo = data.draw(homogeneous_vectors(ring, 2), label="modulo")
        kept = _minimal_homogeneous_subset(
            ring, vectors, len(POSITION_DEGREES), POSITION_DEGREES, modulo=modulo
        )
        # the kept vectors are input vectors ...
        assert all(any(k == v for v in vectors) for k in kept)
        # ... that, with modulo, generate everything the input generates ...
        for vec in vectors:
            assert in_span(ring, vec, kept + modulo)
        # ... and none of which the others (with modulo) already generate
        for i, vec in enumerate(kept):
            assert not in_span(ring, vec, kept[:i] + kept[i + 1 :] + modulo)

    def test_ideal_keeps_the_degree_then_text_order(self, QQxy):
        gens = [QQxy.poly(t) for t in ("y^2", "x^2 + y^2", "x^2")]
        picked = Ideal(QQxy, gens).minimal_generators()
        assert [QQxy.format(g) for g in picked] == ["x^2", "x^2 + y^2"]

    def test_module_vectors_keep_the_vector_text_order(self, QQxy):
        # as vectors "[x^2 + y^2]" sorts before "[x^2]": the tie breaks the
        # other way than for the ideal above
        gens = [polynomial_to_element(QQxy.poly(t)) for t in ("y^2", "x^2 + y^2", "x^2")]
        picked = _minimal_homogeneous_subset(QQxy, gens, 1, (0,))
        assert [format_vector(v, QQxy.variables) for v in picked] == [
            "[x^2 + y^2]",
            "[x^2]",
        ]


def from_scratch_greedy(ring, vectors, rank, key, modulo):
    """The greedy pass with a fresh reduced basis of the span for every test."""
    picked = []
    for vec in sorted((v for v in vectors if not v.is_zero()), key=key):
        if not ring.submodule_basis(list(modulo) + picked, rank).normal_form(vec).is_zero():
            picked.append(vec)
    return picked


class TestIncrementalCompletion:
    @pytest.mark.parametrize("ring_name", sorted(RINGS))
    @given(data=st.data())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_same_kept_list_as_from_scratch_bases(self, ring_name, data):
        ring = RINGS[ring_name]()
        rank = len(POSITION_DEGREES)
        vectors = data.draw(homogeneous_vectors(ring, 6), label="vectors")
        modulo = data.draw(
            st.one_of(st.just([]), homogeneous_vectors(ring, 3)), label="modulo"
        )

        def by_degree(vec):
            deg = vec.homogeneous_degree(ring.grading, POSITION_DEGREES)
            return (deg, format_vector(vec, ring.variables))

        def by_text(vec):
            return format_vector(vec, ring.variables)

        for key in (by_degree, by_text):
            expected = from_scratch_greedy(ring, vectors, rank, key, modulo)
            assert ring.minimal_subset(vectors, rank, key, modulo) == expected

    def capped(self, ring, texts):
        vectors = [polynomial_to_element(ring.poly(t)) for t in texts]
        key = lambda vec: format_vector(vec, ring.variables)  # noqa: E731
        token = set_degree_cap(3)
        try:
            with pytest.raises(ResourceLimitError) as error:
                ring.minimal_subset(vectors, 1, key)
        finally:
            reset_degree_cap(token)
        assert len(ring.minimal_subset(vectors, 1, key)) == len(texts)
        return str(error.value)

    def test_degree_cap_stops_its_completion(self, QQxy):
        # tried in text order; testing y^5 completes the first two, whose
        # S-polynomial y^2*(x^3 - y^2) - x^2*(x*y^2 - 1) has the term y^4
        message = self.capped(QQxy, ("x*y^2 - 1", "x^3 - y^2", "y^5"))
        assert message == (
            "term degree 4 exceeds the degree cap 3 in the S-polynomials of "
            "minimal-generator completion (2 variables, rank 1, generators: 2)"
        )

    def test_degree_cap_stops_its_membership_test(self, QQxy):
        # reducing x^4 by x^2 - y^2 passes through x^2*y^2
        message = self.capped(QQxy, ("x^2 - y^2", "x^4"))
        assert message == (
            "term degree 4 exceeds the degree cap 3 in the reduction of "
            "minimal-generator completion (2 variables, rank 1, generators: 1)"
        )

    def test_abort_hook_stops_it_and_writes_no_cache_entry(self, tmp_path):
        ring = quotient_qq()
        vectors = [
            polynomial_to_element(ring.poly(t))
            for t in ("x*y^2 - y", "x^3 - y^2", "y^5", "x*y")
        ]
        key = lambda vec: format_vector(vec, ring.variables)  # noqa: E731
        consulted = []

        def run(hook):
            cache_token = cache.activate(str(tmp_path))
            hook_token = set_abort_hook(hook)
            try:
                return ring.minimal_subset(vectors, 1, key)
            finally:
                reset_abort_hook(hook_token)
                cache.restore(cache_token)

        run(lambda: consulted.append(1) or False)
        steps = len(consulted)
        consulted.clear()
        # abort at the last step the hook is consulted
        with pytest.raises(AbortedError):
            run(lambda: consulted.append(1) or len(consulted) == steps)
        assert len(consulted) == steps > 1
        assert os.listdir(tmp_path) == []


def plane_and_line():
    """GF(3)[x,y,z]/(xy, xz): a plane and a line, with primes (x) and (y,z)."""
    names = ("x", "y", "z")
    poly = lambda text: parse_polynomial(text, names, GF(3))  # noqa: E731
    return make_ring(
        GF(3),
        names,
        ideal=[poly("x*y"), poly("x*z")],
        minimal_primes=[[poly("x")], [poly("y"), poly("z")]],
        reduced=True,
    )


RANK_RINGS = {**RINGS, "GF(3) plane and line": plane_and_line}


@st.composite
def presentations(draw, ring):
    """A module on 1-3 generators of degree 0 with 1-3 homogeneous relation
    columns; a row may be twice the first row, so that ranks drop."""
    ngens = draw(st.integers(1, 3))
    doubled = [i > 0 and draw(st.booleans()) for i in range(ngens)]
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 2))
        monos = list(_monomials_of_weighted_degree(ring.nvars, ring.grading, degree))
        comps = []
        for i in range(ngens):
            if doubled[i]:
                comps.append(comps[0] + comps[0])
                continue
            terms = {}
            for mono in monos:
                c = draw(st.sampled_from((0, 0, 1, 2, -1)))
                if c:
                    terms[mono] = c
            comps.append(ring.normal_form_poly(Polynomial(ring.field, ring.nvars, terms)))
        columns.append(FreeElement.from_components(comps, rank=ngens))
    return FPModule(ring, columns, ngens, (0,) * ngens)


def minor_rank(ring, columns, rank, index):
    """The largest k with a k x k minor of the matrix nonzero modulo the
    prime ``index``, by Laplace expansion over every row and column subset."""

    def det(matrix):
        if len(matrix) == 1:
            return matrix[0][0]
        total = ring.zero()
        for j, top in enumerate(matrix[0]):
            term = top * det([row[:j] + row[j + 1 :] for row in matrix[1:]])
            total = total + term if j % 2 == 0 else total - term
        return total

    rows = [[col.component(i) for col in columns] for i in range(rank)]
    for size in range(min(rank, len(columns)), 0, -1):
        for r in combinations(range(rank), size):
            for c in combinations(range(len(columns)), size):
                minor = [[rows[i][j] for j in c] for i in r]
                if not ring.in_prime(det(minor), index):
                    return size
    return 0


class TestRankAtPrime:
    @pytest.mark.parametrize("ring_name", sorted(RANK_RINGS))
    @given(data=st.data())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_agrees_with_a_minor_search(self, ring_name, data):
        ring = RANK_RINGS[ring_name]()
        module = data.draw(presentations(ring), label="module")
        minimal = module.minimal().module
        nu = minimal.ngens
        primes = range(len(ring.effective_minimal_primes()))
        relations = list(minimal.relations)
        expected = tuple(nu - minor_rank(ring, relations, nu, p) for p in primes)
        assert rank_info(module).per_prime == expected
        for size in range(nu + 1):
            for subset in combinations(range(nu), size):
                units = [FreeElement.unit(ring.field, ring.nvars, nu, s) for s in subset]
                spans = all(
                    minor_rank(ring, relations + units, nu, p) == nu for p in primes
                )
                assert _matrix_spans_generically(ring, minimal, subset) == spans

    def test_seven_generators(self, QQxy):
        # coker(x * identity) on seven generators: minimal, 7 x 7, torsion
        x = QQxy.poly("x")
        rows = [[x if i == j else QQxy.zero() for j in range(7)] for i in range(7)]
        assert rank_info(FPModule.from_rows(QQxy, rows)).per_prime == (0,)

    def test_seven_generator_verifiers_pass(self):
        matrix = "[" + ",".join(
            "[" + ",".join("x" if i == j else "0" for j in range(7)) + "]"
            for i in range(7)
        ) + "]"
        report = run_source(
            "ring Q = QQ[x,y];\n"
            f"module M = coker {matrix} over Q;\n"
            "module K = coker [[x],[y]] over Q;\n"
            "verify thm2.10 M K case=2;\n"
            "ring P = GF(2)[x,y];\n"
            f"module S = coker {matrix} over P;\n"
            "verify thm3.5 S e=1;\n"
        )
        assert [r.status for r in report.results if r.kind == "verify"] == [
            "pass",
            "pass",
        ]
        assert report.exit_code == 0
