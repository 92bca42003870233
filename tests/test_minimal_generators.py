"""Greedy minimal generating sets (graded Nakayama) and the minor-search caps."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torsionlab.errors import ResourceLimitError
from torsionlab.fields import GF, QQ
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


class TestMinorSearchCap:
    def seven_generators(self, ring):
        """coker(x * identity) on seven generators: minimal, 7 x 7."""
        x = ring.poly("x")
        rows = [[x if i == j else ring.zero() for j in range(7)] for i in range(7)]
        return FPModule.from_rows(ring, rows)

    def test_rank_info_past_the_cap(self, QQxy):
        module = self.seven_generators(QQxy)
        with pytest.raises(
            ResourceLimitError, match="^minor-based rank limited to matrices of size 6$"
        ):
            rank_info(module)

    def test_generic_spanning_past_the_cap(self, QQxy):
        module = self.seven_generators(QQxy)
        with pytest.raises(
            ResourceLimitError,
            match="^minor-based generic spanning test limited to six generators$",
        ):
            _matrix_spans_generically(QQxy, module.minimal().module, [0])
