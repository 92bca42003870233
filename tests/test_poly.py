"""Polynomial arithmetic, orders, and the canonical text syntax."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab.errors import DimensionError, InputError
from torsionlab.fields import GF, QQ, FieldSpec
from torsionlab.orders import ORDER_DESCRIPTION, mono_key, term_key
from torsionlab.poly import FreeElement, Polynomial, polynomial_to_element
from torsionlab.syntax import (
    format_polynomial,
    format_vector,
    parse_polynomial,
    parse_vector,
)

NAMES = ("x", "y", "z")


def monomials(nvars=3, max_exp=4):
    return st.tuples(*[st.integers(0, max_exp)] * nvars)


def rational_polys():
    coeffs = st.fractions(
        min_value=-20, max_value=20, max_denominator=7
    )
    return st.dictionaries(monomials(), coeffs, max_size=5).map(
        lambda terms: Polynomial(QQ, 3, terms)
    )


def f5_polys():
    return st.dictionaries(monomials(), st.integers(0, 4), max_size=5).map(
        lambda terms: Polynomial(GF(5), 3, terms)
    )


class TestFieldSpec:
    def test_composite_characteristic_rejected(self):
        with pytest.raises(InputError):
            FieldSpec(6)

    def test_coerce_fraction_into_prime_field(self):
        assert GF(5).coerce(Fraction(1, 2)) == 3

    def test_coerce_rejects_bad_denominator(self):
        with pytest.raises(InputError):
            GF(5).coerce(Fraction(1, 10))


class TestArithmetic:
    @given(f=rational_polys(), g=rational_polys())
    @settings(max_examples=60)
    def test_addition_commutes(self, f, g):
        assert f + g == g + f

    @given(f=rational_polys(), g=rational_polys(), h=rational_polys())
    @settings(max_examples=40)
    def test_multiplication_distributes(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(f=f5_polys(), g=f5_polys())
    @settings(max_examples=60)
    def test_f5_product_commutes(self, f, g):
        assert f * g == g * f

    @given(f=rational_polys())
    @settings(max_examples=40)
    def test_additive_inverse(self, f):
        assert (f - f).is_zero()

    def test_mixed_rings_rejected(self):
        f = Polynomial.variable(QQ, 2, 0)
        g = Polynomial.variable(QQ, 3, 0)
        with pytest.raises(DimensionError):
            f + g

    def test_power(self):
        x = Polynomial.variable(QQ, 2, 0)
        y = Polynomial.variable(QQ, 2, 1)
        assert (x + y) ** 2 == x * x + 2 * (x * y) + y * y

    def test_substitute(self):
        f = parse_polynomial("x^2 + y", NAMES, QQ)
        x = Polynomial.variable(QQ, 3, 0)
        images = [x, x * x, Polynomial.zero(QQ, 3)]
        assert f.substitute(images) == parse_polynomial("2*x^2", NAMES, QQ)


class TestHomogeneity:
    def test_weighted_degree(self):
        f = parse_polynomial("x^3 - y^2", ("x", "y"), QQ)
        assert f.homogeneous_degree(weights=(2, 3)) == 6
        assert f.homogeneous_degree() is None

    def test_vector_homogeneity_with_position_degrees(self):
        x = Polynomial.variable(QQ, 2, 0)
        y = Polynomial.variable(QQ, 2, 1)
        v = FreeElement.from_components([x * x, y])
        assert v.homogeneous_degree(position_degrees=(0, 1)) == 2


class TestOrders:
    # a sort key lists terms largest first: the larger term has the smaller key
    def test_degrevlex_on_standard_monomials(self):
        x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        assert mono_key(x) < mono_key(y) < mono_key(z)
        # x*z^2 < y^3: same degree, and the higher power of z loses
        assert mono_key((1, 0, 2)) > mono_key((0, 3, 0))

    def test_position_over_term_dominates(self):
        assert term_key((0, (0, 0, 0))) < term_key((1, (5, 5, 5)))

    def test_descriptions_are_stable_cache_keys(self):
        # the description is part of every cache key: changing it orphans caches
        assert ORDER_DESCRIPTION == {
            "kind": "degrevlex",
            "module": "position-over-term",
        }


class TestSyntax:
    CASES = [
        "0",
        "1",
        "-2/3",
        "x",
        "3*x^2*y - 1/2*z",
        "x*y + y^2",
        "-x + y - 1",
        "x^3 - x*y*z + 2",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip_from_canonical_text(self, text):
        p = parse_polynomial(text, NAMES, QQ)
        assert format_polynomial(p, NAMES) == text

    @given(f=rational_polys())
    @settings(max_examples=80)
    def test_parse_of_format_is_identity(self, f):
        assert parse_polynomial(format_polynomial(f, NAMES), NAMES, QQ) == f

    @given(f=f5_polys())
    @settings(max_examples=60)
    def test_prime_field_round_trip(self, f):
        assert parse_polynomial(format_polynomial(f, NAMES), NAMES, GF(5)) == f

    def test_vector_round_trip(self):
        v = parse_vector("[x + y, 0, 1/2*z^2]", NAMES, QQ)
        assert format_vector(v, NAMES) == "[x + y, 0, 1/2*z^2]"

    def test_unknown_variable_rejected(self):
        from torsionlab.errors import ScriptParseError

        with pytest.raises(ScriptParseError):
            parse_polynomial("x + w", NAMES, QQ)

    def test_parenthesised_input(self):
        p = parse_polynomial("(x + y)*(x - y)", NAMES, QQ)
        assert p == parse_polynomial("x^2 - y^2", NAMES, QQ)


@st.composite
def sparse_vectors(draw, field):
    """Vectors of rank 1-6 whose terms come in no particular position
    order, with every position in a drawn set left zero."""
    rank = draw(st.integers(1, 6))
    zero = draw(st.sets(st.integers(0, rank - 1), max_size=rank))
    if field.characteristic:
        coeffs = st.integers(0, field.characteristic - 1)
    else:
        coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, rank - 1), monomials(max_exp=3)),
            coeffs,
            max_size=12,
        )
    )
    kept = {t: c for t, c in terms.items() if t[0] not in zero}
    return FreeElement(field, 3, rank, kept)


class TestNonzeroComponents:
    @pytest.mark.parametrize("field", [GF(5), QQ], ids=["GF(5)", "QQ"])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_format_vector_is_the_dense_component_text(self, field, data):
        v = data.draw(sparse_vectors(field))
        dense = [format_polynomial(c, NAMES) for c in v.components()]
        assert format_vector(v, NAMES) == "[" + ", ".join(dense) + "]"

    @pytest.mark.parametrize("field", [GF(5), QQ], ids=["GF(5)", "QQ"])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_holds_exactly_the_nonzero_components_in_term_order(self, field, data):
        v = data.draw(sparse_vectors(field))
        dense = v.components()
        assert len(dense) == v.rank
        nonzero = v.nonzero_components()
        assert list(nonzero) == [pos for pos, c in enumerate(dense) if c]
        for pos, comp in nonzero.items():
            assert list(comp.terms.items()) == list(dense[pos].terms.items())
            # the order of the vector's own terms at that position
            assert list(comp.terms.items()) == [
                (mono, c) for (p, mono), c in v.terms.items() if p == pos
            ]


def field_polys(field):
    if field.characteristic:
        coeffs = st.integers(-20, 20)
    else:
        coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    return st.dictionaries(monomials(max_exp=3), coeffs, max_size=5).map(
        lambda terms: Polynomial(field, 3, terms)
    )


class TestSharedArithmetic:
    """Both classes run one sparse arithmetic: the rank-1 embedding
    ``polynomial_to_element`` commutes with it, term order included, and
    each class keeps its hash formula."""

    @pytest.mark.parametrize("field", [GF(7), QQ], ids=["GF(7)", "QQ"])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_polynomial_to_element_commutes_with_the_arithmetic(self, field, data):
        f = data.draw(field_polys(field))
        g = data.draw(field_polys(field))
        c = data.draw(st.integers(-8, 8) | st.fractions(-3, 3, max_denominator=4))
        weights = data.draw(st.tuples(*[st.integers(1, 3)] * 3))
        shift = data.draw(st.integers(0, 3))

        def embedded_terms(p):
            return [((0, m), v) for m, v in p.terms.items()]

        def terms(v):
            return list(v.terms.items())

        e = polynomial_to_element
        assert terms(e(f) + e(g)) == embedded_terms(f + g)
        assert terms(e(f) - e(g)) == embedded_terms(f - g)
        assert terms(-e(f)) == embedded_terms(-f)
        assert terms(e(f).scaled(c)) == embedded_terms(f * c)
        assert terms(e(f).scaled(c)) == embedded_terms(c * f)
        assert terms(e(f).scaled(g)) == embedded_terms(f * g)
        for w in (None, weights):
            assert e(f).degree(w) == f.degree(w)
            assert e(f).homogeneous_degree(w) == f.homogeneous_degree(w)
            assert e(f).is_homogeneous(w) == f.is_homogeneous(w)
            assert e(f).degree(w, (shift,)) == (f.degree(w) + shift if f else -1)

    @pytest.mark.parametrize("field", [GF(7), QQ], ids=["GF(7)", "QQ"])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_hashes_keep_their_formulas(self, field, data):
        f = data.draw(field_polys(field))
        v = data.draw(sparse_vectors(field))
        p = field.characteristic
        assert hash(f) == hash((p, 3, tuple(sorted(f.terms.items()))))
        assert hash(v) == hash((p, 3, v.rank, tuple(sorted(v.terms.items()))))
        assert hash(v) == hash(FreeElement(field, 3, v.rank, dict(reversed(v.terms.items()))))
