"""Division, Buchberger, and syzygy behaviour on small hand-checked inputs."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torsionlab.errors import DimensionError, ResourceLimitError
from torsionlab.fields import GF, QQ
from torsionlab.groebner import (
    groebner_basis,
    ideal_groebner_basis,
    syzygy_generators,
    syzygy_matrix,
)
from torsionlab.limits import run_scope
from torsionlab.orders import term_key
from torsionlab.poly import (
    FreeElement,
    Polynomial,
    element_to_polynomial,
    lifted_ideal,
    polynomial_to_element,
)
from torsionlab.suite import dense_kernel_oracle, in_oracle_span
from torsionlab.syntax import format_polynomial, parse_polynomial

XY = ("x", "y")


def qq_poly(text: str) -> Polynomial:
    return parse_polynomial(text, XY, QQ)


def f5_poly(text: str) -> Polynomial:
    return parse_polynomial(text, XY, GF(5))


def as_elems(*polys: Polynomial):
    return [polynomial_to_element(p) for p in polys]


class TestNormalForm:
    def test_multiple_reduces_to_zero(self):
        gb = ideal_groebner_basis([qq_poly("x")])
        assert gb.normal_form(polynomial_to_element(qq_poly("x^2"))).is_zero()

    def test_zero_is_fixed(self):
        gb = ideal_groebner_basis([qq_poly("x")])
        zero = polynomial_to_element(Polynomial.zero(QQ, 2))
        assert gb.normal_form(zero).is_zero()

    def test_hand_division(self):
        # x*y^2 + y^3 = y * (x*y + y^2), so it reduces to zero
        gb = ideal_groebner_basis([qq_poly("x^2"), qq_poly("x*y + y^2"), qq_poly("y^3")])
        f = polynomial_to_element(qq_poly("x*y^2 + y^3"))
        assert gb.normal_form(f).is_zero()

    def test_remainder_irreducible(self):
        gb = ideal_groebner_basis([qq_poly("x^2"), qq_poly("x*y + y^2"), qq_poly("y^3")])
        f = polynomial_to_element(qq_poly("x^3 + x + y"))
        r = gb.normal_form(f)
        lead_monos = {t[1] for t in gb.lead_terms()}
        for _, mono in r.terms:
            for lm in lead_monos:
                assert not all(a <= b for a, b in zip(lm, mono))

    def test_rank_mismatch_rejected(self):
        gb = ideal_groebner_basis([qq_poly("x")])
        bad = FreeElement.unit(QQ, 2, 3, 0)
        with pytest.raises(DimensionError):
            gb.normal_form(bad)

    def test_idempotent(self):
        gb = ideal_groebner_basis([qq_poly("x^2"), qq_poly("x*y + y^2")])
        f = polynomial_to_element(qq_poly("x^3 + x*y + 1"))
        once = gb.normal_form(f)
        assert gb.normal_form(once) == once

    def test_difference_in_submodule(self):
        gb = ideal_groebner_basis([qq_poly("x^2"), qq_poly("x*y + y^2")])
        f = polynomial_to_element(qq_poly("x^3 + y^2 + x"))
        r = gb.normal_form(f)
        assert gb.contains(f - r)


class TestGroebnerBasis:
    def test_already_reduced(self):
        gb = ideal_groebner_basis([qq_poly("x"), qq_poly("y")])
        polys = sorted(format_polynomial(g.component(0), XY) for g in gb)
        assert polys == ["x", "y"]

    def test_hand_buchberger(self):
        # the single S-polynomial of x^2 and x*y + y^2 reduces to y^3
        gb = ideal_groebner_basis([qq_poly("x^2"), qq_poly("x*y + y^2")])
        polys = sorted(format_polynomial(g.component(0), XY) for g in gb)
        assert polys == ["x*y + y^2", "x^2", "y^3"]

    def test_principal_ideal_f2(self):
        p = parse_polynomial("x*y", XY, GF(2))
        gb = ideal_groebner_basis([p])
        assert len(gb) == 1
        assert format_polynomial(gb.elements[0].component(0), XY) == "x*y"

    def test_idempotent_on_own_output(self):
        gb = ideal_groebner_basis([qq_poly("x^2"), qq_poly("x*y + y^2")])
        again = groebner_basis(list(gb.elements))
        assert [g.terms for g in again] == [g.terms for g in gb]

    def test_buchberger_criterion(self):
        # every S-element of a returned basis reduces to zero
        gb = ideal_groebner_basis(
            [qq_poly("x^2 - y"), qq_poly("x*y - 1"), qq_poly("x + y^2")]
        )
        elems = list(gb.elements)
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                gi, gj = elems[i], elems[j]
                (pi, mi) = min(gi.terms, key=term_key)
                (pj, mj) = min(gj.terms, key=term_key)
                if pi != pj:
                    continue
                lcm = tuple(max(a, b) for a, b in zip(mi, mj))
                mono_i = Polynomial(QQ, 2, {tuple(l - a for l, a in zip(lcm, mi)): 1})
                mono_j = Polynomial(QQ, 2, {tuple(l - a for l, a in zip(lcm, mj)): 1})
                ci = gi.terms[(pi, mi)]
                cj = gj.terms[(pj, mj)]
                s = gi.scaled(mono_i * Fraction(1, 1) * QQ.inv(ci)) - gj.scaled(
                    mono_j * QQ.inv(cj)
                )
                assert gb.normal_form(s).is_zero()

    def test_module_spair_needed(self):
        # same-position coprime leads do not allow skipping module pairs:
        # (x, 1) and (y, 0) have the genuine syzygy remainder (0, y)
        f = FreeElement.from_components([qq_poly("x"), qq_poly("1")])
        g = FreeElement.from_components([qq_poly("y"), qq_poly("0")])
        gb = groebner_basis([f, g])
        target = FreeElement.from_components([qq_poly("0"), qq_poly("y")])
        assert gb.contains(target)

    def test_degree_cap_bounds_completion_and_reduction(self):
        # the S-pair of x^3 - y^2 and x*y^2 - 1 has the degree-4 term y^4;
        # reducing x^4 by x^2 - y^2 passes through x^2*y^2 to y^4
        gens = [qq_poly("x^3 - y^2"), qq_poly("x*y^2 - 1")]
        basis = ideal_groebner_basis([qq_poly("x^2 - y^2")])
        # made outside the capped scope: under a cap of 3 the power x^4 is refused
        x4 = as_elems(qq_poly("x^4"))[0]
        with run_scope(degree_cap=3):
            with pytest.raises(ResourceLimitError, match="degree 4 exceeds the degree cap 3"):
                ideal_groebner_basis(gens)
            with pytest.raises(ResourceLimitError, match="degree 4 exceeds the degree cap 3 in the reduction"):
                basis.normal_form(x4)
        assert len(ideal_groebner_basis(gens).elements) > 2
        assert format_polynomial(
            element_to_polynomial(basis.normal_form(as_elems(qq_poly("x^4"))[0])), XY
        ) == "y^4"

    def test_degree_cap_error_names_the_layer_and_the_input_shape(self):
        gens = [
            FreeElement.from_components([qq_poly("x^3 - y^2"), qq_poly("0")]),
            FreeElement.from_components([qq_poly("x*y^2 - 1"), qq_poly("0")]),
        ]
        basis = ideal_groebner_basis([qq_poly("x^2 - y^2")])
        x4 = as_elems(qq_poly("x^4"))[0]
        with run_scope(degree_cap=3):
            with pytest.raises(ResourceLimitError) as completion:
                groebner_basis(gens)
            with pytest.raises(ResourceLimitError) as reduction:
                basis.normal_form(x4)
            # the graph of (x^3 - y^2, x*y^2 - 1) has the same S-pair
            with pytest.raises(ResourceLimitError) as syzygies:
                syzygy_generators(as_elems(qq_poly("x^3 - y^2"), qq_poly("x*y^2 - 1")))
        assert str(completion.value) == (
            "term degree 4 exceeds the degree cap 3 in the S-polynomials of "
            "Groebner completion (2 variables, rank 2, generators: 2)"
        )
        assert str(reduction.value) == (
            "term degree 4 exceeds the degree cap 3 in the reduction of "
            "normal_form (2 variables, rank 1, generators: 1)"
        )
        assert str(syzygies.value) == (
            "term degree 4 exceeds the degree cap 3 in the S-polynomials of "
            "syzygies (2 variables, rank 3, generators: 2)"
        )


class TestSyzygies:
    def test_koszul_relation(self):
        cols = syzygy_matrix([[qq_poly("x"), qq_poly("y")]])
        assert len(cols) == 1
        col = cols[0]
        assert format_polynomial(col[0], XY) == "y"
        assert format_polynomial(col[1], XY) == "-x"

    def test_injective_map_has_no_syzygies(self):
        one = qq_poly("1")
        zero = qq_poly("0")
        cols = syzygy_matrix([[one, zero], [zero, one]])
        assert cols == []

    def test_zero_row_ignored(self):
        z = Polynomial.zero(GF(5), 2)
        rows = [[f5_poly("x"), f5_poly("y")], [z, z]]
        cols = syzygy_matrix(rows)
        assert len(cols) == 1
        assert format_polynomial(cols[0][0], XY) == "y"
        assert format_polynomial(cols[0][1], XY) == "4*x"

    def test_exactness(self):
        rows = [
            [f5_poly("x^2 + y"), f5_poly("x*y"), f5_poly("y^2")],
            [f5_poly("x"), f5_poly("y + 1"), f5_poly("0")],
        ]
        cols = syzygy_matrix(rows)
        assert cols, "this 2x3 matrix must have syzygies"
        for col in cols:
            for row in rows:
                acc = Polynomial.zero(GF(5), 2)
                for a, v in zip(row, col):
                    acc = acc + a * v
                assert acc.is_zero()


    @pytest.mark.parametrize(
        "lift",
        [
            FreeElement.unit(QQ, 2, 2, 0),
            FreeElement.unit(GF(5), 2, 1, 0),
            FreeElement.unit(QQ, 3, 1, 0),
        ],
        ids=["rank", "field", "nvars"],
    )
    def test_lift_outside_the_columns_module_is_rejected(self, lift):
        columns = as_elems(qq_poly("x"), qq_poly("y"))
        with pytest.raises(DimensionError, match="lift vectors"):
            syzygy_generators(columns, lift=[lift])


def graph_syzygies(columns, lift=()):
    """The syzygies by definition: the elements of the reduced basis of the
    whole graph ``columns[i] (+) e_i`` plus the lift that lie wholly in the
    tag block, restricted to it."""
    field, nvars, rank = columns[0].field, columns[0].nvars, columns[0].rank
    total = rank + len(columns)
    aug = [
        col.embedded(total) + FreeElement.unit(field, nvars, total, rank + i)
        for i, col in enumerate(columns)
    ]
    aug += [extra.embedded(total) for extra in lift if not extra.is_zero()]
    return [
        FreeElement(
            field, nvars, len(columns),
            {(pos - rank, mono): c for (pos, mono), c in g.terms.items()},
        )
        for g in groebner_basis(aug)
        if all(pos >= rank for pos, _ in g.terms)
    ]


def random_coefficient(rng: random.Random, field):
    if field.characteristic:
        return rng.randint(1, field.characteristic - 1)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 5, 7]), rng.choice([1, 1, 2, 3, 10]))


def random_vector(rng: random.Random, field, nvars: int, rank: int) -> FreeElement:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[(rng.randrange(rank), mono)] = random_coefficient(rng, field)
    return FreeElement(field, nvars, rank, terms)


@pytest.mark.parametrize("field", [GF(7), QQ], ids=str)
@pytest.mark.parametrize("seed", range(12))
def test_syzygies_are_the_tag_block_of_the_reduced_graph_basis(field, seed):
    """Autoreducing only the tag-lead elements of the graph's completion
    gives the definition's vectors, term for term and in its order: over
    both fields, in ranks 1 to 3, and with a quotient ring's lift I * R^rank
    on every other seed."""
    rng = random.Random(7100 + seed)
    nvars = rng.randint(2, 3)
    rank = rng.randint(1, 3)
    columns = [random_vector(rng, field, nvars, rank) for _ in range(rng.randint(1, 4))]
    lift = []
    if seed % 2:
        ideal = [
            Polynomial(field, nvars, {m: c for (_, m), c in v.terms.items()})
            for v in (random_vector(rng, field, nvars, 1) for _ in range(rng.randint(1, 2)))
        ]
        lift = lifted_ideal(ideal, rank)
    got = syzygy_generators(columns, lift)
    expected = graph_syzygies(columns, lift)
    assert [g.rank for g in got] == [len(columns)] * len(got)
    assert [list(g.terms.items()) for g in got] == [
        list(g.terms.items()) for g in expected
    ]


def random_poly(rng: random.Random, field, nvars: int, max_degree: int) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        if sum(mono) > max_degree:
            continue
        terms[mono] = rng.randint(0, field.characteristic - 1)
    return Polynomial(field, nvars, terms)


class TestDivisionProperties:
    """Division correctness on random prime-field ideals."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    small_polys = st.lists(
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.integers(1, 4),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=3,
    )

    @given(gens_terms=small_polys, f_terms=small_polys.map(lambda ls: ls[0]))
    @settings(max_examples=60, deadline=None)
    def test_remainder_difference_lies_in_submodule(self, gens_terms, f_terms):
        field = GF(5)
        gens = [Polynomial(field, 2, terms) for terms in gens_terms]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            return
        f = Polynomial(field, 2, f_terms)
        gb = ideal_groebner_basis(gens)
        fe = polynomial_to_element(f)
        remainder = gb.normal_form(fe)
        assert gb.normal_form(remainder) == remainder  # idempotent
        assert gb.contains(fe - remainder)  # difference in the ideal


@pytest.mark.parametrize("seed", range(6))
def test_syzygies_match_linear_algebra_oracle(seed):
    rng = random.Random(9000 + seed)
    field = GF(5)
    rows = [
        [random_poly(rng, field, 2, 2) for _ in range(3)] for _ in range(2)
    ]
    if all(e.is_zero() for row in rows for e in row):
        rows[0][0] = f5_poly("x")
    cols = syzygy_matrix(rows)
    for col in cols:
        for row in rows:
            acc = Polynomial.zero(field, 2)
            for a, v in zip(row, col):
                acc = acc + a * v
            assert acc.is_zero()
    oracle = dense_kernel_oracle(rows, 2, 6, field)
    syz_elems = [FreeElement.from_components(c, rank=3) for c in cols]
    if syz_elems:
        gb = groebner_basis(syz_elems)
        for vec in oracle:
            assert gb.contains(FreeElement.from_components(vec, rank=3))
    else:
        assert not oracle


# principal ideals of the quotient rings whose lift I * R^rank the syzygies
# are taken modulo: the node, a coordinate cross and a cusp
QUOTIENTS = (None, "x^2 - y^2", "x*y", "y^2 - x^3")
ORACLE_BOUND = 3


@st.composite
def syzygy_problems(draw):
    field = draw(st.sampled_from([GF(7), QQ]))
    rank = draw(st.integers(1, 2))
    width = draw(st.integers(1, 3))
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda m: sum(m) <= 2)
    coeff = (
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
        if field == QQ
        else st.integers(0, 6)
    )
    entry = st.dictionaries(mono, coeff, max_size=2).map(
        lambda terms: Polynomial(field, 2, terms)
    )
    row = st.lists(entry, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=rank, max_size=rank))
    quotient = draw(st.sampled_from(QUOTIENTS))
    return field, rows, quotient


@given(syzygy_problems())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_syzygies_match_the_oracle_over_both_fields_and_modulo_a_lift(problem):
    field, rows, quotient = problem
    rank, width = len(rows), len(rows[0])
    columns = [
        FreeElement.from_components([row[j] for row in rows]) for j in range(width)
    ]
    f = parse_polynomial(quotient, XY, field) if quotient else None
    lift = lifted_ideal([f], rank) if f else []
    syz = syzygy_generators(columns, lift)
    # each syzygy maps into the lift
    target = groebner_basis(lift) if lift else None
    for v in syz:
        image = FreeElement.zero(field, 2, rank)
        for j, comp in enumerate(v.components()):
            image = image + columns[j].scaled(comp)
        assert target.contains(image) if lift else image.is_zero()
    oracle = dense_kernel_oracle(
        rows, 2, ORACLE_BOUND, field, [vec.components() for vec in lift]
    )
    # the oracle lies in the syzygy module, and the syzygies of degree at
    # most the bound lie in the oracle's span
    if syz:
        gb = groebner_basis(syz)
        for vec in oracle:
            assert gb.contains(FreeElement.from_components(vec, rank=width))
    else:
        assert not oracle
    for v in syz:
        if v.degree() <= ORACLE_BOUND:
            assert in_oracle_span(v.components(), oracle, field)


@given(syzygy_problems(), st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_syzygies_do_not_depend_on_the_order_of_the_target_positions(problem, data):
    """Permuting the positions of R^rank, in the columns and the lift alike,
    returns the same syzygies, vector for vector and term for term: they
    are the reduced basis of {v : sum v_j columns[j] in <lift>} in rank
    len(columns), which no order of R^rank enters.  The lift is empty, a
    quotient's I * R^rank, or that plus a drawn vector of R^rank."""
    field, rows, quotient = problem
    rank, width = len(rows), len(rows[0])
    columns = [
        FreeElement.from_components([row[j] for row in rows]) for j in range(width)
    ]
    lift = lifted_ideal([parse_polynomial(quotient, XY, field)], rank) if quotient else []
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda m: sum(m) <= 2)
    entry = st.dictionaries(mono, st.integers(-3, 3), max_size=2)
    for terms in data.draw(st.lists(st.lists(entry, min_size=rank, max_size=rank), max_size=1)):
        lift.append(
            FreeElement.from_components([Polynomial(field, 2, t) for t in terms], rank=rank)
        )
    order = data.draw(st.permutations(range(rank)), label="new position of each")

    def permuted(vec):
        terms = {(order[pos], m): c for (pos, m), c in vec.terms.items()}
        return FreeElement(field, 2, rank, terms, _normalized=True)

    got = syzygy_generators([permuted(c) for c in columns], [permuted(v) for v in lift])
    expected = syzygy_generators(columns, lift)
    assert [list(g.terms.items()) for g in got] == [
        list(g.terms.items()) for g in expected
    ]
