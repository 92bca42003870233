"""Guards on the reduction kernel, checked against code written from the
definitions: the term order's keys against a comparator, normal forms
against a naive division that re-sorts its work on every step, and the
pair queue against repeated S-pair reductions."""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torsionlab import cache, groebner
from torsionlab.engine import run_source
from torsionlab.errors import ResourceLimitError
from torsionlab.fields import GF, QQ
from torsionlab.groebner import groebner_basis
from torsionlab.limits import run_scope
from torsionlab.orders import mono_key, term_key
from torsionlab.poly import (
    FreeElement,
    Polynomial,
    mono_mul,
    polynomial_to_element,
)
from torsionlab.syntax import parse_polynomial


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def degrevlex_cmp(a, b) -> int:
    """-1 when a > b in degree reverse lexicographic order, 1 when a < b."""
    if sum(a) != sum(b):
        return -_sign(sum(a) - sum(b))
    # equal degree: the last differing exponent decides, and the smaller wins
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return _sign(x - y)
    return 0


def mono_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def term_cmp(a, b) -> int:
    """-1 when term a is larger than term b in position over term."""
    # the smaller position dominates
    return _sign(a[0] - b[0]) or degrevlex_cmp(a[1], b[1])


MONOS = list(itertools.product(range(3), repeat=3))
TERMS = [(pos, mono) for pos in range(3) for mono in MONOS]


def test_mono_key_lists_monomials_largest_first():
    expected = sorted(MONOS, key=functools.cmp_to_key(degrevlex_cmp))
    assert sorted(MONOS, key=mono_key) == expected


def test_term_key_lists_terms_largest_first():
    expected = sorted(TERMS, key=functools.cmp_to_key(term_cmp))
    assert sorted(TERMS, key=term_key) == expected


def naive_normal_form(f: FreeElement, basis) -> FreeElement:
    """Division by ``basis``, re-sorting the whole work set on every step."""
    field = f.field
    key = functools.cmp_to_key(term_cmp)
    leads = [sorted(g.terms, key=key)[0] for g in basis]
    work = dict(f.terms)
    remainder = {}
    while work:
        t = sorted(work, key=key)[0]
        c = work.pop(t)
        for g, (lp, lm) in zip(basis, leads):
            if lp != t[0] or any(x > y for x, y in zip(lm, t[1])):
                continue
            q = field.mul(c, field.inv(g.terms[(lp, lm)]))
            shift = tuple(y - x for x, y in zip(lm, t[1]))
            for (gp, gm), gc in g.terms.items():
                if (gp, gm) == (lp, lm):
                    continue
                tt = (gp, tuple(x + y for x, y in zip(gm, shift)))
                v = field.add(work.get(tt, field.zero), field.neg(field.mul(q, gc)))
                if v:
                    work[tt] = v
                else:
                    work.pop(tt, None)
            break
        else:
            remainder[t] = c
    return FreeElement(field, f.nvars, f.rank, remainder)


# over QQ: small integers, which cancel, and fractions with numerators up
# to 10^12 and denominators up to 10^6, so the integer kernel has to clear
# denominators, remove contents and handle negative lead coefficients
RATIONALS = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(
        Fraction,
        st.integers(-(10**12), 10**12).filter(bool),
        st.integers(1, 10**6),
    ),
)


@st.composite
def problems(draw, fields):
    field = draw(st.sampled_from(fields))
    nvars = draw(st.integers(2, 3))
    rank = draw(st.integers(1, 3))
    mono = st.tuples(*[st.integers(0, 2)] * nvars)
    term = st.tuples(st.integers(0, rank - 1), mono)
    coeff = RATIONALS if field == QQ else st.integers(-3, 3).filter(bool)

    def vectors(max_size):
        return st.dictionaries(term, coeff, min_size=1, max_size=max_size).map(
            lambda terms: FreeElement(field, nvars, rank, terms)
        )

    gens = draw(st.lists(vectors(3), min_size=1, max_size=3))
    f = draw(vectors(6))
    return gens, f


@given(problems([GF(7), QQ]))
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_normal_form_matches_naive_division_on_a_reduced_basis(problem):
    gens, f = problem
    gb = groebner_basis(gens)
    field, nvars = f.field, f.nvars
    key = functools.cmp_to_key(term_cmp)
    leads = [sorted(g.terms, key=key)[0] for g in gb]
    # sorted by descending lead term
    assert leads == sorted(leads, key=key)
    # reduced: monic, and no term but its own lead is divisible by any lead
    for g, lead in zip(gb, leads):
        assert g.terms[lead] == field.one
        for t in g.terms:
            for lp, lm in leads:
                if t != lead and lp == t[0]:
                    assert any(x > y for x, y in zip(lm, t[1]))
    # every S-pair reduces to zero, and every generator lies in the span
    for (gi, (pi, mi)), (gj, (pj, mj)) in itertools.combinations(zip(gb, leads), 2):
        if pi != pj:
            continue
        lcm = tuple(max(a, b) for a, b in zip(mi, mj))
        up_i = Polynomial(field, nvars, {tuple(l - a for l, a in zip(lcm, mi)): 1})
        up_j = Polynomial(field, nvars, {tuple(l - a for l, a in zip(lcm, mj)): 1})
        assert gb.normal_form(gi.scaled(up_i) - gj.scaled(up_j)).is_zero()
    for g in gens:
        assert gb.normal_form(g).is_zero()
    assert gb.normal_form(f) == naive_normal_form(f, list(gb))


@given(problems([GF(7), QQ]))
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reducer_is_the_first_element_whose_lead_divides_the_term(problem):
    gens, f = problem
    field, nvars, rank = f.field, f.nvars, f.rank
    state = groebner.Completion(field, nvars, rank, "Groebner completion")
    for g in gens:
        state.add(g.terms)
    state.complete()
    key = functools.cmp_to_key(term_cmp)
    # the terms of f and every multiple of a lead up to degree 2 above it
    shifts = list(itertools.product(range(3), repeat=nvars))
    gb = groebner_basis(gens)
    gb_leads = [sorted(g.terms, key=key)[0] for g in gb]
    assert gb.lead_terms() == gb_leads
    # each completion element's lead, worked out on its own from its terms
    state_leads = [
        sorted(state.layout.unpack({**tail, lead: lc}), key=key)[0]
        for lead, lc, tail in zip(state.leads, state.lcs, state.tails)
    ]
    assert state.lead_terms() == state_leads
    for divisors, leads in ((gb, gb_leads), (state, state_leads)):
        terms = set(f.terms)
        terms.update(
            (p, tuple(a + b for a, b in zip(m, shift)))
            for p, m in leads
            for shift in shifts
        )
        terms.update((p, m) for p in range(rank) for m in shifts)
        for t in terms:
            dividing = [
                i
                for i, (lp, lm) in enumerate(leads)
                if lp == t[0] and all(a <= b for a, b in zip(lm, t[1]))
            ]
            assert divisors.reducer(t) == (dividing[0] if dividing else -1)


@pytest.mark.parametrize("field", [GF(7), QQ])
def test_a_term_that_cancels_and_comes_back_is_pushed_once(field, monkeypatch):
    # reducing x^2 by the first element brings in z, reducing y^2 cancels
    # it and reducing w^2 brings it back: the heap holds z once throughout
    names = ("x", "y", "z", "w")
    gb = groebner_basis(
        [
            polynomial_to_element(parse_polynomial(text, names, field))
            for text in ("x^2 - z", "y^2 + z", "w^2 - z")
        ]
    )
    f = polynomial_to_element(parse_polynomial("x^2 + y^2 + w^2", names, field))
    pushed = []
    real = groebner.heapq.heappush

    def counting(heap, item):
        pushed.append(item)
        real(heap, item)

    monkeypatch.setattr(groebner.heapq, "heappush", counting)
    remainder = gb.normal_form(f)
    assert remainder == naive_normal_form(f, list(gb))
    assert remainder == polynomial_to_element(parse_polynomial("z", names, field))
    assert pushed == [gb.layout.encode((0, (0, 0, 1, 0)))]


def test_buchberger_reduces_no_pair_twice(monkeypatch):
    # the twisted cubic: its S-polynomials are distinct up to sign, and the
    # S-polynomials of (i, j) and (j, i) differ only by sign
    names = ("x", "y", "z")
    gens = [
        polynomial_to_element(parse_polynomial(text, names, QQ))
        for text in ("x^2 - y*z", "y^2 - x*z", "z^2 - x*y")
    ]
    reduced = []
    real = groebner._Divisors._reduce_full

    def recording(self, terms, where):
        if terms:
            reduced.append(dict(terms))
        return real(self, terms, where)

    monkeypatch.setattr(groebner._Divisors, "_reduce_full", recording)
    groebner._buchberger(QQ, 3, 1, [g.terms for g in gens], "Groebner completion")
    monic = set()
    for terms in reduced:
        # packed terms: the smallest int is the lead
        inv = QQ.inv(terms[min(terms)])
        monic.add(frozenset((t, c * inv) for t, c in terms.items()))
    assert reduced
    assert len(monic) == len(reduced)


@given(problems([GF(7), QQ]))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_completion_fed_one_generator_at_a_time_autoreduces_to_the_basis(problem):
    gens, f = problem
    field, nvars, rank = f.field, f.nvars, f.rank
    state = groebner.Completion(field, nvars, rank, "Groebner completion")
    for g in gens:
        state.add(g.terms)
        state.complete()
        # a Groebner basis of what was added so far: g reduces to zero
        assert state.reduce(g.terms) == {}
    where = ("autoreduction of Groebner completion", nvars, rank, len(gens))
    reduced = groebner._autoreduce(state, range(len(state.leads)), where)
    expected = groebner_basis(gens)
    unpack = state.layout.unpack
    elements = [FreeElement(field, nvars, rank, unpack(t)) for t in reduced]
    assert elements == list(expected)
    assert state.reduce(f.terms) == expected.normal_form(f).terms


def monic_elements(field, nvars, rank, leads, lcs, tails):
    """The monic vectors ``(lcs[i] * leads[i] + tails[i]) / lcs[i]``."""
    out = []
    for lead, lc, tail in zip(leads, lcs, tails):
        terms = {t: Fraction(c, lc) for t, c in tail.items()}
        terms[lead] = Fraction(1)
        out.append(FreeElement(field, nvars, rank, terms))
    return out


def is_primitive_integer_vector(terms, lead) -> bool:
    values = list(terms.values())
    return (
        all(type(c) is int for c in values)
        and gcd(*values) == 1
        and terms[lead] > 0
    )


@given(problems([QQ]))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_qq_completion_keeps_primitive_integer_multiples_of_the_monic_vectors(problem):
    gens, f = problem
    field, nvars, rank = QQ, f.nvars, f.rank
    real = groebner._Divisors._reduce_full
    calls = []

    def checked(self, terms, where):
        remainder, scale = real(self, terms, where)
        lcs, unpack = self.lcs, self.layout.unpack
        tails = [unpack(tail) for tail in self.tails]
        # integers in and out, and R / s is what division by the monic
        # elements, reducer for reducer, leaves
        assert all(type(c) is int for c in terms.values())
        assert all(type(a) is int and a > 0 for a in lcs)
        assert all(type(c) is int for c in remainder.values())
        assert type(scale) is int and scale > 0
        basis = monic_elements(field, nvars, rank, self.lead_terms(), lcs, tails)
        f = FreeElement(field, nvars, rank, unpack(terms))
        expected = naive_normal_form(f, basis)
        quotient = {t: Fraction(c, scale) for t, c in unpack(remainder).items()}
        assert quotient == expected.terms
        calls.append(1)
        return remainder, scale

    with mock.patch.object(groebner._Divisors, "_reduce_full", checked):
        state = groebner.Completion(field, nvars, rank, "Groebner completion")
        for g in gens:
            state.add(g.terms)
            state.complete()
        state.reduce(f.terms)
        where = ("autoreduction of Groebner completion", nvars, rank, len(gens))
        reduced = groebner._autoreduce(state, range(len(state.leads)), where)
    assert calls
    unpack = state.layout.unpack
    elements = [
        {**tail, lead: lc}
        for lead, lc, tail in zip(state.leads, state.lcs, state.tails)
    ]
    for g, lead in zip(elements, state.leads):
        assert is_primitive_integer_vector(g, lead)
    # a generator joins as the primitive multiple of itself
    first = gens[0].terms
    lead = min(first, key=term_key)
    assert {t: Fraction(c, state.lcs[0]) for t, c in unpack(elements[0]).items()} == {
        t: c / first[lead] for t, c in first.items()
    }
    assert [FreeElement(field, nvars, rank, unpack(t)) for t in reduced] == list(
        groebner_basis(gens)
    )


def test_qq_coefficients_leave_the_kernel_as_fractions(tmp_path):
    names = ("x", "y", "z")
    gens = [
        polynomial_to_element(parse_polynomial(text, names, QQ))
        for text in ("3/2*x^2 - 5*y*z", "-7*y^2 + 2/9*x*z", "z^2 - 4/3*x*y")
    ]
    f = polynomial_to_element(parse_polynomial("x^3*y - 1/5*z^4 + 2*x", names, QQ))

    def all_fractions(terms):
        return all(type(c) is Fraction for c in terms.values())

    with run_scope(cache=cache.ComputationCache(str(tmp_path))) as scope:
        cold = groebner_basis(gens)
        warm = groebner_basis(gens)
    assert (scope.cache.misses, scope.cache.hits) == (1, 1)
    assert list(warm) == list(cold)
    for gb in (cold, warm):
        assert all(all_fractions(g.terms) for g in gb)
        remainder = gb.normal_form(f)
        assert remainder and all_fractions(remainder.terms)
    state = groebner.Completion(QQ, 3, 1, "Groebner completion")
    for g in gens:
        state.add(g.terms)
    state.complete()
    remainder = state.reduce(f.terms)
    assert remainder == cold.normal_form(f).terms and all_fractions(remainder)


# -- packed terms ------------------------------------------------------------


@st.composite
def layouts(draw):
    nvars = draw(st.integers(1, 5))
    bound = draw(st.sampled_from([1, 7, 64, 128, 300]))
    return groebner._Layout(nvars, bound)


def monomials(layout, max_degree=None):
    """Exponent vectors of total degree at most ``max_degree`` (default the
    layout's ``top``), as a random composition of a drawn degree."""
    top = layout.top if max_degree is None else max_degree
    n = layout.nvars

    @st.composite
    def draw_mono(draw):
        degree = draw(st.integers(0, top))
        cuts = draw(st.lists(st.integers(0, degree), min_size=n - 1, max_size=n - 1))
        bounds = [0, *sorted(cuts), degree]
        return tuple(b - a for a, b in zip(bounds, bounds[1:]))

    return draw_mono()


def terms_of(layout, max_degree=None):
    return st.tuples(st.integers(0, 3), monomials(layout, max_degree))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_packing_round_trips_and_keeps_the_term_order(data):
    layout = data.draw(layouts())
    a = data.draw(terms_of(layout))
    b = data.draw(terms_of(layout))
    ca, cb = layout.encode(a), layout.encode(b)
    assert layout.decode(ca) == a and layout.decode(cb) == b
    assert layout.degree(ca) == sum(a[1])
    # a smaller int is exactly a larger term
    assert (ca < cb) == (term_key(a) < term_key(b))
    assert (ca == cb) == (a == b)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_guard_test_divides_and_a_shift_sum_multiplies(data):
    layout = data.draw(layouts())
    lead = data.draw(terms_of(layout))
    # t is a multiple of the lead about half the time
    if data.draw(st.booleans()):
        extra = data.draw(monomials(layout, layout.top - sum(lead[1])))
        t = (lead[0], tuple(a + b for a, b in zip(lead[1], extra)))
    else:
        t = data.draw(terms_of(layout))
    divisors = groebner._Divisors(GF(7), layout)
    divisors._append(layout.encode(lead), 1, {})
    divides = lead[0] == t[0] and mono_divides(lead[1], t[1])
    assert (divisors._find(layout.encode(t)) == 0) == divides
    ce, ct = layout.encode(lead), layout.encode(t)
    # the lcm's exponent fields and degree, which may pass top
    e, degree = layout.lcm(ce, ct)
    lcm = mono_lcm(lead[1], t[1])
    assert degree == sum(lcm)
    assert [(e >> s) & layout.mask for s in layout.shifts] == list(lcm)
    if not divides:
        return
    shift = mono_sub(t[1], lead[1])
    # any tail term, in any position, whose product stays within top
    g = data.draw(terms_of(layout, layout.top - sum(shift)))
    assert layout.decode(layout.encode(g) + (ct - ce)) == (g[0], mono_mul(g[1], shift))


@pytest.mark.parametrize("field", [GF(7), QQ])
def test_a_basis_widens_its_layout_for_a_higher_cap(field):
    names = ("x", "y")
    gens = [
        polynomial_to_element(parse_polynomial(text, names, field))
        for text in ("x^2 - 3*x*y", "y^3 - x + 2")
    ]
    gb = groebner_basis(gens)
    small = polynomial_to_element(parse_polynomial("x^3*y + y^4", names, field))
    assert gb.normal_form(small) == naive_normal_form(small, list(gb))
    assert gb.layout.top < 200
    with run_scope(degree_cap=300):
        big = polynomial_to_element(
            parse_polynomial("x^150*y^50 - 2*x^7*y^190 + x", names, field)
        )
        wide = gb.normal_form(big)
        assert gb.layout.top >= 300
        fresh = groebner.GroebnerBasis(field, 2, 1, gb.elements).normal_form(big)
    assert wide == fresh
    assert gb.normal_form(small) == naive_normal_form(small, list(gb))
    # a term above every degree seen so far widens the layout again
    leads = gb.lead_terms()
    dividing = [i for i, lead in enumerate(leads) if mono_divides(lead[1], (400, 0))]
    assert dividing and gb.reducer((0, (400, 0))) == dividing[0]
    assert gb.layout.top >= 400


def test_a_power_of_degree_100_runs_under_a_cap_of_128():
    text = (
        "ring R = QQ[x,y];\nmodule M = coker [[x^100]] over R;\n"
        "print nu(M);\nprint torsion_free(M);\n"
    )
    with run_scope(degree_cap=128):
        report = run_source(text)
    assert [r.status for r in report.results] == ["ok"] * 4
    assert [r.output for r in report.results[2:]] == ["1", "False"]


# -- degree-cap errors ---------------------------------------------------------
# The messages below are the ones the tuple-term kernel raised on the same
# inputs.  Each vector is position over term: its lead sits in position 0
# and its tail holds terms in position 1 of higher degree than the lead, so
# the first tail term over the cap, in dict order, names the degree.


def rank_two(field, terms):
    return FreeElement(field, 2, 2, dict(terms))


@pytest.mark.parametrize("field", [GF(7), QQ])
@pytest.mark.parametrize(
    "tail, degree",
    [
        ([((1, (0, 9)), 1), ((1, (10, 0)), 3)], 11),
        ([((1, (10, 0)), 3), ((1, (0, 9)), 1)], 12),
    ],
)
def test_a_reduction_step_names_the_first_tail_term_over_the_cap(field, tail, degree):
    basis = groebner.GroebnerBasis(
        field, 2, 2, [rank_two(field, [((0, (1, 0)), 1), *tail])]
    )
    f = rank_two(field, {(0, (3, 0)): 1})
    with run_scope(degree_cap=10):
        with pytest.raises(ResourceLimitError) as raised:
            basis.normal_form(f)
    assert str(raised.value) == (
        f"term degree {degree} exceeds the degree cap 10 in the reduction of "
        "normal_form (2 variables, rank 2, generators: 1)"
    )


# Under a cap of 10 the layout holds degrees up to 15, so the S-polynomials
# below fit it.  Under a cap of 14 the layout also holds degrees up to 15,
# and the terms of degree 17 are built in a widened layout.


@pytest.mark.parametrize("field", [GF(7), QQ])
@pytest.mark.parametrize(
    "cap, first_terms, second_terms, first, degree",
    [
        (10, {(0, (2, 0)): 1, (1, (0, 10)): 2}, {(0, (0, 2)): 1, (1, (9, 0)): 5}, True, 12),
        (10, {(0, (2, 0)): 1, (1, (0, 10)): 2}, {(0, (0, 2)): 1, (1, (9, 0)): 5}, False, 11),
        (14, {(0, (3, 0)): 1, (1, (0, 14)): 2}, {(0, (0, 3)): 1, (1, (12, 0)): 5}, True, 17),
        (14, {(0, (3, 0)): 1, (1, (0, 14)): 2}, {(0, (0, 3)): 1, (1, (12, 0)): 5}, False, 15),
    ],
)
def test_an_s_polynomial_names_its_first_term_over_the_cap(
    field, cap, first_terms, second_terms, first, degree
):
    assert groebner._Layout(2, cap).top == 15
    g1 = rank_two(field, first_terms)
    g2 = rank_two(field, second_terms)
    with run_scope(degree_cap=cap):
        with pytest.raises(ResourceLimitError) as raised:
            groebner_basis([g1, g2] if first else [g2, g1])
    assert str(raised.value) == (
        f"term degree {degree} exceeds the degree cap {cap} in the S-polynomials of "
        "Groebner completion (2 variables, rank 2, generators: 2)"
    )


@pytest.mark.parametrize("field", [GF(7), QQ])
@pytest.mark.parametrize(
    "cap, first_terms, second_terms, rest",
    [
        # y * h1 - x * h2: both shifted tails are x*y^10 e_1, of degree 11
        (10, {(0, (1, 0)): 1, (1, (1, 9)): 1}, {(0, (0, 1)): 1, (1, (0, 10)): 1}, []),
        # y^3 * h1 - x^3 * h2: both hold x^3*y^14 e_1, of degree 17, and
        # x^4 e_1 is left
        (
            14,
            {(0, (3, 0)): 1, (1, (3, 11)): 1},
            {(0, (0, 3)): 1, (1, (0, 14)): 1, (1, (1, 0)): 1},
            [{(1, (4, 0)): 1}],
        ),
    ],
)
def test_s_polynomial_terms_over_the_cap_that_cancel_raise_nothing(
    field, cap, first_terms, second_terms, rest
):
    h1 = rank_two(field, first_terms)
    h2 = rank_two(field, second_terms)
    with run_scope(degree_cap=cap):
        basis = groebner_basis([h1, h2])
    assert list(basis) == [h1, h2, *[rank_two(field, terms) for terms in rest]]
