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

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torsionlab import cache, groebner
from torsionlab.fields import GF, QQ
from torsionlab.groebner import groebner_basis
from torsionlab.limits import run_scope
from torsionlab.orders import mono_key, term_key
from torsionlab.poly import FreeElement, Polynomial, polynomial_to_element
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
                v = field.sub(work.get(tt, field.zero), field.mul(q, gc))
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


def test_buchberger_reduces_no_pair_twice(monkeypatch):
    # the twisted cubic: its S-polynomials are distinct up to sign, and the
    # S-polynomials of (i, j) and (j, i) differ only by sign
    names = ("x", "y", "z")
    gens = [
        polynomial_to_element(parse_polynomial(text, names, QQ))
        for text in ("x^2 - y*z", "y^2 - x*z", "z^2 - x*y")
    ]
    reduced = []
    real = groebner._reduce_full

    def recording(field, terms, *rest):
        if terms:
            reduced.append(dict(terms))
        return real(field, terms, *rest)

    monkeypatch.setattr(groebner, "_reduce_full", recording)
    groebner._buchberger(QQ, 3, 1, [g.terms for g in gens])
    monic = set()
    for terms in reduced:
        inv = QQ.inv(terms[min(terms, key=term_key)])
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
    reduced = groebner._autoreduce(field, state.basis, state.leads, where)
    expected = groebner_basis(gens)
    assert [FreeElement(field, nvars, rank, terms) for terms in reduced] == list(expected)
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
    real = groebner._reduce_full
    calls = []

    def checked(field_, terms, by_position, leads, lcs, tails, where):
        remainder, scale = real(field_, terms, by_position, leads, lcs, tails, where)
        # integers in and out, and R / s is what division by the monic
        # elements, reducer for reducer, leaves
        assert all(type(c) is int for c in terms.values())
        assert all(type(a) is int and a > 0 for a in lcs)
        assert all(type(c) is int for c in remainder.values())
        assert type(scale) is int and scale > 0
        basis = monic_elements(field, nvars, rank, leads, lcs, tails)
        expected = naive_normal_form(FreeElement(field, nvars, rank, terms), basis)
        assert {t: Fraction(c, scale) for t, c in remainder.items()} == expected.terms
        calls.append(1)
        return remainder, scale

    with mock.patch.object(groebner, "_reduce_full", checked):
        state = groebner.Completion(field, nvars, rank, "Groebner completion")
        for g in gens:
            state.add(g.terms)
            state.complete()
        state.reduce(f.terms)
        where = ("autoreduction of Groebner completion", nvars, rank, len(gens))
        reduced = groebner._autoreduce(field, state.basis, state.leads, where)
    assert calls
    for g, lead, lc in zip(state.basis, state.leads, state.lcs):
        assert is_primitive_integer_vector(g, lead)
        assert g[lead] == lc
    # a generator joins as the primitive multiple of itself
    first = gens[0].terms
    lead = min(first, key=term_key)
    assert {t: Fraction(c, state.lcs[0]) for t, c in state.basis[0].items()} == {
        t: c / first[lead] for t, c in first.items()
    }
    assert [FreeElement(field, nvars, rank, t) for t in reduced] == list(
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

    with run_scope(cache=cache.open_cache(str(tmp_path))) as scope:
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
