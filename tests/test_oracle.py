"""The panel's linear-algebra oracle against dense Gauss-Jordan elimination.

``suite._echelon`` keeps its rows sparse and builds the reduced row echelon
form one row at a time.  The reduced echelon form of a span is unique, so
it must equal what dense elimination of the same matrix gives: the
reference below, kept here as plain lists, is the dense elimination the
oracle used before its rows went sparse.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab.fields import GF, QQ
from torsionlab.poly import Polynomial
from torsionlab.suite import _echelon, _syzygy_oracle_instances, dense_kernel_oracle


def dense_echelon(matrix, ncols, field):
    """Gauss-Jordan elimination of the dense ``matrix`` in place, column by
    column; returns {pivot column: row index}."""
    p = field.characteristic
    pivots = {}
    rank = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        inv = field.inv(matrix[rank][col])
        matrix[rank] = [field.mul(v, inv) for v in matrix[rank]]
        for r in range(len(matrix)):
            f = matrix[r][col]
            if r != rank and f:
                pairs = zip(matrix[r], matrix[rank])
                matrix[r] = [field.add(a, field.neg(field.mul(f, b))) for a, b in pairs]
        pivots[col] = rank
        rank += 1
    return pivots


def dense_kernel_reference(rows, nvars, degree_bound, field):
    """The truncated kernel of the polynomial matrix ``rows`` by dense
    elimination: one basis vector per free unknown, in ascending order,
    dropping none (there is no lift)."""
    monos = [
        m
        for m in iter_product(range(degree_bound + 1), repeat=nvars)
        if sum(m) <= degree_bound
    ]
    ncols = len(rows[0])
    nunknowns = ncols * len(monos)
    equations = {}
    for ci in range(ncols):
        for ri, row in enumerate(rows):
            for em, ec in row[ci].terms.items():
                for mi, m in enumerate(monos):
                    target = tuple(a + b for a, b in zip(em, m))
                    vec = equations.setdefault((ri, target), [field.zero] * nunknowns)
                    k = ci * len(monos) + mi
                    vec[k] = field.add(vec[k], ec)
    matrix = list(equations.values())
    pivots = dense_echelon(matrix, nunknowns, field)
    basis = []
    for free_col in (c for c in range(nunknowns) if c not in pivots):
        v = [field.zero] * nunknowns
        v[free_col] = field.one
        for col, r in pivots.items():
            v[col] = field.neg(matrix[r][free_col])
        basis.append(
            [
                Polynomial(
                    field,
                    nvars,
                    {m: v[ci * len(monos) + mi] for mi, m in enumerate(monos)
                     if v[ci * len(monos) + mi]},
                )
                for ci in range(ncols)
            ]
        )
    return basis


FIELDS = {"GF(2)": GF(2), "GF(7)": GF(7), "QQ": QQ}


@st.composite
def matrices(draw, field):
    """A small dense matrix over ``field`` with zero rows, repeated rows and
    rows that are combinations of earlier ones mixed in."""
    ncols = draw(st.integers(1, 7))
    p = field.characteristic
    entry = (
        st.integers(0, p - 1)
        if p
        else st.fractions(min_value=-3, max_value=3, max_denominator=4)
    )
    sparse_entry = st.one_of(st.just(0), st.just(0), entry)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("random", "zero", "repeat", "combination")))
        if kind == "zero":
            row = [0] * ncols
        elif kind == "repeat" and rows:
            row = list(draw(st.sampled_from(rows)))
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = field.coerce(draw(entry)), field.coerce(draw(entry))
            row = [field.add(field.mul(s, x), field.mul(t, y)) for x, y in zip(a, b)]
        else:
            row = [draw(sparse_entry) for _ in range(ncols)]
        rows.append([field.coerce(v) for v in row])
    return rows, ncols


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_echelon_equals_dense_gauss_jordan(field_name, data):
    field = FIELDS[field_name]
    rows, ncols = data.draw(matrices(field), label="matrix")
    sparse = _echelon([{c: v for c, v in enumerate(row) if v} for row in rows], field)
    dense = [list(row) for row in rows]
    pivots = dense_echelon(dense, ncols, field)
    assert sorted(sparse) == sorted(pivots)
    for col, r in pivots.items():
        assert sparse[col] == {c: v for c, v in enumerate(dense[r]) if v}
    # the dense form's rows below the rank are zero
    assert not any(any(row) for row in dense[len(pivots):])


@pytest.mark.parametrize("seed", [0, 1])
def test_the_kernel_oracle_equals_dense_elimination_on_criterion_11(seed):
    field = GF(5)
    for rows in _syzygy_oracle_instances(seed):
        oracle = dense_kernel_oracle(rows, 2, 6, field)
        reference = dense_kernel_reference(rows, 2, 6, field)
        assert oracle == reference
        # the same terms in the same order, so the same text
        assert [[list(e.terms.items()) for e in v] for v in oracle] == [
            [list(e.terms.items()) for e in v] for v in reference
        ]


def test_the_kernel_oracle_equals_dense_elimination_over_QQ():
    for rows in _syzygy_oracle_instances(0):
        def rational(e):
            terms = {m: Fraction(c, 1 + c % 3) for m, c in e.terms.items()}
            return Polynomial(QQ, 2, terms)

        matrix = [[rational(e) for e in row] for row in rows]
        reference = dense_kernel_reference(matrix, 2, 4, QQ)
        assert dense_kernel_oracle(matrix, 2, 4, QQ) == reference
