"""The built-in verification panel behind ``torsionlab verify-suite paper``.

Each criterion is declared once, by ``@_criterion(identifier)``: its body
returns the one-line pass detail and states each failure in one
``_require(condition, detail)``, and the wrapper turns either outcome into
a ``CriterionResult``.  The test suite runs the same functions, so the CLI
panel and the acceptance tests cannot drift apart.  All tolerances are
exact: the claims are algebraic identities.
"""

from __future__ import annotations

import random
import tempfile
from itertools import product as iter_product
from typing import List, NamedTuple, Optional

from .cache import ComputationCache
from .engine import run_source
from .fields import GF, QQ
from .frobenius import (
    frobenius_functor,
    tor_frobenius,
    verify_frobenius_torsion_equivalence,
    verify_regularity_probe,
)
from .groebner import groebner_basis, syzygy_matrix
from .homology import PD_INFINITE, koszul_depth, pd, tor
from .limits import run_scope
from .modules import FPModule, annihilator, tensor, tensor_power
from .poly import FreeElement, Polynomial
from .randgen import random_module_with_planted_relation
from .rings import Ideal, is_regular_sequence, make_ring
from .syntax import parse_polynomial
from .torsion import (
    check_relation_annihilates,
    koszul_syzygy_module,
    maximal_ideal_module,
    residue_field_module,
    torsion_split,
    verify_koszul_tensor_powers,
    verify_presentation_torsion_bound,
)


class CriterionResult(NamedTuple):
    identifier: str
    passed: bool
    detail: str


def _ring_qq_xy():
    return make_ring(QQ, ("x", "y"), reduced=True)


def _ring_qq_xyz():
    return make_ring(QQ, ("x", "y", "z"), reduced=True)


def _ring_f5_xyz():
    return make_ring(GF(5), ("x", "y", "z"), reduced=True)


def _node(p):
    field = GF(p)
    names = ("x", "y")
    return make_ring(
        field,
        names,
        ideal=[parse_polynomial("x*y", names, field)],
        minimal_primes=[
            [parse_polynomial("x", names, field)],
            [parse_polynomial("y", names, field)],
        ],
        reduced=True,
        complete_intersection=True,
    )


def _fermat_cubic_f2():
    field = GF(2)
    names = ("x", "y", "z")
    cubic = parse_polynomial("x^3 + y^3 + z^3", names, field)
    return make_ring(
        field,
        names,
        ideal=[cubic],
        minimal_primes=[[cubic]],
        reduced=True,
        complete_intersection=True,
    )


# ---------------------------------------------------------------------------


class _Failed(Exception):
    """A criterion's failure; its one argument is the failure detail."""


def _require(condition, detail: str) -> None:
    if not condition:
        raise _Failed(detail)


CRITERIA: List[tuple] = []


def _criterion(identifier: str):
    """Append the decorated body to ``CRITERIA`` as a criterion named
    ``identifier``, so the panel runs in the order of definition."""

    def declare(body):
        def criterion(seed: int = 0) -> CriterionResult:
            try:
                return CriterionResult(identifier, True, body(seed))
            except _Failed as failure:
                return CriterionResult(identifier, False, str(failure))

        criterion.__name__ = criterion.__qualname__ = body.__name__
        criterion.__doc__ = body.__doc__
        CRITERIA.append((identifier, criterion))
        return criterion

    return declare


@_criterion("criterion-01-thm2.8-suite")
def criterion_1_tensor_power_suite(seed: int) -> str:
    """Tensor-power certificates on the three prescribed (d, ring) instances."""
    cases = []
    qq = _ring_qq_xy()
    cases.append((qq, [qq.poly("x"), qq.poly("y")]))
    f5 = _ring_f5_xyz()
    cases.append((f5, [f5.poly("x"), f5.poly("y"), f5.poly("z")]))
    qq2 = _ring_qq_xy()
    cases.append((qq2, [qq2.poly("x^2"), qq2.poly("y^3")]))
    failures = []
    for ring, seq in cases:
        cert = verify_koszul_tensor_powers(ring, seq)
        if not cert.passed:
            failures.append(f"{ring.descriptor()}: {cert.failed_subclaims()}")
    _require(not failures, "; ".join(failures))
    return (
        "all sub-claims pass on (d=2, QQ[x,y]), (d=3, GF(5)[x,y,z]), "
        "(d=2, QQ[x,y], x^2,y^3)"
    )


@_criterion("criterion-02-prop2.2-property")
def criterion_2_relation_property(seed: int) -> str:
    """200 seeded planted-relation instances: every coefficient kills the
    alternating tensor."""
    rng = random.Random(20260808 + seed)
    rings = [_ring_qq_xy(), _ring_f5_xyz()]
    checked = 0
    for ring in rings:
        for k in range(100):
            ngens = 2 if k % 3 else 3
            module, planted = random_module_with_planted_relation(
                ring, rng, ngens=ngens
            )
            gens = [module.generator(i) for i in range(ngens)]
            cert = check_relation_annihilates(module, gens, planted)
            _require(cert.passed, f"instance {checked} over {ring.descriptor()} failed")
            checked += 1
    return f"{checked} planted relations annihilate their alternating tensors"


@_criterion("criterion-03-node-regression")
def criterion_3_node_regression(seed: int) -> str:
    """Tensor powers of the node branch module stay the branch module."""
    node = _node(5)
    branch = FPModule.cyclic(node, [node.poly("x")])
    x_ideal = Ideal(node, [node.poly("x")])
    for n in range(1, 5):
        power = tensor_power(branch, n)
        minimal = power.minimal()
        _require(
            minimal.ngens == 1 and len(minimal.relations) == 1,
            f"power {n}: minimal presentation is not 1x1",
        )
        entry_ideal = Ideal(node, [minimal.relations[0].component(0)])
        _require(entry_ideal == x_ideal, f"power {n}: relation ideal differs from (x)")
        _require(torsion_split(power).is_torsion_free, f"power {n}: unexpected torsion")
    return "powers 1..4 of the branch module are coker([x]) and torsion-free"


@_criterion("criterion-04-thm2.10")
def criterion_4_torsion_bound(seed: int) -> str:
    """Both torsion-bound cases fire at n = b; the node branch is
    correctly inapplicable for case 1."""
    qq = _ring_qq_xy()
    koszul = koszul_syzygy_module(qq, [qq.poly("x"), qq.poly("y")])
    case1 = verify_presentation_torsion_bound(koszul, FPModule.free(qq, 1), 1)
    _require(case1.applicable and case1.passed, f"case 1: {case1.failed_subclaims()}")
    case2 = verify_presentation_torsion_bound(
        koszul, FPModule.cyclic(qq, [qq.poly("x")]), 2
    )
    _require(case2.applicable and case2.passed, f"case 2: {case2.failed_subclaims()}")
    node = _node(5)
    branch = FPModule.cyclic(node, [node.poly("x")])
    node_case = verify_presentation_torsion_bound(branch, FPModule.free(node, 1), 1)
    _require(
        not node_case.applicable,
        "node branch module should be inapplicable for case 1",
    )
    return "case 1 and case 2 fire at n=b; node branch inapplicable as expected"


@_criterion("criterion-05-depth-tor")
def criterion_5_depth_tor(seed: int) -> str:
    """Koszul depth equals the derived-functor depth formula on the panel."""
    qq = _ring_qq_xy()
    qqz = _ring_qq_xyz()
    node = _node(5)
    koszul3 = koszul_syzygy_module(
        qqz, [qqz.poly("x"), qqz.poly("y"), qqz.poly("z")]
    )
    panel = [
        (qq, [qq.poly("x"), qq.poly("y")], FPModule.free(qq, 1)),
        (qq, [qq.poly("x"), qq.poly("y")], koszul_syzygy_module(qq, [qq.poly("x"), qq.poly("y")])),
        (qq, [qq.poly("x"), qq.poly("y")], FPModule.cyclic(qq, [qq.poly("x")])),
        (qq, [qq.poly("x^2"), qq.poly("y^3")], FPModule.free(qq, 1)),
        (qqz, [qqz.poly("x"), qqz.poly("y"), qqz.poly("z")], tensor_power(koszul3, 2)),
        (node, [node.poly("x + y")], FPModule.cyclic(node, [node.poly("x")])),
    ]
    for ring, sequence, module in panel:
        _require(is_regular_sequence(ring, sequence), "panel sequence is not regular")
        direct = koszul_depth(sequence, module)
        quotient = FPModule.cyclic(ring, sequence)
        d = len(sequence)
        sup = 0
        for i in range(d, -1, -1):
            if not tor(quotient, module, i).is_zero():
                sup = i
                break
        _require(
            direct == d - sup,
            f"{ring.descriptor()}: koszul={direct}, formula={d - sup}",
        )
    return f"exact agreement on {len(panel)} (sequence, module) pairs"


@_criterion("criterion-06-carrier-panel")
def criterion_6_carrier_panel(seed: int) -> str:
    """Both carrier signals fire exactly on the non-free panel entries."""
    qq = _ring_qq_xy()
    maximal = maximal_ideal_module(qq)
    residue = residue_field_module(qq)
    panel = [
        (FPModule.free(qq, 1), True),
        (FPModule.cyclic(qq, [qq.poly("x")]), False),
        (koszul_syzygy_module(qq, [qq.poly("x"), qq.poly("y")]), False),
    ]
    for module, is_free in panel:
        torsion_detects = not torsion_split(tensor(maximal, module)).is_torsion_free
        tor_detects = not tor(residue, module, 1).is_zero()
        _require(
            torsion_detects == tor_detects == (not is_free),
            f"{module.descriptor()}: torsion={torsion_detects}, tor1={tor_detects}",
        )
    return "t(m (x) M) and Tor_1(k, M) detect exactly the non-free entries"


@_criterion("criterion-07-twisted-flatness")
def criterion_7_twisted_flatness(seed: int) -> str:
    """Twisted Tor vanishes over the two regular rings for e, i in {1, 2}."""
    checked = 0
    for ring in (
        make_ring(GF(2), ("x", "y"), reduced=True, complete_intersection=True),
        _ring_f5_xyz(),
    ):
        panel = [
            FPModule.cyclic(ring, [ring.variable(0)]),
            koszul_syzygy_module(
                ring, [ring.variable(i) for i in range(ring.nvars)]
            ),
            maximal_ideal_module(ring),
        ]
        for module in panel:
            for e, i in iter_product((1, 2), (1, 2)):
                _require(
                    tor_frobenius(module, e, i).is_zero(),
                    f"{ring.descriptor()}, {module.descriptor()}, e={e}, i={i}",
                )
                checked += 1
    return f"{checked} twisted Tor groups vanish over the regular rings"


@_criterion("criterion-08-infinite-pd")
def criterion_8_infinite_pd_detection(seed: int) -> str:
    """The node branch module: infinite pd, twisted Tor obstruction, and the
    recorded torsion witness in its twist."""
    node = _node(2)
    branch = FPModule.cyclic(node, [node.poly("x")])
    _require(pd(branch) == PD_INFINITE, "pd should be infinite")
    obstruction = tor_frobenius(branch, 1, 1)
    _require(not obstruction.is_zero(), "twisted Tor_1 should not vanish")
    # hand oracle: the obstruction is (y)/(y^2): one generator killed by m
    _require(
        obstruction.nu() == 1
        and annihilator(obstruction) == Ideal(node, [node.poly("x"), node.poly("y")]),
        "obstruction is not the hand value",
    )
    twisted = frobenius_functor(branch, 1)
    _require(
        annihilator(twisted) == Ideal(node, [node.poly("x^2")]),
        "twist is not R/(x^2)",
    )
    split = torsion_split(twisted)
    _require(not split.is_torsion_free, "twist should have torsion")
    witness = twisted.element([node.poly("x")])
    killer = node.poly("x + y")
    _require(
        not witness.is_zero()
        and twisted.element_is_zero(witness.coords.scaled(killer))
        and node.is_nonzerodivisor(killer),
        "witness x / (x+y) failed",
    )
    _require(
        split.torsion_free_part.element_is_zero(witness.coords),
        "witness class is not inside the computed torsion submodule",
    )
    return "infinite pd, twisted obstruction (y)/(y^2), witness x killed by x+y"


@_criterion("criterion-09-thm3.5")
def criterion_9_equivalence_panel(seed: int) -> str:
    """Both sides of the twisted torsion-freeness equivalence, computed
    independently, agree on the negative and positive instances."""
    node = _node(2)
    negative = verify_frobenius_torsion_equivalence(
        FPModule.cyclic(node, [node.poly("x")]), 1
    )
    _require(
        negative.applicable and negative.passed,
        f"negative: {negative.failed_subclaims()}",
    )
    twisted_side = next(
        sc for sc in negative.subclaims if sc.name == "twisted-side"
    )
    _require(
        not twisted_side.witnesses["torsion_free"],
        "negative instance lost its torsion",
    )
    fermat = _fermat_cubic_f2()
    positive = verify_frobenius_torsion_equivalence(
        koszul_syzygy_module(fermat, [fermat.poly("y"), fermat.poly("z")]), 1
    )
    _require(
        positive.applicable and positive.passed,
        f"positive: {positive.failed_subclaims()}",
    )
    sampled = [
        sc for sc in positive.subclaims if sc.name.startswith("sampled-tor-vanishing")
    ]
    _require(
        len(sampled) == 4 and all(sc.passed is True for sc in sampled),
        "sampled vanishing missing on positive",
    )
    return "negative node instance and positive cubic instance both certified"


@_criterion("criterion-10-cor3.7")
def criterion_10_regularity_probe(seed: int) -> str:
    """The twisted-restriction probe matches the regularity decisions."""
    plane = make_ring(GF(2), ("x", "y"), reduced=True, complete_intersection=True)
    panel = [
        FPModule.free(plane, 1),
        koszul_syzygy_module(plane, [plane.poly("x"), plane.poly("y")]),
    ]
    for module in panel:
        cert = verify_regularity_probe(plane, module, 1, 1)
        _require(
            cert.applicable and cert.passed,
            f"regular plane, {module.descriptor()}: {cert.failed_subclaims()}",
        )
    node = _node(2)
    cert = verify_regularity_probe(node, FPModule.free(node, 1), 1, 1)
    _require(cert.applicable and cert.passed, f"node: {cert.failed_subclaims()}")
    marker = next(
        sc for sc in cert.subclaims if sc.name == "torsion-freeness-matches-regularity"
    )
    _require(marker.witnesses["torsion_free"] is False, "node should produce torsion")
    return "probe matches the two agreeing regularity decisions on both rings"


def _subtract(row: dict, f, pivot_row: dict, p: int) -> None:
    """``row -= f * pivot_row`` in place on sparse rows, mod p when p is
    nonzero; entries that cancel are dropped."""
    for col, b in pivot_row.items():
        v = row.get(col, 0) - f * b
        if p:
            v %= p
        if v:
            row[col] = v
        else:
            row.pop(col, None)


def _reduced(row: dict, pivots: dict, p: int) -> dict:
    """A copy of the sparse ``row`` with every pivot column of the reduced
    echelon form ``pivots`` cleared.  A pivot row is zero at every other
    pivot column, so one pass over the row's pivot columns clears them."""
    row = dict(row)
    for col in [c for c in row if c in pivots]:
        _subtract(row, row[col], pivots[col], p)
    return row


def _echelon(rows, field) -> dict:
    """The reduced row echelon form of the span of ``rows``, each a sparse
    row {column: coefficient} over ``field``; returns {pivot column: row}.

    The rows are taken in one at a time: a row is reduced by the pivot
    rows so far, and when something is left its smallest column becomes a
    pivot, the row is scaled to 1 there and that column is cleared from
    the other pivot rows.  The reduced echelon form of a span is unique,
    so the pivots and their rows are those dense Gauss-Jordan elimination
    of the same matrix gives, in any row order.  Columns are any values
    that sort."""
    p = field.characteristic
    pivots: dict = {}
    for row in rows:
        row = _reduced(row, pivots, p)
        if not row:
            continue
        col = min(row)
        inv = field.inv(row[col])
        if p:
            row = {c: v * inv % p for c, v in row.items()}
        else:
            row = {c: v * inv for c, v in row.items()}
        for other in pivots.values():
            f = other.get(col)
            if f:
                _subtract(other, f, row, p)
        pivots[col] = row
    return pivots


def dense_kernel_oracle(rows, nvars: int, degree_bound: int, field, lift=()):
    """Exact nullspace of A over ``field`` (GF(p), or QQ in ``Fraction``
    arithmetic) truncated in degree: solve for vector entries supported on
    all monomials of degree <= bound.  Plain linear algebra, independent of
    the Groebner engine.  ``rows`` are the rows of A as lists of
    polynomials; the result spans the truncated kernel, each vector a list
    of one polynomial per column of A (without ``lift``, a basis of it).

    The linear system has one equation per (row of A, monomial) and one
    unknown per (column, monomial); its equations are sparse rows brought
    to reduced echelon form by ``_echelon``.  The kernel vector of a free
    unknown f is 1 at f and minus the entry of column f in each pivot
    row, read off the pivot rows column by column; a vector that vanishes
    on the unknowns of A is dropped.  The vectors come in ascending order
    of their free unknown, as dense elimination would list them.

    ``lift`` holds columns L, one polynomial per row of A: the result then
    spans the v of degree <= bound with A v = L w for some w.  The entries
    of w are solved up to degree bound + deg A - (the lowest degree of a
    nonzero entry of their column), which holds every such w when L is
    f * e_j for a principal ideal (f), since then w = (A v) / f."""
    p = field.characteristic

    def monomials(bound):
        return [
            m for m in iter_product(range(bound + 1), repeat=nvars) if sum(m) <= bound
        ]

    monos = monomials(degree_bound)
    top = max((e.degree() for row in rows for e in row if not e.is_zero()), default=0)
    # one block of unknowns per column of A, then per lift column
    blocks = [([row[ci] for row in rows], monos) for ci in range(len(rows[0]))]
    for column in lift:
        low = min(e.degree() for e in column if not e.is_zero())
        blocks.append((column, monomials(max(degree_bound + top - low, 0))))
    nunknowns = sum(len(block_monos) for _, block_monos in blocks)
    equations = {}
    offset = 0
    for column, block_monos in blocks:
        for ri, entry in enumerate(column):
            for em, ec in entry.terms.items():
                for mi, m in enumerate(block_monos):
                    target = tuple(a + b for a, b in zip(em, m))
                    # one term of the entry meets the unknown in each equation
                    equations.setdefault((ri, target), {})[offset + mi] = ec
        offset += len(block_monos)
    pivots = _echelon(equations.values(), field)
    # the nonzero entries (unknown, value) of each free unknown's vector
    entries = {f: [(f, field.one)] for f in range(nunknowns) if f not in pivots}
    for col, row in pivots.items():
        for f, c in row.items():
            if f != col:
                entries[f].append((col, p - c if p else -c))
    width = len(rows[0]) * len(monos)
    basis = []
    for vector in entries.values():
        vector = sorted((col, c) for col, c in vector if col < width)
        if not vector:
            continue
        terms = [{} for _ in rows[0]]
        for col, c in vector:
            ci, mi = divmod(col, len(monos))
            terms[ci][monos[mi]] = field.coerce(c)
        basis.append(
            [Polynomial(field, nvars, t, _normalized=True) for t in terms]
        )
    return basis


def in_oracle_span(column, oracle, field) -> bool:
    """Membership of a polynomial vector in the ``field``-span of oracle
    vectors, by reduction against the reduced echelon form of the oracle
    vectors as sparse rows {(component, monomial): coefficient}."""

    def flatten(vec):
        return {
            (ci, m): c for ci, entry in enumerate(vec) for m, c in entry.terms.items()
        }

    pivots = _echelon(map(flatten, oracle), field)
    return not _reduced(flatten(column), pivots, field.characteristic)


def _syzygy_oracle_instances(seed: int):
    """Criterion 11's 50 seeded matrices over GF(5)[x, y], as rows of
    polynomials of degree <= 2, none of them all zero."""
    rng = random.Random(555 + seed)
    field = GF(5)

    def random_entry():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            mono = (rng.randint(0, 2), rng.randint(0, 2))
            if sum(mono) <= 2:
                terms[mono] = rng.randint(0, 4)
        return Polynomial(field, 2, terms)

    for _ in range(50):
        nrows = rng.randint(1, 3)
        ncols = rng.randint(1, 3)
        rows = [[random_entry() for _ in range(ncols)] for _ in range(nrows)]
        if all(e.is_zero() for row in rows for e in row):
            rows[0][0] = parse_polynomial("x", ("x", "y"), field)
        yield rows


@_criterion("criterion-11-syzygy-oracle")
def criterion_11_syzygy_oracle(seed: int) -> str:
    """Syzygies of 50 random small matrices match the degree-truncated
    linear-algebra oracle as generating sets."""
    field = GF(5)
    degree_bound = 6
    for instance, rows in enumerate(_syzygy_oracle_instances(seed)):
        ncols = len(rows[0])
        columns = syzygy_matrix(rows)
        # exactness: A * S = 0 identically
        for col in columns:
            for row in rows:
                acc = Polynomial.zero(field, 2)
                for a, v in zip(row, col):
                    acc = acc + a * v
                _require(acc.is_zero(), f"instance {instance}: A*S != 0")
        oracle = dense_kernel_oracle(rows, 2, degree_bound, field)
        syz_elems = [FreeElement.from_components(c, rank=ncols) for c in columns]
        if syz_elems:
            basis = groebner_basis(syz_elems)
            for vec in oracle:
                _require(
                    basis.contains(FreeElement.from_components(vec, rank=ncols)),
                    f"instance {instance}: oracle vector outside the syzygy module",
                )
        else:
            _require(
                not oracle,
                f"instance {instance}: oracle found kernel vectors, syzygies did not",
            )
        # low-degree syzygy columns must land inside the oracle span
        for col in columns:
            if max((e.degree() for e in col), default=-1) <= degree_bound:
                _require(
                    in_oracle_span(col, oracle, field),
                    f"instance {instance}: syzygy column outside the oracle span",
                )
    return (
        "50 random matrices: syzygies and the truncated oracle generate "
        "the same kernels"
    )


_DETERMINISM_SCRIPT = """
ring R = GF(5)[x,y] / (x*y) with minimal_primes [(x),(y)] reduced ci;
module M = coker [[x]] over R;
let T = tensor_power(M, 3);
assert torsion_free(T);
print nu(T);
verify thm2.8 over R with sequence (x + y);
ring Q = QQ[x,y];
module K = coker [[x],[y]] over Q;
verify thm2.10 K K case=1;
assert pd(K) == 1;
"""


@_criterion("criterion-12-cli-determinism")
def criterion_12_cli_determinism(seed: int) -> str:
    """Byte-identical reports across reruns and across cold/warm cache."""
    first = run_source(_DETERMINISM_SCRIPT, seed).to_json(include_timing=False)
    second = run_source(_DETERMINISM_SCRIPT, seed).to_json(include_timing=False)
    _require(first == second, "plain reruns differ")
    with tempfile.TemporaryDirectory() as cache_dir, run_scope(
        cache=ComputationCache(cache_dir)
    ):
        cold = run_source(_DETERMINISM_SCRIPT, seed)
        warm = run_source(_DETERMINISM_SCRIPT, seed)
        _require(warm.cache_hits != 0, "warm run had no cache hits")
        cold_json = cold.to_json(include_timing=False)
        warm_json = warm.to_json(include_timing=False)
        _require(
            first == cold_json == warm_json,
            "cold/warm cache runs differ from the uncached run",
        )
    return "reports are byte-identical modulo timing, cold or warm cache"


def run_suite(only: Optional[str] = None, seed: int = 0) -> List[CriterionResult]:
    results = []
    for identifier, criterion in CRITERIA:
        if only and only not in identifier:
            continue
        results.append(criterion(seed))
    return results
