"""Execution engine: runs parsed scripts and assembles deterministic reports.

Statements run in order.  One runner, ``_Engine.run``, runs every
statement kind and returns its status, summary and optional output or
report; one loop in ``execute`` builds every ``StatementResult`` from
that.  A statement that raises a ``TorsionLabError`` is recorded there as
an error and execution continues, so independent later statements still
produce results.  The JSON report is byte-stable for a fixed (script,
seed, version) apart from the timing block.  Every function, claim and
probe a script names is declared once, in the call tables below, and run
by one binder.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from functools import partial
from typing import Dict, List, NamedTuple, Optional

from .cache import text_digest
from .certificates import Certificate
from .errors import InputError, TorsionLabError
from .fields import GF, QQ
from .frobenius import (
    frobenius_functor,
    restrict_scalars,
    tor_frobenius,
    universal_pushforward,
    verify_frobenius_torsion_equivalence,
    verify_regularity_probe,
)
from .homology import (
    PD_INFINITE,
    FreeResolution,
    free_resolution,
    koszul_depth,
    pd,
    tor,
)
from .limits import check_power_size, checked_integer, current
from .modules import (
    FPModule,
    ModuleElement,
    annihilator,
    tensor,
    tensor_power,
)
from .poly import Polynomial
from .rings import Ideal, RingContext, make_ring
from .script import (
    LetStmt,
    ModuleStmt,
    PrintStmt,
    ProbeStmt,
    RingStmt,
    Script,
    VerifyStmt,
    format_statement,
    parse_script,
)
from .syntax import (
    ARITHMETIC,
    Call,
    Expr,
    IntLit,
    ListLit,
    Name,
    Neg,
    RationalLit,
    TupleLit,
    evaluate,
    evaluate_polynomial,
)
from .torsion import (
    alternating_tensor,
    check_relation_annihilates,
    explore_torsion_onset,
    torsion_split,
    verify_koszul_tensor_powers,
    verify_maximal_ideal_carrier,
    verify_presentation_torsion_bound,
)

TOOL_VERSION = "0.1.0"
REPORT_SCHEMA = 1


class StatementResult(NamedTuple):
    index: int
    line: int
    kind: str
    status: str  # ok | pass | fail | inapplicable | error
    summary: str
    source: str
    output: Optional[str] = None
    error: Optional[str] = None
    report: Optional[dict] = None

    def to_json_dict(self) -> dict:
        data = {
            "index": self.index,
            "line": self.line,
            "kind": self.kind,
            "status": self.status,
            "summary": self.summary,
            "source": self.source,
        }
        if self.output is not None:
            data["output"] = self.output
        if self.error is not None:
            data["error"] = self.error
        if self.report is not None:
            data["report"] = self.report
        return data


class RunReport:
    """What a run produced: one result per statement, the certificates
    its statements made, and the run's metadata, filled in as it runs."""

    __slots__ = (
        "results", "certificates", "input_hash", "seed", "cache_hits",
        "cache_misses", "elapsed_seconds",
    )

    def __init__(self, certificates: List[Certificate], seed: int):
        self.results: List[StatementResult] = []
        self.certificates = certificates
        self.input_hash = ""
        self.seed = seed
        self.cache_hits = 0
        self.cache_misses = 0
        self.elapsed_seconds = 0.0

    @property
    def exit_code(self) -> int:
        statuses = {r.status for r in self.results}
        if "error" in statuses:
            return 3
        if "fail" in statuses:
            return 1
        if "inapplicable" in statuses:
            return 2
        return 0

    def to_json_dict(self, include_timing: bool = True) -> dict:
        data = {
            "schema": REPORT_SCHEMA,
            "tool": "torsionlab",
            "version": TOOL_VERSION,
            "input_hash": self.input_hash,
            "seed": self.seed,
            "exit_code": self.exit_code,
            "statements": [r.to_json_dict() for r in self.results],
            "certificates": [c.to_json_dict() for c in self.certificates],
        }
        if include_timing:
            # run metadata that legitimately varies between reruns lives
            # here, so determinism checks can strip one block
            data["timing"] = {
                "total_seconds": round(self.elapsed_seconds, 6),
                "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            }
        return data

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(
            self.to_json_dict(include_timing), indent=2, sort_keys=True
        )


def _value_summary(value) -> str:
    if isinstance(value, FPModule):
        return f"{value.descriptor()} nu={value.nu()}"
    if isinstance(value, ModuleElement):
        return value.module.ring.format(value.coords)
    if isinstance(value, Ideal):
        return value.descriptor()
    if isinstance(value, RingContext):
        return value.descriptor()
    if isinstance(value, FreeResolution):
        return value.betti_table()
    if isinstance(value, Certificate):
        return value.summary()
    if isinstance(value, float) and value == PD_INFINITE:
        return "infinite"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


class _Engine:
    def __init__(self, seed: int):
        self.seed = seed
        self.env: Dict[str, object] = {}
        self.certificates: List[Certificate] = []

    # -- polynomial-context evaluation ---------------------------------

    def eval_poly(self, expr: Expr, ring: RingContext) -> Polynomial:
        def variable(name: str) -> Polynomial:
            if name not in ring.variables:
                raise InputError(f"{name!r} is not a variable of {ring.descriptor()}")
            return ring.variable(ring.variables.index(name))

        return evaluate_polynomial(
            expr, ring.field, ring.nvars, variable, partial(self.read, "int")
        )

    def eval_poly_sequence(self, expr: Expr, ring: RingContext) -> List[Polynomial]:
        if isinstance(expr, (TupleLit, ListLit)):
            return [self.eval_poly(e, ring) for e in expr.items]
        return [self.eval_poly(expr, ring)]

    def read(self, kind: str, expr: Expr):
        """The value of ``expr`` as an argument of ``kind``, a key of
        ``_TYPED``; a value of another type, or a truth value, is an
        ``InputError``."""
        value = self.eval_value(expr)
        expected, message = _TYPED[kind]
        if isinstance(value, bool) or not isinstance(value, expected):
            raise InputError(message)
        return value

    def eval_element_list(self, expr: Expr, module: FPModule) -> List[ModuleElement]:
        if not isinstance(expr, ListLit):
            raise InputError("expected a bracketed list of module elements")
        out: List[ModuleElement] = []
        for item in expr.items:
            out.append(self.eval_element(item, module))
        return out

    def eval_element(self, expr: Expr, module: FPModule) -> ModuleElement:
        if isinstance(expr, Name):
            name = expr.identifier
            if name in self.env and isinstance(self.env[name], ModuleElement):
                element = self.env[name]
                if element.module is not module:
                    raise InputError(f"{name!r} belongs to a different module")
                return element
            if name.startswith("e") and name[1:].isdigit():
                return module.generator(int(name[1:]) - 1)
            raise InputError(f"unknown module element {name!r}")
        if isinstance(expr, ListLit):
            comps = [self.eval_poly(item, module.ring) for item in expr.items]
            if len(comps) != module.ngens:
                raise InputError("vector length does not match the generator count")
            return module.element(comps)
        raise InputError("module elements are e<k> references or [..] vectors")

    # -- general evaluation ----------------------------------------------

    def eval_value(self, expr: Expr):
        return evaluate(expr, self._eval_leaf, self._eval_operator)

    def _eval_leaf(self, expr: Expr):
        if isinstance(expr, Name):
            if expr.identifier not in self.env:
                raise InputError(f"undefined identifier {expr.identifier!r}")
            return self.env[expr.identifier]
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, RationalLit):
            return Fraction(expr.numerator, expr.denominator)
        if isinstance(expr, Call):
            return self.eval_call(expr)
        raise InputError("this expression form is only allowed inside calls")

    def _eval_operator(self, expr: Expr, left):
        # a comparison's bool is an int to Python, but no number here
        if isinstance(expr, Neg):
            if isinstance(left, (int, Fraction)) and not isinstance(left, bool):
                return -left
            raise InputError("cannot negate this value")
        right = self.eval_value(expr.right)
        left_bool, right_bool = isinstance(left, bool), isinstance(right, bool)
        if expr.op in ("==", "!="):
            if left_bool != right_bool:
                raise InputError(
                    f"operator {expr.op!r} cannot compare a truth value "
                    "with another value"
                )
            equal = left == right
            return equal if expr.op == "==" else not equal
        if (
            isinstance(left, int)
            and isinstance(right, int)
            and not (left_bool or right_bool)
        ):
            if expr.op == "^":
                if right < 0:
                    raise InputError("an integer power needs a nonnegative exponent")
                check_power_size(left, right)
                return checked_integer(left**right)
            return checked_integer(ARITHMETIC[expr.op](left, right))
        raise InputError(f"operator {expr.op!r} needs integer operands here")

    def eval_call(self, call: Call):
        return self.bind(
            _FUNCTIONS, "function", "", call.function, call.args, call.kwargs
        )

    # -- the one statement runner ---------------------------------------

    def run(self, stmt):
        """Run one statement and return (status, summary, extra): ``extra``
        holds the statement's optional ``output`` or ``report`` field.  A
        certificate is appended to ``certificates``, the run report's list."""
        if isinstance(stmt, RingStmt):
            field = QQ if stmt.field_kind == "QQ" else GF(stmt.characteristic)
            shell = make_ring(field, stmt.variables, grading=stmt.grading)
            ring = make_ring(
                field,
                stmt.variables,
                ideal=[self.eval_poly(e, shell) for e in stmt.ideal],
                grading=stmt.grading,
                minimal_primes=[
                    [self.eval_poly(g, shell) for g in prime]
                    for prime in stmt.minimal_primes
                ],
                reduced=stmt.reduced,
                complete_intersection=stmt.complete_intersection,
            )
            self.env[stmt.name] = ring
            return "ok", ring.descriptor(), {}
        if isinstance(stmt, ModuleStmt):
            ring = self.env.get(stmt.ring_name)
            if not isinstance(ring, RingContext):
                raise InputError(f"{stmt.ring_name!r} is not a defined ring")
            rows = [[self.eval_poly(e, ring) for e in row] for row in stmt.matrix]
            module = FPModule.from_rows(ring, rows, stmt.degrees)
            self.env[stmt.name] = module
            # not _value_summary: its nu would compute a minimal presentation
            return "ok", module.descriptor(), {}
        if isinstance(stmt, VerifyStmt):
            outcome = self.bind(
                _CLAIMS, "claim", "verify ", stmt.claim, stmt.args, stmt.kwargs
            )
        elif isinstance(stmt, ProbeStmt):
            outcome = self.bind(
                _PROBES, "probe", "probe ", stmt.kind, stmt.args, stmt.kwargs
            )
        else:  # let, print and assert: one expression each
            value = self.eval_value(stmt.expr)
            if isinstance(stmt, LetStmt):
                self.env[stmt.name] = value
                return "ok", _value_summary(value), {}
            if isinstance(stmt, PrintStmt):
                text = _value_summary(value)
                return "ok", text, {"output": text}
            if not isinstance(value, bool):
                raise InputError("assert needs a boolean expression")
            return ("pass" if value else "fail"), format_statement(stmt), {}
        if isinstance(outcome, Certificate):
            self.certificates.append(outcome)
            return outcome.verdict, outcome.summary(), {}
        entries = len(outcome["entries"])
        return "ok", f"{outcome['claim']}: {entries} entries", {"report": outcome}

    # -- the one binder ---------------------------------------------------

    def bind(self, table, noun, prefix, name, args, kwargs):
        """Run the operation ``name`` of ``table`` on unevaluated ``args``
        and ``kwargs``: check them against its signature (an unknown name,
        argument count or keyword is an ``InputError`` naming the
        operation), evaluate each argument by its kind, then call the
        routine."""
        if name not in table:
            raise InputError(f"unknown {noun} {name!r}")
        params, defaults, routine = table[name]
        label = prefix + name
        required = sum(isinstance(param, str) for param in params)
        if not required <= len(args) <= len(params):
            count = str(len(params))
            if required < len(params):
                count = f"{required} or {count}"
            raise InputError(f"{label} expects {count} argument(s)")
        for key, _ in kwargs:
            if key not in defaults:
                raise InputError(f"{label} has no keyword {key!r}")
        kinds = [param if isinstance(param, str) else param[0] for param in params]
        values = [
            self.read(kind, expr)
            if kind in _TYPED
            else self.eval_value(expr)
            if kind == "value"
            else expr
            for kind, expr in zip(kinds, args)
        ]
        # polys and elements are read in the first module or ring argument
        context = next(
            (v for v, k in zip(values, kinds) if k in ("module", "ring")), None
        )
        for index, kind in enumerate(kinds[: len(args)]):
            if kind == "polys":
                ring = context.ring if isinstance(context, FPModule) else context
                values[index] = self.eval_poly_sequence(args[index], ring)
            elif kind == "elements":
                values[index] = self.eval_element_list(args[index], context)
        values += [param[1] for param in params[len(args) :]]
        keywords = {
            key: value(self) if callable(value) else value
            for key, value in defaults.items()
        }
        keywords.update((key, self.read("int", expr)) for key, expr in kwargs)
        return routine(*values, **keywords)


# the type an argument of each typed kind must have, and the error otherwise
_TYPED = {
    "module": (FPModule, "expected a module-valued expression"),
    "ring": (RingContext, "expected a ring"),
    "int": (int, "expected an integer"),
}


def _annihilator(value):
    if isinstance(value, ModuleElement):
        return annihilator(value.module, value)
    if isinstance(value, FPModule):
        return annihilator(value)
    raise InputError("ann expects a module or a module element")


def _resolve(module: FPModule, bound: Optional[int]) -> FreeResolution:
    if bound is None:
        bound = module.ring.depth() + 2
    return free_resolution(module, bound)


# The call table: each operation of the script maps to (positional kinds,
# keyword defaults, routine).  A kind is "module", "ring", "int", "value"
# (any value), "polys" (a polynomial or a tuple of them) or "elements" (a
# list of module elements); the last two are read in the first module or
# ring argument.  A trailing (kind, default) pair may be left out.  Every
# keyword is an integer.  A callable keyword default is read from the
# engine when the call runs (the run's seed).  A routine reaches the
# library through this module's globals when it runs, not when the table is
# built (a lambda, or a helper here), so a wrapper bound to a module-level
# name sees every call.
_FUNCTIONS = {
    "tensor": (("module", "module"), {}, lambda a, b: tensor(a, b)),
    "tensor_power": (("module", "int"), {}, lambda m, n: tensor_power(m, n)),
    "torsion": (("module",), {}, lambda m: torsion_split(m).torsion),
    "tf": (("module",), {}, lambda m: torsion_split(m).torsion_free_part),
    "torsion_free": (("module",), {}, lambda m: torsion_split(m).is_torsion_free),
    "has_torsion": (("module",), {}, lambda m: not torsion_split(m).is_torsion_free),
    "is_free": (("module",), {}, lambda m: m.is_free()),
    "tau": (("module", "elements"), {}, lambda m, es: alternating_tensor(m, es)),
    "ann": (("value",), {}, _annihilator),
    "resolve": (("module", ("int", None)), {}, _resolve),
    "pd": (("module",), {}, lambda m: pd(m)),
    "nu": (("module",), {}, lambda m: m.nu()),
    "minimal": (("module",), {}, lambda m: m.minimal()),
    "tor": (("module", "module", "int"), {}, lambda a, b, i: tor(a, b, i)),
    "depth": (("polys", "module"), {}, lambda seq, m: koszul_depth(seq, m)),
    "hilbert": (("module", "int"), {}, lambda m, d: m.hilbert_function(d)),
    "F": (("module",), {"e": 1}, lambda m, e: frobenius_functor(m, e)),
    "restrict": (("module",), {"e": 1}, lambda m, e: restrict_scalars(m, e)),
    "tor_frobenius": (
        ("module",),
        {"e": 1, "i": 1},
        lambda m, e, i: tor_frobenius(m, e, i),
    ),
    "pushforward": (("module",), {}, lambda m: universal_pushforward(m).cokernel),
}
_FUNCTIONS["torsion_free_part"] = _FUNCTIONS["tf"]

_CLAIMS = {
    "thm2.8": (("ring", "polys"), {}, lambda r, s: verify_koszul_tensor_powers(r, s)),
    "thm2.10": (
        ("module", "module"),
        {"case": 1},
        lambda a, b, case: verify_presentation_torsion_bound(a, b, case),
    ),
    "prop2.2": (
        ("module", "elements", "polys"),
        {},
        lambda m, es, cs: check_relation_annihilates(m, es, cs),
    ),
    "thm3.5": (
        ("module",),
        {"e": 1},
        lambda m, e: verify_frobenius_torsion_equivalence(m, e),
    ),
    "carrier": (("module",), {}, lambda m: verify_maximal_ideal_carrier(m)),
}

_PROBES = {
    "regularity": (
        ("ring", "module"),
        {"e": 1, "e2": 1},
        lambda ring, m, e, e2: verify_regularity_probe(ring, m, e, e2),
    ),
    "question2.12": (
        ("ring",),
        {"panel": 4, "seed": lambda engine: engine.seed, "cap": 4},
        lambda r, panel, seed, cap: explore_torsion_onset(r, panel, seed, cap),
    ),
}


def execute(script: Script, seed: int = 0) -> RunReport:
    """Run every statement under the caller's run settings
    (``limits.current()``); the run sets none of its own.  Resource and
    input errors are recorded per statement and later independent
    statements still execute.  The report counts this run's own cache hits
    and misses."""
    active = current().cache
    hits, misses = (active.hits, active.misses) if active is not None else (0, 0)
    start = time.monotonic()
    engine = _Engine(seed)
    report = RunReport(certificates=engine.certificates, seed=seed)
    source_text = ""
    for index, stmt in enumerate(script.statements):
        source = format_statement(stmt)
        source_text += source + "\n"
        kind = type(stmt).__name__.replace("Stmt", "").lower()
        try:
            status, summary, extra = engine.run(stmt)
        except TorsionLabError as exc:
            status = "error"
            summary = f"{type(exc).__name__}: {exc}"
            extra = {"error": summary}
        report.results.append(
            StatementResult(index, stmt.line, kind, status, summary, source, **extra)
        )
    report.input_hash = text_digest(source_text)
    if active is not None:
        report.cache_hits = active.hits - hits
        report.cache_misses = active.misses - misses
    report.elapsed_seconds = time.monotonic() - start
    return report


def run_source(text: str, seed: int = 0) -> RunReport:
    return execute(parse_script(text), seed)
