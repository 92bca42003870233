"""Execution engine: runs parsed scripts and assembles deterministic reports.

Statements run in order; a failing statement is recorded and execution
continues, so independent later statements still produce results.  The
JSON report is byte-stable for a fixed (script, seed, version) apart from
the timing block.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .cache import open_cache
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
from .limits import (
    check_power_size,
    checked_degree_cap,
    checked_integer,
    current,
    run_scope,
)
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
    AssertStmt,
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


@dataclass
class ExecConfig:
    seed: int = 0
    degree_cap: Optional[int] = None
    cache_dir: Optional[str] = None
    resolution_bound: Optional[int] = None


@dataclass
class StatementResult:
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


@dataclass
class RunReport:
    results: List[StatementResult] = field(default_factory=list)
    certificates: List[Certificate] = field(default_factory=list)
    input_hash: str = ""
    seed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_seconds: float = 0.0

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
    def __init__(self, config: ExecConfig):
        self.config = config
        self.env: Dict[str, object] = {}

    # -- polynomial-context evaluation ---------------------------------

    def eval_poly(self, expr: Expr, ring: RingContext) -> Polynomial:
        def variable(name: str) -> Polynomial:
            if name not in ring.variables:
                raise InputError(f"{name!r} is not a variable of {ring.descriptor()}")
            return ring.variable(ring.variables.index(name))

        return evaluate_polynomial(
            expr, ring.field, ring.nvars, variable, self.eval_int
        )

    def eval_poly_sequence(self, expr: Expr, ring: RingContext) -> List[Polynomial]:
        if isinstance(expr, (TupleLit, ListLit)):
            return [self.eval_poly(e, ring) for e in expr.items]
        return [self.eval_poly(expr, ring)]

    def eval_int(self, expr: Expr) -> int:
        value = self.eval_value(expr)
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError("expected an integer")
        return value

    def eval_module(self, expr: Expr) -> FPModule:
        value = self.eval_value(expr)
        if not isinstance(value, FPModule):
            raise InputError("expected a module-valued expression")
        return value

    def eval_ring(self, expr: Expr) -> RingContext:
        value = self.eval_value(expr)
        if not isinstance(value, RingContext):
            raise InputError("expected a ring")
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
        if isinstance(expr, Neg):
            if isinstance(left, (int, Fraction)):
                return -left
            raise InputError("cannot negate this value")
        right = self.eval_value(expr.right)
        if expr.op in ("==", "!="):
            equal = left == right
            return equal if expr.op == "==" else not equal
        if isinstance(left, int) and isinstance(right, int):
            if expr.op == "^":
                if right < 0:
                    raise InputError("an integer power needs a nonnegative exponent")
                check_power_size(left, right)
                return checked_integer(left**right)
            return checked_integer(ARITHMETIC[expr.op](left, right))
        raise InputError(f"operator {expr.op!r} needs integer operands here")

    def eval_call(self, call: Call):
        name = call.function
        kwargs = dict(call.kwargs)

        def kw_int(key: str, default: Optional[int] = None) -> Optional[int]:
            if key in kwargs:
                return self.eval_int(kwargs.pop(key))
            return default

        def need(n: int) -> Tuple[Expr, ...]:
            if len(call.args) != n:
                raise InputError(f"{name} expects {n} argument(s)")
            return call.args

        if name == "tensor":
            a, b = need(2)
            return tensor(self.eval_module(a), self.eval_module(b))
        if name == "tensor_power":
            a, b = need(2)
            return tensor_power(self.eval_module(a), self.eval_int(b))
        if name == "torsion":
            (a,) = need(1)
            return torsion_split(self.eval_module(a)).torsion
        if name in ("tf", "torsion_free_part"):
            (a,) = need(1)
            return torsion_split(self.eval_module(a)).torsion_free_part
        if name == "torsion_free":
            (a,) = need(1)
            return torsion_split(self.eval_module(a)).is_torsion_free
        if name == "has_torsion":
            (a,) = need(1)
            return not torsion_split(self.eval_module(a)).is_torsion_free
        if name == "is_free":
            (a,) = need(1)
            return self.eval_module(a).is_free()
        if name == "tau":
            a, b = need(2)
            module = self.eval_module(a)
            elements = self.eval_element_list(b, module)
            return alternating_tensor(module, elements)
        if name == "ann":
            (a,) = need(1)
            value = self.eval_value(a)
            if isinstance(value, ModuleElement):
                return annihilator(value.module, value)
            if isinstance(value, FPModule):
                return annihilator(value)
            raise InputError("ann expects a module or a module element")
        if name == "resolve":
            if len(call.args) == 1:
                module = self.eval_module(call.args[0])
                bound = self.config.resolution_bound
                if bound is None:
                    bound = module.ring.depth() + 2
            else:
                a, b = need(2)
                module = self.eval_module(a)
                bound = self.eval_int(b)
            return free_resolution(module, bound)
        if name == "pd":
            (a,) = need(1)
            return pd(self.eval_module(a))
        if name == "nu":
            (a,) = need(1)
            return self.eval_module(a).nu()
        if name == "minimal":
            (a,) = need(1)
            return self.eval_module(a).minimal()
        if name == "tor":
            a, b, c = need(3)
            return tor(self.eval_module(a), self.eval_module(b), self.eval_int(c))
        if name == "depth":
            a, b = need(2)
            module = self.eval_module(b)
            sequence = self.eval_poly_sequence(a, module.ring)
            return koszul_depth(sequence, module).depth
        if name == "hilbert":
            a, b = need(2)
            return self.eval_module(a).hilbert_function(self.eval_int(b))
        if name == "F":
            (a,) = need(1)
            e = kw_int("e", 1)
            return frobenius_functor(self.eval_module(a), e)
        if name == "restrict":
            (a,) = need(1)
            e = kw_int("e", 1)
            return restrict_scalars(self.eval_module(a), e)
        if name == "tor_frobenius":
            (a,) = need(1)
            e = kw_int("e", 1)
            i = kw_int("i", 1)
            return tor_frobenius(self.eval_module(a), e, i)
        if name == "pushforward":
            (a,) = need(1)
            return universal_pushforward(self.eval_module(a)).cokernel
        raise InputError(f"unknown function {name!r}")

    # -- statements -----------------------------------------------------

    def run_ring(self, stmt: RingStmt) -> RingContext:
        field = QQ if stmt.field_kind == "QQ" else GF(stmt.characteristic)
        shell = make_ring(field, stmt.variables, grading=stmt.grading)
        ideal = [self.eval_poly(e, shell) for e in stmt.ideal]
        primes = [
            [self.eval_poly(g, shell) for g in prime] for prime in stmt.minimal_primes
        ]
        ring = make_ring(
            field,
            stmt.variables,
            ideal=ideal,
            grading=stmt.grading,
            minimal_primes=primes,
            reduced=stmt.reduced,
            complete_intersection=stmt.complete_intersection,
        )
        self.env[stmt.name] = ring
        return ring

    def run_module(self, stmt: ModuleStmt) -> FPModule:
        ring = self.env.get(stmt.ring_name)
        if not isinstance(ring, RingContext):
            raise InputError(f"{stmt.ring_name!r} is not a defined ring")
        rows = [
            [self.eval_poly(e, ring) for e in row] for row in stmt.matrix
        ]
        module = FPModule.from_rows(ring, rows, stmt.degrees)
        self.env[stmt.name] = module
        return module

    def run_verify(self, stmt: VerifyStmt) -> Certificate:
        kwargs = dict(stmt.kwargs)
        claim = stmt.claim
        if claim == "thm2.8":
            if len(stmt.args) != 2:
                raise InputError("verify thm2.8 needs a ring and a sequence")
            ring = self.eval_ring(stmt.args[0])
            sequence = self.eval_poly_sequence(stmt.args[1], ring)
            return verify_koszul_tensor_powers(ring, sequence)
        if claim == "thm2.10":
            if len(stmt.args) != 2:
                raise InputError("verify thm2.10 needs two modules")
            case = self.eval_int(kwargs.get("case", IntLit(1)))
            return verify_presentation_torsion_bound(
                self.eval_module(stmt.args[0]),
                self.eval_module(stmt.args[1]),
                case,
            )
        if claim == "prop2.2":
            if len(stmt.args) != 3:
                raise InputError(
                    "verify prop2.2 needs a module, elements, and coefficients"
                )
            module = self.eval_module(stmt.args[0])
            elements = self.eval_element_list(stmt.args[1], module)
            coefficients = self.eval_poly_sequence(stmt.args[2], module.ring)
            return check_relation_annihilates(module, elements, coefficients)
        if claim == "thm3.5":
            if len(stmt.args) != 1:
                raise InputError("verify thm3.5 needs a module")
            e = self.eval_int(kwargs.get("e", IntLit(1)))
            return verify_frobenius_torsion_equivalence(
                self.eval_module(stmt.args[0]), e
            )
        if claim == "carrier":
            if len(stmt.args) != 1:
                raise InputError("verify carrier needs a module")
            return verify_maximal_ideal_carrier(self.eval_module(stmt.args[0]))
        raise InputError(f"unknown claim {claim!r}")

    def run_probe(self, stmt: ProbeStmt):
        kwargs = dict(stmt.kwargs)
        if stmt.kind == "regularity":
            if len(stmt.args) != 2:
                raise InputError("probe regularity needs a ring and a module")
            ring = self.eval_ring(stmt.args[0])
            module = self.eval_module(stmt.args[1])
            e = self.eval_int(kwargs.get("e", IntLit(1)))
            e2 = self.eval_int(kwargs.get("e2", IntLit(1)))
            return verify_regularity_probe(ring, module, e, e2)
        if stmt.kind == "question2.12":
            if len(stmt.args) != 1:
                raise InputError("probe question2.12 needs a ring")
            ring = self.eval_ring(stmt.args[0])
            panel = self.eval_int(kwargs.get("panel", IntLit(4)))
            seed = self.eval_int(kwargs.get("seed", IntLit(self.config.seed)))
            cap = self.eval_int(kwargs.get("cap", IntLit(4)))
            return explore_torsion_onset(ring, panel, seed, cap)
        raise InputError(f"unknown probe {stmt.kind!r}")


def execute(script: Script, config: Optional[ExecConfig] = None) -> RunReport:
    """Run every statement; resource and input errors are recorded per
    statement and later independent statements still execute.  The cache
    of ``config``, and its degree cap when set, hold for this run only; the
    abort hook is the caller's."""
    config = config or ExecConfig()
    changes = {}
    if config.degree_cap is not None:
        # checked before open_cache makes the cache directory
        changes["degree_cap"] = checked_degree_cap(config.degree_cap)
    with run_scope(cache=open_cache(config.cache_dir), **changes):
        return _execute(script, config)


def _execute(script: Script, config: ExecConfig) -> RunReport:
    active = current().cache
    start = time.monotonic()
    engine = _Engine(config)
    report = RunReport(seed=config.seed)
    source_text = ""
    for index, stmt in enumerate(script.statements):
        source = format_statement(stmt)
        source_text += source + "\n"
        kind = type(stmt).__name__.replace("Stmt", "").lower()
        try:
            if isinstance(stmt, RingStmt):
                ring = engine.run_ring(stmt)
                result = StatementResult(
                    index, stmt.line, kind, "ok", ring.descriptor(), source
                )
            elif isinstance(stmt, ModuleStmt):
                module = engine.run_module(stmt)
                result = StatementResult(
                    index, stmt.line, kind, "ok", module.descriptor(), source
                )
            elif isinstance(stmt, LetStmt):
                value = engine.eval_value(stmt.expr)
                engine.env[stmt.name] = value
                result = StatementResult(
                    index, stmt.line, kind, "ok", _value_summary(value), source
                )
            elif isinstance(stmt, VerifyStmt):
                certificate = engine.run_verify(stmt)
                report.certificates.append(certificate)
                status = {
                    "pass": "pass",
                    "fail": "fail",
                    "inapplicable": "inapplicable",
                }[certificate.verdict]
                result = StatementResult(
                    index, stmt.line, kind, status, certificate.summary(), source
                )
            elif isinstance(stmt, ProbeStmt):
                outcome = engine.run_probe(stmt)
                if isinstance(outcome, Certificate):
                    report.certificates.append(outcome)
                    result = StatementResult(
                        index, stmt.line, kind, outcome.verdict, outcome.summary(), source
                    )
                else:
                    result = StatementResult(
                        index,
                        stmt.line,
                        kind,
                        "ok",
                        f"{outcome['claim']}: {len(outcome['entries'])} entries",
                        source,
                        report=outcome,
                    )
            elif isinstance(stmt, PrintStmt):
                value = engine.eval_value(stmt.expr)
                text = _value_summary(value)
                result = StatementResult(
                    index, stmt.line, kind, "ok", text, source, output=text
                )
            elif isinstance(stmt, AssertStmt):
                value = engine.eval_value(stmt.expr)
                if not isinstance(value, bool):
                    raise InputError("assert needs a boolean expression")
                result = StatementResult(
                    index,
                    stmt.line,
                    kind,
                    "pass" if value else "fail",
                    format_statement(stmt),
                    source,
                )
            else:
                raise InputError(f"unhandled statement {stmt!r}")
        except TorsionLabError as exc:
            result = StatementResult(
                index,
                stmt.line,
                kind,
                "error",
                f"{type(exc).__name__}: {exc}",
                source,
                error=f"{type(exc).__name__}: {exc}",
            )
        report.results.append(result)
    report.input_hash = hashlib.sha256(source_text.encode("utf-8")).hexdigest()
    if active is not None:
        report.cache_hits = active.hits
        report.cache_misses = active.misses
    report.elapsed_seconds = time.monotonic() - start
    return report


def run_source(text: str, config: Optional[ExecConfig] = None) -> RunReport:
    return execute(parse_script(text), config)
