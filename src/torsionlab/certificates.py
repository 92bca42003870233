"""Structured verdicts emitted by the theorem verifiers.

A certificate is the conjunction of named sub-claims, each carrying its
witnesses (elements, ideals, Betti data) in canonical text form, plus the
list of trusted assumptions it consumed (declared minimal primes,
reducedness).  Serialization uses stable field names so downstream tools
can rely on the schema.
"""

from __future__ import annotations

from typing import Dict, List, Optional

CERTIFICATE_SCHEMA = 1


class SubClaim:
    __slots__ = ("name", "passed", "witnesses")

    def __init__(self, name: str, passed: Optional[bool], witnesses: Dict[str, object]):
        self.name = name
        self.passed = passed  # None marks informational entries
        self.witnesses = witnesses

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "witnesses": _canonical(self.witnesses),
        }


class Certificate:
    __slots__ = (
        "claim", "context", "subclaims", "trusted_assumptions", "applicable",
        "inapplicable_reason",
    )

    def __init__(
        self, claim: str, context: Dict[str, object], trusted_assumptions: List[str]
    ):
        self.claim = claim
        self.context = context
        self.subclaims: List[SubClaim] = []
        self.trusted_assumptions = trusted_assumptions
        self.applicable = True
        self.inapplicable_reason: Optional[str] = None

    @classmethod
    def over(cls, claim: str, ring, *trusted: str, **context) -> "Certificate":
        """A certificate for ``claim`` on an instance over ``ring``: its
        context names the ring, then ``context``, and it trusts the ring's
        warnings and ``trusted``."""
        return cls(
            claim,
            context={"ring": ring.descriptor(), **context},
            trusted_assumptions=[*ring.warnings, *trusted],
        )

    def check(self, name: str, passed: bool, **witnesses) -> bool:
        self.subclaims.append(SubClaim(name, bool(passed), dict(witnesses)))
        return bool(passed)

    def info(self, name: str, **witnesses) -> None:
        self.subclaims.append(SubClaim(name, None, dict(witnesses)))

    def mark_inapplicable(self, reason: str) -> "Certificate":
        self.applicable = False
        self.inapplicable_reason = reason
        return self

    @property
    def passed(self) -> bool:
        return self.applicable and all(
            sc.passed is not False for sc in self.subclaims
        )

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "inapplicable"
        return "pass" if self.passed else "fail"

    def failed_subclaims(self) -> List[str]:
        return [sc.name for sc in self.subclaims if sc.passed is False]

    def to_json_dict(self) -> dict:
        return {
            "schema": CERTIFICATE_SCHEMA,
            "claim": self.claim,
            "verdict": self.verdict,
            "applicable": self.applicable,
            "inapplicable_reason": self.inapplicable_reason,
            "context": _canonical(self.context),
            "subclaims": [sc.to_json_dict() for sc in self.subclaims],
            "trusted_assumptions": sorted(self.trusted_assumptions),
        }

    def summary(self) -> str:
        status = self.verdict
        if status == "fail":
            status += " (" + ", ".join(self.failed_subclaims()) + ")"
        return f"{self.claim}: {status}"


def _canonical(value):
    if isinstance(value, dict):
        return {str(k): _canonical(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float) and value == float("inf"):
        return "infinite"
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)
