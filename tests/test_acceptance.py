"""Acceptance gate: the twelve panel criteria, one test case each, named by
the criterion's identifier, and the failure texts the criteria state.

Every criterion is exact (algebraic identities, no tolerances).  Each test
prints its own pass/fail line so a full run reads as a checklist; the
functions under test are the same ones behind ``torsionlab verify-suite
paper``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from torsionlab import suite
from torsionlab.homology import PD_INFINITE

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "criterion", [fn for _, fn in suite.CRITERIA], ids=[i for i, _ in suite.CRITERIA]
)
def test_criterion(criterion):
    result = criterion(0)
    marker = "PASS" if result.passed else "FAIL"
    print(f"{marker} {result.identifier}: {result.detail}")
    assert result.passed, f"{result.identifier}: {result.detail}"


def test_public_names_are_the_panel_criteria():
    # perfbench/tracer.py tells the criteria from other functions by identity
    assert [fn for _, fn in suite.CRITERIA] == [
        suite.criterion_1_tensor_power_suite,
        suite.criterion_2_relation_property,
        suite.criterion_3_node_regression,
        suite.criterion_4_torsion_bound,
        suite.criterion_5_depth_tor,
        suite.criterion_6_carrier_panel,
        suite.criterion_7_twisted_flatness,
        suite.criterion_8_infinite_pd_detection,
        suite.criterion_9_equivalence_panel,
        suite.criterion_10_regularity_probe,
        suite.criterion_11_syzygy_oracle,
        suite.criterion_12_cli_determinism,
    ]


class _TorsionSplitStub:
    is_torsion_free = False


def test_criterion_3_states_unexpected_torsion(monkeypatch):
    monkeypatch.setattr(suite, "torsion_split", lambda module: _TorsionSplitStub())
    result = suite.criterion_3_node_regression(0)
    assert result.identifier == "criterion-03-node-regression"
    assert not result.passed
    assert result.detail == "power 1: unexpected torsion"


def test_criterion_8_states_finite_pd(monkeypatch):
    assert PD_INFINITE != 1
    monkeypatch.setattr(suite, "pd", lambda module: 1)
    result = suite.criterion_8_infinite_pd_detection(0)
    assert result.identifier == "criterion-08-infinite-pd"
    assert not result.passed
    assert result.detail == "pd should be infinite"


def test_each_identifier_is_written_once_and_matches_the_benchmark():
    source = (ROOT / "src" / "torsionlab" / "suite.py").read_text(encoding="utf-8")
    literals = re.findall(r"[\"'](criterion-\d\d-[^\"']*)[\"']", source)
    assert len(literals) == len(set(literals))
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    (benchmark,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "CRITERIA" for t in node.targets)
    ]
    assert literals == list(benchmark)
    assert [identifier for identifier, _ in suite.CRITERIA] == literals
