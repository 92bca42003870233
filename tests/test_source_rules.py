"""Rules on the package source, checked by parsing every module."""

from __future__ import annotations

import ast
from pathlib import Path

import torsionlab

PACKAGE = Path(torsionlab.__file__).parent


def test_no_assert_statements():
    # python -O strips asserts, and a failing one escapes as a raw
    # AssertionError instead of a typed TorsionLabError
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []
