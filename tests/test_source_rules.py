"""Rules on the package source, checked by parsing every module."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import torsionlab

PACKAGE = Path(torsionlab.__file__).parent


def offending(rule, skip=()):
    """``path:line`` of every node of the package source that breaks
    ``rule``, in the modules not named in ``skip``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name in skip:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if rule(node):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    return found


def test_no_assert_statements():
    # python -O strips asserts, and a failing one escapes as a raw
    # AssertionError instead of a typed TorsionLabError
    assert offending(lambda node: isinstance(node, ast.Assert)) == []


def test_no_global_or_nonlocal_statements():
    # run-scoped settings live in limits.run_scope; a rebound module or
    # closure variable would outlive the run that set it
    assert offending(lambda node: isinstance(node, (ast.Global, ast.Nonlocal))) == []


def is_context_var_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "ContextVar"


def test_context_variables_only_in_limits():
    # the run settings are the one context variable, held by limits.py
    assert offending(is_context_var_call, skip=("limits.py",)) == []


TESTS = Path(__file__).resolve().parent


def names_used(statement) -> set:
    """Every name an import, ``ast.Name`` or ``ast.Attribute`` in
    ``statement`` refers to."""
    used = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.split(".")[-1] for alias in node.names)
    return used


def test_every_module_level_function_and_class_is_named_elsewhere():
    # a routine that nothing names is code to read and keep that no
    # certificate depends on; its own body does not count as a use
    statements = []  # (path, top-level statement, the names it uses)
    for path in sorted(PACKAGE.rglob("*.py")) + sorted(TESTS.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        statements.extend((path, node, names_used(node)) for node in tree.body)
    uses = Counter(name for _, _, names in statements for name in names)
    unused = [
        f"{path.relative_to(PACKAGE)}:{node.name}"
        for path, node, names in statements
        if PACKAGE in path.parents
        and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and uses[node.name] == (node.name in names)
    ]
    assert unused == []
