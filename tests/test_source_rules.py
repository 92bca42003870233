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


def simple_name(node):
    """The last name of a ``Name`` or ``Attribute`` node, else None."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def is_context_var_call(node) -> bool:
    return isinstance(node, ast.Call) and simple_name(node.func) == "ContextVar"


def test_context_variables_only_in_limits():
    # the run settings are the one context variable, held by limits.py
    assert offending(is_context_var_call, skip=("limits.py",)) == []


def builds_statement_result(node) -> bool:
    return isinstance(node, ast.Call) and simple_name(node.func) == "StatementResult"


def test_one_site_builds_every_statement_result():
    # each statement kind hands its status and summary to the one loop of
    # engine._execute, so an error is recorded the same way for every kind
    sites = offending(builds_statement_result)
    assert [site.split(":")[0] for site in sites] == ["engine.py"], sites


TESTS = Path(__file__).resolve().parent


def name_counts(node) -> Counter:
    """How often an import, ``ast.Name`` or ``ast.Attribute`` in ``node``
    refers to each name."""
    counts = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            counts[child.id] += 1
        elif isinstance(child, ast.Attribute):
            counts[child.attr] += 1
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            counts.update(alias.name.split(".")[-1] for alias in child.names)
    return counts


def names_used(statement) -> set:
    """Every name an import, ``ast.Name`` or ``ast.Attribute`` in
    ``statement`` refers to."""
    return set(name_counts(statement))


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


def is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        simple_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


def test_every_dataclass_field_is_read():
    # a field that nothing reads is state every instance carries for no
    # answer.  An attribute load counts as a read, and so does a string
    # constant, for a field read by its key through serialization.
    fields, reads = [], set()
    for path in sorted(PACKAGE.rglob("*.py")) + sorted(TESTS.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
            elif PACKAGE in path.parents and is_dataclass(node):
                fields.extend(
                    f"{path.relative_to(PACKAGE)}:{node.name}.{field.target.id}"
                    for field in node.body
                    if isinstance(field, ast.AnnAssign)
                    and isinstance(field.target, ast.Name)
                )
    assert [field for field in fields if field.rsplit(".", 1)[1] not in reads] == []


ORACLE = ("dense_kernel_oracle", "in_oracle_span", "_echelon")
ENGINE = ("groebner", "rings", "modules")


def module_level_names(tree) -> set:
    """The names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_the_oracle_names_nothing_from_the_engine():
    # the panel checks syzygies against the oracle: an oracle that called
    # the Groebner engine, the ring layer or the module layer would check
    # them against themselves.  The rule covers the oracle functions of
    # suite.py and every suite function they name, at any depth.
    engine = set(ENGINE)
    for name in ENGINE:
        source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
        engine |= module_level_names(ast.parse(source))
    tree = ast.parse((PACKAGE / "suite.py").read_text(encoding="utf-8"))
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module in ENGINE:
            engine.update(alias.asname or alias.name for alias in node.names)
    checked, todo = set(), list(ORACLE)
    found = []
    while todo:
        name = todo.pop()
        if name in checked:
            continue
        checked.add(name)
        function = functions[name]
        used = names_used(function) - {name}
        found.extend(f"{name}: {used_name}" for used_name in sorted(used & engine))
        for node in ast.walk(function):
            if isinstance(node, ast.ImportFrom) and node.module in ENGINE:
                found.append(f"{name}: imports from {node.module}")
        todo.extend(used & functions.keys())
    assert checked >= set(ORACLE)
    assert found == []


def test_every_method_is_named_in_the_package():
    # a method that only its own body, or only a test, names is code the
    # certificates never run
    trees = [
        (path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sorted(PACKAGE.rglob("*.py"))
    ]
    uses = sum((name_counts(tree) for _, tree in trees), Counter())
    unused = [
        f"{path.relative_to(PACKAGE)}:{node.name}.{method.name}"
        for path, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and uses[method.name] == name_counts(method)[method.name]
    ]
    assert unused == []


ONE_ROUTE = ("groebner_request", "lookup_groebner", "store_groebner", "_autoreduce")


def test_one_function_in_groebner_holds_the_cache_route_and_autoreduction():
    # groebner_basis and syzygy_generators share one lookup, completion,
    # autoreduction and store step, so the two routes cannot drift apart
    tree = ast.parse((PACKAGE / "groebner.py").read_text(encoding="utf-8"))
    functions = [
        node
        for top in tree.body
        for node in (top.body if isinstance(top, ast.ClassDef) else [top])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    callers = {name: [] for name in ONE_ROUTE}
    for function in functions:
        called = {
            simple_name(node.func)
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
        }
        for name in called & set(ONE_ROUTE):
            callers[name].append(function.name)
    assert len({tuple(names) for names in callers.values()}) == 1, callers
    assert all(len(names) == 1 for names in callers.values()), callers
