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
    # engine.execute, so an error is recorded the same way for every kind
    sites = offending(builds_statement_result)
    assert [site.split(":")[0] for site in sites] == ["engine.py"], sites


def reads_the_environment(node) -> bool:
    return isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and (
        getattr(node, "name", None) or simple_name(node)
    ) in ("environ", "environb", "getenv", "getenvb")


def test_only_the_command_line_reads_the_environment():
    # a run depends only on its script, its seed and its run scope; the
    # command line turns $TORSIONLAB_CACHE into the default of --cache
    assert offending(reads_the_environment, skip=("cli.py",)) == []


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


def record_fields(node):
    """The nodes that name the fields of a record class: the targets of
    the annotated fields of a ``NamedTuple``, or the strings of the
    ``__slots__`` of a class with an ``__init__``; None for any other
    node."""
    if not isinstance(node, ast.ClassDef):
        return None
    if any(simple_name(base) == "NamedTuple" for base in node.bases):
        return [
            field.target
            for field in node.body
            if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        ]
    slots = [
        statement.value
        for statement in node.body
        if isinstance(statement, ast.Assign)
        and [simple_name(target) for target in statement.targets] == ["__slots__"]
    ]
    init = any(
        isinstance(statement, ast.FunctionDef) and statement.name == "__init__"
        for statement in node.body
    )
    return slots[0].elts if slots and init else None


def test_every_dataclass_field_is_read():
    # a field of a record (a NamedTuple or a slotted class; the package's
    # records were dataclasses once, hence the name) that nothing reads is
    # state every instance carries for no answer.  An attribute load counts
    # as a read, and so does a string constant, for a field read by its key
    # through serialization; the strings of a ``__slots__`` declaration do
    # not.  ast.walk visits a class before the strings in its body.
    fields, reads, records, declared = [], set(), [], set()
    for path in sorted(PACKAGE.rglob("*.py")) + sorted(TESTS.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in declared:
                    reads.add(node.value)
            elif PACKAGE in path.parents and record_fields(node) is not None:
                record = f"{path.relative_to(PACKAGE)}:{node.name}"
                records.append(record)
                for field in record_fields(node):
                    declared.add(id(field))
                    name = field.id if isinstance(field, ast.Name) else field.value
                    fields.append(f"{record}.{name}")
    # 23 NamedTuples (the script's tokens and syntax tree among them) and
    # 9 slotted classes: 6 records, Polynomial, FreeElement and _Layout
    assert len(records) == 32, records
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


def imported_modules(tree) -> set:
    """The names under which ``tree`` binds a module: every ``import x``
    and every ``from . import x``."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            modules.update(alias.asname or alias.name for alias in node.names)
    return modules


def attribute_reads(node, modules) -> Counter:
    """How often ``node`` reads each name as an attribute, ``x.name``, of
    something other than a module in ``modules``."""
    return Counter(
        child.attr
        for child in ast.walk(node)
        if isinstance(child, ast.Attribute)
        and isinstance(child.ctx, ast.Load)
        and not (isinstance(child.value, ast.Name) and child.value.id in modules)
    )


def test_every_method_is_named_in_the_package():
    # a method that only its own body, or only a test, reads is code the
    # certificates never run.  Only an attribute read names a method: a
    # local variable, a function or a module attribute of the same name,
    # such as operator.sub, does not
    trees = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        trees.append((path, tree, imported_modules(tree)))
    uses = sum(
        (attribute_reads(tree, modules) for _, tree, modules in trees), Counter()
    )
    unused = [
        f"{path.relative_to(PACKAGE)}:{node.name}.{method.name}"
        for path, tree, modules in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and uses[method.name] == attribute_reads(method, modules)[method.name]
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


def call_sites(matches):
    """``path:function`` of every call in the package for which
    ``matches`` holds, named by the innermost function around it
    ("<module>" at the top level, where the script's call tables hold
    their lambdas)."""
    found = []

    def visit(node, owner, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, path)
                continue
            if isinstance(child, ast.Call) and matches(child):
                found.append(f"{path.name}:{owner}")
            visit(child, owner, path)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>", path)
    return found


def freeing_callers():
    """The call sites of ``torsion_split`` that pass ``freeing=`` or a
    ``**`` mapping."""
    return call_sites(
        lambda call: simple_name(call.func) == "torsion_split"
        and any(kw.arg in ("freeing", None) for kw in call.keywords)
    )


def test_only_thm28_frees_the_torsion_split():
    # a freeing element f whose M_f is not projective gives a torsion
    # module that is too small, and so a wrong "torsion-free" verdict.  The
    # thm2.8 verifier's r_1 frees every tensor power of its Koszul module by
    # the theorem; no other caller has such a proof, so none passes one
    assert freeing_callers() == [
        "torsion.py:verify_koszul_tensor_powers",
        "torsion.py:verify_koszul_tensor_powers",
    ]


def test_only_the_generic_ranks_and_the_domain_check_read_the_primes():
    # a non-zerodivisor is decided by the colon (0 :_R J) = 0, which holds
    # on every ring; the declared list may be incomplete, so it serves only
    # the ranks at each prime and question2.12's one-prime domain check
    assert call_sites(lambda call: simple_name(call.func) == "prime_bases") == [
        "modules.py:rank_info",
        "torsion.py:_matrix_spans_generically",
        "torsion.py:explore_torsion_onset",
    ]


def test_no_script_operation_takes_a_freeing_element():
    # a freeing element must never come from script input: no function,
    # claim or probe of the call tables declares it as a keyword, and every
    # keyword a script passes must be declared (engine._Engine.bind)
    from torsionlab import engine

    for table in (engine._FUNCTIONS, engine._CLAIMS, engine._PROBES):
        for name, (params, defaults, _) in table.items():
            assert "freeing" not in defaults, name
            kinds = [param if isinstance(param, str) else param[0] for param in params]
            assert "freeing" not in kinds, name
    report = engine.run_source(
        "ring R = QQ[x,y];\n"
        "module M = coker [[x]] over R;\n"
        "print torsion_free(M, freeing=1);\n"
    )
    assert report.results[-1].summary == (
        "InputError: torsion_free has no keyword 'freeing'"
    )
