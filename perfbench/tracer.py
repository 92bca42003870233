"""Traced torsionlab CLI: per-layer spans recorded from outside the package.

    python3 perfbench/tracer.py STATS.json <torsionlab cli arguments...>

Imports every torsionlab module, wraps each public module-level function of
the layer modules (plus the layer methods in ``METHODS`` and every
acceptance criterion), then runs ``torsionlab.cli.main`` with the given
arguments.  A wrapper replaces every module-level alias of its function,
because the package imports by name (``from .groebner import
groebner_basis``).  Span totals stay in memory and are written to STATS.json
when the CLI returns.  No file of the package is changed.
"""

import importlib
import inspect
import json
import pkgutil
import sys
import time

clock = time.perf_counter

# Leaf modules (term arithmetic, parsing of tokens, limits) are not wrapped:
# their calls are too many and too short, and their time shows up as the
# self time of the layer that calls them.
LAYER_MODULES = (
    "cache",
    "certificates",
    "cli",
    "engine",
    "frobenius",
    "groebner",
    "homology",
    "modules",
    "randgen",
    "rings",
    "script",
    "suite",
    "torsion",
)

# (module, class, method, span name)
METHODS = (
    ("groebner", "GroebnerBasis", "normal_form", "groebner.normal_form"),
    ("modules", "FPModule", "minimal", "modules.minimal"),
    ("rings", "RingContext", "submodule_basis", "rings.submodule_basis"),
    ("rings", "RingContext", "syzygies", "rings.syzygies"),
)

# groebner.normal_form only forwards to GroebnerBasis.normal_form, whose span
# carries that name; wrapping both would count every call twice.
SKIP = {("groebner", "normal_form")}


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, inclusive s, self s, groebner calls beneath]
        self.depth = {}  # name -> open frames, so recursion is counted once
        self.stack = []  # child seconds of each open frame
        self.gb_calls = 0
        self.basis_elems = 0
        self.input_gens = 0
        self.buchberger_calls = 0

    def wrap(self, name, fn):
        totals = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        self.depth.setdefault(name, 0)
        depth = self.depth
        stack = self.stack
        tracer = self

        def traced(*args, **kwargs):
            outer = depth[name] == 0
            depth[name] += 1
            children = [0.0]
            stack.append(children)
            gb_before = tracer.gb_calls
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                totals[0] += 1
                totals[2] += elapsed - children[0]
                if outer:
                    totals[1] += elapsed
                    totals[3] += tracer.gb_calls - gb_before
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def count_groebner(self, fn):
        """groebner_basis with input and output sizes counted."""
        tracer = self

        def counted(gens, *args, **kwargs):
            tracer.gb_calls += 1
            tracer.input_gens += len(gens)
            basis = fn(gens, *args, **kwargs)
            tracer.basis_elems += len(basis.elements)
            return basis

        return counted

    def count_buchberger(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.buchberger_calls += 1
            return fn(*args, **kwargs)

        return counted

    def report(self):
        return {
            "spans": {
                name: {"calls": c, "s": s, "self_s": self_s, "gb_calls": gb}
                for name, (c, s, self_s, gb) in sorted(self.spans.items())
            },
            "groebner": {
                "calls": self.gb_calls,
                "basis_elems": self.basis_elems,
                "input_gens": self.input_gens,
                "buchberger_calls": self.buchberger_calls,
            },
        }


def package_modules():
    package = importlib.import_module("torsionlab")
    modules = {"torsionlab": package}
    for info in pkgutil.iter_modules(package.__path__):
        modules[info.name] = importlib.import_module(f"torsionlab.{info.name}")
    return modules


def install(tracer, modules):
    """Wrap the layer functions and rebind every module-level alias."""
    suite = modules["suite"]
    criteria = {fn for _, fn in suite.CRITERIA}
    wrappers = {}
    for short in LAYER_MODULES:
        module = modules[short]
        for attr, value in list(vars(module).items()):
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
                and (short, attr) not in SKIP
                and value not in criteria
            ):
                inner = value
                if (short, attr) == ("groebner", "groebner_basis"):
                    inner = tracer.count_groebner(value)
                wrappers[value] = tracer.wrap(f"{short}.{attr}", inner)
    groebner = modules["groebner"]
    wrappers[groebner._buchberger] = tracer.count_buchberger(groebner._buchberger)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
    for short, cls_name, method, span in METHODS:
        cls = getattr(modules[short], cls_name)
        setattr(cls, method, tracer.wrap(span, vars(cls)[method]))
    suite.CRITERIA[:] = [
        (ident, tracer.wrap(f"suite.{ident}", fn)) for ident, fn in suite.CRITERIA
    ]


def main(argv):
    stats_path, cli_args = argv[0], argv[1:]
    start = clock()
    modules = package_modules()
    import_s = clock() - start
    tracer = Tracer()
    install(tracer, modules)
    exit_code = 1
    try:
        exit_code = modules["cli"].main(cli_args)
    finally:
        stats = tracer.report()
        stats["import_s"] = import_s
        stats["exit_code"] = exit_code
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, sort_keys=True)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
