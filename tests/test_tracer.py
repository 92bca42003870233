"""The benchmark's per-layer tracer still binds to the package's layers.

``perfbench/tracer.py`` wraps functions and methods by name from outside
the package, so a refactor that renames or removes one of them breaks
``perfbench/run.py --trace 1`` without failing any other test.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_records_the_layers_of_one_criterion(tmp_path):
    stats_path = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TORSIONLAB_CACHE", None)
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "tracer.py"),
            str(stats_path),
            "verify-suite",
            "paper",
            "--only",
            "criterion-03",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    assert stats["exit_code"] == 0
    assert stats["groebner"]["buchberger_calls"] > 0
    for span in (
        "groebner.normal_form",
        "modules.minimal",
        "rings.submodule_basis",
        "rings.syzygies",
    ):
        assert stats["spans"][span]["calls"] > 0, span


def _constants(path, *names):
    """The literal values assigned to the given module-level names, read
    from the source without importing or running it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    values[target.id] = ast.literal_eval(node.value)
    return [values[name] for name in names]


def test_every_per_layer_metric_names_a_wrapped_span():
    (span_metrics,) = _constants(ROOT / "perfbench" / "run.py", "SPAN_METRICS")
    layers, methods, skip = _constants(
        ROOT / "perfbench" / "tracer.py", "LAYER_MODULES", "METHODS", "SKIP"
    )
    method_spans = {span for _, _, _, span in methods}
    for span, _ in span_metrics:
        if span in method_spans:
            continue
        short, attr = span.split(".")
        assert short in layers, span
        assert (short, attr) not in skip, span
        module = importlib.import_module(f"torsionlab.{short}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn), span
        assert fn.__module__ == module.__name__ and not attr.startswith("_"), span
    for short, cls_name, method, _ in methods:
        cls = getattr(importlib.import_module(f"torsionlab.{short}"), cls_name)
        assert inspect.isfunction(vars(cls).get(method)), (cls_name, method)
