"""The benchmark's per-layer tracer still binds to the package's layers.

``perfbench/tracer.py`` wraps functions and methods by name from outside
the package, so a refactor that renames or removes one of them breaks
``perfbench/run.py --trace 1`` without failing any other test.
"""

from __future__ import annotations

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
