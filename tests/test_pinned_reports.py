"""The benchmark's pinned reports, checked through the CLI by pytest.

``perfbench/run.py`` rejects an op whose report, with the timing block
removed, differs from the report pinned when the benchmark was added
(``PINNED``, compared through ``pinned_digest``).  These tests run the
panel and the seed-0 certify script through the CLI and apply the same
check, with the benchmark's own code read from ``perfbench/`` unchanged,
so a change that alters a certificate fails the test suite too.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py`` loaded as a module; it imports ``certify`` from
    its own directory."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        path = PERFBENCH / "run.py"
        spec = importlib.util.spec_from_file_location("perfbench_run", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("certify", None)
    return module


def run_cli(bench, tmp_path, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TORSIONLAB_CACHE", None)
    completed = subprocess.run(
        [sys.executable, "-m", "torsionlab.cli", *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return bench.Op(0.0, 0.0, completed.returncode, completed.stderr)


def check(bench, op, json_path, workload, seed):
    try:
        bench.check_op(op, json_path, workload, seed)
    except bench.Failure as failure:
        pytest.fail(f"{workload}: {failure}")


def test_the_panel_report_matches_the_pinned_digest(bench, tmp_path):
    json_path = tmp_path / "panel.json"
    args = ["verify-suite", "paper", "--seed", "0", "--json", str(json_path)]
    op = run_cli(bench, tmp_path, args)
    check(bench, op, json_path, "panel", 0)


def test_the_seed_0_certify_report_matches_the_pinned_digest(bench, tmp_path):
    script = tmp_path / "certify.tl"
    script.write_text(bench.certify.certify_script(0), encoding="utf-8")
    json_path = tmp_path / "certify.json"
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    op = run_cli(
        bench,
        tmp_path,
        ["run", str(script), "--cache", str(cache_dir), "--json", str(json_path)],
    )
    check(bench, op, json_path, "certify-cold", 0)
