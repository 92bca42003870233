"""The benchmark's pinned reports, checked through the CLI by pytest.

``perfbench/run.py`` rejects an op whose report, with the timing block
removed, differs from the report pinned when the benchmark was added
(``PINNED``, compared through ``pinned_digest``).  These tests run the
panel and the seed-0 certify script through the CLI and apply the same
check, with the benchmark's own code read from ``perfbench/`` unchanged,
so a change that alters a certificate fails the test suite too.  The
seed-0 certify script's standard output is pinned by a digest as well.  The
thm2.8 certificate at d = 4, a larger input to the torsion split than
either workload, is checked the same way against a digest of its own.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
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


def cli(tmp_path, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TORSIONLAB_CACHE", None)
    return subprocess.run(
        [sys.executable, "-m", "torsionlab.cli", *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def run_cli(bench, tmp_path, args):
    completed = cli(tmp_path, args)
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


# The CLI's standard output for the seed-0 certify script: one
# "[status] summary" line per statement, then a printed value's text when it
# differs from the summary.  The digest is the SHA-256 of that output.
CERTIFY_STDOUT_DIGEST = "bbe2437afb1109863a22f60eddb8fa077ea6415707a96a792a926d2a3f62ddeb"


def test_the_seed_0_certify_stdout_matches_its_pinned_digest(bench, tmp_path):
    script = tmp_path / "certify.tl"
    script.write_text(bench.certify.certify_script(0), encoding="utf-8")
    completed = cli(tmp_path, ["run", str(script)])
    assert completed.returncode == 0, completed.stderr
    digest = hashlib.sha256(completed.stdout.encode("utf-8")).hexdigest()
    assert digest == CERTIFY_STDOUT_DIGEST, completed.stdout


# thm2.8 at d = 4: one torsion split per power of the Koszul module on
# (x, y, z, w), the top one over 256 generators.  The digest is the SHA-256
# of the report, timing block removed, in canonical JSON.
D4_SCRIPT = "ring C = GF(5)[x,y,z,w]; verify thm2.8 over C with sequence (x,y,z,w);\n"
D4_DIGEST = "7685b6d2532f2786d0caacebbea66cdf4cdbe2a67d2c9d16ddafd7987986f191"


def test_the_thm28_report_at_d_4_matches_its_pinned_digest(bench, tmp_path):
    script = tmp_path / "d4.tl"
    script.write_text(D4_SCRIPT, encoding="utf-8")
    json_path = tmp_path / "d4.json"
    op = run_cli(bench, tmp_path, ["run", str(script), "--json", str(json_path)])
    assert op.exit_code == 0, op.stderr
    report = json.loads(json_path.read_text(encoding="utf-8"))
    report.pop("timing")
    assert [s["status"] for s in report["statements"]] == ["ok", "pass"]
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == D4_DIGEST
