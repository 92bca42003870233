"""What importing the package costs a fresh process."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import torsionlab

SRC = Path(torsionlab.__file__).resolve().parent.parent


def test_importing_the_cli_and_the_suite_loads_no_code_generation():
    # every certificate comes out of a fresh process, which pays for each
    # module it loads: dataclasses loads inspect (and ast, dis, tokenize)
    # and builds each record's methods through exec.  -S keeps site hooks
    # of the host out of the count.
    code = (
        "import sys, torsionlab.cli, torsionlab.suite; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


# stores two syzygy entries in an empty cache
SYZYGY_SCRIPT = (
    "ring R = GF(5)[x,y,z];\n"
    "module K = coker [[x],[y],[z]] over R;\n"
    "print nu(torsion(tensor_power(K, 2)));\n"
)

# argv: script, cache directory, and "builtin" or "blocked"; "blocked" hides
# the interpreter's built-in SHA-256 modules before the package is imported.
# The last line printed is JSON: the exit code, the hash modules loaded, and
# for "blocked" whether the package took hashlib's sha256 and whether its
# digests equal hashlib's.
CACHED_RUN = """
import json, sys
script, directory, mode = sys.argv[1:]
if mode == "blocked":
    sys.modules["_sha256"] = sys.modules["_sha2"] = None
import torsionlab.cli, torsionlab.suite
status = torsionlab.cli.main(["run", script, "--cache", directory])
line = {"status": status, "loaded": sorted({"hashlib", "_hashlib"} & set(sys.modules))}
if mode == "blocked":
    import hashlib
    from torsionlab import cache
    with open(script, encoding="utf-8") as handle:
        texts = ("", handle.read(), "\\u00e9 \\u2202 \\U0001d52d")
    line["fallback"] = cache._sha256 is hashlib.sha256
    line["equal"] = all(
        cache.text_digest(t) == hashlib.sha256(t.encode()).hexdigest() for t in texts
    )
print(json.dumps(line))
"""


def cached_run(tmp_path, mode):
    script = tmp_path / "syzygies.tl"
    script.write_text(SYZYGY_SCRIPT, encoding="utf-8")
    directory = tmp_path / f"cache-{mode}"
    done = subprocess.run(
        [sys.executable, "-S", "-c", CACHED_RUN, str(script), str(directory), mode],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    entries = {p.name: p.read_text(encoding="utf-8") for p in directory.glob("*.json")}
    return json.loads(done.stdout.splitlines()[-1]), entries


def test_a_cached_run_loads_no_openssl(tmp_path):
    # hashlib loads _hashlib, which maps OpenSSL's libcrypto: about 3 MB of
    # each process's peak RSS, for digests the interpreter computes itself
    line, entries = cached_run(tmp_path, "builtin")
    assert line == {"status": 0, "loaded": []}
    assert any('"op":"syzygies"' in body for body in entries.values())


def test_without_the_builtin_sha256_the_digests_come_from_hashlib(tmp_path):
    line, entries = cached_run(tmp_path, "blocked")
    assert line["fallback"] and line["equal"]
    assert line["status"] == 0
    assert entries and entries == cached_run(tmp_path, "builtin")[1]
