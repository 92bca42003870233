"""What importing the package costs a fresh process."""

from __future__ import annotations

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
