"""The README's worked script and first library snippet run as written, and
its lists of script operations match the engine's call tables."""

from __future__ import annotations

import re
from pathlib import Path

from torsionlab import engine
from torsionlab.cli import main
from torsionlab.fields import QQ
from torsionlab.rings import make_ring

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def block_after(marker: str, fence: str) -> str:
    match = re.search(re.escape(marker) + r".*?" + re.escape(fence) + r"\n(.*?)```", README, re.S)
    assert match, f"no {fence} block after {marker!r} in the README"
    return match.group(1)


def test_the_worked_script_runs_through_the_cli(tmp_path, capsys):
    script = tmp_path / "worked.tl"
    script.write_text(block_after("A worked script:", "```"), encoding="utf-8")
    assert main(["run", str(script)]) == 0
    captured = capsys.readouterr()
    assert "[error]" not in captured.out and "Traceback" not in captured.err


def test_the_first_library_snippet_certifies():
    namespace: dict = {}
    exec(block_after("## Library use", "```python"), namespace)
    assert namespace["cert"].passed


def test_the_syntax_note_matches_the_parser():
    note = " ".join(README.split("Polynomials use the canonical syntax")[1].split("\n\n")[0].split())
    assert "`-x^2` is −(x²) and `(-x)^2` is x²" in note
    ring = make_ring(QQ, ("x", "y", "z"))
    assert ring.poly("-x^2") == -ring.poly("x^2")
    assert ring.poly("(-x)^2") == ring.poly("x^2")
    assert ring.poly("3*x^2*y - 1/2*z") == ring.vector("[3*x^2*y - 1/2*z]").component(0)


def listed(bullet: str) -> dict:
    """Operation name -> keyword text (``e=1 i=1``, or "") of the README
    bullet that starts with ``bullet``."""
    text = README.split(f"\n- {bullet}")[1].split("\n- ")[0].split("\n\n")[0]
    return dict(re.findall(r"`([^`\s=<]+)`(?: \(`([^`]*)`\))?", " ".join(text.split())))


def keyword_text(defaults: dict) -> str:
    return " ".join(
        f"{key}={'<run seed>' if callable(value) else value}"
        for key, value in defaults.items()
    )


def test_the_statement_forms_list_every_operation_and_keyword():
    for bullet, table in (
        ("Claims", engine._CLAIMS),
        ("Probes", engine._PROBES),
        ("Expression functions", engine._FUNCTIONS),
    ):
        expected = {name: keyword_text(entry[1]) for name, entry in table.items()}
        assert listed(bullet) == expected, bullet
