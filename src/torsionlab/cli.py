"""Command-line interface.

    torsionlab run script.tl [--json out.json] [--seed N] [--degree-cap D]
                             [--cache DIR] [--resolution-bound B]
    torsionlab verify-suite paper [--only SUBSTR] [--json out.json]

Exit codes: 0 all claims pass, 1 some claim fails, 2 inapplicable results
only, 3 resource, parse, or input errors, or a --cache or --json path that
cannot be used.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .engine import ExecConfig, execute
from .errors import ScriptParseError, TorsionLabError
from .script import parse_script


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="exact module calculus and torsion/Frobenius verifiers "
        "over graded quotient rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a script file")
    run.add_argument("script", help="path to the script")
    run.add_argument("--json", dest="json_path", help="write the JSON report here")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--degree-cap", type=int, default=None)
    run.add_argument("--resolution-bound", type=int, default=None)
    run.add_argument(
        "--cache",
        default=None,
        help="cache directory (default: $TORSIONLAB_CACHE when set)",
    )

    suite = sub.add_parser("verify-suite", help="run a built-in verification panel")
    suite.add_argument("panel", choices=["paper"], help="panel name")
    suite.add_argument("--only", default=None, help="run criteria containing this id")
    suite.add_argument("--json", dest="json_path", help="write results as JSON")
    suite.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.script, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        script = parse_script(text)
    except ScriptParseError as exc:
        print(f"{args.script}:{exc}", file=sys.stderr)
        return 3
    config = ExecConfig(
        seed=args.seed,
        degree_cap=args.degree_cap,
        cache_dir=args.cache,
        resolution_bound=args.resolution_bound,
    )
    try:
        report = execute(script, config)
    except TorsionLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for result in report.results:
        print(f"[{result.status}] {result.summary}")
        if result.output and result.output != result.summary:
            print(result.output)
    if args.json_path and not _write_json(args.json_path, report.to_json()):
        return 3
    return report.exit_code


def _cmd_suite(args) -> int:
    from .suite import run_suite

    results = run_suite(only=args.only, seed=args.seed)
    if not results:
        print("no criteria matched", file=sys.stderr)
        return 3
    for res in results:
        print(f"[{'pass' if res.passed else 'FAIL'}] {res.identifier}: {res.detail}")
    if args.json_path:
        payload = [
            {"id": r.identifier, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        text = json.dumps(payload, indent=2, sort_keys=True)
        if not _write_json(args.json_path, text):
            return 3
    return 0 if all(r.passed for r in results) else 1


def _write_json(path: str, text: str) -> bool:
    """Write ``text`` and a newline to ``path``; False, with the error on
    standard error, when the path cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_suite(args)


if __name__ == "__main__":
    sys.exit(main())
