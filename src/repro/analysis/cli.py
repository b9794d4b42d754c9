"""Command line front end: ``python -m repro.analysis`` / ``repro-analyze``.

Exit status is the contract CI relies on: 0 when every finding is
suppressed inline, 1 when any fires.  ``--format json`` emits the full
machine-readable report (the tier-1 driver test parses it); ``--rule``
narrows the run; ``--list-rules`` names every rule.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import DEFAULT_ROOT, RULES, run_analysis


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Static-invariant analysis for the repro codebase.",
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=None,
        help=f"tree to analyse (default: the installed repro package, "
        f"{DEFAULT_ROOT})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.name:28s} {rule.title}")
        return 0
    try:
        report = run_analysis(args.root, rules=args.rule)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        print(
            f"{len(report.rules)} rule(s) over {report.checked_files} "
            f"file(s): {len(report.findings)} finding(s), "
            f"{len(report.suppressed)} suppressed"
        )
    return 1 if report.findings else 0
