"""CLI for the invariant linter: ``python -m repro.analysis [paths...]``.

Prints one ``path:line:col: RULE message`` finding per line and exits
``1`` when there are findings, ``0`` on a clean tree, ``2`` on usage
errors.  ``--output FILE`` additionally writes the report to ``FILE`` so
CI can upload it as an artifact whether or not the gate fails.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.lint import lint_paths
from repro.analysis.rules import DEFAULT_RULES


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Lint the repro source tree against the project invariants (see --list-rules).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule names to run (default: all rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the available rules and exit",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the findings report to FILE",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in DEFAULT_RULES:
            print(f"{rule.name}: {rule.description}")
        return 0

    rules = list(DEFAULT_RULES)
    if args.select:
        wanted = {part.strip().upper() for part in args.select.split(",") if part.strip()}
        known = {rule.name for rule in rules}
        unknown = wanted - known
        if unknown:
            parser.error(
                f"unknown rule(s) {', '.join(sorted(unknown))}; known: {', '.join(sorted(known))}"
            )
        rules = [rule for rule in rules if rule.name in wanted]

    findings = lint_paths(args.paths, rules)
    lines = [finding.format() for finding in findings]
    if findings:
        lines.append(f"{len(findings)} finding(s)")
    else:
        lines.append("clean: no findings")
    report = "\n".join(lines)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
