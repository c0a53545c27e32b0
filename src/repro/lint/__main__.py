"""CLI: ``python -m repro.lint [--format text|json] PATHS``.

Exit codes: 0 = clean, 1 = findings, 2 = usage / parse-level errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .core import Finding, run_paths

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="project-native static analysis (L001-L004)",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    return parser


def _emit(findings: List[Finding], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([f.to_json() for f in findings], indent=2))
        return
    for finding in findings:
        print(finding.format())
    print(f"{len(findings)} finding(s)")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    findings = run_paths(args.paths)
    if any(f.rule == "L000" for f in findings):
        # parse failures are infrastructure errors, not findings
        for finding in findings:
            if finding.rule == "L000":
                print(finding.format(), file=sys.stderr)
        return EXIT_USAGE
    _emit(findings, args.format)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
