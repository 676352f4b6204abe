"""CLI for the static analyzer: ``python -m repro.analysis [paths...]``.

Prints one ``path:line: [RULE] message`` line per finding.  Exit codes:
0 — no findings; 1 — findings; 2 — usage error, including a path that
does not exist or holds no ``.py`` file (a mistyped path must not turn
the gate off).
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from repro.analysis import analyze_paths, rule_table

DEFAULT_PATHS = ("src/repro",)


def main(argv: Optional[List[str]] = None) -> int:  # analysis: allow[R402] tests drive the CLI in-process
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Codebase-specific static analysis: determinism, CLI-drift "
            "and reachability passes."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id with its description and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in sorted(rule_table().items()):
            print(f"{rule}  {description}")
        return 0

    paths = args.paths or list(DEFAULT_PATHS)
    for entry in paths:
        path = Path(entry)
        if not path.exists():
            parser.error(f"no such file or directory: {entry}")
        if path.is_dir() and next(path.rglob("*.py"), None) is None:
            parser.error(f"no .py files under {entry}")
    findings = analyze_paths(paths)
    for finding in findings:
        print(finding.render())
    print(f"analysis: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
