"""Static analysis for the repro codebase: ``python -m repro.analysis``.

An AST-based linter with codebase-specific passes enforcing invariants
the runtime tests can only sample:

* :class:`~repro.analysis.determinism.DeterminismPass` (D101–D105) —
  unseeded RNGs, wall-clock reads, hash-seed-ordered set iteration
  flowing into results, and ``assert``-guarded invariants that
  ``python -O`` strips.
* :class:`~repro.analysis.schema.SchemaDriftPass` (C303) —
  ``args.<dest>`` reads against ``add_argument`` dests.
* :class:`~repro.analysis.reach.ReachabilityPass` (R401) — top-level
  code, and methods of reached classes, that no CLI, benchmark or
  example reaches (tests are not roots).

Every rule here has a live subject in ``src/``.  A contract that Python,
a runtime check or a round-trip test already enforces (a required
keyword, the SchemeSpec check at dispatch, store record fields) gets
no rule.

:func:`analyze_paths` is the library entry point; the CLI in
:mod:`repro.analysis.__main__` prints the findings and fails on any.
Intentional violations are allowlisted in source with
``# analysis: allow[RULE]``; an R401 pragma also says why the code stays,
and makes it a root.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.base import Finding, ModuleSource, Pass
from repro.analysis.determinism import DeterminismPass
from repro.analysis.reach import ReachabilityPass
from repro.analysis.schema import SchemaDriftPass

__all__ = [
    "Finding",
    "ModuleSource",
    "Pass",
    "all_passes",
    "analyze_paths",
    "collect_modules",
]


def all_passes() -> List[Pass]:
    """The default pass set, in reporting order."""
    return [DeterminismPass(), SchemaDriftPass(), ReachabilityPass()]


def collect_modules(
    paths: Sequence[str], root: Optional[str] = None
) -> Tuple[List[ModuleSource], List[Finding]]:
    """Parse every ``.py`` file under ``paths``.

    Returns the parsed modules plus parse *failures* as findings (rule
    ``E001``) — a file the analyzer cannot parse cannot be vouched for,
    so it must fail the gate rather than vanish from it.  ``root``
    anchors the relative paths findings render (defaults to the current
    directory).
    """
    root_path = Path(root) if root is not None else Path.cwd()
    files: List[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    modules: List[ModuleSource] = []
    failures: List[Finding] = []
    for file_path in files:
        try:
            rel = os.path.relpath(file_path, root_path)
        except ValueError:  # pragma: no cover - cross-drive on Windows
            rel = os.fspath(file_path)
        try:
            text = file_path.read_text(encoding="utf-8")
            modules.append(
                ModuleSource(os.fspath(file_path), text, rel_path=rel)
            )
        except (OSError, SyntaxError, ValueError) as exc:
            failures.append(
                Finding(
                    rule="E001",
                    path=rel,
                    line=getattr(exc, "lineno", None) or 1,
                    message=f"cannot parse: {exc}",
                )
            )
    return modules, failures


def analyze_paths(
    paths: Sequence[str],
    passes: Optional[Iterable[Pass]] = None,
    root: Optional[str] = None,
) -> List[Finding]:
    """Run the given passes (default: all) over the paths' ``.py`` files.

    Findings come back sorted by (path, line, rule) so output is stable
    across filesystems and runs.
    """
    modules, findings = collect_modules(paths, root=root)
    for analyzer_pass in passes if passes is not None else all_passes():
        for module in modules:
            findings.extend(analyzer_pass.check_module(module))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


def rule_table(passes: Optional[Iterable[Pass]] = None) -> Dict[str, str]:
    """rule id -> description, across the given (default: all) passes."""
    table: Dict[str, str] = {"E001": "source file fails to parse"}
    for analyzer_pass in passes if passes is not None else all_passes():
        table.update(analyzer_pass.rules)
    return table
