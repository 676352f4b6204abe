"""Static analysis for the repro codebase: ``python -m repro.analysis``.

An AST-based linter with codebase-specific passes enforcing invariants
the runtime tests can only sample:

* :class:`~repro.analysis.determinism.DeterminismPass` (D101–D105) —
  unseeded RNGs, wall-clock reads, hash-seed-ordered set iteration
  flowing into results, and ``assert``-guarded invariants that
  ``python -O`` strips.
* :class:`~repro.analysis.schema.SchemaDriftPass` (C303) —
  ``args.<dest>`` reads against ``add_argument`` dests.
* :class:`~repro.analysis.reach.ReachabilityPass` (R401, R402) —
  top-level code, and methods of reached classes, that no CLI, benchmark
  or example reaches (tests are not roots); defaulted parameters and
  dataclass fields that no call outside tests passes.
* :class:`~repro.analysis.reach.UnusedImportPass` (R404) — module-level
  imports the module never uses.

Every rule here has a live subject in ``src/``.  A contract that Python,
a runtime check or a round-trip test already enforces (a required
keyword, the SchemeSpec check at dispatch, store record fields) gets
no rule.

:func:`analyze_paths` is the library entry point; the CLI in
:mod:`repro.analysis.__main__` prints the findings and fails on any.
Intentional violations are allowlisted in source with
``# analysis: allow[RULE]``; an R401 or R402 pragma also says why the
code or setting stays, and an R401 pragma makes it a root.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.base import Finding, ModuleSource, Pass, collect_modules
from repro.analysis.determinism import DeterminismPass
from repro.analysis.reach import ReachabilityPass, UnusedImportPass
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
    return [DeterminismPass(), SchemaDriftPass(), ReachabilityPass(),
            UnusedImportPass()]


def analyze_paths(
    paths: Sequence[str],
    passes: Optional[Iterable[Pass]] = None,  # analysis: allow[R402] tests run one pass
    root: Optional[str] = None,  # analysis: allow[R402] tests analyze planted trees
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


def rule_table(passes: Optional[Iterable[Pass]] = None) -> Dict[str, str]:  # analysis: allow[R402] tests list one pass
    """rule id -> description, across the given (default: all) passes."""
    table: Dict[str, str] = {"E001": "source file fails to parse"}
    for analyzer_pass in passes if passes is not None else all_passes():
        table.update(analyzer_pass.rules)
    return table
