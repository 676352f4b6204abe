"""Schema-drift pass: CLI reads the parser must define.

The CLI hands its handlers a plain ``argparse`` namespace, and each
handler spells the fields it reads as attribute names, so nothing but
convention stops a handler reading a dest no ``add_argument`` defines:

* **C303** — CLI drift: an ``args.<name>`` read in a module that builds
  an ``argparse`` parser, where ``<name>`` is neither an
  ``add_argument`` (or ``add_subparsers``) dest nor assigned onto the
  namespace — the handler would crash with ``AttributeError`` on the
  first run that reaches it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.analysis.base import Finding, ModuleSource, Pass


class SchemaDriftPass(Pass):
    rules = {
        "C303": "args.<dest> read without a matching add_argument dest",
    }

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        dests: Set[str] = set()
        has_parser = False
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "add_argument", "add_subparsers"
            ):
                has_parser = True
                dest = self._argument_dest(node)
                if dest:
                    dests.add(dest)
        if not has_parser:
            return
        assigned: Set[str] = set()
        used: Dict[str, ast.AST] = {}
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "args"
            ):
                if isinstance(node.ctx, ast.Store):
                    assigned.add(node.attr)
                elif isinstance(node.ctx, ast.Load):
                    used.setdefault(node.attr, node)
        for name in sorted(used):
            if name in dests or name in assigned:
                continue
            finding = module.finding(
                "C303", used[name],
                f"`args.{name}` has no matching add_argument dest and "
                f"is never assigned; the handler would crash with "
                f"AttributeError",
            )
            if finding:
                yield finding

    @staticmethod
    def _argument_dest(node: ast.Call) -> Optional[str]:
        for keyword in node.keywords:
            if (
                keyword.arg == "dest"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, str)
            ):
                return keyword.value.value
        options = [
            arg.value
            for arg in node.args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        ]
        if not options:
            return None
        for option in options:
            if option.startswith("--"):
                return option[2:].replace("-", "_")
        first = options[0]
        if not first.startswith("-"):
            return first.replace("-", "_")
        return first.lstrip("-").replace("-", "_")
