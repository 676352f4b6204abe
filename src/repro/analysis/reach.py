"""Reachability pass: code that only tests reach.

* **R401** — a top-level function or class under ``<root>/src/repro/``
  that no root reaches, or a non-dunder method or property of a reached
  top-level class whose name no root reaches.  The roots are the files
  under ``<root>/benchmarks/`` and ``<root>/examples/``, every module's
  module-level statements but imports and ``__all__`` (a
  ``__main__.py``'s ``if __name__`` block makes each CLI one),
  definitions with a project decorator (the ``register_scheme``
  builders) and definitions kept with a pragma.  Tests are not roots:
  code only its own tests call is dead weight they keep alive.

A ``Name``, an ``Attribute``, an import alias or a constant ``getattr``
string reaches every definition of that name, up to a fixpoint.  A
reached function is scanned whole.  Of a reached class, its bases,
decorators, class-level statements, dunder methods and method decorators
are scanned at once, and any other method's body only once that
method's name is reached (a call on the base reaches every override).
Matching by name never reports live code; it can miss dead code that
shares a live name.  Code kept on purpose carries ``# analysis:
allow[R401] <reason>`` on its ``def``/``class`` line, and its name
counts as reached, so the kept code's callees stay too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.base import Finding, ModuleSource, Pass

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNC = (ast.FunctionDef, ast.AsyncFunctionDef)
_ROOT_DIRS = ("benchmarks", "examples")
_Function = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _parse_all(directory: Path) -> List[ModuleSource]:
    """Every ``.py`` file under ``directory`` that parses (an analyzed
    file that does not is an E001 finding already)."""
    modules: List[ModuleSource] = []
    for path in sorted(directory.rglob("*.py")):
        try:
            modules.append(
                ModuleSource(str(path), path.read_text(encoding="utf-8"))
            )
        except (OSError, SyntaxError, ValueError):
            continue
    return modules


def _refs(node: ast.AST) -> Iterator[str]:
    """Every name ``node``'s subtree refers to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.split(".")[-1]
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "getattr"
            and len(sub.args) >= 2
            and isinstance(sub.args[1], ast.Constant)
            and isinstance(sub.args[1].value, str)
        ):
            yield sub.args[1].value


def _runs_on_import(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom, *_DEF)):
        return False
    return not (
        isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
    )


def _members(cls: ast.ClassDef) -> Iterator[_Function]:
    """The members R401 judges: a class's direct non-dunder defs."""
    for stmt in cls.body:
        if isinstance(stmt, _FUNC) and not (
            stmt.name.startswith("__") and stmt.name.endswith("__")
        ):
            yield stmt


def _reached(root: Path) -> Set[str]:
    """Every name the fixpoint reaches from the roots of ``root``."""
    modules = _parse_all(root / "src" / "repro")
    defs: Dict[str, List[ast.AST]] = {}
    reached: Set[str] = set()
    pending: List[ast.AST] = []
    for module in modules:
        for stmt in module.tree.body:
            if not isinstance(stmt, _DEF):
                if _runs_on_import(stmt):
                    pending.append(stmt)
                continue
            defs.setdefault(stmt.name, []).append(stmt)
            kept = [stmt]
            if isinstance(stmt, ast.ClassDef):
                kept.extend(_members(stmt))
            reached.update(
                d.name for d in kept if module.allowed(d.lineno, "R401")
            )
    for module in modules:
        for stmt in module.tree.body:
            if isinstance(stmt, _DEF) and any(
                name in defs
                for decorator in stmt.decorator_list
                for name in _refs(decorator)
            ):
                reached.add(stmt.name)
    for name in sorted(reached):
        pending.extend(defs.get(name, ()))
    for name in _ROOT_DIRS:
        pending.extend(module.tree for module in _parse_all(root / name))
    #: member name -> members of reached classes, scanned once it is.
    waiting: Dict[str, List[ast.AST]] = {}
    while pending:
        node = pending.pop()
        parts: List[ast.AST] = [node]
        if isinstance(node, ast.ClassDef):
            # All of a class but its members' bodies; each waits for its name.
            members = list(_members(node))
            parts = [
                *node.bases, *node.keywords, *node.decorator_list,
                *(stmt for stmt in node.body if stmt not in members),
                *(d for member in members for d in member.decorator_list),
            ]
            for member in members:
                if member.name in reached:
                    pending.append(member)
                else:
                    waiting.setdefault(member.name, []).append(member)
        for ref in (ref for part in parts for ref in _refs(part)):
            if ref not in reached:
                reached.add(ref)
                pending.extend(defs.get(ref, ()))
                pending.extend(waiting.pop(ref, ()))
    return reached


def _project_root(path: Path) -> Optional[Path]:
    """``<root>`` for a file under ``<root>/src/repro/``, else ``None``."""
    for parent in path.parents:
        if parent.name == "repro" and parent.parent.name == "src":
            return parent.parent.parent
    return None


class ReachabilityPass(Pass):
    rules = {
        "R401": (
            "top-level def/class, or a reached class's method/property, "
            "that no CLI, benchmark or example reaches"
        ),
    }

    def __init__(self) -> None:
        #: root -> (reached names, missing root directories).
        self._roots: Dict[Path, Tuple[Set[str], List[str]]] = {}

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        root = _project_root(Path(module.path).resolve())
        if root is None:
            return
        if root not in self._roots:
            missing = [n for n in _ROOT_DIRS if not (root / n).is_dir()]
            self._roots[root] = (set() if missing else _reached(root), missing)
            for name in missing:
                yield Finding(
                    "R401", module.rel_path, 1,
                    f"no {name}/ beside src/ in {root}: without its roots "
                    f"reachability cannot be judged",
                )
        reached, missing = self._roots[root]
        if missing:
            return
        for stmt in module.tree.body:
            if not isinstance(stmt, _DEF):
                continue
            unreached: List[Tuple[ast.AST, str]] = []
            if stmt.name not in reached:
                unreached.append((stmt, stmt.name))
            elif isinstance(stmt, ast.ClassDef):
                unreached.extend(
                    (member, f"{stmt.name}.{member.name}")
                    for member in _members(stmt)
                    if member.name not in reached
                )
            for node, name in unreached:
                finding = module.finding(
                    "R401", node,
                    f"`{name}` is reached by no CLI, benchmark or "
                    f"example; delete it, or keep it with "
                    f"`# analysis: allow[R401] <reason>`",
                )
                if finding:
                    yield finding
