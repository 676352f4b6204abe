"""Reachability pass: top-level code that only tests reach.

* **R401** — a top-level function or class under ``<root>/src/repro/``
  that no root reaches.  The roots are the files under ``<root>/
  benchmarks/`` and ``<root>/examples/``, every module's module-level
  statements but imports and ``__all__`` (a ``__main__.py``'s
  ``if __name__`` block makes each CLI one), and definitions with a
  project decorator (the ``register_scheme`` builders).  Tests are not
  roots: code only its own tests call is dead weight they keep alive.

A ``Name``, an ``Attribute``, an import alias or a constant ``getattr``
string reaches every top-level definition of that name, whose whole node
is then scanned in turn, up to a fixpoint.  Matching by name never
reports live code; it can miss dead code that shares a live name.  Code
kept on purpose carries ``# analysis: allow[R401] <reason>`` on its
``def``/``class`` line.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.base import Finding, ModuleSource, Pass

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_ROOT_DIRS = ("benchmarks", "examples")


def _parse_all(directory: Path) -> List[ast.Module]:
    """Every ``.py`` file under ``directory`` that parses (an analyzed
    file that does not is an E001 finding already)."""
    trees: List[ast.Module] = []
    for path in sorted(directory.rglob("*.py")):
        try:
            trees.append(ast.parse(path.read_text(encoding="utf-8")))
        except (OSError, SyntaxError, ValueError):
            continue
    return trees


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


def _reached(root: Path) -> Set[str]:
    """Every name the fixpoint reaches from the roots of ``root``."""
    modules = _parse_all(root / "src" / "repro")
    defs: Dict[str, List[ast.AST]] = {}
    for tree in modules:
        for stmt in tree.body:
            if isinstance(stmt, _DEF):
                defs.setdefault(stmt.name, []).append(stmt)
    reached: Set[str] = set()
    pending: List[ast.AST] = []
    for tree in modules:
        for stmt in tree.body:
            if _runs_on_import(stmt):
                pending.append(stmt)
            elif isinstance(stmt, _DEF) and any(
                name in defs
                for decorator in stmt.decorator_list
                for name in _refs(decorator)
            ):
                reached.add(stmt.name)
                pending.append(stmt)
    for name in _ROOT_DIRS:
        pending.extend(_parse_all(root / name))
    while pending:
        for ref in _refs(pending.pop()):
            if ref not in reached:
                reached.add(ref)
                pending.extend(defs.get(ref, ()))
    return reached


def _project_root(path: Path) -> Optional[Path]:
    """``<root>`` for a file under ``<root>/src/repro/``, else ``None``."""
    for parent in path.parents:
        if parent.name == "repro" and parent.parent.name == "src":
            return parent.parent.parent
    return None


class ReachabilityPass(Pass):
    rules = {
        "R401": "top-level def/class no CLI, benchmark or example reaches",
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
            if isinstance(stmt, _DEF) and stmt.name not in reached:
                finding = module.finding(
                    "R401", stmt,
                    f"`{stmt.name}` is reached by no CLI, benchmark or "
                    f"example; delete it, or keep it with "
                    f"`# analysis: allow[R401] <reason>`",
                )
                if finding:
                    yield finding
