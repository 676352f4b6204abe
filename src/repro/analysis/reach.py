"""Reachability passes: code, settings and imports that nothing uses.

* **R401** — a top-level function or class under ``<root>/src/repro/``
  that no root reaches, or a non-dunder method or property of a reached
  top-level class whose name no root reaches.  The roots are the files
  under ``<root>/benchmarks/`` and ``<root>/examples/``, every module's
  module-level statements but imports and ``__all__`` (a
  ``__main__.py``'s ``if __name__`` block makes each CLI one),
  definitions with a project decorator (the ``register_scheme``
  builders) and definitions kept with a pragma.  Tests are not roots:
  code only its own tests call is dead weight they keep alive.
* **R402** — a defaulted parameter of a top-level def or method, or a
  defaulted dataclass field, under ``<root>/src/repro/`` that no call
  there or in a root directory passes (a setting needs a second value
  in use outside tests).  ``super().__init__`` calls the bases;
  ``*args``, ``**kwargs`` and loading a def as a value pass everything.
* **R404** (:class:`UnusedImportPass`) — a module-level import the
  module never uses; names in ``__all__`` and string annotations count.

A ``Name``, an ``Attribute``, an import alias or a constant ``getattr``
string reaches every definition of that name, up to a fixpoint.  A
reached function is scanned whole.  Of a reached class, its bases,
decorators, class-level statements, dunder methods and method decorators
are scanned at once, and any other method's body only once that
method's name is reached (a call on the base reaches every override).
Calls match their callees by name too.  Matching by name never reports
live code; it can miss dead code that shares a live name.  Code kept on
purpose carries ``# analysis: allow[R401] <reason>`` on its
``def``/``class`` line (its name counts as reached, so its callees stay
too), a kept setting ``# analysis: allow[R402] <reason>`` on its
parameter's or field's line.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.base import Finding, ModuleSource, Pass, collect_modules

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNC = (ast.FunctionDef, ast.AsyncFunctionDef)
_ROOT_DIRS = ("benchmarks", "examples")
_Function = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_Defs = Dict[str, List[ast.AST]]


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


def _decorated(stmt: ast.AST, defs: _Defs) -> bool:
    """Whether a project def decorates ``stmt`` (a registry's builder)."""
    return any(
        name in defs
        for decorator in getattr(stmt, "decorator_list", ())
        for name in _refs(decorator)
    )


def _reached(
    modules: List[ModuleSource], roots: List[ModuleSource], defs: _Defs
) -> Set[str]:
    """Every name the fixpoint reaches from the roots."""
    reached: Set[str] = set()
    pending: List[ast.AST] = []
    for module in modules:
        for stmt in module.tree.body:
            if not isinstance(stmt, _DEF):
                if _runs_on_import(stmt):
                    pending.append(stmt)
                continue
            kept = [stmt]
            if isinstance(stmt, ast.ClassDef):
                kept.extend(_members(stmt))
            reached.update(
                d.name for d in kept if module.allowed(d.lineno, "R401")
            )
            if _decorated(stmt, defs):
                reached.add(stmt.name)
    for name in sorted(reached):
        pending.extend(defs.get(name, ()))
    pending.extend(module.tree for module in roots)
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


#: module path -> R402's unset settings there, as (node, label).
_Unset = Dict[str, List[Tuple[ast.AST, str]]]
#: (node, callee name, setting, label, call position, is a constructor's)
_Setting = Tuple[ast.AST, str, str, str, Optional[int], bool]
#: What a def loaded as a value is passed: anything, from elsewhere.
_LOADED = "<loaded>"
_TELL = {
    "R401": "is reached by no CLI, benchmark or example; delete it",
    "R402": "is set by no call in src, benchmarks or examples; make it a "
    "constant (dataclass state: `field(init=False)`)",
}


def _settings(
    module: ModuleSource, defs: _Defs, passed: Dict[str, Set[object]]
) -> Iterator[_Setting]:
    """R402's subjects in ``module``.  A project-decorated top-level def
    that no call names is reached through its registry, which may pass
    it anything."""
    for stmt in module.tree.body:
        owner = getattr(stmt, "name", "")
        if _decorated(stmt, defs) and owner not in passed:
            continue
        funcs = [(stmt, owner, owner)] if isinstance(stmt, _FUNC) else []
        if isinstance(stmt, ast.ClassDef):
            funcs = [
                (f, owner if f.name == "__init__" else f.name, f"{owner}.{f.name}")
                for f in stmt.body if isinstance(f, _FUNC)
            ]
        decorators = getattr(stmt, "decorator_list", ())
        dataclass = "dataclass" in {ref for d in decorators for ref in _refs(d)}
        position = 0
        for item in getattr(stmt, "body", []) if dataclass else ():
            if not isinstance(item, ast.AnnAssign) or not isinstance(
                item.target, ast.Name
            ) or "ClassVar" in set(_refs(item.annotation)):
                continue
            value = item.value
            if isinstance(value, ast.Call) and "field" in set(_refs(value.func)):
                options = {kw.arg: kw.value for kw in value.keywords}
                if getattr(options.get("init"), "value", True) is False:
                    continue
                value = options.get("default", options.get("default_factory"))
            name = item.target.id
            if value is not None:
                yield item, owner, name, f"{owner}.{name}", position, True
            position += 1
        for func, callee, label in funcs:
            args, init = func.args, func.name == "__init__"
            positional = [*args.posonlyargs, *args.args]
            bound = int(bool(positional) and positional[0].arg in ("self", "cls"))
            first = len(positional) - len(args.defaults)
            for at, arg in enumerate(positional[first:], first - bound):
                yield arg, callee, arg.arg, f"{label}({arg.arg})", at, init
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield arg, callee, arg.arg, f"{label}({arg.arg})", None, init


def _index(stmt: ast.stmt, passed: Dict[str, Set[object]]) -> None:
    """Record by callee name what each call under ``stmt`` passes (``*``:
    anything), and the names loaded as values: not ``stmt``'s locals,
    nor ``module`` in ``module.f``."""
    local: Set[str] = set()
    loads: Set[str] = set()
    skip: Set[ast.AST] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            skip.add(node.func)
            callees = [getattr(node.func, "attr", getattr(node.func, "id", ""))]
            if isinstance(stmt, ast.ClassDef) and callees == ["cls"]:
                callees = [stmt.name]
            elif callees == ["__init__"] and "super" in set(_refs(node.func)):
                callees = [r for b in getattr(stmt, "bases", ()) for r in _refs(b)]
            sets: Set[object] = {kw.arg or "*" for kw in node.keywords}
            sets.update(range(len(node.args)))
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                sets.add("*")
            for callee in callees:
                passed.setdefault(callee, set()).update(sets)
        elif isinstance(node, ast.Attribute):
            skip.add(node.value)
            if node not in skip:
                passed.setdefault(node.attr, set()).add(_LOADED)
        elif isinstance(node, ast.arg):
            local.add(node.arg)
        elif isinstance(node, ast.Name) and node not in skip:
            (loads if isinstance(node.ctx, ast.Load) else local).add(node.id)
    for name in loads - local:
        passed.setdefault(name, set()).add(_LOADED)


def _judge(root: Path) -> Tuple[Set[str], _Unset]:
    """R401's reached names and R402's unset settings, from one parse of
    ``root``.  A class loaded as a value is most often a type, and sets
    nothing; ``dataclasses.replace`` sets fields by keyword."""
    modules = collect_modules([str(root / "src" / "repro")])[0]
    roots = collect_modules([str(root / name) for name in _ROOT_DIRS])[0]
    defs: _Defs = {}
    passed: Dict[str, Set[object]] = {}
    for module in [*modules, *roots]:
        for stmt in module.tree.body:
            _index(stmt, passed)
            if isinstance(stmt, _DEF) and module in modules:
                defs.setdefault(stmt.name, []).append(stmt)
    unset: _Unset = {}
    for module in modules:
        for node, callee, name, label, at, init in _settings(module, defs, passed):
            sets = passed.get(callee, set()) - ({_LOADED} if init else set())
            if not (
                {"*", name, at, _LOADED} & sets
                or (isinstance(node, ast.AnnAssign)
                    and name in passed.get("replace", set()))
            ):
                unset.setdefault(module.path, []).append((node, label))
    return _reached(modules, roots, defs), unset


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
        "R402": "defaulted parameter or dataclass field no call passes",
    }

    def __init__(self) -> None:
        #: root -> (reached names, unset settings, missing root directories).
        self._roots: Dict[Path, Tuple[Set[str], _Unset, List[str]]] = {}

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        path = Path(module.path).resolve()
        root = _project_root(path)
        if root is None:
            return
        if root not in self._roots:
            missing = [n for n in _ROOT_DIRS if not (root / n).is_dir()]
            judged: Tuple[Set[str], _Unset] = (
                (set(), {}) if missing else _judge(root)
            )
            self._roots[root] = (*judged, missing)
            for name in missing:
                yield Finding(
                    "R401", module.rel_path, 1,
                    f"no {name}/ beside src/ in {root}: without its roots "
                    f"reachability cannot be judged",
                )
        reached, unset, missing = self._roots[root]
        if missing:
            return
        found = [("R402", node, label) for node, label in unset.get(str(path), ())]
        for stmt in module.tree.body:
            if isinstance(stmt, _DEF) and stmt.name not in reached:
                found.append(("R401", stmt, stmt.name))
            elif isinstance(stmt, ast.ClassDef):
                found.extend(
                    ("R401", member, f"{stmt.name}.{member.name}")
                    for member in _members(stmt)
                    if member.name not in reached
                )
        for rule, node, name in found:
            finding = module.finding(
                rule, node,
                f"`{name}` {_TELL[rule]}, or keep it with "
                f"`# analysis: allow[{rule}] <reason>`",
            )
            if finding:
                yield finding


class UnusedImportPass(Pass):
    rules = {"R404": "module-level import the module never uses"}

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        """A name is used if a ``Name`` or a string that parses as an
        expression (``__all__``, a string annotation) names it."""
        used: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    used.update(_refs(ast.parse(node.value, mode="eval")))
                except (SyntaxError, ValueError):
                    continue
        for top in module.tree.body:
            for stmt in top.body if isinstance(top, ast.If) else [top]:
                if isinstance(stmt, (ast.Import, ast.ImportFrom)) and (
                    getattr(stmt, "module", "") != "__future__"
                ):
                    names = [a.asname or a.name.split(".")[0] for a in stmt.names]
                    for name in (n for n in names if n not in used and n != "*"):
                        finding = module.finding(
                            "R404", stmt, f"`{name}` is imported and never used"
                        )
                        if finding:
                            yield finding
