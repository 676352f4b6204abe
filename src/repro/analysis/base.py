"""Shared analyzer plumbing: findings, severities, AST pass protocol.

Every pass (:mod:`repro.analysis.determinism`,
:mod:`repro.analysis.spawnsafe`, :mod:`repro.analysis.schema`) consumes
parsed :class:`ModuleSource` objects and yields :class:`Finding` records;
the CLI (:mod:`repro.analysis.__main__`) renders them and gates on
severity.  The plumbing here keeps the passes small:

* :class:`ModuleSource` parses a file once and lazily builds a
  child-to-parent node map, so passes can ask "is this ``set(...)`` call
  wrapped in ``sorted(...)``" without re-walking the tree.
* **Suppression pragmas**: a line whose source contains
  ``# analysis: allow`` (any rule) or ``# analysis: allow[D102]``
  (one rule) never produces a finding.  This is the allowlist mechanism
  for *intentional* nondeterminism — e.g. the wall-clock read that
  ``store gc --max-age-days`` fundamentally needs.  A module whose first
  non-code lines (before any statement past the docstring) contain
  ``# analysis: allow-module[D102]`` suppresses the listed rules for the
  whole file — for modules like :mod:`repro.telemetry` whose
  entire purpose is the sanctioned exception, declared once at the top
  instead of per line.  ``allow-module`` always names rules explicitly;
  there is deliberately no blanket whole-file opt-out.
* :func:`fingerprint` gives findings a line-number-free identity, so a
  committed baseline survives unrelated edits above a legacy finding.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence


class Severity(enum.IntEnum):
    """Finding severity; the CLI gates its exit code on a threshold."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r}; choose from "
                f"{', '.join(s.name.lower() for s in cls)}"
            ) from None


@dataclass(frozen=True)
class Finding:
    """One analyzer diagnostic, anchored to a source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    message: str
    #: The stripped source line the finding anchors to; part of the
    #: baseline fingerprint so renumbering edits do not churn baselines.
    context: str = ""

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.severity.name.lower()} "
            f"[{self.rule}] {self.message}"
        )

    def to_jsonable(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.name.lower(),
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "context": self.context,
        }


def fingerprint(finding: Finding) -> str:
    """Line-number-free identity used by the baseline file."""
    return f"{finding.rule}|{finding.path}|{finding.context}"


_PRAGMA = re.compile(
    r"#\s*analysis:\s*allow(?!-module)(?:\[([A-Za-z0-9_,\s]+)\])?"
)
_MODULE_PRAGMA = re.compile(
    r"#\s*analysis:\s*allow-module\[([A-Za-z0-9_,\s]+)\]"
)


class ModuleSource:
    """One parsed source file plus the lazy indexes passes share."""

    def __init__(self, path: str, text: str, rel_path: Optional[str] = None):
        self.path = path
        #: Path rendered in findings (relative to the analysis root).
        self.rel_path = rel_path or path
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        #: Rules a header ``# analysis: allow-module[...]`` pragma
        #: suppresses for the entire file.
        self.module_allowed = self._scan_module_pragma()

    def _scan_module_pragma(self) -> frozenset:
        """Rules named by ``allow-module`` pragmas in the module header.

        Only the header counts — lines before the first statement after
        the module docstring — so a stray pragma deep in a file cannot
        silently blanket it.
        """
        body = self.tree.body
        start = 0
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            start = 1
        if len(body) > start:
            limit = body[start].lineno - 1
        else:
            limit = len(self.lines)
        rules = set()
        for line in self.lines[:limit]:
            match = _MODULE_PRAGMA.search(line)
            if match is not None:
                rules.update(r.strip() for r in match.group(1).split(","))
        return frozenset(r for r in rules if r)

    # ------------------------------------------------------------------
    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child-to-parent map over the whole tree (built on first use)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    # ------------------------------------------------------------------
    def allowed(self, lineno: int, rule: str) -> bool:
        """Whether a suppression pragma covers ``rule`` on this line."""
        if rule in self.module_allowed:
            return True
        if not 1 <= lineno <= len(self.lines):
            return False
        match = _PRAGMA.search(self.lines[lineno - 1])
        if match is None:
            return False
        rules = match.group(1)
        if rules is None:
            return True
        return rule in {r.strip() for r in rules.split(",")}

    def finding(
        self,
        rule: str,
        severity: Severity,
        node: ast.AST,
        message: str,
    ) -> Optional[Finding]:
        """Build a finding for ``node`` unless a pragma suppresses it."""
        lineno = getattr(node, "lineno", 1)
        if self.allowed(lineno, rule):
            return None
        return Finding(
            rule=rule,
            severity=severity,
            path=self.rel_path,
            line=lineno,
            message=message,
            context=self.line_text(lineno),
        )


class Pass:
    """One analyzer pass: a named bundle of related rules.

    ``check_module`` runs per file; ``check_tree`` runs once over the
    whole file set (for cross-module rules like schema drift and the
    scheme-registry round-trip, which cannot be judged one file at a
    time).  Either hook may be a no-op.
    """

    name: str = "pass"
    #: rule id -> one-line description, for ``--list-rules``.
    rules: Dict[str, str] = {}

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        return iter(())

    def check_tree(
        self, modules: Sequence[ModuleSource]
    ) -> Iterator[Finding]:
        return iter(())


# ----------------------------------------------------------------------
# Small AST helpers the passes share
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """The dotted name a call targets, if statically nameable."""
    return dotted_name(node.func)


def string_keys(node: ast.Dict) -> List[str]:
    """The constant string keys of a dict literal."""
    keys: List[str] = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append(key.value)
    return keys


@dataclass
class AnnotationScope:
    """Variable annotations visible inside one function (or module).

    Tracks ``name -> annotation AST`` from parameter annotations and
    ``AnnAssign`` statements, which is exactly enough to answer "does
    this loop iterate a value annotated as a set" — including through
    one level of ``Dict[..., Set[...]]`` subscripting.
    """

    annotations: Dict[str, ast.expr] = field(default_factory=dict)

    @classmethod
    def of(cls, func: ast.AST) -> "AnnotationScope":
        scope = cls()
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = func.args
            for arg in [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            ]:
                if arg.annotation is not None:
                    scope.annotations[arg.arg] = arg.annotation
            body: Sequence[ast.stmt] = func.body
        else:
            body = getattr(func, "body", [])
        for stmt in ast.walk(ast.Module(body=list(body), type_ignores=[])):
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                scope.annotations[stmt.target.id] = stmt.annotation
        return scope

    # ------------------------------------------------------------------
    def annotation_of(self, node: ast.expr) -> Optional[ast.expr]:
        """The annotation of an expression, resolved structurally.

        ``Name`` resolves directly; ``mapping[key]`` resolves to the
        value type of a ``Dict``/``Mapping`` annotation on ``mapping``.
        """
        if isinstance(node, ast.Name):
            return self.annotations.get(node.id)
        if isinstance(node, ast.Subscript) and isinstance(
            node.value, ast.Name
        ):
            container = self.annotations.get(node.value.id)
            if container is None:
                return None
            base = dotted_name(
                container.value
                if isinstance(container, ast.Subscript)
                else container
            )
            if base is None:
                return None
            if base.split(".")[-1] not in (
                "Dict", "dict", "Mapping", "MutableMapping", "DefaultDict",
                "defaultdict", "OrderedDict",
            ):
                return None
            if not isinstance(container, ast.Subscript):
                return None
            args = container.slice
            if isinstance(args, ast.Tuple) and len(args.elts) == 2:
                return args.elts[1]
        return None


SET_ANNOTATION_NAMES = frozenset(
    {"Set", "FrozenSet", "AbstractSet", "MutableSet", "set", "frozenset"}
)


def is_set_annotation(annotation: Optional[ast.expr]) -> bool:
    """Whether an annotation AST denotes a set type."""
    if annotation is None:
        return False
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    name = dotted_name(annotation)
    if name is None:
        return False
    return name.split(".")[-1] in SET_ANNOTATION_NAMES


def enclosing_function(
    module: ModuleSource, node: ast.AST
) -> Optional[ast.AST]:
    """The nearest enclosing function def, or ``None`` at module level."""
    current = module.parent(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = module.parent(current)
    return None
