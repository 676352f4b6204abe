"""Shared analyzer plumbing: findings and the AST pass protocol.

Every pass (:mod:`repro.analysis.determinism`,
:mod:`repro.analysis.schema`, :mod:`repro.analysis.reach`) consumes
parsed :class:`ModuleSource` objects and yields :class:`Finding`
records; the CLI (:mod:`repro.analysis.__main__`) renders them and
fails on any.  The plumbing here keeps the passes small:

* :class:`ModuleSource` parses a file once and lazily builds a
  child-to-parent node map, so passes can ask "is this ``set(...)`` call
  wrapped in ``sorted(...)``" without re-walking the tree.
* **Suppression pragmas**: a line whose source contains
  ``# analysis: allow[D102]`` never produces a finding for the rules
  named in the brackets.  This is the allowlist mechanism for
  *intentional* nondeterminism — e.g. the wall-clock read that
  ``store gc --max-age-days`` fundamentally needs.  A pragma always
  names its rules; there is deliberately no blanket opt-out.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence


@dataclass(frozen=True)
class Finding:
    """One analyzer diagnostic, anchored to a source location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


_PRAGMA = re.compile(r"#\s*analysis:\s*allow\[([A-Za-z0-9_,\s]+)\]")


class ModuleSource:
    """One parsed source file plus the lazy indexes passes share."""

    def __init__(self, path: str, text: str, rel_path: Optional[str] = None):
        self.path = path
        #: Path rendered in findings (relative to the analysis root).
        self.rel_path = rel_path or path
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

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

    # ------------------------------------------------------------------
    def allowed(self, lineno: int, rule: str) -> bool:
        """Whether a suppression pragma covers ``rule`` on this line."""
        if not 1 <= lineno <= len(self.lines):
            return False
        match = _PRAGMA.search(self.lines[lineno - 1])
        if match is None:
            return False
        return rule in {r.strip() for r in match.group(1).split(",")}

    def finding(
        self, rule: str, node: ast.AST, message: str
    ) -> Optional[Finding]:
        """Build a finding for ``node`` unless a pragma suppresses it."""
        lineno = getattr(node, "lineno", 1)
        if self.allowed(lineno, rule):
            return None
        return Finding(
            rule=rule, path=self.rel_path, line=lineno, message=message
        )


class Pass:
    """One analyzer pass: a named bundle of related rules, run per file."""

    #: rule id -> one-line description, for ``--list-rules``.
    rules: Dict[str, str] = {}

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
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
