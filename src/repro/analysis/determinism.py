"""Determinism pass: sources of run-to-run variation in library code.

The whole execution stack rests on one contract: results are
bit-identical for any worker count, task order, host, and hash seed
(``PYTHONHASHSEED`` is randomized per interpreter!).  These rules flag
the constructs that silently break it:

* **D101** — unseeded randomness: bare ``random.*`` module calls,
  ``np.random.default_rng()`` with no seed, and the legacy global numpy
  RNG (``np.random.rand`` et al.).  Every RNG in this codebase must be
  an explicitly seeded ``Generator`` threaded through parameters.
* **D102** — wall-clock reads (``time.time()``, ``datetime.now()``):
  fine for *instrumentation*, fatal when they leak into results or
  control flow.  ``time.perf_counter()`` is deliberately not flagged —
  it is the designated instrumentation clock (the engine's measured
  ``seconds``), which no result ever reads.
  Genuinely wall-clock-dependent features (``store gc --max-age-days``,
  the telemetry layer's trace stamps) carry an
  ``# analysis: allow[D102]`` pragma on the reading line.
* **D103** — iterating a freshly built ``set``/``frozenset`` (or a set
  literal/comprehension), including via ``list()``/``tuple()``/
  ``enumerate()``: the order is hash-seed-dependent, so anything built
  from it is too.  ``sorted(set(...))`` is the fix and is not flagged.
* **D104** — iterating a value *annotated* as a set (directly or
  through a ``Dict[..., Set[...]]`` lookup) where the loop body builds
  ordered output (appends, yields, subscript stores) or the iteration
  is a list/dict comprehension.  Membership tests over sets stay free.
* **D105** — ``assert`` statements: stripped under ``python -O``, so an
  invariant guarded by one silently stops being checked the day someone
  runs optimized.  Library invariants must raise explicitly.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.analysis.base import (
    AnnotationScope,
    Finding,
    ModuleSource,
    Pass,
    call_name,
    enclosing_function,
    is_set_annotation,
)

#: ``random`` module functions whose bare (module-global) use is unseeded.
RANDOM_GLOBALS = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "gauss", "normalvariate", "betavariate",
        "expovariate", "triangular", "seed", "getrandbits", "randbytes",
    }
)

#: Legacy numpy global-RNG entry points (``np.random.<fn>``).
NUMPY_LEGACY = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "normal",
        "uniform", "poisson", "exponential", "standard_normal", "bytes",
    }
)

_ORDERING_WRAPPERS = frozenset({"list", "tuple", "enumerate"})


def _import_aliases(tree: ast.Module, target: str) -> Set[str]:
    """Local names bound to ``import target`` (e.g. numpy -> {np})."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == target or item.name.startswith(target + "."):
                    aliases.add((item.asname or item.name).split(".")[0])
    return aliases


def _is_set_expr(node: ast.expr) -> bool:
    """A freshly constructed set: literal, comprehension, or set() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        return name in ("set", "frozenset")
    return False


def _body_builds_ordered_output(body: list) -> bool:
    """Whether loop statements append/yield/store into ordered containers."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in (
                    "append", "extend", "insert", "setdefault", "write",
                ):
                    return True
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        return True
    return False


class DeterminismPass(Pass):
    rules = {
        "D101": "unseeded random number generator",
        "D102": "wall-clock read outside the instrumentation allowlist",
        "D103": "iteration over a freshly built set/frozenset",
        "D104": "iteration over a set-annotated value feeding ordered output",
        "D105": "assert statement in library code (stripped under -O)",
    }

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        random_aliases = _import_aliases(module.tree, "random")
        numpy_aliases = _import_aliases(module.tree, "numpy")
        time_aliases = _import_aliases(module.tree, "time")
        datetime_aliases = _import_aliases(module.tree, "datetime")
        scopes: Dict[Optional[ast.AST], AnnotationScope] = {}

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(
                    module, node, random_aliases, numpy_aliases,
                    time_aliases, datetime_aliases,
                )
            elif isinstance(node, ast.Assert):
                finding = module.finding(
                    "D105", node,
                    "assert is stripped under `python -O`; raise an "
                    "explicit exception for library invariants",
                )
                if finding:
                    yield finding
            elif isinstance(node, ast.For):
                yield from self._check_for(module, node, scopes)
            elif isinstance(
                node, (ast.ListComp, ast.DictComp, ast.GeneratorExp, ast.SetComp)
            ):
                yield from self._check_comprehension(module, node, scopes)

    # ------------------------------------------------------------------
    def _check_call(
        self,
        module: ModuleSource,
        node: ast.Call,
        random_aliases: Set[str],
        numpy_aliases: Set[str],
        time_aliases: Set[str],
        datetime_aliases: Set[str],
    ) -> Iterator[Finding]:
        name = call_name(node)
        if name is None:
            return
        parts = name.split(".")
        root = parts[0]

        # D101: bare `random.<fn>(...)` / zero-arg `random.Random()`
        if root in random_aliases and len(parts) == 2:
            if parts[1] in RANDOM_GLOBALS or (
                parts[1] in ("Random", "SystemRandom")
                and not node.args
                and not node.keywords
            ):
                finding = module.finding(
                    "D101", node,
                    f"`{name}()` uses the unseeded global RNG; thread an "
                    f"explicitly seeded generator through instead",
                )
                if finding:
                    yield finding
        # D101: numpy — `np.random.default_rng()` with no seed, or the
        # legacy global RNG (`np.random.rand` et al.)
        if (
            root in numpy_aliases
            and len(parts) == 3
            and parts[1] == "random"
        ):
            if parts[2] == "default_rng":
                if not node.args and not node.keywords:
                    finding = module.finding(
                        "D101", node,
                        f"`{name}()` without a seed draws OS entropy; "
                        f"pass an explicit seed",
                    )
                    if finding:
                        yield finding
            elif parts[2] in NUMPY_LEGACY:
                finding = module.finding(
                    "D101", node,
                    f"`{name}()` uses numpy's legacy global RNG; use a "
                    f"seeded `np.random.default_rng(seed)` generator",
                )
                if finding:
                    yield finding

        # D102: wall clock
        if (
            root in time_aliases and len(parts) == 2 and parts[1] == "time"
        ) or (
            root in datetime_aliases
            and parts[-1] in ("now", "utcnow", "today")
        ):
            finding = module.finding(
                "D102", node,
                f"`{name}()` reads the wall clock; allow intentional "
                f"instrumentation with `# analysis: allow[D102]`",
            )
            if finding:
                yield finding

        # D103 via wrappers: list(set(...)), enumerate(set(...)), ...
        if name in _ORDERING_WRAPPERS and node.args:
            if _is_set_expr(node.args[0]):
                finding = module.finding(
                    "D103", node,
                    f"`{name}()` over a set materializes hash-seed "
                    f"order; wrap in `sorted(...)`",
                )
                if finding:
                    yield finding

    # ------------------------------------------------------------------
    def _scope_for(
        self,
        module: ModuleSource,
        node: ast.AST,
        scopes: Dict[Optional[ast.AST], AnnotationScope],
    ) -> AnnotationScope:
        func = enclosing_function(module, node)
        if func not in scopes:
            scopes[func] = AnnotationScope.of(
                func if func is not None else module.tree
            )
        return scopes[func]

    def _check_for(
        self,
        module: ModuleSource,
        node: ast.For,
        scopes: Dict[Optional[ast.AST], AnnotationScope],
    ) -> Iterator[Finding]:
        if _is_set_expr(node.iter):
            finding = module.finding(
                "D103", node.iter,
                "iterating a freshly built set visits elements in "
                "hash-seed order; iterate `sorted(...)` instead",
            )
            if finding:
                yield finding
            return
        scope = self._scope_for(module, node, scopes)
        if is_set_annotation(scope.annotation_of(node.iter)):
            if _body_builds_ordered_output(node.body):
                finding = module.finding(
                    "D104", node.iter,
                    "loop over a set-annotated value builds ordered "
                    "output; traverse `sorted(...)` or keep an "
                    "insertion-ordered structure",
                )
                if finding:
                    yield finding

    def _check_comprehension(
        self,
        module: ModuleSource,
        node: ast.expr,
        scopes: Dict[Optional[ast.AST], AnnotationScope],
    ) -> Iterator[Finding]:
        # Set comprehensions and bare generators produce unordered (or
        # consumer-judged) values; only list/dict outputs bake the
        # iteration order into the result.
        if not isinstance(node, (ast.ListComp, ast.DictComp)):
            return
        for generator in node.generators:  # type: ignore[attr-defined]
            if _is_set_expr(generator.iter):
                finding = module.finding(
                    "D103", generator.iter,
                    "comprehension over a freshly built set visits "
                    "elements in hash-seed order; iterate "
                    "`sorted(...)` instead",
                )
                if finding:
                    yield finding
            else:
                scope = self._scope_for(module, node, scopes)
                if is_set_annotation(scope.annotation_of(generator.iter)):
                    finding = module.finding(
                        "D104", generator.iter,
                        "ordered comprehension over a set-annotated "
                        "value; iterate `sorted(...)` instead",
                    )
                    if finding:
                        yield finding
