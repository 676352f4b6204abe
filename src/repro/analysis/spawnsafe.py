"""Spawn-safety pass: what must pickle across a process/host boundary.

The engine prefers ``fork`` pools but falls back to ``spawn`` (and
dispatch always crosses a *host* boundary), so every factory that
reaches a pool-executed call site must survive pickling under the spawn
start method — which lambdas, closures over locals, and functions
defined inside other functions never do.  Registry
:class:`~repro.experiments.spec.SchemeSpec` objects are the sanctioned
vehicle; these rules catch the constructs that silently reintroduce
fork-only (or single-host-only) behavior:

* **S201** — a ``lambda`` passed directly into a pool boundary call
  (``run_plan``/``stream_plan``/``execute_plan``/executor
  ``submit``/``map`` — or ``plan.add(...)``, the stream registration
  every engine pass consumes).
* **S202** — a locally-defined function (a ``def`` nested inside
  another function) passed by name into the same boundary calls.
* **S203** — a registered scheme spec that does not survive the JSON +
  pickle round trip.  This is an *import-time* registry check, not an
  AST rule: for every name in the scheme registry it builds
  ``SchemeSpec(name)``, round-trips it through ``to_jsonable`` /
  ``from_jsonable`` / ``json.dumps`` / ``pickle``, and flags any
  disagreement — exactly what a shard manifest or spawn pool would hit
  at dispatch time.

Closures remain *supported* by the engine (fork-only, documented); the
pass is severity-error anyway because nothing in this codebase needs
them at a pool boundary anymore — an allowlisted pragma
(``# analysis: allow[S201]``) marks the deliberate exceptions.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Set

from repro.analysis.base import (
    Finding,
    ModuleSource,
    Pass,
    Severity,
)

#: Call names whose arguments end up on a process pool.  Plain names
#: match both ``run_plan(...)`` and ``engine.run_plan(...)``.
BOUNDARY_NAMES = frozenset(
    {
        "run_plan", "stream_plan", "execute_plan",
        "submit", "map_async", "apply_async", "imap", "imap_unordered",
    }
)

#: Receiver names whose ``.add`` registers a plan stream (the factory
#: argument later crosses the pool boundary).
PLAN_RECEIVERS = frozenset({"plan", "eval_plan"})


def _boundary_call(node: ast.Call) -> str:
    """The boundary a call reaches, or '' if it is not one."""
    func = node.func
    if isinstance(func, ast.Name) and func.id in BOUNDARY_NAMES:
        return func.id
    if isinstance(func, ast.Attribute):
        if func.attr in BOUNDARY_NAMES:
            return func.attr
        if (
            func.attr == "add"
            and isinstance(func.value, ast.Name)
            and func.value.id in PLAN_RECEIVERS
        ):
            return f"{func.value.id}.add"
    return ""


class SpawnSafetyPass(Pass):
    name = "spawn-safety"
    rules = {
        "S201": "lambda passed into a pool-executed call site",
        "S202": "locally-defined function passed into a pool-executed "
                "call site",
        "S203": "registered scheme spec fails the JSON/pickle round trip",
    }

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        # Map of function node -> names of defs nested directly inside it
        # (those can never pickle under spawn).
        local_defs: Set[str] = set()
        for outer in ast.walk(module.tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt in ast.walk(outer):
                if stmt is outer:
                    continue
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    local_defs.add(stmt.name)

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            boundary = _boundary_call(node)
            if not boundary:
                continue
            arguments: List[ast.expr] = list(node.args) + [
                kw.value for kw in node.keywords
            ]
            for argument in arguments:
                if isinstance(argument, ast.Lambda):
                    finding = module.finding(
                        "S201", Severity.ERROR, argument,
                        f"lambda passed to `{boundary}(...)` cannot "
                        f"pickle under the spawn start method; use a "
                        f"registered SchemeSpec",
                    )
                    if finding:
                        yield finding
                elif (
                    isinstance(argument, ast.Name)
                    and argument.id in local_defs
                ):
                    finding = module.finding(
                        "S202", Severity.ERROR, argument,
                        f"locally-defined function "
                        f"`{argument.id}` passed to `{boundary}(...)` "
                        f"cannot pickle under the spawn start method; "
                        f"define it at module level or use a "
                        f"registered SchemeSpec",
                    )
                    if finding:
                        yield finding

    # ------------------------------------------------------------------
    def check_tree(
        self, modules: Sequence[ModuleSource]
    ) -> Iterator[Finding]:
        """S203: every registered spec must round-trip (import-time check).

        Runs only when the analyzed tree contains the spec registry
        module itself, so analyzing fixture snippets or foreign trees
        never drags ``repro.experiments`` imports in.
        """
        spec_module = next(
            (
                m for m in modules
                if m.path.replace("\\", "/").endswith(
                    "repro/experiments/spec.py"
                )
            ),
            None,
        )
        if spec_module is None:
            return
        try:
            import repro.experiments.spec as spec_registry
            from repro.experiments.spec import (
                SchemeSpec,
                registered_schemes,
            )
        except Exception as exc:  # pragma: no cover - import environment
            yield Finding(
                rule="S203",
                severity=Severity.ERROR,
                path=spec_module.rel_path,
                line=1,
                message=f"cannot import the scheme registry: {exc}",
                context="registry-import",
            )
            return
        import inspect
        import json
        import pickle

        json_native = (type(None), bool, int, float, str)
        for name in registered_schemes():
            problem = ""
            params = {}
            try:
                # Every builder parameter (beyond the workload item) must
                # default to a JSON-native value: a default a manifest
                # cannot express means dispatch and spawn pools resolve
                # the scheme differently than an in-process run would.
                builder = spec_registry._REGISTRY[name]
                signature = inspect.signature(builder)
                for parameter in list(signature.parameters.values())[1:]:
                    default = parameter.default
                    if default is inspect.Parameter.empty:
                        continue
                    if not isinstance(default, json_native):
                        problem = (
                            f"builder parameter {parameter.name!r} "
                            f"defaults to non-JSON-native "
                            f"{type(default).__name__}"
                        )
                        break
                    params[parameter.name] = default
            except Exception as exc:
                problem = (
                    f"builder signature inspection raises "
                    f"{type(exc).__name__}: {exc}"
                )
            if not problem:
                spec = SchemeSpec(name, params)
                try:
                    wire = json.loads(json.dumps(spec.to_jsonable()))
                    if SchemeSpec.from_jsonable(wire) != spec:
                        problem = "JSON round trip changes the spec"
                    elif pickle.loads(pickle.dumps(spec)) != spec:
                        problem = "pickle round trip changes the spec"
                except Exception as exc:
                    problem = (
                        f"round trip raises {type(exc).__name__}: {exc}"
                    )
            if problem:
                yield Finding(
                    rule="S203",
                    severity=Severity.ERROR,
                    path=spec_module.rel_path,
                    line=1,
                    message=f"registered scheme {name!r}: {problem}",
                    context=f"registry:{name}",
                )
