"""Schema-drift pass: record contracts three modules must agree on.

The store, the dispatch layer, and the CLI exchange plain dicts — store
records, shard manifests, worker summaries, argparse namespaces.  Each
side spells field names as string literals, so nothing but convention
stops a writer renaming ``seconds`` while a reader still asks for it:
the reader would silently fall back to a default (``.get``) or crash at
the worst possible time (mid-dispatch, ``KeyError``).  These rules
cross-check the two sides statically:

* **C301** — a reader subscripts (or ``.get``\\ s) a record key its
  writer family never writes.  Families are located structurally, not by
  hard-coded paths: any module defining ``_result_to_record`` anchors
  the *store-record* family (its dict-literal keys are the write set;
  variables named ``record``/``header`` are its readers), and any module
  defining ``build_plan_manifest`` anchors the *manifest* family
  (readers: ``manifest``/``entry``/``task``/``stream``/``summary``).
* **C302** — a manifest writer emits a ``version`` constant the
  ``load_manifest`` validator does not accept: a freshly written
  manifest would be rejected by the very code that wrote it.
* **C303** — CLI drift: an ``args.<name>`` read in a module that builds
  an ``argparse`` parser, where ``<name>`` is neither an
  ``add_argument`` dest nor assigned onto the namespace — the handler
  would crash with ``AttributeError`` on the first run that reaches it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import (
    Finding,
    ModuleSource,
    Pass,
    Severity,
    string_keys,
)

#: Variable names treated as readers of each record family.
STORE_READER_NAMES = frozenset({"record", "header"})
MANIFEST_READER_NAMES = frozenset(
    {"manifest", "entry", "task", "stream", "summary"}
)


def _module_defines(module: ModuleSource, names: Set[str]) -> bool:
    return any(
        isinstance(node, ast.FunctionDef) and node.name in names
        for node in ast.walk(module.tree)
    )


def _dict_literal_keys(module: ModuleSource) -> Set[str]:
    """Every constant string key of every dict literal in the module."""
    keys: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Dict):
            keys.update(string_keys(node))
    return keys


def _constant_reads(
    module: ModuleSource, names: frozenset
) -> List[Tuple[str, ast.AST]]:
    """(key, node) for ``var["key"]`` / ``var.get("key", ...)`` reads."""
    reads: List[Tuple[str, ast.AST]] = []
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in names
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
            and isinstance(node.ctx, ast.Load)
        ):
            reads.append((node.slice.value, node))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in names
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            reads.append((node.args[0].value, node))
    return reads


def _subscript_writes(module: ModuleSource, names: frozenset) -> Set[str]:
    """Keys written via ``var["key"] = ...`` / ``var.setdefault("key", ...)``.

    Dict literals are not the only way a writer populates a record — a
    field can be added afterwards by subscript assignment — so the write
    set must include stored subscripts too.
    """
    written: Set[str] = set()
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in names
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
            and isinstance(node.ctx, (ast.Store, ast.Del))
        ):
            written.add(node.slice.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setdefault"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in names
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            written.add(node.args[0].value)
    return written


def _version_names(node: ast.expr) -> Set[str]:
    """Constant-name identifiers inside an expression (Name or tuple)."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
    return names


class SchemaDriftPass(Pass):
    name = "schema-drift"
    rules = {
        "C301": "reader consumes a record field its writer never writes",
        "C302": "manifest writer emits a version its validator rejects",
        "C303": "args.<dest> read without a matching add_argument dest",
    }

    def check_tree(
        self, modules: Sequence[ModuleSource]
    ) -> Iterator[Finding]:
        store_writers = [
            m for m in modules
            if _module_defines(m, {"_result_to_record"})
        ]
        manifest_writers = [
            m for m in modules
            if _module_defines(m, {"build_plan_manifest"})
        ]
        yield from self._check_family(
            modules,
            writers=store_writers,
            reader_names=STORE_READER_NAMES,
            family="store record",
        )
        yield from self._check_family(
            modules,
            writers=manifest_writers,
            reader_names=MANIFEST_READER_NAMES,
            family="manifest",
        )
        for writer in manifest_writers:
            yield from self._check_versions(writer)
        for module in modules:
            yield from self._check_argparse(module)

    # ------------------------------------------------------------------
    def _check_family(
        self,
        modules: Sequence[ModuleSource],
        writers: Sequence[ModuleSource],
        reader_names: frozenset,
        family: str,
    ) -> Iterator[Finding]:
        if not writers:
            return
        written: Set[str] = set()
        for writer in writers:
            written |= _dict_literal_keys(writer)
            written |= _subscript_writes(writer, reader_names)
        # Reader scope: the writer modules plus anything that imports
        # one of them (structural, so fixture trees work unchanged).
        writer_mods = {
            writer.rel_path.replace("\\", "/")
            .rsplit("/", 1)[-1]
            .removesuffix(".py")
            for writer in writers
        }
        for module in modules:
            if module not in writers and not self._imports_any(
                module, writer_mods
            ):
                continue
            for key, node in _constant_reads(module, reader_names):
                if key in written:
                    continue
                finding = module.finding(
                    "C301", Severity.ERROR, node,
                    f"{family} reader consumes field {key!r}, which no "
                    f"writer in "
                    f"{', '.join(sorted(w.rel_path for w in writers))} "
                    f"ever writes",
                )
                if finding:
                    yield finding

    @staticmethod
    def _imports_any(module: ModuleSource, module_names: Set[str]) -> bool:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[-1] in module_names:
                    return True
                if any(n.name in module_names for n in node.names):
                    return True
            elif isinstance(node, ast.Import):
                if any(
                    item.name.split(".")[-1] in module_names
                    for item in node.names
                ):
                    return True
        return False

    # ------------------------------------------------------------------
    def _check_versions(self, module: ModuleSource) -> Iterator[Finding]:
        accepted: Optional[Set[str]] = None
        for node in ast.walk(module.tree):
            if isinstance(node, ast.FunctionDef) and node.name == "load_manifest":
                for compare in ast.walk(node):
                    if not isinstance(compare, ast.Compare):
                        continue
                    left = compare.left
                    is_version_read = (
                        isinstance(left, ast.Call)
                        and isinstance(left.func, ast.Attribute)
                        and left.func.attr == "get"
                        and left.args
                        and isinstance(left.args[0], ast.Constant)
                        and left.args[0].value == "version"
                    ) or (
                        isinstance(left, ast.Subscript)
                        and isinstance(left.slice, ast.Constant)
                        and left.slice.value == "version"
                    )
                    if is_version_read and compare.comparators:
                        accepted = _version_names(compare.comparators[0])
        if accepted is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Dict):
                continue
            for key, value in zip(node.keys, node.values):
                if not (
                    isinstance(key, ast.Constant) and key.value == "version"
                ):
                    continue
                names = _version_names(value)
                if names and not names & accepted:
                    finding = module.finding(
                        "C302", Severity.ERROR, value,
                        f"manifest written with version "
                        f"{'/'.join(sorted(names))}, but load_manifest "
                        f"accepts only {'/'.join(sorted(accepted))}",
                    )
                    if finding:
                        yield finding

    # ------------------------------------------------------------------
    def _check_argparse(self, module: ModuleSource) -> Iterator[Finding]:
        dests: Set[str] = set()
        has_parser = False
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
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
                "C303", Severity.ERROR, used[name],
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
