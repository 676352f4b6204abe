"""Run telemetry: span tracing and metrics across the execution spine.

The stack runs work it could not previously *see*: the result store
keeps one coarse per-network number (the engine's ``seconds``) and
nothing else answers "where did this run spend its time — LP solves,
Yen's KSP, store appends, or pool idle?".  This module is that
monitoring plane: a span-based tracer plus event counters threaded
through every layer (plan build → per-task evaluation with KSP/LP
sub-spans → store appends → manifest writes → dispatch workers),
recording *where* time goes without ever touching *what* is computed.

Design constraints, in the order they shaped the module:

* **Off by default, free when off.**  The global recorder defaults to a
  no-op whose ``span()`` returns one shared singleton context manager —
  an instrumented call site costs two method calls and zero allocations
  when tracing is disabled, so instrumentation can live on hot paths
  (``KspCache.get``, ``LpModel.solve``) permanently.
* **Results are untouchable.**  Telemetry only ever *observes*: spans
  wrap existing work, nothing reads a span to decide anything, and the
  figures a traced run renders are byte-identical to an untraced run's
  (CI asserts this).  Wall-clock reads live here and only here, declared
  once via the analyzer's module-scoped D102 allowlist below.
* **Same durability discipline as the result store**
  (:mod:`repro.durable`).  Spans append to per-process JSONL shard files
  under ``<trace_dir>/<trace_id>/``; one flushed line per record at
  top-level span boundaries, so a crash tears at most a trailing line
  and readers skip the torn tail.  Forked pool
  workers and dispatch worker subprocesses each write their own shard
  (a process-identity check reopens the writer after ``fork``), and
  :func:`load_trace` merges shards by trace id.
* **Traces are keyed by workload.**  A run's trace id derives from its
  plan's (scheme, workload signature) pairs
  (:func:`trace_id_for_streams`), so a dispatch coordinator and its
  worker subprocesses converge on the same trace id without coordination
  — their shards land in one trace directory and merge for free —
  and re-runs of the same workload append new shards (distinguished by
  the per-process ``run`` token) to the same trace.
* **One attribution table.**  Every reader — ``trace summary``,
  ``trace critical-path``, ``store ls --timings --trace-dir`` — folds
  the table :func:`attribute` builds in one walk over a trace's spans.
  ``task`` spans carry their stream's scheme and workload signature,
  which is how a stored stream's seconds split into phases.

Span vocabulary (what :func:`summary` / ``trace critical-path`` report):

========================= =============================================
``run_plan``              one whole plan execution (engine)
``task``                  one (stream, network) evaluation; attrs carry
                          index / network_id / scheme / network and
                          workload signatures
``scheme_build``          scheme construction inside a task
``place``                 one traffic matrix placement inside a task
``ksp``                   Yen's k-shortest-paths materialization
``lp_assemble``           LP model assembly / compilation to solver
                          form; path LPs' attrs carry ``n_paths`` /
                          ``n_links``, the solver form's the model size
``lp_solve``              one LP solve (SciPy's HiGHS binding); attrs
                          carry the model size
``cache_load``/``_dump``  persistent KSP cache file I/O
``store_append``          one result-store record append
``manifest_write``        shard manifest serialization (dispatch)
``merge``                 one worker store merged back (dispatch)
``worker``                one dispatch worker subprocess run
========================= =============================================

Child processes enable tracing automatically through the environment
(``REPRO_TRACE_DIR`` / ``REPRO_TRACE_ID``): :func:`configure` exports
the directory and :meth:`TraceRecorder.begin_trace` the id, dispatch
worker subprocesses inherit them, and the first :func:`recorder` call in
the child initializes from them.
"""

from __future__ import annotations

import io
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    ContextManager,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.durable import json_line, scan_jsonl

#: Environment variables child processes inherit tracing through.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"
TRACE_ID_ENV = "REPRO_TRACE_ID"

#: Trace id used before any plan declares a workload-derived one.
ADHOC_TRACE = "adhoc"


# ----------------------------------------------------------------------
# Recorder: the write side
# ----------------------------------------------------------------------
class _NoopSpan:
    """The do-nothing span; one shared instance, no per-call state."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class Recorder:
    """The no-op recorder every call site talks to by default.

    Subclasses (one: :class:`TraceRecorder`) override everything; call
    sites check :attr:`enabled` only when building span attributes
    would itself cost something.  ``span`` returns a reusable singleton
    context manager, so the disabled path allocates nothing.
    """

    enabled: bool = False
    trace: Optional[str] = None
    trace_dir: Optional[str] = None

    def span(
        self, name: str, attrs: Optional[dict] = None
    ) -> ContextManager[object]:
        return _NOOP_SPAN

    def counter(self, name: str, n: int = 1) -> None:
        pass

    def begin_trace(self, trace_id: str) -> None:
        pass

    def flush(self) -> None:
        pass


#: The process-wide no-op instance (also what :func:`disable` restores).
NOOP = Recorder()


class _Span:
    """One live span: a context manager that emits itself on exit."""

    __slots__ = ("_recorder", "name", "attrs", "span_id", "parent", "t0")

    def __init__(
        self, recorder: "TraceRecorder", name: str, attrs: Optional[dict]
    ) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self._recorder._enter_span(self)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._recorder._exit_span(self)
        return False


class TraceRecorder(Recorder):
    """Active recorder: spans and counters to per-process JSONL shards.

    One instance serves a whole process tree: forked children inherit it
    and transparently re-open their own shard file on first use (the
    process-identity check in :meth:`_local`), so two processes never
    interleave writes within one file.  Writes are line-buffered and
    flushed whenever the span stack empties — a crash loses at most the
    records of the task in flight, which readers tolerate exactly like
    the result store tolerates a torn tail.
    """

    enabled = True

    def __init__(
        self,
        trace_dir: "os.PathLike[str] | str",
        trace: Optional[str] = None,
        export_env: bool = True,
    ) -> None:
        self.trace_dir = os.fspath(trace_dir)
        self.trace = trace
        self._lock = threading.Lock()
        self._pid: Optional[int] = None
        self._run: str = ""
        self._handle: Optional[io.TextIOBase] = None
        self._seq = itertools.count()
        #: Counters per trace id this process recorded under.
        self._counters: Dict[str, Dict[str, float]] = {}
        self._dirty = False
        self._stacks = threading.local()
        if export_env:
            os.environ[TRACE_DIR_ENV] = self.trace_dir
            if trace is not None:
                os.environ[TRACE_ID_ENV] = trace

    # ------------------------------------------------------------------
    def _local(self) -> int:
        """Per-process state guard: reset inherited state after fork.

        A forked pool worker inherits the parent's recorder object —
        including its open file handle, cumulative counters and span
        sequence.  Writing through any of them would interleave two
        processes into one shard (and double-count every metric), so the
        first operation in a new pid drops the handle, zeroes the
        metrics and starts a fresh span sequence; the next emit then
        opens this process's own shard file.
        """
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._handle = None
            self._seq = itertools.count()
            self._counters = {}
            self._dirty = False
            # Wall-clock stamps annotate traces for humans and order
            # nothing; results never read them.
            self._run = f"{int(time.time() * 1e6):x}-{pid:x}"  # analysis: allow[D102]
            self._stacks = threading.local()
        return pid

    def _trace_counters(self) -> Dict[str, float]:
        """The current trace's counters, created on first use."""
        return self._counters.setdefault(self.trace or ADHOC_TRACE, {})

    def _stack(self) -> List[str]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def _ensure_handle(self) -> io.TextIOBase:
        if self._handle is None:
            directory = Path(self.trace_dir) / (self.trace or ADHOC_TRACE)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"spans-{self._run}.jsonl"
            self._handle = open(path, "a", encoding="utf-8")
            self._write(
                {
                    "kind": "trace",
                    "trace": self.trace or ADHOC_TRACE,
                    "run": self._run,
                    "pid": self._pid,
                    "wall": time.time(),  # analysis: allow[D102] — read by humans only
                }
            )
        return self._handle

    def _write(self, record: dict) -> None:
        handle = self._handle
        if handle is None:  # pragma: no cover - guarded by callers
            return
        handle.write(json_line(record))

    # ------------------------------------------------------------------
    def span(self, name: str, attrs: Optional[dict] = None) -> _Span:
        return _Span(self, name, attrs)

    def _enter_span(self, span: _Span) -> None:
        with self._lock:
            self._local()
            span.span_id = f"{self._pid:x}:{next(self._seq)}"
            stack = self._stack()
            span.parent = stack[-1] if stack else None
            stack.append(span.span_id)
        span.t0 = time.perf_counter()

    def _exit_span(self, span: _Span) -> None:
        t1 = time.perf_counter()
        with self._lock:
            self._local()
            stack = self._stack()
            if stack and stack[-1] == span.span_id:
                stack.pop()
            self._ensure_handle()
            record = {
                "kind": "span",
                "trace": self.trace or ADHOC_TRACE,
                "run": self._run,
                "pid": self._pid,
                "id": span.span_id,
                "parent": span.parent,
                "name": span.name,
                "t0": span.t0,
                "t1": t1,
            }
            if span.attrs:
                record["attrs"] = span.attrs
            self._write(record)
            if not stack:
                self._flush_locked()

    def counter(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._local()
            counters = self._trace_counters()
            counters[name] = counters.get(name, 0) + n
            self._dirty = True

    def begin_trace(self, trace_id: str) -> None:
        """Adopt a trace id; subsequent records land under it.

        The first plan of a run names the trace (workload-derived); a
        recorder already writing under the same id keeps its shard.  A
        *different* id flushes and rolls to a new shard file, so one
        process tracing two workloads writes two cleanly-split shards.
        Counters are kept per trace id as well: a trace's metrics records
        count only the work done under it, and returning to an earlier
        trace continues that trace's totals.
        """
        with self._lock:
            self._local()
            if trace_id == self.trace:
                return
            self._flush_locked()
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self.trace = trace_id
            if os.environ.get(TRACE_DIR_ENV) == self.trace_dir:
                os.environ[TRACE_ID_ENV] = trace_id

    def flush(self) -> None:
        with self._lock:
            self._local()
            self._flush_locked()

    def _flush_locked(self) -> None:
        if self._dirty:
            counters = self._trace_counters()
            self._ensure_handle()
            self._write(
                {
                    "kind": "metrics",
                    "trace": self.trace or ADHOC_TRACE,
                    "run": self._run,
                    "pid": self._pid,
                    "counters": dict(counters),
                }
            )
            self._dirty = False
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            self._local()
            self._flush_locked()
            if self._handle is not None:
                self._handle.close()
                self._handle = None


# ----------------------------------------------------------------------
# Global recorder management
# ----------------------------------------------------------------------
_RECORDER: Optional[Recorder] = None
_RECORDER_LOCK = threading.Lock()


def recorder() -> Recorder:
    """The process-wide recorder (no-op unless tracing is configured).

    First call initializes from the environment, which is how dispatch
    worker subprocesses — fresh interpreters that inherit
    ``REPRO_TRACE_DIR``/``REPRO_TRACE_ID`` but no Python state — join
    the parent's trace without any explicit plumbing.
    """
    global _RECORDER
    if _RECORDER is None:
        with _RECORDER_LOCK:
            if _RECORDER is None:
                trace_dir = os.environ.get(TRACE_DIR_ENV)
                if trace_dir:
                    _RECORDER = TraceRecorder(
                        trace_dir,
                        trace=os.environ.get(TRACE_ID_ENV) or None,
                        export_env=False,
                    )
                else:
                    _RECORDER = NOOP
    return _RECORDER


def configure(trace_dir: "os.PathLike[str] | str") -> Recorder:
    """Enable tracing into ``trace_dir`` (exported to child processes).

    The trace id comes later, from the first plan the engine runs
    (:func:`plan_trace_id`); records before it land under
    :data:`ADHOC_TRACE`.
    """
    global _RECORDER
    with _RECORDER_LOCK:
        current = _RECORDER
        if isinstance(current, TraceRecorder):
            current.close()
        _RECORDER = TraceRecorder(trace_dir)
    return _RECORDER


def disable() -> None:
    """Flush and turn tracing off (and stop exporting it to children)."""
    global _RECORDER
    with _RECORDER_LOCK:
        current = _RECORDER
        if isinstance(current, TraceRecorder):
            current.close()
        _RECORDER = NOOP
        os.environ.pop(TRACE_DIR_ENV, None)
        os.environ.pop(TRACE_ID_ENV, None)


# ----------------------------------------------------------------------
# Trace identity
# ----------------------------------------------------------------------
def trace_id_for_streams(pairs: Iterable[Tuple[str, str]]) -> str:
    """Deterministic trace id from (scheme, workload signature) pairs.

    Sorted before hashing, so a dispatch coordinator (which sees the
    whole plan) and each of its workers (which see a shard manifest's
    stream table) derive the *same* id — their shards merge into one
    trace with no id ever crossing the process boundary.
    """
    import hashlib

    digest = hashlib.sha256()
    for scheme, signature in sorted(pairs):
        digest.update(f"|{scheme}|{signature}".encode())
    return digest.hexdigest()[:12]


def plan_trace_id(plan: object) -> str:
    """The trace id of one evaluation plan (workload-signature keyed)."""
    from repro.experiments.store import workload_signature

    pairs = [
        (stream.scheme, workload_signature(stream.workload))
        for stream in plan.streams.values()  # type: ignore[attr-defined]
    ]
    return trace_id_for_streams(pairs)


def traced(name: str):
    """Decorator wrapping a function body in a span (used by plan builders)."""

    def decorate(fn):
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with recorder().span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# Reader: merge shards by trace id
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpanRecord:
    """One completed span read back from a shard."""

    trace: str
    run: str
    pid: int
    span_id: str
    parent: Optional[str]
    name: str
    t0: float
    t1: float
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


@dataclass
class Trace:
    """One merged trace: every shard's spans plus aggregated metrics."""

    trace_id: str
    spans: List[SpanRecord] = field(default_factory=list, init=False)
    #: Counter totals summed across shards (each shard's records are
    #: cumulative within its process; the last one per shard wins).
    counters: Dict[str, float] = field(default_factory=dict, init=False)
    n_shards: int = field(default=0, init=False)
    #: Earliest wall-clock stamp any shard recorded (0.0 if none).
    wall_start: float = field(default=0.0, init=False)

    @property
    def pids(self) -> List[int]:
        return sorted({span.pid for span in self.spans})

    def by_name(self, name: str) -> List[SpanRecord]:
        return [span for span in self.spans if span.name == name]


class TraceError(Exception):
    """A trace directory cannot be resolved or read."""


def list_traces(trace_dir: "os.PathLike[str] | str") -> List[str]:
    """Trace ids present under a trace directory (sorted)."""
    root = Path(trace_dir)
    if not root.is_dir():
        return []
    return sorted(
        entry.name
        for entry in root.iterdir()
        if entry.is_dir() and any(entry.glob("spans-*.jsonl"))
    )


def _scan_shard(path: Path) -> Tuple[List[SpanRecord], Dict, float]:
    """Parse one shard: (spans, final counters, wall).

    Reads the lines :func:`repro.durable.scan_jsonl` yields, as the
    result store does, and also stops at the first malformed span.
    A metrics record's keys other than ``counters`` are ignored, so
    shards whose metrics also carry ``gauges`` still load.
    """
    spans: List[SpanRecord] = []
    counters: Dict[str, float] = {}
    wall = 0.0
    for row, _ in scan_jsonl(path):
        kind = row.get("kind")
        if kind == "span":
            try:
                spans.append(
                    SpanRecord(
                        trace=str(row["trace"]),
                        run=str(row["run"]),
                        pid=int(row["pid"]),
                        span_id=str(row["id"]),
                        parent=row.get("parent"),
                        name=str(row["name"]),
                        t0=float(row["t0"]),
                        t1=float(row["t1"]),
                        attrs=row.get("attrs") or {},
                    )
                )
            except (KeyError, TypeError, ValueError):
                break
        elif kind == "metrics":
            raw_counters = row.get("counters")
            if isinstance(raw_counters, dict):
                counters = raw_counters
        elif kind == "trace":
            try:
                stamp = float(row.get("wall", 0.0))
            except (TypeError, ValueError):
                stamp = 0.0
            if stamp and (not wall or stamp < wall):
                wall = stamp
        # Records of unknown kind are skipped, not fatal: a newer writer
        # may add annotations an older reader can safely ignore.
    return spans, counters, wall


def resolve_trace_id(
    trace_dir: "os.PathLike[str] | str", trace: Optional[str] = None
) -> str:
    """Pick the trace to analyze: explicit id, unique prefix, or the
    only one present.  Raises :class:`TraceError` with the candidate
    list otherwise — ambiguity must be the user's call, not a guess."""
    available = list_traces(trace_dir)
    if not available:
        raise TraceError(f"no traces under {os.fspath(trace_dir)!r}")
    if trace is None:
        if len(available) == 1:
            return available[0]
        raise TraceError(
            f"{len(available)} traces under {os.fspath(trace_dir)!r}; "
            f"pick one with --trace: {', '.join(available)}"
        )
    if trace in available:
        return trace
    matches = [t for t in available if t.startswith(trace)]
    if len(matches) == 1:
        return matches[0]
    raise TraceError(
        f"trace {trace!r} matches {len(matches)} of: {', '.join(available)}"
    )


def load_trace(
    trace_dir: "os.PathLike[str] | str", trace: Optional[str] = None
) -> Trace:
    """Merge every shard of one trace (spans sorted by start time)."""
    trace_id = resolve_trace_id(trace_dir, trace)
    merged = Trace(trace_id=trace_id)
    directory = Path(trace_dir) / trace_id
    for shard in sorted(directory.glob("spans-*.jsonl")):
        try:
            spans, counters, wall = _scan_shard(shard)
        except OSError:
            continue
        merged.n_shards += 1
        merged.spans.extend(spans)
        for name, value in counters.items():
            if isinstance(value, (int, float)):
                merged.counters[name] = merged.counters.get(name, 0) + value
        if wall and (not merged.wall_start or wall < merged.wall_start):
            merged.wall_start = wall
    merged.spans.sort(key=lambda span: (span.pid, span.t0, span.span_id))
    return merged


# ----------------------------------------------------------------------
# Analysis: one attribution table, folded by every view
# ----------------------------------------------------------------------
#: Span names ``critical-path`` and ``store ls --timings`` report as
#: phases; everything else lands in ``other``.
PHASE_NAMES = (
    "ksp", "lp_assemble", "lp_solve", "place", "task", "store_append"
)

#: An attribution row's key: (run, pid, span name, task scheme, task
#: workload signature); the last two are ``None`` outside any task.
RowKey = Tuple[str, int, str, Optional[str], Optional[str]]


@dataclass
class Row:
    """What the spans of one attribution row add up to."""

    count: int = field(default=0, init=False)
    total_s: float = field(default=0.0, init=False)
    exclusive_s: float = field(default=0.0, init=False)
    #: Earliest start and latest end over the row's spans.
    t0: float = field(default=float("inf"), init=False)
    t1: float = field(default=float("-inf"), init=False)


def phase_of(name: str) -> str:
    """The phase column a span name folds into."""
    return name if name in PHASE_NAMES else "other"


def _parents(trace: Trace) -> List[Optional[int]]:
    """Each span's parent as an index into ``trace.spans`` (None: a root).

    Span ids are unique within one process run only (a re-run can reuse
    a pid), so parents resolve under the child's ``run`` token.
    """
    index = {(span.run, span.span_id): i for i, span in enumerate(trace.spans)}
    return [index.get((span.run, span.parent)) for span in trace.spans]


def attribute(trace: Trace) -> Dict[RowKey, Row]:
    """The table every trace view folds, built in one walk of the spans.

    A span adds its duration and its exclusive time (minus its direct
    children's, clamped at zero) to the row of its run, pid, name and
    nearest enclosing ``task``'s scheme and workload signature.
    """
    spans = trace.spans
    parents = _parents(trace)
    child_s = [0.0] * len(spans)
    for span, parent in zip(spans, parents):
        if parent is not None:
            child_s[parent] += span.seconds
    table: Dict[RowKey, Row] = defaultdict(Row)
    for i, span in enumerate(spans):
        task: Optional[int] = i
        for _ in spans:  # bounded: a corrupt shard may hold a parent cycle
            if task is None or spans[task].name == "task":
                break
            task = parents[task]
        attrs = spans[task].attrs if task is not None else {}
        row = table[
            span.run, span.pid, span.name,
            attrs.get("scheme"), attrs.get("workload_signature"),
        ]
        row.count += 1
        row.total_s += span.seconds
        row.exclusive_s += max(span.seconds - child_s[i], 0.0)
        row.t0 = min(row.t0, span.t0)
        row.t1 = max(row.t1, span.t1)
    return table


def summary(trace: Trace) -> dict:
    """Aggregate view: per-name span stats plus counters."""
    by_name: Dict[str, dict] = {}
    for (_, _, name, _, _), row in attribute(trace).items():
        entry = by_name.setdefault(
            name, {"count": 0, "total_s": 0.0, "exclusive_s": 0.0}
        )
        entry["count"] += row.count
        entry["total_s"] += row.total_s
        entry["exclusive_s"] += row.exclusive_s
    for entry in by_name.values():
        entry["mean_s"] = entry["total_s"] / entry["count"]
    return {
        "trace": trace.trace_id,
        "n_shards": trace.n_shards,
        "n_spans": len(trace.spans),
        "workers": trace.pids,
        "wall_start": trace.wall_start,
        "spans": {name: by_name[name] for name in sorted(by_name)},
        "counters": dict(sorted(trace.counters.items())),
    }


def render_summary(trace: Trace) -> str:
    """The ``trace summary`` text view."""
    data = summary(trace)
    lines = [
        f"trace {data['trace']}: {data['n_spans']} span(s) across "
        f"{data['n_shards']} shard(s), {len(data['workers'])} process(es)"
    ]
    if data["spans"]:
        lines.append("")
        lines.append(
            f"{'span':<16s} {'count':>7s} {'total':>10s} "
            f"{'mean':>10s} {'exclusive':>10s}"
        )
        ordered = sorted(
            data["spans"].items(), key=lambda kv: -kv[1]["total_s"]
        )
        for name, entry in ordered:
            lines.append(
                f"{name:<16s} {entry['count']:>7d} "
                f"{entry['total_s']:>9.3f}s {entry['mean_s']:>9.4f}s "
                f"{entry['exclusive_s']:>9.3f}s"
            )
    if data["counters"]:
        lines.append("")
        for name, value in data["counters"].items():
            lines.append(f"counter {name:<28s} {value:>12g}")
    return "\n".join(lines)


def tree_lines(trace: Trace, max_lines: int = 400) -> List[str]:  # analysis: allow[R402] tests lift the cap
    """The ``trace tree`` view: per-process span hierarchies.

    Spans parent through the in-process stack, so each process run
    renders as its own tree (cross-process edges would need clock
    agreement the format does not promise).  Output is capped at
    ``max_lines`` with an elision marker — a fig17-scale trace is
    thousands of spans.
    """
    spans = trace.spans  # sorted by (pid, t0), so siblings are in order
    children: Dict[Optional[int], List[int]] = defaultdict(list)
    for i, parent in enumerate(_parents(trace)):
        children[parent].append(i)

    lines: List[str] = []

    def render(i: int, depth: int) -> None:
        if len(lines) > max_lines:
            return
        span = spans[i]
        named = map(span.attrs.get, ("scheme", "network_id"))
        bits = [str(bit) for bit in named if bit]
        label = f"  [{' '.join(bits)}]" if bits else ""
        lines.append(
            f"{'  ' * depth}{span.name:<{max(16 - 2 * depth, 1)}s} "
            f"{span.seconds:>9.4f}s{label}"
        )
        for child in children.get(i, []):
            render(child, depth + 1)

    by_run: Dict[str, List[int]] = defaultdict(list)
    for i in children[None]:
        by_run[spans[i].run].append(i)
    for roots in by_run.values():
        lines.append(f"process {spans[roots[0]].pid}:")
        for i in roots:
            render(i, 1)
        if len(lines) > max_lines:
            lines = lines[:max_lines]
            lines.append("... (truncated; use --format json for everything)")
            break
    return lines


def critical_path(trace: Trace) -> dict:
    """Per-process wall-time attribution: named phases plus idle.

    One row per process run (a re-run that reused a pid is a row of its
    own): its window is [earliest span start, latest span end], split
    into *exclusive* per-phase seconds (``ksp``/``lp_assemble``/
    ``lp_solve``/``place``/``task`` overhead/``store_append``/other)
    whose sum is busy time; idle is the remainder — pool workers waiting
    between tasks, a coordinator waiting on futures.  The row with the
    largest window is the run's critical path and comes first.
    """
    runs: Dict[Tuple[str, int], List[Tuple[str, Row]]] = defaultdict(list)
    for (run, pid, name, _, _), row in attribute(trace).items():
        runs[run, pid].append((name, row))
    workers: List[dict] = []
    for (_, pid), rows in runs.items():
        phases = dict.fromkeys(PHASE_NAMES + ("other",), 0.0)
        for name, row in rows:
            phases[phase_of(name)] += row.exclusive_s
        window = max(r.t1 for _, r in rows) - min(r.t0 for _, r in rows)
        # A run's spans nest, so their exclusive seconds sum to the union
        # of its span intervals; the clamp only absorbs float residue.
        busy = min(sum(phases.values()), window)
        workers.append(
            {
                "pid": pid,
                "n_spans": sum(row.count for _, row in rows),
                "window_s": window,
                "busy_s": busy,
                "idle_s": window - busy,
                "phases": phases,
            }
        )
    workers.sort(key=lambda worker: -worker["window_s"])
    return {"trace": trace.trace_id, "workers": workers}


def render_critical_path(trace: Trace) -> str:
    """The ``trace critical-path`` text view."""
    data = critical_path(trace)
    columns = list(PHASE_NAMES) + ["other"]
    header = (
        f"{'pid':>8s} {'window':>9s} {'busy':>9s} {'idle':>9s} "
        + " ".join(f"{name:>12s}" for name in columns)
    )
    lines = [f"trace {data['trace']}: critical path by worker", header]
    for worker in data["workers"]:
        lines.append(
            f"{worker['pid']:>8d} {worker['window_s']:>8.3f}s "
            f"{worker['busy_s']:>8.3f}s {worker['idle_s']:>8.3f}s "
            + " ".join(
                f"{worker['phases'][name]:>11.3f}s" for name in columns
            )
        )
    return "\n".join(lines)


def format_phases(phases: Dict[str, float]) -> str:
    """One-line ``phase=1.23s`` rendering, heaviest first."""
    ordered = sorted(phases.items(), key=lambda kv: -kv[1])
    return " ".join(f"{name}={seconds:.3f}s" for name, seconds in ordered)
