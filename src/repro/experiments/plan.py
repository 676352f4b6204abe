"""Evaluation plans: whole-figure batches across schemes and sweeps.

The paper's headline scaling result (its Figure 15) is about evaluation
runtime, yet running a figure one single-scheme engine run at a time
serializes the outer loops: Figure 17 is 16 calls (4 loads x 4 schemes)
and Figure 18 is 20, each paying for a fresh process pool while tasks
from different schemes and sweep points never overlap.  An
:class:`EvalPlan` turns the whole (scheme x sweep-point x network) grid
into one flat batch:

* A **stream** is one (scheme factory, workload) pairing — exactly the
  unit today's per-call path evaluates — registered under a hashable
  ``key`` (a string, or a structured tuple like ``("B4", 0.6)``).  Each
  stream also names its durable result-store stream (``scheme``), so a
  plan run resumes per-stream against the same
  ``<store>/<workload-sig>/<scheme>.jsonl`` files the per-call path used.
* An :class:`EvalTask` is the flat, picklable unit of execution: one
  (stream key, network index) pair.  Paired with its plan's stream entry
  it denotes (scheme spec, workload item, global index, store stream
  key); only the task itself ever crosses a process boundary on ``fork``
  pools.
* :meth:`EvalPlan.tasks` flattens the plan through a pluggable
  :class:`Scheduler`.  The default :class:`InterleaveScheduler` keeps
  the historical round-robin order (a shared pool alternates schemes
  and sweep points instead of draining one scheme before starting the
  next); :class:`~repro.experiments.cost.LptScheduler` orders
  longest-predicted-first so the pool never tails on one heavy LP
  solve scheduled last.

Execution is the engine's job —
:meth:`repro.experiments.engine.ExperimentEngine.run_plan` runs an
entire plan on **one** shared process pool (fork and spawn alike) and
returns a :class:`PlanReport` keyed by stream.  Because every task is
the same pure per-network function the per-call path runs, plan
execution is bit-identical to per-call execution for any worker count
*and any task order* — scheduling is pure sequencing, never semantics;
:func:`execute_plan` is the one-call convenience wrapper the figures
use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.workloads import NetworkWorkload, ZooWorkload

if TYPE_CHECKING:  # circular at runtime: the engine imports this module
    from repro.experiments.engine import NetworkResult
    from repro.experiments.runner import SchemeOutcome

#: Same shape the engine consumes: ``(item) -> RoutingScheme``.
SchemeFactory = Callable[[NetworkWorkload], object]


@dataclass(frozen=True)
class EvalTask:
    """One flat unit of plan execution: a network of one stream.

    ``stream`` is the plan key of the stream the task belongs to and
    ``index`` the item's position in that stream's workload — the same
    global index the per-call path would report, so ids and store
    records line up exactly.  Tasks are trivially picklable; the stream
    entry they reference (factory, workload item, store stream name)
    stays on the plan and never crosses a ``fork`` pipe.
    """

    stream: Hashable
    index: int


@dataclass
class PlanStream:
    """One (factory, workload) pairing of a plan.

    ``key`` is the plan-local handle reducers read results back under;
    ``scheme`` names the durable result-store stream (a string, since it
    becomes a file name).  Keeping the two separate is what kills the
    string-mangled result keys the figure layer used to build: reducers
    index ``("B4", 0.6)`` while the store keeps its stable
    ``"B4@load=0.6"`` stream names.
    """

    key: Hashable
    factory: SchemeFactory
    workload: ZooWorkload
    scheme: str
    matrices_per_network: Optional[int] = None
    #: Relative difficulty multiplier for the static cost predictor
    #: (:mod:`repro.experiments.cost`).  Plan builders set it for sweep
    #: parameters that shape solver difficulty without changing the
    #: topology the predictor can see — e.g. fig17's target load or
    #: fig08's headroom.  Pure scheduling input; never affects results.
    cost_hint: float = 1.0

    @property
    def n_networks(self) -> int:
        return len(self.workload.networks)


class Scheduler:
    """Sequencing policy for a plan's flat task list.

    A scheduler decides pure *order*, never semantics: every task is an
    independent pure function and results are keyed by (stream, index),
    so any scheduler yields bit-identical :class:`PlanReport` contents.
    Three hooks:

    * :meth:`order` — the execution sequence :meth:`EvalPlan.tasks`
      returns (what a shared process pool consumes, first-come
      first-served).
    * :meth:`partition` — how :mod:`repro.experiments.dispatch` splits a
      whole plan into per-worker shards.  The default cuts contiguous,
      equal-*count* chunks of :meth:`order`'s sequence; cost-aware
      schedulers override it to balance predicted *makespan* instead.
    * :meth:`predictions` — per-task predicted cost in seconds, empty
      when the scheduler is not cost-aware.  The engine records these
      in :attr:`PlanReport.predicted` next to the measured seconds.
    """

    #: Stable identifier (the CLI's ``--schedule`` vocabulary).
    name: str = "scheduler"

    def order(
        self, plan: "EvalPlan", per_stream: List[List["EvalTask"]]
    ) -> List["EvalTask"]:
        """Flatten per-stream task lists into one execution sequence."""
        raise NotImplementedError

    def iter_order(
        self, plan: "EvalPlan", per_stream: List[Iterable["EvalTask"]]
    ) -> Iterator["EvalTask"]:
        """Lazily flatten per-stream task iterables into one sequence.

        The default materializes each stream and delegates to
        :meth:`order` — correct for every scheduler (including
        cost-aware ones, which need the whole list anyway).  Schedulers
        whose order is computable online (the round-robin default)
        override this to stay O(streams) in memory, which is what lets
        a 10^5-task scenario fleet stream without ever holding its task
        list.  Must yield exactly :meth:`order`'s sequence.
        """
        return iter(self.order(plan, [list(tasks) for tasks in per_stream]))

    def predictions(
        self, plan: "EvalPlan"
    ) -> Dict[Tuple[Hashable, int], float]:
        """Predicted seconds per (stream key, index); ``{}`` if unknown."""
        return {}

    def partition(
        self, plan: "EvalPlan", n_shards: int
    ) -> List[List["EvalTask"]]:
        """Split the plan's tasks into at most ``n_shards`` shards.

        Default policy: contiguous, equal-size chunks of this
        scheduler's :meth:`order` sequence.  For the round-robin default
        that gives every shard a balanced mix of all streams (a
        contiguous chunk of an interleaved list cycles through every
        stream, whereas stride striping would resonate with the stream
        count).  Always returns at least one shard; never more shards
        than tasks.
        """
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        tasks = plan.tasks(scheduler=self)
        n_effective = min(n_shards, max(len(tasks), 1))
        base, extra = divmod(len(tasks), n_effective)
        shards: List[List[EvalTask]] = []
        position = 0
        for shard in range(n_effective):
            size = base + (1 if shard < extra else 0)
            shards.append(tasks[position:position + size])
            position += size
        return shards


class InterleaveScheduler(Scheduler):
    """The byte-compatible default: round-robin across streams.

    Position ``i`` of every stream runs before position ``i + 1`` of
    any, so a pool with few workers alternates schemes and sweep points
    — and a single-stream plan degenerates to plain workload order.
    Cost-blind by design; see
    :class:`~repro.experiments.cost.LptScheduler` for the cost-aware
    alternative.
    """

    name = "interleave"

    def order(
        self, plan: "EvalPlan", per_stream: List[List["EvalTask"]]
    ) -> List["EvalTask"]:
        interleaved: List[EvalTask] = []
        for position in range(max((len(t) for t in per_stream), default=0)):
            for tasks in per_stream:
                if position < len(tasks):
                    interleaved.append(tasks[position])
        return interleaved

    def iter_order(
        self, plan: "EvalPlan", per_stream: List[Iterable["EvalTask"]]
    ) -> Iterator["EvalTask"]:
        """Truly lazy round-robin: O(streams) state, same sequence.

        Exhausted streams drop out of the rotation, matching
        :meth:`order` exactly (position ``i`` of every live stream
        before position ``i + 1`` of any).
        """
        live = [iter(tasks) for tasks in per_stream]
        while live:
            still_live: List[Iterator[EvalTask]] = []
            for tasks_iter in live:
                task = next(tasks_iter, None)
                if task is not None:
                    yield task
                    still_live.append(tasks_iter)
            live = still_live


class EvalPlan:
    """A whole figure's evaluation grid, declared up front.

    Builders :meth:`add` one stream per (scheme, sweep point); the
    engine executes all of them in a single pass over one shared pool.
    Stream keys must be unique per plan and hashable; non-string keys
    (sweep tuples) must name their store stream explicitly.
    """

    def __init__(self) -> None:
        self.streams: Dict[Hashable, PlanStream] = {}

    def add(
        self,
        key: Hashable,
        factory: SchemeFactory,
        workload: ZooWorkload,
        scheme: Optional[str] = None,
        matrices_per_network: Optional[int] = None,
        cost_hint: float = 1.0,
    ) -> Hashable:
        """Register one stream; returns ``key`` for chaining convenience.

        ``cost_hint`` biases the static cost predictor for this stream
        (see :class:`PlanStream`); it has no effect on results.
        """
        if key in self.streams:
            raise ValueError(f"duplicate plan stream key {key!r}")
        if scheme is None:
            if not isinstance(key, str):
                raise ValueError(
                    f"stream key {key!r} is not a string; pass an explicit "
                    f"scheme stream name"
                )
            scheme = key
        if not scheme:
            raise ValueError("scheme stream name must be non-empty")
        if cost_hint <= 0.0:
            raise ValueError(f"cost_hint must be positive, got {cost_hint}")
        self.streams[key] = PlanStream(
            key=key,
            factory=factory,
            workload=workload,
            scheme=scheme,
            matrices_per_network=matrices_per_network,
            cost_hint=cost_hint,
        )
        return key

    def __len__(self) -> int:
        return len(self.streams)

    @property
    def n_tasks(self) -> int:
        return sum(stream.n_networks for stream in self.streams.values())

    def item(self, task: EvalTask) -> NetworkWorkload:
        """The workload item a task evaluates."""
        return self.streams[task.stream].workload.networks[task.index]

    def tasks(
        self,
        indices: Optional[Dict[Hashable, Sequence[int]]] = None,
        scheduler: Optional[Scheduler] = None,
    ) -> List[EvalTask]:
        """Flatten the plan into one execution sequence.

        ``indices`` restricts each stream to the given network indices
        (the store-resume path passes only the missing ones); by default
        every network of every stream is included.  ``scheduler`` picks
        the sequencing policy; the default
        :class:`InterleaveScheduler` keeps the historical round-robin
        order.  Sequencing never changes results — only which task a
        pool starts when.
        """
        return list(self.iter_tasks(indices=indices, scheduler=scheduler))

    def iter_tasks(
        self,
        indices: Optional[Dict[Hashable, Sequence[int]]] = None,
        scheduler: Optional[Scheduler] = None,
    ) -> Iterator[EvalTask]:
        """Lazily generate the execution sequence of :meth:`tasks`.

        Per-stream tasks are generated on demand and flattened through
        :meth:`Scheduler.iter_order`; with the round-robin default the
        whole pipeline is O(streams) in memory, so plans over lazy
        workloads (scenario fleets of 10^5+ variants) stream without
        ever materializing the task list.  The sequence is identical to
        :meth:`tasks` by contract.
        """
        def stream_tasks(
            key: Hashable, wanted: Iterable[int]
        ) -> Iterator[EvalTask]:
            for i in wanted:
                yield EvalTask(stream=key, index=i)

        per_stream: List[Iterable[EvalTask]] = []
        for key, stream in self.streams.items():
            wanted: Iterable[int] = (
                indices.get(key, []) if indices is not None
                else range(stream.n_networks)
            )
            per_stream.append(stream_tasks(key, wanted))
        if scheduler is None:
            scheduler = InterleaveScheduler()
        return scheduler.iter_order(self, per_stream)

    def spawn_safe(self) -> bool:
        """Whether every stream's factory can cross a spawn/host boundary."""
        from repro.experiments.spec import is_spawn_safe

        return all(
            is_spawn_safe(stream.factory) for stream in self.streams.values()
        )


@dataclass
class PlanReport:
    """Result of one plan run: per-stream results in workload order.

    ``predicted`` holds the scheduler's per-task cost predictions (by
    stream key, then index) when a cost-aware scheduler ran; measured
    times live on each :class:`NetworkResult`, and
    :meth:`cost_report` joins the two for calibration analysis.
    """

    results: Dict[Hashable, List["NetworkResult"]] = field(
        default_factory=dict
    )
    #: Predicted seconds per stream key and network index — empty for
    #: cost-blind schedulers (the interleave default).
    predicted: Dict[Hashable, Dict[int, float]] = field(default_factory=dict)
    #: Result-store scheme stream name per plan key (streams without a
    #: scheme name are absent).  Lets :meth:`cost_report` join telemetry
    #: phase breakdowns — which are keyed by scheme — back to plan keys.
    schemes: Dict[Hashable, str] = field(default_factory=dict)

    def outcomes(self, key: Hashable) -> List["SchemeOutcome"]:
        """One stream's outcomes flattened in workload order."""
        return [o for result in self.results[key] for o in result.outcomes]

    def all_outcomes(self) -> Dict[Hashable, List["SchemeOutcome"]]:
        """Every stream's flattened outcomes, keyed like the plan."""
        return {key: self.outcomes(key) for key in self.results}

    @property
    def total_seconds(self) -> float:
        """Sum of per-network evaluation times across all streams."""
        return sum(
            result.seconds
            for results in self.results.values()
            for result in results
        )

    def timings(self) -> List[Tuple[str, float]]:
        """(network_id, measured seconds) pairs across every stream.

        Streams appear in plan declaration order, each in workload
        order — the flat shape benchmarks and ad-hoc profiling want.
        """
        return [
            (result.network_id, result.seconds)
            for results in self.results.values()
            for result in results
        ]

    def timings_by_stream(self) -> Dict[Hashable, List[Tuple[str, float]]]:
        """Per-stream (network_id, measured seconds) pairs, plan-keyed."""
        return {
            key: [(r.network_id, r.seconds) for r in results]
            for key, results in self.results.items()
        }

    def cost_report(
        self, trace_dir: Optional[str] = None
    ) -> List[Tuple[Hashable, str, float, float, Dict[str, float]]]:
        """(stream key, network_id, predicted, actual, phases) per task.

        Empty when the run's scheduler made no predictions.  The
        calibration view: how far the cost model's guesses landed from
        the seconds the engine then measured.  With a ``trace_dir``, the
        trailing dict breaks each task's actual seconds into span-derived
        phases (``ksp``/``lp_solve``/``place``/...); it is empty when no
        trace covers the task (tracing off, or the row served purely
        from the result store).
        """
        phase_rows: Dict[Tuple[str, str], Dict[str, float]] = {}
        if trace_dir is not None:
            from repro import telemetry

            for trace_id in telemetry.list_traces(trace_dir):
                try:
                    trace = telemetry.load_trace(trace_dir, trace_id)
                except telemetry.TraceError:
                    continue
                for scheme, networks in telemetry.phase_breakdown(
                    trace
                ).items():
                    for network, phases in networks.items():
                        merged = phase_rows.setdefault((scheme, network), {})
                        for phase, seconds in phases.items():
                            merged[phase] = merged.get(phase, 0.0) + seconds
        rows: List[Tuple[Hashable, str, float, float, Dict[str, float]]] = []
        for key, by_index in self.predicted.items():
            scheme = self.schemes.get(key, "")
            for result in self.results.get(key, []):
                predicted = by_index.get(result.index)
                if predicted is not None:
                    rows.append(
                        (
                            key,
                            result.network_id,
                            predicted,
                            result.seconds,
                            phase_rows.get((scheme, result.network_id), {}),
                        )
                    )
        return rows


def execute_plan(
    plan: EvalPlan,
    n_workers: int = 1,
    cache_dir: Optional[str] = None,
    store_dir: Optional[str] = None,
    resume: bool = True,
    store_only: bool = False,
    cache_max_paths: Optional[int] = None,
    scheduler: "str | Scheduler | None" = None,
) -> PlanReport:
    """Run a whole plan on one shared pool (build an engine, ``run_plan``).

    All engine knobs behave exactly as they do for single-scheme runs:
    ``cache_dir`` warm-starts per-network KSP caches, ``store_dir``
    persists (and resumes) every stream of the plan in one pass, and
    ``store_only`` serves the entire plan from disk, raising
    :class:`~repro.experiments.store.StoreMissError` if any stream is
    incomplete.  ``scheduler`` picks the task sequencing policy — a
    :class:`Scheduler`, a schedule name (``"interleave"``/``"lpt"``) or
    ``None`` for the round-robin default; with ``"lpt"`` and a
    ``store_dir`` the cost model replays learned timings from that
    store.  Results are bit-identical to looping
    :meth:`~repro.experiments.engine.ExperimentEngine.run` over the
    plan's streams, for any worker count, task order, and on fork and spawn
    pools alike.
    """
    from repro.experiments.engine import ExperimentEngine

    engine = ExperimentEngine(
        n_workers=n_workers,
        cache_dir=cache_dir,
        store_dir=store_dir,
        resume=resume,
        store_only=store_only,
        cache_max_paths=cache_max_paths,
        scheduler=scheduler,
    )
    return engine.run_plan(plan)
