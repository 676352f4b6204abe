"""Evaluation plans: whole-figure batches across schemes and sweeps.

The paper's headline scaling result (its Figure 15) is about evaluation
runtime, yet running a figure one scheme and sweep point at a time
serializes the outer loops: Figure 17 is 16 (load, scheme) pairs and
Figure 18 is 20, and tasks from different pairs would never overlap.  An
:class:`EvalPlan` turns the whole (scheme x sweep-point x network) grid
into one flat batch:

* A **stream** is one (scheme factory, workload) pairing registered
  under a hashable ``key`` (a string, or a structured tuple like
  ``("B4", 0.6)``).  Each stream also names its durable result-store
  stream (``scheme``), so a plan run resumes per-stream against
  ``<store>/<workload-sig>/<scheme>.jsonl`` files any plan with that
  stream shares.
* An :class:`EvalTask` is the flat, picklable unit of execution: one
  (stream key, network index) pair.  Paired with its plan's stream entry
  it denotes (scheme spec, workload item, global index, store stream
  key); only the task itself ever crosses a process boundary on ``fork``
  pools.
* :meth:`EvalPlan.iter_tasks` flattens the plan round-robin across
  streams, so a shared pool alternates schemes and sweep points instead
  of draining one scheme before starting the next.

Execution is the engine's job —
:meth:`repro.experiments.engine.ExperimentEngine.run_plan` runs an
entire plan on **one** shared fork pool (or serially; ``dispatch`` for
out-of-process) and returns a :class:`PlanReport` keyed by stream.
Because every task is the same pure per-network function, plan
execution is bit-identical to evaluating each stream on its own, for
any worker count *and any task order* — tasks commute, so order is
pure sequencing, never semantics, and any subset of a plan's tasks
(``indices``, as a dispatch shard passes) runs the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
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
    global index in every plan and shard, so ids and store records line
    up exactly.  Tasks are trivially picklable; the stream
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

    @property
    def n_networks(self) -> int:
        return len(self.workload.networks)


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
    ) -> Hashable:
        """Register one stream; returns ``key`` for chaining convenience."""
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
        self.streams[key] = PlanStream(
            key=key, factory=factory, workload=workload, scheme=scheme
        )
        return key

    def __len__(self) -> int:
        return len(self.streams)

    @property
    def n_tasks(self) -> int:
        return sum(stream.n_networks for stream in self.streams.values())

    def iter_tasks(
        self, indices: Optional[Dict[Hashable, Sequence[int]]] = None
    ) -> Iterator[EvalTask]:
        """Lazily flatten the plan into one execution sequence.

        ``indices`` restricts each stream to the given network indices
        (the store-resume path passes only the missing ones); by default
        every network of every stream is included.  Order never changes
        results — only which task a pool starts when.

        Round-robin across streams: position ``i`` of every stream runs
        before position ``i + 1`` of any, exhausted streams drop out of
        the rotation, and a single-stream plan degenerates to plain
        workload order.  State is O(streams), so plans over lazy
        workloads (scenario fleets of 10^5+ variants) stream without
        ever materializing the task list.
        """
        live: List[Tuple[Hashable, Iterator[int]]] = [
            (
                key,
                iter(
                    indices.get(key, []) if indices is not None
                    else range(stream.n_networks)
                ),
            )
            for key, stream in self.streams.items()
        ]
        while live:
            still_live: List[Tuple[Hashable, Iterator[int]]] = []
            for key, wanted in live:
                index = next(wanted, None)
                if index is not None:
                    yield EvalTask(stream=key, index=index)
                    still_live.append((key, wanted))
            live = still_live


@dataclass
class PlanReport:
    """Result of one plan run: per-stream results in workload order."""

    results: Dict[Hashable, List["NetworkResult"]] = field(
        default_factory=dict
    )
    #: How many of ``results`` the result store served instead of the
    #: engine (or a dispatch's workers) evaluating them in this run.
    n_stored: int = 0

    def outcomes(self, key: Hashable) -> List["SchemeOutcome"]:
        """One stream's outcomes flattened in workload order."""
        return [o for result in self.results[key] for o in result.outcomes]
