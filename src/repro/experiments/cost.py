"""Cost-aware scheduling: predicted task costs drive LPT ordering.

The heaviest experiments are dominated by a few large LP solves (big
topologies x dense traffic matrices), yet round-robin task interleaving
and contiguous dispatch chunks are blind to cost: a pool drains level on
the small tasks and then tails on one heavy network that happened to
sort last.  The classic fix is longest-processing-time-first (LPT)
scheduling — start the heavy tasks first so the small ones pack into the
gaps — which needs exactly one ingredient: a per-task cost estimate.

:class:`CostModel` supplies it from two sources, best first:

* **Learned costs** — the engine measures per-network evaluation
  ``seconds`` for every task it runs and the result store persists them
  (alongside each network's content-hash signature).  When the store
  holds a measured time for the *same network signature and scheme
  stream*, that measurement IS the prediction: a resumed, repeated or
  re-dispatched run schedules on ground truth.
* **A static predictor** — otherwise cost is estimated from what the
  task's shape reveals: node/link counts, demand-pair count, matrix
  count, a per-scheme-class weight (an LP solve dwarfs a Dijkstra pass)
  and the stream's ``cost_hint`` (sweep parameters like load or headroom
  that shape difficulty without changing the topology).  Units are
  nominal seconds; only the *ordering* matters, so the predictor is
  deliberately simple and fully deterministic.

Two consumers sit on top:

* :class:`LptScheduler` — a :class:`~repro.experiments.plan.Scheduler`
  that orders a plan's flat task list longest-first (engine pools drain
  level instead of tailing), and partitions dispatch shards by greedy
  makespan balancing (:func:`lpt_partition`) instead of contiguous
  chunks.
* :func:`replay_timings` — the store-side reader that feeds the learned
  table; ``store ls --timings`` reuses it to show per-stream totals.

Scheduling never changes results: every task is a pure function of its
workload item and factory, and the store merge is keyed by (signature,
scheme, index), so any execution order yields bit-identical keyed
reports (property-tested in ``tests/test_plan.py``).
"""

from __future__ import annotations

import heapq
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
    TypeVar,
)

from repro.experiments.plan import (
    EvalPlan,
    EvalTask,
    InterleaveScheduler,
    PlanStream,
    Scheduler,
)
from repro.experiments.workloads import NetworkWorkload

if TYPE_CHECKING:  # runtime import stays lazy (see replay_timings)
    from repro.experiments.store import TaskTiming

#: Relative cost of one (network, matrix) evaluation per scheme class,
#: anchored at shortest-path = 1.  LP-backed schemes (MinMax, LDR, the
#: link-based baseline) dominate greedy path packing (B4, MPLS-TE),
#: which dominates plain path selection (SP, ECMP) — the ordering the
#: paper's Figure 15 runtime comparison measures.  Aliases mirror the
#: spec registry.
SCHEME_WEIGHTS: Dict[str, float] = {
    "SP": 1.0,
    "ShortestPath": 1.0,
    "ECMP": 2.0,
    "MPLS-TE": 6.0,
    "MplsTe": 6.0,
    "B4": 6.0,
    "MinMax": 20.0,
    "MinMaxK10": 25.0,
    "LDR": 30.0,
    "LatencyOptimal": 30.0,
    "Optimal": 30.0,
    "LinkBased": 60.0,
}

#: Weight for closures and unregistered schemes: heavier than the greedy
#: packers, lighter than a known LP — unknown work is assumed expensive
#: enough to schedule early rather than to tail on.
DEFAULT_SCHEME_WEIGHT = 10.0

#: Nominal seconds per (weight x demand x link) unit.  Pure scale: it
#: calibrates static predictions to the rough magnitude of measured
#: seconds so the two sources mix sanely, but LPT only compares costs.
STATIC_COST_SCALE = 2e-7


def scheme_class(factory: object) -> Optional[str]:
    """The registry scheme name a factory resolves to, if declarative.

    :class:`~repro.experiments.spec.SchemeSpec` factories carry their
    name; closures reveal nothing and map to the default weight.
    """
    scheme = getattr(factory, "scheme", None)
    return scheme if isinstance(scheme, str) else None


def static_task_cost(
    item: NetworkWorkload,
    n_matrices: Optional[int],
    weight: float,
    cost_hint: float = 1.0,
) -> float:
    """Predict one task's cost from its shape alone, in nominal seconds.

    The dominant solver costs scale with how many demand pairs must be
    routed over how many links (LP columns x rows; greedy packing is
    demands x candidate paths x path length), with an additive
    nodes-x-links term for the per-network KSP warm-up every scheme
    pays.  Deterministic by construction — no timing, no randomness.
    """
    network = item.network
    if n_matrices is None:
        n_matrices = len(item.matrices)
    else:
        n_matrices = min(n_matrices, len(item.matrices))
    if item.matrices:
        n_demands = max(len(item.matrices[0].pairs), 1)
    else:
        n_demands = max(network.num_nodes * (network.num_nodes - 1), 1)
    links = max(network.num_links, 1)
    per_matrix = n_demands * links
    warmup = network.num_nodes * links
    return (
        STATIC_COST_SCALE
        * weight
        * cost_hint
        * (n_matrices * per_matrix + warmup)
    )


class CostModel:
    """Predicts per-task evaluation seconds; learned when possible.

    With a ``store_dir``, the model lazily scans every result-store
    stream once and indexes measured ``seconds`` by (network signature,
    scheme stream name): a task whose network and scheme were evaluated
    before — in any workload — is predicted at the mean of its measured
    times.  Everything else falls back to :func:`static_task_cost`.
    Records written before network signatures were stored replay as
    static predictions, never as errors.
    """

    def __init__(
        self,
        store_dir: Optional[object] = None,
        trace_dir: Optional[object] = None,
    ) -> None:
        self.store_dir = store_dir
        self.trace_dir = trace_dir
        self._learned: Optional[Dict[Tuple[str, str], float]] = None

    # ------------------------------------------------------------------
    def learned_seconds(self) -> Dict[Tuple[str, str], float]:
        """Mean measured seconds keyed by (network signature, scheme).

        Store-stamped timings and telemetry task spans (when a
        ``trace_dir`` is given) pool into one table: both measure the
        same per-task evaluation region, so a span recorded by a traced
        run replays exactly like a store record from an untraced one.
        """
        if self._learned is None:
            self._learned = {}
            totals: Dict[Tuple[str, str], List[float]] = {}
            if self.store_dir is not None:
                for _, scheme, timings in replay_timings(self.store_dir):
                    for timing in timings:
                        if not timing.network_signature:
                            continue  # pre-signature store record
                        key = (timing.network_signature, scheme)
                        totals.setdefault(key, []).append(timing.seconds)
            if self.trace_dir is not None:
                from repro import telemetry

                for signature, scheme, seconds in telemetry.task_timings(
                    self.trace_dir
                ):
                    if not signature or not scheme:
                        continue
                    totals.setdefault((signature, scheme), []).append(
                        seconds
                    )
            self._learned = {
                key: sum(values) / len(values)
                for key, values in totals.items()
            }
        return self._learned

    @staticmethod
    def _network_signature(item: NetworkWorkload) -> str:
        # Memoized as an attribute on the network object itself (the
        # workload_signature idiom): plans share network objects across
        # streams, and re-hashing the full network per (stream, task)
        # would dominate prediction cost.  An id()-keyed side table
        # would be wrong here — a long-lived scheduler can outlive one
        # plan's networks, and a recycled object id would replay a stale
        # signature.  Networks must not be mutated mid-evaluation (the
        # engine and KSP-cache contracts already assume it), so the memo
        # cannot go stale.
        from repro.net.paths import network_signature

        network = item.network
        memo = getattr(network, "_cost_signature_memo", None)
        if isinstance(memo, str):
            return memo
        signature = network_signature(network)
        setattr(network, "_cost_signature_memo", signature)
        return signature

    # ------------------------------------------------------------------
    def predict(self, stream: PlanStream, index: int) -> float:
        """Predicted seconds for one task of a plan stream.

        Lazy scenario workloads expose ``cost_basis(index)`` — the base
        item plus a relative factor — so predicting a perturbed
        variant's cost reuses the base network's learned timings without
        ever materializing the variant topology.
        """
        basis = getattr(stream.workload, "cost_basis", None)
        if callable(basis):
            base_item, factor = basis(index)
            return float(factor) * self.predict_item(
                stream.factory,
                base_item,
                n_matrices=stream.matrices_per_network,
                scheme=stream.scheme,
                cost_hint=stream.cost_hint,
            )
        return self.predict_item(
            stream.factory,
            stream.workload.networks[index],
            n_matrices=stream.matrices_per_network,
            scheme=stream.scheme,
            cost_hint=stream.cost_hint,
        )

    def predict_item(
        self,
        factory: object,
        item: NetworkWorkload,
        n_matrices: Optional[int] = None,
        scheme: Optional[str] = None,
        cost_hint: float = 1.0,
    ) -> float:
        """Predicted seconds for evaluating ``item`` under ``factory``.

        ``scheme`` is the result-store stream name the evaluation would
        write to; a learned entry under (network signature, scheme)
        wins over the static predictor.  Measured times already include
        whatever the hint models, so hints scale static predictions
        only.
        """
        if scheme:
            learned = self.learned_seconds().get(
                (self._network_signature(item), scheme)
            )
            if learned is not None:
                return learned
        name = scheme_class(factory)
        if name is None:
            weight = DEFAULT_SCHEME_WEIGHT
        else:
            weight = SCHEME_WEIGHTS.get(name, DEFAULT_SCHEME_WEIGHT)
        return static_task_cost(item, n_matrices, weight, cost_hint)


T = TypeVar("T")


def lpt_partition(
    items: Sequence[T],
    costs: Sequence[float],
    n_bins: int,
) -> List[List[T]]:
    """Greedy makespan balancing: heaviest item onto the lightest bin.

    The classic LPT bin-packing heuristic (4/3-approximate for makespan):
    items are taken in descending cost order and each goes to the bin
    with the smallest total so far.  Bins keep that descending order
    internally, so a worker draining one bin is itself LPT-scheduled.
    Fully deterministic: ties break by original item position, then by
    bin index.  At most ``min(n_bins, len(items))`` bins are returned
    (never an empty bin), except that empty input yields one empty bin —
    mirroring the contiguous-chunk path, which always writes at least
    one manifest.
    """
    if n_bins < 1:
        raise ValueError(f"need at least one bin, got {n_bins}")
    if len(items) != len(costs):
        raise ValueError(
            f"{len(items)} items but {len(costs)} costs"
        )
    if not items:
        return [[]]
    n_effective = min(n_bins, len(items))
    bins: List[List[T]] = [[] for _ in range(n_effective)]
    heap: List[Tuple[float, int]] = [(0.0, b) for b in range(n_effective)]
    order = sorted(
        range(len(items)), key=lambda i: (-costs[i], i)
    )
    for position in order:
        load, bin_index = heapq.heappop(heap)
        bins[bin_index].append(items[position])
        heapq.heappush(heap, (load + costs[position], bin_index))
    return bins


class LptScheduler(Scheduler):
    """Longest-processing-time-first ordering and balanced partitioning.

    Ordering: the flat task list sorts by predicted cost, descending, so
    a shared pool starts the heavy LP solves immediately and packs the
    cheap tasks into the remaining capacity — the pool drains level
    instead of tailing on one heavy task scheduled last.  Partitioning
    (dispatch shards) uses :func:`lpt_partition` so every worker's
    predicted makespan is balanced, not merely its task count.
    Deterministic throughout: ties break by stream declaration order,
    then task index.
    """

    name = "lpt"

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost_model = cost_model or CostModel()

    def _costs(
        self, plan: EvalPlan, tasks: Sequence[EvalTask]
    ) -> Dict[Tuple[Hashable, int], float]:
        """The one cost table all three hooks consume.

        Sharing it is what keeps :meth:`order`, :meth:`predictions` and
        :meth:`partition` consistent by construction: the predictions a
        run records are exactly the costs its order and shards were
        built from.
        """
        return {
            (task.stream, task.index): self.cost_model.predict(
                plan.streams[task.stream], task.index
            )
            for task in tasks
        }

    def order(
        self, plan: EvalPlan, per_stream: List[List[EvalTask]]
    ) -> List[EvalTask]:
        flat = [task for tasks in per_stream for task in tasks]
        position = {key: i for i, key in enumerate(plan.streams)}
        costs = self._costs(plan, flat)
        flat.sort(
            key=lambda task: (
                -costs[(task.stream, task.index)],
                position[task.stream],
                task.index,
            )
        )
        return flat

    def predictions(
        self, plan: EvalPlan
    ) -> Dict[Tuple[Hashable, int], float]:
        return self._costs(plan, plan.tasks())

    def partition(
        self, plan: EvalPlan, n_shards: int
    ) -> List[List[EvalTask]]:
        tasks = plan.tasks(scheduler=self)
        costs = self._costs(plan, tasks)
        return lpt_partition(
            tasks,
            [costs[(task.stream, task.index)] for task in tasks],
            n_shards,
        )


#: The schedule names the CLI exposes (``--schedule {interleave,lpt}``).
SCHEDULES: Dict[str, Callable[..., Scheduler]] = {
    "interleave": lambda store_dir=None, trace_dir=None: (
        InterleaveScheduler()
    ),
    "lpt": lambda store_dir=None, trace_dir=None: LptScheduler(
        CostModel(store_dir=store_dir, trace_dir=trace_dir)
    ),
}


def make_scheduler(
    choice: "str | Scheduler | None",
    store_dir: Optional[object] = None,
    trace_dir: Optional[object] = None,
) -> Scheduler:
    """Resolve a schedule name (or pass through a ready scheduler).

    ``None`` and ``"interleave"`` give the byte-compatible round-robin
    default; ``"lpt"`` gives cost-aware scheduling whose
    :class:`CostModel` replays learned timings from ``store_dir`` and
    telemetry task spans from ``trace_dir`` when either is given.
    """
    if choice is None:
        return InterleaveScheduler()
    if isinstance(choice, Scheduler):
        return choice
    factory = SCHEDULES.get(choice)
    if factory is None:
        raise ValueError(
            f"unknown schedule {choice!r}; choose one of "
            f"{', '.join(sorted(SCHEDULES))}"
        )
    return factory(store_dir=store_dir, trace_dir=trace_dir)


def replay_timings(
    store_dir: object,
) -> "Iterator[Tuple[str, str, List[TaskTiming]]]":
    """Iterate every store stream's timing records (the replay reader).

    Thin indirection over
    :meth:`repro.experiments.store.ResultStore.iter_timings` so cost
    consumers (the learned table, ``store ls --timings``, benchmarks)
    share one reader without importing store internals.
    """
    from repro.experiments.store import ResultStore

    return ResultStore(store_dir).iter_timings()
