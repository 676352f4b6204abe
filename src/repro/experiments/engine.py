"""Experiment engine: the one loop that runs an evaluation plan.

Per-network evaluations are *pure and independent* — a scheme instance,
its KSP cache and its placements touch exactly one
:class:`~repro.experiments.workloads.NetworkWorkload` — so they commute:
they fan out across processes, and the k-shortest-paths results ("the
bottleneck is not the linear optimizer", paper §5) persist between runs
via :meth:`KspCache.dump` / :meth:`KspCache.load`.

The unit of execution is an :class:`~repro.experiments.plan.EvalPlan`: a
flat batch of (stream, network-index) tasks spanning every scheme and
sweep point of a figure.  :meth:`ExperimentEngine.run_plan` (and its
streaming form :meth:`~ExperimentEngine.stream_plan`) executes the plan
(``run_plan`` with ``indices``: any subset of its tasks) in round-robin
task order (:meth:`~repro.experiments.plan.EvalPlan.iter_tasks`), one
way: on one ``fork`` pool when ``n_workers > 1`` and fork exists,
serially otherwise.  Out-of-process runs go through
:mod:`repro.experiments.dispatch`, whose workers run their shard
through this same engine.

Sharding/determinism contract
-----------------------------

* The unit of work is one task — one network of one stream: all of its
  traffic matrices are evaluated in order inside a single process,
  against a single KSP cache.  Each task's result is a pure function of
  its workload item and scheme factory (warm KSP-cache state affects
  only timing: a cache loaded from disk, a base item's cache warmed by
  earlier tasks, or a scenario variant's cache derived from it), so
  plan execution returns **bit-identical** outcome lists for any
  ``n_workers``, any task order and any split into task subsets.
* Pool workers are forked, so scheme factories (possibly closures) and
  workloads are never pickled; only :class:`EvalTask` values travel to
  the workers and only :class:`NetworkResult` values travel back.
  Where ``fork`` is unavailable (Windows) the engine evaluates serially
  and logs a warning on the ``repro`` logger (and bumps the
  ``engine.serial_fallback`` trace counter); ``dispatch`` is the
  out-of-process route there.
* With a ``cache_dir``, each task warms its network's KSP cache from
  ``ksp-<network_signature>.json`` when a valid file exists and dumps the
  (possibly extended) cache back after evaluating.  Files are keyed by a
  content hash of the network, so stale caches are rejected, and writes
  are atomic (:mod:`repro.durable`).
* With a ``store_dir``, the engine is the one place that decides which
  tasks run and appends their results: each stream's stored results are
  served (counted in :attr:`PlanReport.n_stored`), only the missing
  tasks are evaluated, and each completed result is appended to its
  (workload signature, scheme) stream.  An interrupted plan restarted
  against the same store evaluates only what is missing, and a
  fully-stored plan constructs no scheme at all.  Stored results
  round-trip through JSON exactly, so the bit-identity contract extends
  to them.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import multiprocessing

from repro import telemetry
from repro.durable import read_cache
from repro.experiments.plan import EvalPlan, EvalTask, PlanReport
from repro.experiments.runner import SchemeOutcome
from repro.experiments.workloads import NetworkWorkload
from repro.net.paths import KspCache, ksp_cache_path, network_signature

logger = logging.getLogger(__name__)

#: Worker-side state inherited through ``fork``, keyed by a per-run token
#: so concurrently advanced streams (different engines, different threads)
#: never clobber each other; see :meth:`_stream_forked`.
_FORK_STATE: Dict[int, Tuple] = {}
_FORK_STATE_LOCK = threading.Lock()
_FORK_TOKENS = itertools.count()


def network_id(item: NetworkWorkload, index: int) -> str:
    """Unique id of one workload entry.

    Zoo names are not unique (two generated topologies can share one), so
    outcome grouping keys on this id: position in the workload plus name.
    """
    return f"{index}:{item.network.name}"


@dataclass
class NetworkResult:
    """Everything one shard reports back for one network."""

    index: int
    network_name: str
    network_id: str
    outcomes: List[SchemeOutcome]
    #: Wall-clock seconds spent evaluating this network's matrices
    #: (excluding cache load/dump I/O).
    seconds: float
    #: KSP paths already materialized before evaluation started — nonzero
    #: means the persistent cache produced a warm start.
    paths_preloaded: int = 0
    #: Content hash of the evaluated network
    #: (:func:`repro.net.paths.network_signature`).  Persisted with the
    #: result so measured ``seconds`` can be joined to the same network
    #: under any workload; empty on records written before signatures
    #: were stored.
    network_signature: str = ""


class ExperimentEngine:
    """Executes evaluation plans, fork pool or serial.

    ``n_workers=1`` runs in-process; ``n_workers>1`` shards tasks across
    one ``fork`` process pool for the entire plan (serially where fork
    is missing; ``dispatch`` is the out-of-process route).
    ``cache_dir`` enables persistent KSP caches keyed by network content
    hash.  ``store_dir`` enables the durable result store: stored
    networks are served without evaluation (unless ``resume`` is false,
    which discards the existing streams first), and ``store_only``
    forbids evaluation altogether — missing results raise
    :class:`~repro.experiments.store.StoreMissError` instead of being
    computed.  See the module docstring for the full contract.
    """

    def __init__(
        self,
        n_workers: int = 1,
        cache_dir: Optional[os.PathLike] = None,
        store_dir: Optional[os.PathLike] = None,
        resume: bool = True,
        store_only: bool = False,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        if store_only and store_dir is None:
            raise ValueError("store_only runs need a store_dir")
        self.n_workers = n_workers
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.resume = resume
        self.store_only = store_only

    def run_plan(
        self,
        plan: EvalPlan,
        indices: Optional[Dict[Hashable, Sequence[int]]] = None,
    ) -> PlanReport:
        """Execute a whole plan; per-stream results in workload order.

        ``indices`` restricts each stream to the given network indices,
        as :meth:`~repro.experiments.plan.EvalPlan.iter_tasks` does (a
        dispatch worker passes its shard); by default every task runs.
        """
        report = PlanReport(results={key: [] for key in plan.streams})
        for key, result in self._stream(plan, indices, report):
            report.results[key].append(result)
        for results in report.results.values():
            results.sort(key=lambda result: result.index)
        return report

    def stream_plan(
        self, plan: EvalPlan
    ) -> Iterator[Tuple[Hashable, NetworkResult]]:
        """Yield ``(stream key, result)`` pairs as tasks complete.

        Store-backed runs yield each stream's stored results first (in
        index order, stream by stream), then freshly evaluated tasks in
        completion order.  The whole plan runs on one process pool, fed
        in :meth:`~repro.experiments.plan.EvalPlan.iter_tasks` order.
        """
        return self._stream(plan, None, PlanReport())

    def _stream(
        self,
        plan: EvalPlan,
        indices: Optional[Dict[Hashable, Sequence[int]]],
        report: PlanReport,
    ) -> Iterator[Tuple[Hashable, NetworkResult]]:
        """:meth:`stream_plan`, counting store-served results on ``report``."""
        if not plan.streams:
            return iter(())
        if indices is None:
            indices = {
                key: range(stream.n_networks)
                for key, stream in plan.streams.items()
            }
        recorder = telemetry.recorder()
        if recorder.enabled:
            # Name the trace after the plan's workload content, so every
            # process evaluating this plan — fork children, dispatch
            # workers on other hosts — independently
            # derives the same trace id and their shards merge.
            recorder.begin_trace(telemetry.plan_trace_id(plan))
        if self.store_dir is not None:
            inner = self._stream_plan_stored(plan, indices, report)
        else:
            inner = self._stream_plan_fresh(plan, plan.iter_tasks(indices))
        if recorder.enabled:
            return self._traced_stream(inner)
        return inner

    @staticmethod
    def _traced_stream(
        inner: Iterator[Tuple[Hashable, "NetworkResult"]],
    ) -> Iterator[Tuple[Hashable, "NetworkResult"]]:
        """Wrap a whole plan's streaming consumption in one root span."""
        with telemetry.recorder().span("run_plan"):
            yield from inner

    # ------------------------------------------------------------------
    def _stream_plan_stored(
        self,
        plan: EvalPlan,
        indices: Dict[Hashable, Sequence[int]],
        report: PlanReport,
    ) -> Iterator[Tuple[Hashable, NetworkResult]]:
        """Serve stored results, evaluate (and append) only the rest."""
        from repro.experiments.store import (
            MultiStreamWriter,
            ResultStore,
            StoreMissError,
            workload_signature,
        )

        store = ResultStore(self.store_dir)
        signatures = {
            key: workload_signature(stream.workload)
            for key, stream in plan.streams.items()
        }

        if self.store_only:
            for key, stream in plan.streams.items():
                stored = store.load_results(signatures[key], stream.scheme)
                wanted = indices.get(key, ())
                missing = [i for i in wanted if i not in stored]
                if missing:
                    raise StoreMissError(
                        f"store "
                        f"{store.stream_path(signatures[key], stream.scheme)} "
                        f"holds {len(stored)}/{stream.n_networks} networks; "
                        f"missing indices {missing[:8]}"
                        f"{'...' if len(missing) > 8 else ''}"
                    )
                report.n_stored += len(wanted)
                for index in wanted:
                    yield key, stored[index]
            return

        recorder = telemetry.recorder()
        writer = MultiStreamWriter(store, resume=self.resume)
        try:
            missing: Dict[Hashable, List[int]] = {}
            for key, stream in plan.streams.items():
                stored = writer.open(
                    key, signatures[key], stream.scheme,
                    n_networks=stream.n_networks,
                )
                wanted = indices.get(key, ())
                served = [i for i in wanted if i in stored]
                if served and recorder.enabled:
                    recorder.counter("engine.resume_skipped", len(served))
                report.n_stored += len(served)
                for index in served:
                    yield key, stored[index]
                missing[key] = [i for i in wanted if i not in stored]
            tasks = plan.iter_tasks(indices=missing)
            for key, result in self._stream_plan_fresh(plan, tasks):
                writer.append(key, result)
                yield key, result
        finally:
            writer.close()

    def _stream_plan_fresh(
        self, plan: EvalPlan, tasks: Iterable[EvalTask]
    ) -> Iterator[Tuple[Hashable, NetworkResult]]:
        # ``tasks`` may be a lazy iterator over a 10^5-task fleet.  Peel
        # just enough of its head to size the pool (as many tasks as the
        # bounded submission window holds), then chain it back — the
        # tail is never materialized.
        task_iter = iter(tasks)
        head = list(itertools.islice(task_iter, max(2 * self.n_workers, 2)))
        if not head:
            return iter(())
        tasks = itertools.chain(head, task_iter)
        workers = min(self.n_workers, len(head))
        if workers > 1:
            if "fork" in multiprocessing.get_all_start_methods():
                return self._stream_forked(plan, tasks, workers)
            recorder = telemetry.recorder()
            if recorder.enabled:
                recorder.counter("engine.serial_fallback")
            logger.warning(
                "fork start method unavailable; evaluating serially "
                "(`dispatch` is the out-of-process route)"
            )
        return self._stream_plan_serial(plan, tasks)

    def _stream_plan_serial(
        self, plan: EvalPlan, tasks: Iterable[EvalTask]
    ) -> Iterator[Tuple[Hashable, NetworkResult]]:
        for task in tasks:
            yield task.stream, self._evaluate_network(plan, task)

    def _stream_forked(
        self, plan: EvalPlan, tasks: Iterable[EvalTask], workers: int
    ) -> Iterator[Tuple[Hashable, NetworkResult]]:
        """The one pool loop.

        Workers are forked, so factories/workloads (closures, caches,
        live generators — none of it picklable) are inherited by memory
        image instead of serialized.  Only the run token and the task
        (stream key + network index) cross the pipe.  Tasks are
        submitted lazily, a bounded window at a time: a 10^5-task
        scenario fleet must not materialize as 10^5 pending futures.
        """
        recorder = telemetry.recorder()
        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork")
        )
        with _FORK_STATE_LOCK:
            token = next(_FORK_TOKENS)
            _FORK_STATE[token] = (self, plan)

        def submit(task: EvalTask) -> Future:
            return pool.submit(_forked_evaluate, token, task)

        try:
            remaining = iter(tasks)
            pending = {
                submit(task)
                for task in itertools.islice(remaining, 2 * workers)
            }
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                if recorder.enabled:
                    recorder.gauge("pool.pending", len(pending))
                for future in done:
                    for task in itertools.islice(remaining, 1):
                        pending.add(submit(task))
                    yield future.result()
        finally:
            # A consumer abandoning the iterator early must not wait out
            # the whole plan: drop everything not yet started.
            pool.shutdown(wait=True, cancel_futures=True)
            with _FORK_STATE_LOCK:
                _FORK_STATE.pop(token, None)

    # ------------------------------------------------------------------
    def _evaluate_network(
        self, plan: EvalPlan, task: EvalTask
    ) -> NetworkResult:
        """Evaluate one task: its item under its *full*-workload index, so
        ids and stored streams line up across shards and hosts.  The
        stream's ``scheme`` and workload signature ride on the task's
        trace span so span timings group by stored stream
        (``store ls --timings --trace-dir``).
        """
        stream = plan.streams[task.stream]
        index = task.index
        item = stream.workload.networks[index]
        recorder = telemetry.recorder()
        cache_path = None
        if self.cache_dir is not None:
            cache_path = ksp_cache_path(self.cache_dir, item.network)
        preloaded = 0
        if cache_path is not None:
            with recorder.span("cache_load"):
                loaded = read_cache(
                    cache_path,
                    lambda text: KspCache.load(json.loads(text), item.network),
                )
            if loaded is not None:
                # Swap the cache on a copy: the caller's workload must not
                # be mutated differently by serial vs parallel runs (the
                # fork path only ever touches the child's memory image).
                item = replace(item, cache=loaded)
                preloaded = item.cache.total_cached()

        uid = network_id(item, index)
        signature = network_signature(item.network)
        attrs = None
        if recorder.enabled:
            from repro.experiments.store import workload_signature

            attrs = {
                "index": index,
                "network_id": uid,
                "scheme": stream.scheme,
                "network_signature": signature,
                # Memoized: plan_trace_id hashed it before any task ran.
                "workload_signature": workload_signature(stream.workload),
            }
            if item.scenario is not None:
                attrs["scenario"] = item.scenario
        # The task span covers exactly the region ``seconds`` measures,
        # so span-derived phase totals and stored seconds agree.
        with recorder.span("task", attrs):
            start = time.perf_counter()
            with recorder.span("scheme_build"):
                built = stream.factory(item)
            outcomes = []
            for tm in item.matrices:
                with recorder.span("place"):
                    placement = built.place(item.network, tm)
                outcomes.append(
                    SchemeOutcome(
                        network_name=item.network.name,
                        llpd=item.llpd,
                        congested_fraction=placement.congested_pair_fraction(),
                        latency_stretch=placement.total_latency_stretch(),
                        max_path_stretch=placement.max_path_stretch(),
                        max_utilization=placement.max_utilization(),
                        fits=placement.fits_all_traffic,
                        network_id=uid,
                    )
                )
            seconds = time.perf_counter() - start
        if cache_path is not None:
            # Path counts ask the cache itself (sparse in the pairs
            # requested), never the quadratic node-pair space.  A fully-
            # warm repeat run adds nothing and skips the rewrite; its load
            # already touched the file for the LRU sweep.
            if (
                not os.path.exists(cache_path)
                or item.cache.total_cached() != preloaded
            ):
                with recorder.span("cache_dump"):
                    item.cache.dump_file(cache_path)
        return NetworkResult(
            index=index,
            network_name=item.network.name,
            network_id=uid,
            outcomes=outcomes,
            seconds=seconds,
            paths_preloaded=preloaded,
            network_signature=signature,
        )


def _forked_evaluate(
    token: int, task: EvalTask
) -> Tuple[Hashable, NetworkResult]:
    """Worker entry point: evaluate one task from the inherited plan."""
    engine, plan = _FORK_STATE[token]
    return task.stream, engine._evaluate_network(plan, task)
