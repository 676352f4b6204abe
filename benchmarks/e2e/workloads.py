"""The four end-to-end workloads: inputs, measured operation, checks, probes.

Imported only by the child (it pulls in numpy, scipy and ``repro``; the
import is part of ``setup_s``).  Every workload offers the same
steps, which :mod:`benchmarks.e2e.child` calls in order:

``build``     inputs from the seed (timed as set-up, with probe spans);
``shape``     the tasks the operation must answer (``sizes``: for the
              fingerprint);
``operate``   the measured operation, on those inputs only;
``outcomes``  the operation's answer in canonical JSON-able form;
``check``     workload-specific correctness beyond the generic checks;
``layers``    per-layer metrics of a traced run (plus outside probes).

Why these four is recorded next to each class and in README.md.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from benchmarks.e2e.params import (
    BASE_DEMAND_SEED,
    DEMAND_JITTER,
    INGEST_TOPOLOGY_SEED,
    PROBE_ITEM_CAP,
    PROBE_KSP_K,
    ZOO_TOPOLOGY_SEED,
)
from benchmarks.e2e.spans import SpanLog
from repro.core.metrics import llpd
from repro.experiments import telemetry
from repro.experiments.dispatch import (
    dispatch_plan,
    merge_worker_store,
    write_plan_manifests,
)
from repro.experiments.engine import ExperimentEngine, NetworkResult
from repro.experiments.figures import fig04_plan, fig17_plan
from repro.experiments.plan import EvalPlan
from repro.experiments.runner import SchemeOutcome
from repro.experiments.spec import SchemeSpec, build_scheme
from repro.experiments.workloads import (
    NetworkWorkload,
    ZooWorkload,
    build_traffic_matrices,
)
from repro.net.index import LocalityPruner, graph_index
from repro.net.ingest import (
    load_distances,
    synthesize_internet_like,
    to_distances_json,
)
from repro.net.paths import KspCache, shortest_path_delays
from repro.net.zoo import generate_zoo
from repro.routing.shortest_path import ShortestPathRouting
from repro.scenarios import ScenarioGenerator, ScenarioWorkload
from repro.tm.gravity import sparse_gravity_traffic_matrix
from repro.tm.matrix import TrafficMatrix
from repro.tm.regions import maybe_aggregate

#: Canonical answer of one operation: stream name -> one
#: ``[task index, [outcome tuple per matrix]]`` entry per task.
Outcomes = Dict[str, List[List[Any]]]
Layers = Dict[str, float]

LOCALITY = 1.0
GROWTH_FACTOR = 1.3
#: SP's max link utilisation the ingest workload scales its demands to.
INGEST_SP_UTILIZATION = 1.3

#: Tracer spans at or below one task; their self times sum to the task
#: seconds the engine reports.
_TASK_LEVEL_SPANS = (
    "task", "scheme_build", "place", "ksp", "lp_assemble", "lp_solve",
    "cache_load", "cache_dump", "index_build",
)


@dataclasses.dataclass
class Run:
    """What one child repetition hands every step."""

    workdir: Path
    log: SpanLog
    workers: int
    seed: int
    #: Where the program's tracer writes when this repetition is traced.
    trace_dir: Optional[Path] = None


@dataclasses.dataclass
class PlanResult:
    """Answer of a plan-shaped operation."""

    results: Dict[Hashable, List[NetworkResult]]
    #: Seconds after the operation started at which each task's result
    #: reached the consumer (empty when results come back in one piece).
    arrivals: List[float]


# ----------------------------------------------------------------------
# Shared building blocks
# ----------------------------------------------------------------------
def jittered(tm: TrafficMatrix, rng: np.random.Generator) -> TrafficMatrix:
    """Every demand scaled by its own factor within ``1 +- DEMAND_JITTER``."""
    factors = 1.0 + DEMAND_JITTER * rng.uniform(-1.0, 1.0, size=len(tm))
    return TrafficMatrix(
        {
            pair: demand * factor
            for (pair, demand), factor in zip(tm.items(), factors.tolist())
        }
    )


def zoo_workload(params: Dict[str, Any], seed: int, log: SpanLog) -> ZooWorkload:
    """Frozen topologies and base demands, jittered by ``seed``.

    The same steps as ``build_zoo_workload`` (zoo, LLPD, gravity
    matrices shaped by locality and scaled to the target load) with a
    probe span around each layer; see ``params.DEMAND_JITTER`` for why
    the seed only jitters.
    """
    rng = np.random.default_rng(BASE_DEMAND_SEED)
    jitter = np.random.default_rng(seed)
    items: List[NetworkWorkload] = []
    with log.span("workloads.build"):
        for network in generate_zoo(
            params["n_networks"],
            seed=ZOO_TOPOLOGY_SEED,
            include_named=params["named_backbones"],
        ):
            with log.span("core.llpd"):
                value = llpd(network)
            with log.span("tm.build"):
                matrices = [
                    jittered(tm, jitter)
                    for tm in build_traffic_matrices(
                        network, params["n_matrices"], rng, LOCALITY,
                        GROWTH_FACTOR,
                    )
                ]
            items.append(
                NetworkWorkload(network=network, llpd=value, matrices=matrices)
            )
    return ZooWorkload(
        networks=items, locality=LOCALITY, growth_factor=GROWTH_FACTOR,
        seed=seed,
    )


def collect(stream: Iterable[Tuple[Hashable, NetworkResult]]) -> PlanResult:
    """Drain ``stream_plan``, stamping each result's arrival."""
    start = time.perf_counter()
    results: Dict[Hashable, List[NetworkResult]] = {}
    arrivals: List[float] = []
    for key, result in stream:
        arrivals.append(time.perf_counter() - start)
        results.setdefault(key, []).append(result)
    for per_stream in results.values():
        per_stream.sort(key=lambda result: result.index)
    return PlanResult(results=results, arrivals=arrivals)


def plan_outcomes(plan: EvalPlan, result: PlanResult) -> Outcomes:
    return {
        stream.scheme: [
            [r.index, [list(dataclasses.astuple(o)) for o in r.outcomes]]
            for r in result.results.get(key, [])
        ]
        for key, stream in plan.streams.items()
    }


def plan_shape(plan: EvalPlan) -> Dict[str, Tuple[int, int]]:
    """stream name -> (tasks, matrices per task) the plan must produce."""
    shape = {}
    for stream in plan.streams.values():
        n_matrices = len(stream.workload.networks[0].matrices)
        shape[stream.scheme] = (stream.n_networks, n_matrices)
    return shape


def outcome_of(placement: Any, item: NetworkWorkload, uid: str) -> SchemeOutcome:
    """The engine's per-placement metrics, for operations that bypass it."""
    return SchemeOutcome(
        network_name=item.network.name,
        llpd=item.llpd,
        congested_fraction=placement.congested_pair_fraction(),
        latency_stretch=placement.total_latency_stretch(),
        max_path_stretch=placement.max_path_stretch(),
        max_utilization=placement.max_utilization(),
        fits=placement.fits_all_traffic,
        network_id=uid,
    )


def task_seconds(result: PlanResult) -> List[float]:
    return [r.seconds for rs in result.results.values() for r in rs]


def directory_bytes(root: Path) -> int:
    return sum(
        path.stat().st_size for path in root.rglob("*") if path.is_file()
    )


def strided(items: Sequence[Any], cap: int = PROBE_ITEM_CAP) -> List[Any]:
    """At most ``cap`` items, evenly spread, always including the first."""
    n = len(items)
    if n <= cap:
        return [items[i] for i in range(n)]
    return [items[(i * n) // cap] for i in range(cap)]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the sample count is reported beside it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Layer metrics shared by several workloads
# ----------------------------------------------------------------------
def tracer_totals(trace_dir: Path) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and span counts per span name, over every shard."""
    seconds: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for trace_id in telemetry.list_traces(trace_dir):
        summary = telemetry.summary(telemetry.load_trace(trace_dir, trace_id))
        for name, entry in summary["spans"].items():
            seconds[name] = seconds.get(name, 0.0) + entry["exclusive_s"]
            counts[name] = counts.get(name, 0) + entry["count"]
    return seconds, counts


def tracer_layers(seconds: Dict[str, float], counts: Dict[str, int]) -> Layers:
    return {
        "routing.place_self_s": seconds.get("place", 0.0),
        "lp.assemble_s": seconds.get("lp_assemble", 0.0),
        "lp.solve_s": seconds.get("lp_solve", 0.0),
        "lp.solves": float(counts.get("lp_solve", 0)),
        "trace.ksp_s": seconds.get("ksp", 0.0),
    }


def ksp_probe(
    items: Sequence[NetworkWorkload], k: int, pruner: Any = None
) -> Layers:
    """``KspCache.get`` over every demand pair: fresh cache, then again."""
    cold = warm = 0.0
    calls = paths = 0
    for item in strided(items):
        cache = KspCache(item.network, pruner=pruner)
        pairs = list(dict.fromkeys(
            (agg.src, agg.dst)
            for tm in item.matrices for agg in tm.aggregates()
        ))
        start = time.perf_counter()
        for src, dst in pairs:
            cache.get(src, dst, k)
        middle = time.perf_counter()
        for src, dst in pairs:
            cache.get(src, dst, k)
        warm += time.perf_counter() - middle
        cold += middle - start
        calls += len(pairs)
        paths += cache.total_cached()
    return {
        "net.ksp_cold_s": cold,
        "net.ksp_warm_s": warm,
        "net.ksp_calls": float(calls),
        "net.ksp_paths": float(paths),
    }


def place_probe(plan: EvalPlan) -> Layers:
    """``build_scheme(spec, item).place`` per (item, matrix), cold cache.

    Each (scheme, item) gets its own fresh KSP cache, so a scheme's
    number is what it costs alone — not what is left after an earlier
    scheme warmed the shared cache, as happens inside the engine.
    """
    totals: Layers = {}
    for stream in plan.streams.values():
        spec = stream.factory
        name = f"routing.place_s.{spec.scheme}"
        for item in strided(stream.workload.networks):
            fresh = NetworkWorkload(
                network=item.network, llpd=item.llpd, matrices=item.matrices
            )
            start = time.perf_counter()
            scheme = build_scheme(spec, fresh)
            for tm in fresh.matrices:
                scheme.place(fresh.network, tm)
            totals[name] = totals.get(name, 0.0) + time.perf_counter() - start
    return totals


def timed(call: Any) -> Tuple[float, Any]:
    """(seconds, value) of one probe call."""
    start = time.perf_counter()
    value = call()
    return time.perf_counter() - start, value


# ----------------------------------------------------------------------
# The three plan-shaped workloads
# ----------------------------------------------------------------------
class PlanWorkload:
    """What the workloads whose operation runs an ``EvalPlan`` share.

    ``build`` returns a dict holding at least the ``plan``.
    """

    name: str

    def sizes(self, inputs: Dict[str, Any]) -> Dict[str, int]:
        return {
            "networks": len(inputs["workload"].networks),
            "streams": len(inputs["plan"]),
            "tasks": inputs["plan"].n_tasks,
        }

    def shape(self, inputs: Dict[str, Any]) -> Dict[str, Tuple[int, int]]:
        return plan_shape(inputs["plan"])

    def outcomes(self, inputs: Dict[str, Any], result: PlanResult) -> Outcomes:
        return plan_outcomes(inputs["plan"], result)

    def check(
        self, inputs: Dict[str, Any], result: PlanResult, run: Run
    ) -> List[str]:
        return []

    def common_layers(
        self, inputs: Dict[str, Any], result: PlanResult, run: Run,
        probes: bool,
    ) -> Tuple[Layers, Dict[str, float]]:
        """The layers every plan workload has, and the tracer's self
        seconds per span name for the subclass to add its own."""
        plan = inputs["plan"]
        seconds, counts = tracer_totals(run.trace_dir)
        layers = {
            "workloads.build_s": run.log.total("workloads.build"),
            "core.llpd_s": run.log.total("core.llpd"),
            "tm.build_s": run.log.total("tm.build"),
            "plan.build_s": run.log.total("plan.build"),
            "plan.tasks": float(plan.n_tasks),
        }
        layers.update(tracer_layers(seconds, counts))
        task_s = task_seconds(result)
        layers["engine.tasks"] = float(len(task_s))
        layers["engine.task_p50_ms"] = 1e3 * percentile(task_s, 0.5)
        layers["engine.task_p95_ms"] = 1e3 * percentile(task_s, 0.95)
        layers["engine.task_self_s"] = seconds.get("task", 0.0) + seconds.get(
            "scheme_build", 0.0
        )
        if "store_append" in counts:
            layers["store.append_s"] = seconds["store_append"]
            layers["store.appends"] = float(counts["store_append"])
            layers["store.bytes"] = float(directory_bytes(run.workdir / "store"))
        if probes:
            first = next(iter(plan.streams.values()))
            layers.update(ksp_probe(first.workload.networks, PROBE_KSP_K))
            layers.update(place_probe(plan))
        return layers, seconds


class ZooFig04(PlanWorkload):
    """The paper's core evaluation, serial and in-process.

    Why: LP assemble/solve, cold KSP and ``place`` do nearly all the
    work while pool, store, dispatch and scenarios do none — the
    workload an LP/KSP/routing change must move, and the bypass for
    everything else.
    """

    name = "zoo_fig04"

    def build(self, params: Dict[str, Any], run: Run) -> Dict[str, Any]:
        workload = zoo_workload(params, run.seed, run.log)
        with run.log.span("plan.build"):
            plan = fig04_plan(workload)
        return {"plan": plan, "workload": workload}

    def operate(self, inputs: Dict[str, Any], run: Run) -> PlanResult:
        return collect(ExperimentEngine(n_workers=1).stream_plan(inputs["plan"]))

    def layers(
        self, inputs: Dict[str, Any], result: PlanResult, run: Run,
        wall_s: float, probes: bool,
    ) -> Layers:
        layers, seconds = self.common_layers(inputs, result, run, probes)
        overhead = wall_s - sum(task_seconds(result))
        layers["engine.overhead_s"] = overhead
        layers["engine.first_result_s"] = result.arrivals[0]
        in_tasks = sum(seconds.get(name, 0.0) for name in _TASK_LEVEL_SPANS)
        layers["trace.accounted_share"] = (in_tasks + overhead) / wall_s
        return layers


class FleetK1(PlanWorkload):
    """Hundreds of 10-60 ms tasks on perturbed copies of one network.

    Why: scenario realisation, per-variant cold KSP (no cache is
    shareable), B4 water-filling, fork-pool hand-off and one store
    append per task dominate, and there is no LP at all — an LP change
    must read "no change" here while engine/pool/store/scenarios changes
    show.  It uses the KSP layer the opposite way from ``zoo_fig04``:
    many tiny throw-away caches instead of one amortised cache.
    """

    name = "fleet_k1"

    def build(self, params: Dict[str, Any], run: Run) -> Dict[str, Any]:
        zoo = zoo_workload(params, run.seed, run.log)
        # Best-connected network, ties to the lowest index — the same
        # default base the ``scenarios`` CLI picks.
        best = max(
            range(len(zoo.networks)),
            key=lambda i: (zoo.networks[i].network.num_links, -i),
        )
        base = zoo.networks[best]
        with run.log.span("scenarios.generate"):
            fleet = ScenarioGenerator(base, seed=run.seed).fleet(
                link_failure_k=1,
                node_failure_k=1,
                surges=params["surges"],
                budget=params["budget"],
            )
        workload = ScenarioWorkload(
            base, fleet.specs, locality=LOCALITY,
            growth_factor=GROWTH_FACTOR, seed=run.seed,
        )
        with run.log.span("plan.build"):
            plan = EvalPlan()
            for name in ("SP", "B4"):
                plan.add(name, SchemeSpec(name), workload)
        return {"plan": plan, "workload": workload, "fleet": fleet}

    def sizes(self, inputs: Dict[str, Any]) -> Dict[str, int]:
        base = inputs["workload"].base.network
        return {
            "variants": len(inputs["workload"].specs),
            "tasks": inputs["plan"].n_tasks,
            "nodes": base.num_nodes,
            "links": base.num_links,
        }

    def operate(self, inputs: Dict[str, Any], run: Run) -> PlanResult:
        engine = ExperimentEngine(
            n_workers=run.workers, store_dir=run.workdir / "store"
        )
        return collect(engine.stream_plan(inputs["plan"]))

    def layers(
        self, inputs: Dict[str, Any], result: PlanResult, run: Run,
        wall_s: float, probes: bool,
    ) -> Layers:
        layers, _ = self.common_layers(inputs, result, run, probes)
        workload = inputs["workload"]
        layers["scenarios.generate_s"] = run.log.total("scenarios.generate")
        layers["scenarios.variants"] = float(len(workload.specs))
        layers["scenarios.skipped"] = float(sum(inputs["fleet"].skipped.values()))
        layers["engine.first_result_s"] = result.arrivals[0]
        layers["engine.pool_idle_share"] = 1.0 - sum(task_seconds(result)) / (
            run.workers * wall_s
        )
        if probes:
            layers["scenarios.realize_s"], _ = timed(
                lambda: list(workload.networks)
            )
        return layers


class DispatchFig17(PlanWorkload):
    """The LP-heavy task mix, shipped across a process boundary.

    Why: the same kind of tasks as ``zoo_fig04``, but manifests are
    written and parsed, one interpreter starts per shard, worker stores
    are merged and the report is served back from disk — costs paid only
    here.  The store is written *then read*, where ``fleet_k1`` only
    appends, so a store change that speeds appends but slows
    scans/merges shows up as a split verdict.
    """

    name = "dispatch_fig17"

    def build(self, params: Dict[str, Any], run: Run) -> Dict[str, Any]:
        zoo = zoo_workload(params, run.seed, run.log)
        with run.log.span("plan.build"):
            plan = fig17_plan(zoo.networks, loads=tuple(params["loads"]))
        return {"plan": plan, "workload": zoo}

    def operate(self, inputs: Dict[str, Any], run: Run) -> PlanResult:
        report = dispatch_plan(
            inputs["plan"],
            n_shards=run.workers,
            store_dir=run.workdir / "store",
            work_dir=run.workdir / "dispatch",
        )
        return PlanResult(results=report.results, arrivals=[])

    def _render(self, inputs: Dict[str, Any], run: Run) -> PlanResult:
        engine = ExperimentEngine(
            store_dir=run.workdir / "store", store_only=True
        )
        return PlanResult(engine.run_plan(inputs["plan"]).results, [])

    def check(
        self, inputs: Dict[str, Any], result: PlanResult, run: Run
    ) -> List[str]:
        rendered = self.outcomes(inputs, self._render(inputs, run))
        if rendered != self.outcomes(inputs, result):
            return ["dispatched report differs from the store-only re-render"]
        return []

    def layers(
        self, inputs: Dict[str, Any], result: PlanResult, run: Run,
        wall_s: float, probes: bool,
    ) -> Layers:
        layers, _ = self.common_layers(inputs, result, run, probes)
        layers["dispatch.overhead_s"] = (
            wall_s - sum(task_seconds(result)) / run.workers
        )
        if probes:
            layers["store.render_s"], _ = timed(
                lambda: self._render(inputs, run)
            )
            scratch = run.workdir / "probe"
            worker_store = scratch / "worker-000"
            shutil.copytree(
                run.workdir / "dispatch" / "worker-000", worker_store
            )
            layers["store.merge_s"], _ = timed(
                lambda: merge_worker_store(scratch / "merged", worker_store)
            )
            layers["dispatch.manifest_s"], manifests = timed(
                lambda: write_plan_manifests(
                    inputs["plan"], run.workers, scratch / "manifests"
                )
            )
            layers["dispatch.manifest_bytes"] = float(
                sum(path.stat().st_size for path in manifests)
            )
        return layers


# ----------------------------------------------------------------------
# ingest_scale
# ----------------------------------------------------------------------
class IngestScale:
    """One large graph: the cost is graph size, not task count.

    Why: JSON ingest, CSR index build, sparse demand sampling, region
    aggregation, pruned Yen on a thousands-of-nodes graph and the "one
    Dijkstra per demand pair" shortest-path route all live here, with an
    LP scheme measured at ingest scale; engine, pool, store and dispatch
    are bypassed entirely.
    """

    name = "ingest_scale"

    def _schemes(self, params: Dict[str, Any]) -> List[Tuple[str, SchemeSpec]]:
        return [
            ("SP", SchemeSpec("SP")),
            ("B4", SchemeSpec("B4")),
            ("MinMax", SchemeSpec("MinMax", {"k": params["minmax_k"]})),
        ]

    def _demands(self, network: Any, params: Dict[str, Any], run: Run) -> Any:
        """Sparse gravity demands, region-aggregated to the pair budget.

        The seed jitters the *routed* matrix: jitter on the tens of
        thousands of sampled demands would average away in the regions.
        """
        with run.log.span("tm.sparse_gravity"):
            tm = sparse_gravity_traffic_matrix(
                network,
                np.random.default_rng(BASE_DEMAND_SEED),
                n_pairs=params["pairs_per_node"] * network.num_nodes,
            )
        with run.log.span("tm.regions"):
            routed, regional = maybe_aggregate(
                network, tm, max_pairs=params["max_pairs"]
            )
        return tm, jittered(routed, np.random.default_rng(run.seed)), regional

    def build(self, params: Dict[str, Any], run: Run) -> Dict[str, Any]:
        network = synthesize_internet_like(
            params["nodes"], seed=INGEST_TOPOLOGY_SEED
        )
        path = run.workdir / "ingest.json"
        path.write_text(to_distances_json(network))
        # One throw-away SP placement fixes the demand scale, so the
        # measured operation routes a load that over-subscribes SP by a
        # known amount whatever the seed sampled.
        # Its spans are dropped: only the operation's demand stages count.
        _, routed, _ = self._demands(
            network, params, dataclasses.replace(run, log=SpanLog())
        )
        sp_utilization = ShortestPathRouting().place(
            network, routed
        ).max_utilization()
        return {
            "path": path,
            "factor": INGEST_SP_UTILIZATION / sp_utilization,
            "params": params,
            "nodes": network.num_nodes,
            "links": network.num_links,
        }

    def sizes(self, inputs: Dict[str, Any]) -> Dict[str, int]:
        return {
            "nodes": inputs["nodes"],
            "links": inputs["links"],
            "tasks": len(self._schemes(inputs["params"])),
        }

    def shape(self, inputs: Dict[str, Any]) -> Dict[str, Tuple[int, int]]:
        return {name: (1, 1) for name, _ in self._schemes(inputs["params"])}

    def operate(self, inputs: Dict[str, Any], run: Run) -> Dict[str, Any]:
        params = inputs["params"]
        log = run.log
        recorder = telemetry.recorder()
        with log.span("net.ingest_load"):
            network = load_distances(inputs["path"])
        with log.span("net.index_build"):
            index = graph_index(network)
        tm, routed, regional = self._demands(network, params, run)
        routed = routed.scaled(inputs["factor"])
        with log.span("net.pruner_build"):
            delays = index.shortest_path_delays(sorted(network.node_names)[0])
            radius_s = float(np.median(list(delays.values())))
            pruner = LocalityPruner(network, radius_s=radius_s)
        item = NetworkWorkload(
            network=network, llpd=0.0, matrices=[routed],
            cache=KspCache(network, pruner=pruner),
        )
        outcomes: Dict[str, SchemeOutcome] = {}
        for name, spec in self._schemes(params):
            with log.span(f"routing.place.{name}"), recorder.span("place"):
                placement = spec(item).place(network, routed)
            with log.span("routing.outcome"):
                outcomes[name] = outcome_of(placement, item, f"0:{network.name}")
        return {
            "outcomes": outcomes,
            "item": item,
            "pruner": pruner,
            "demand_pairs": len(tm),
            "dropped_share": (
                regional.dropped_intra_bps / tm.total_demand_bps
                if regional is not None else 0.0
            ),
        }

    def outcomes(self, inputs: Dict[str, Any], result: Dict[str, Any]) -> Outcomes:
        return {
            name: [[0, [list(dataclasses.astuple(outcome))]]]
            for name, outcome in result["outcomes"].items()
        }

    def check(self, inputs: Dict[str, Any], result: Dict[str, Any], run: Run) -> List[str]:
        errors = []
        sp = result["outcomes"]["SP"].max_utilization
        minmax = result["outcomes"]["MinMax"].max_utilization
        if abs(sp - INGEST_SP_UTILIZATION) > 1e-9:
            errors.append(
                f"SP max utilisation {sp!r} is not {INGEST_SP_UTILIZATION}"
            )
        if minmax > sp + 1e-9:
            errors.append(
                f"MinMax max utilisation {minmax!r} exceeds SP's {sp!r}"
            )
        return errors

    def layers(
        self, inputs: Dict[str, Any], result: Dict[str, Any], run: Run,
        wall_s: float, probes: bool,
    ) -> Layers:
        log = run.log
        item = result["item"]
        routed = item.matrices[0]
        seconds, counts = tracer_totals(run.trace_dir)
        layers = tracer_layers(seconds, counts)
        for name in (
            "net.ingest_load", "net.index_build", "net.pruner_build",
            "tm.sparse_gravity", "tm.regions",
        ):
            layers[f"{name}_s"] = log.total(name)
        for name, _ in self._schemes(inputs["params"]):
            layers[f"routing.place_s.{name}"] = log.total(f"routing.place.{name}")
        layers["routing.outcome_s"] = log.total("routing.outcome")
        layers["tm.regions_dropped_share"] = result["dropped_share"]
        layers["tm.routed_pairs"] = float(len(routed))
        pairs = [(agg.src, agg.dst) for agg in routed.aggregates()]
        pruned = sum(1 for pair in pairs if not result["pruner"].admits(*pair))
        layers["net.ksp_pruned_share"] = pruned / len(pairs)
        layers["trace.accounted_share"] = log.children_seconds("op") / wall_s
        if probes:
            sources = sorted({src for src, _ in pairs})
            layers["net.sp_sweep_s"], _ = timed(
                lambda: [
                    shortest_path_delays(item.network, src) for src in sources
                ]
            )
            layers["net.sp_sources"] = float(len(sources))
            layers.update(
                ksp_probe(
                    [item], inputs["params"]["minmax_k"], result["pruner"]
                )
            )
        return layers


WORKLOADS = {
    workload.name: workload
    for workload in (ZooFig04(), FleetK1(), DispatchFig17(), IngestScale())
}


# ----------------------------------------------------------------------
# Generic correctness: shape, finiteness, aggregates
# ----------------------------------------------------------------------
def failed_tasks(
    outcomes: Outcomes, shape: Dict[str, Tuple[int, int]]
) -> Tuple[int, List[str]]:
    """Tasks missing, duplicated, mis-shaped or carrying non-finite fields."""
    failed = 0
    errors: List[str] = []
    for stream, (n_tasks, n_matrices) in shape.items():
        entries = outcomes.get(stream, [])
        seen: Dict[int, int] = {}
        for index, per_matrix in entries:
            seen[index] = seen.get(index, 0) + 1
            finite = all(
                math.isfinite(value)
                for outcome in per_matrix
                for value in outcome
                if isinstance(value, float)
            )
            if len(per_matrix) != n_matrices or not finite:
                failed += 1
                errors.append(f"{stream}[{index}]: bad outcome {per_matrix!r}")
        wrong = [i for i in range(n_tasks) if seen.get(i, 0) != 1]
        extra = [i for i in seen if not 0 <= i < n_tasks]
        if wrong or extra:
            failed += len(wrong)
            errors.append(
                f"{stream}: tasks not present exactly once {wrong[:8]}, "
                f"unexpected {extra[:8]}"
            )
    for stream in outcomes:
        if stream not in shape:
            errors.append(f"unexpected stream {stream!r}")
    return failed, errors


def aggregates(outcomes: Outcomes) -> Dict[str, Dict[str, float]]:
    """Median latency stretch and max utilisation per scheme, 6 digits."""
    fields = [f.name for f in dataclasses.fields(SchemeOutcome)]
    stretch = fields.index("latency_stretch")
    utilization = fields.index("max_utilization")
    result = {}
    for stream, entries in sorted(outcomes.items()):
        rows = [outcome for _, per_matrix in entries for outcome in per_matrix]
        if not rows:
            continue
        result[stream] = {
            "median_stretch": float(
                f"{statistics.median(row[stretch] for row in rows):.6g}"
            ),
            "max_utilization": float(
                f"{max(row[utilization] for row in rows):.6g}"
            ),
        }
    return result
