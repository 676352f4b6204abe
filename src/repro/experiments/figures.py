"""One entry point per paper figure.

Every function returns plain data (lists/dicts of numbers) so that the
benchmark harness can both assert on the *shape* of the result (who wins,
where crossovers fall) and print the same series the paper plots.  Figure
numbering follows the paper:

====== ==============================================================
Fig 1  CDFs of APA per network (stretch limit 1.4)
Fig 3  congested-pair fraction vs LLPD under shortest-path routing
Fig 4  congestion + latency stretch vs LLPD for Optimal/B4/MinMax/K10
Fig 7  link-utilization CDF, latency-optimal vs MinMax, GTS median TM
Fig 8  median delay change vs LLPD as headroom grows (lighter load)
Fig 9  CDF of measured/predicted rate ratios (Algorithm 1)
Fig 10 sigma(t) vs sigma(t+1) scatter
Fig 15 runtime: iterative path LP (warm/cold cache) vs link-based LP
Fig 16 CDFs of max path stretch by LLPD class and headroom
Fig 17 median max stretch vs load (high-LLPD networks)
Fig 18 median max stretch vs locality
Fig 19 Fig 3's pair over a workload that adds a Google-like topology
Fig 20 latency stretch before/after LLPD-guided growth
====== ==============================================================

Every engine-backed figure (3, 4, 8, 16, 17, 18, 20) is defined once, as
a pair of

* a **plan builder** (``figNN_plan``) that declares the figure's whole
  (scheme x sweep-point x network) grid as one
  :class:`~repro.experiments.plan.EvalPlan`, and
* a **reducer** (the public ``figNN_*`` function) that folds the
  :class:`~repro.experiments.plan.PlanReport` into the series the paper
  plots.  It is a pure function of the report: sweep points (loads,
  headrooms, localities, LLPD classes, phases) are read back from the
  stream keys, which the report holds in plan order.

Running a figure applies the reducer to the report of its executed plan
(:meth:`~repro.experiments.engine.ExperimentEngine.run_plan`).  How the
report is produced (in process, served from the result store alone, or
merged from dispatched shard workers) is the caller's choice and never
changes the reduced data.  The plan executes as ONE engine pass over
one shared process pool, so schemes and sweep points interleave, with
results bit-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.metrics import ApaParameters, apa_all_pairs, apa_cdf, llpd
from repro.durable import cache_path, read_cache, write_atomic
from repro.experiments.plan import EvalPlan, PlanReport
from repro.telemetry import traced
from repro.experiments.runner import per_network_quantiles
from repro.experiments.spec import SchemeSpec
from repro.experiments.workloads import NetworkWorkload, ZooWorkload
from repro.net.graph import Network
from repro.net.paths import KspCache
from repro.routing import LatencyOptimalRouting, MinMaxRouting
from repro.tm import TrafficMatrix, max_scale_factor, scale_to_growth_headroom
from repro.tm.scale import scaled_for_growth


def _adhoc_workload(
    items: Sequence[NetworkWorkload], growth_factor: float = 0.0
) -> ZooWorkload:
    """Wrap bare workload items for the engine.

    The shaping parameters of hand-assembled item lists are unknown; the
    placeholders (locality 0) only feed the result-store signature, which
    also hashes the matrices themselves, so no two distinct workloads can
    collide on them.
    """
    return ZooWorkload(
        networks=list(items), locality=0.0, growth_factor=growth_factor
    )


def scheme_factories(
    headroom: float = 0.0,
) -> Dict[str, Callable[[NetworkWorkload], object]]:
    """The paper's four active schemes, sharing each network's KSP cache.

    Factories are declarative :class:`~repro.experiments.spec.SchemeSpec`
    instances — callable like the closures they replaced, but plain
    data, so every figure built on them runs on the engine's fork pool
    or serially, or is dispatched out of process
    (:mod:`repro.experiments.dispatch`).

    LDR's placement engine is the latency-optimal LP with headroom; the
    full controller (prediction + multiplexing) lives in
    :mod:`repro.core.ldr` and is exercised separately.
    """
    return {
        "B4": SchemeSpec("B4", {"headroom": headroom}),
        "LDR": SchemeSpec("LDR", {"headroom": headroom}),
        "MinMax": SchemeSpec("MinMax"),
        "MinMaxK10": SchemeSpec("MinMaxK10"),
    }


# ----------------------------------------------------------------------
# Figure 1
# ----------------------------------------------------------------------
def fig01_apa_cdfs(networks: Sequence[Network]) -> Dict[str, np.ndarray]:
    """Per-network sorted APA values (each is one CDF curve of Figure 1)."""
    return {
        network.name: apa_cdf(apa_all_pairs(network)) for network in networks
    }


# ----------------------------------------------------------------------
# Figures 3 and 19
# ----------------------------------------------------------------------
@traced("plan_build")
def fig03_plan(workload: ZooWorkload) -> EvalPlan:
    """Figure 3 as a (single-stream) plan: SP over the whole ensemble."""
    plan = EvalPlan()
    plan.add("SP", SchemeSpec("SP"), workload)
    return plan


def fig03_sp_congestion(
    report: PlanReport,
) -> Dict[str, List[Tuple[float, float]]]:
    """Median and 90th-percentile congested-pair fraction vs LLPD (SP).

    Figure 19 is the same pair run over a workload that also holds a
    Google-like network.
    """
    outcomes = report.outcomes("SP")
    return {
        "median": per_network_quantiles(outcomes, "congested_fraction", 0.5),
        "p90": per_network_quantiles(outcomes, "congested_fraction", 0.9),
    }


# ----------------------------------------------------------------------
# Figure 4
# ----------------------------------------------------------------------
@traced("plan_build")
def fig04_plan(workload: ZooWorkload) -> EvalPlan:
    """All of Figure 4's schemes over the ensemble, as one plan."""
    plan = EvalPlan()
    for name, factory in scheme_factories(headroom=0.0).items():
        plan.add(name, factory, workload)
    return plan


def fig04_schemes(
    report: PlanReport,
) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """Congestion and latency stretch vs LLPD for each scheme of the plan.

    Keyed and ordered like the plan's streams; with a store, each scheme's
    results live in a store stream named by that key, so a plan built
    from custom factories must give behaviorally different schemes
    different keys.
    """
    results: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for name in report.results:
        outcomes = report.outcomes(name)
        results[name] = {
            "congestion_median": per_network_quantiles(
                outcomes, "congested_fraction", 0.5
            ),
            "congestion_p90": per_network_quantiles(
                outcomes, "congested_fraction", 0.9
            ),
            "stretch_median": per_network_quantiles(
                outcomes, "latency_stretch", 0.5
            ),
            "stretch_p90": per_network_quantiles(outcomes, "latency_stretch", 0.9),
        }
    return results


# ----------------------------------------------------------------------
# Figure 7
# ----------------------------------------------------------------------
def fig07_utilization_cdf(
    network: Network, tm: TrafficMatrix
) -> Dict[str, np.ndarray]:
    """Sorted link utilizations under latency-optimal and MinMax routing,
    which share one KSP cache."""
    cache = KspCache(network)
    optimal = LatencyOptimalRouting(cache=cache).place(network, tm)
    minmax = MinMaxRouting(cache=cache).place(network, tm)
    return {
        "latency_optimal": np.sort(
            np.fromiter(optimal.link_utilizations().values(), dtype=float)
        ),
        "minmax": np.sort(
            np.fromiter(minmax.link_utilizations().values(), dtype=float)
        ),
    }


# ----------------------------------------------------------------------
# Figure 8
# ----------------------------------------------------------------------
@traced("plan_build")
def fig08_plan(
    workload: ZooWorkload,
    headrooms: Sequence[float] = (0.0, 0.11, 0.23, 0.40),
) -> EvalPlan:
    """The whole headroom sweep as one plan: one LDR stream per setting."""
    plan = EvalPlan()
    for headroom in headrooms:
        plan.add(
            headroom,
            SchemeSpec("LDR", {"headroom": headroom}),
            workload,
            scheme=f"LDR@h={headroom!r}",
        )
    return plan


def fig08_headroom_sweep(
    report: PlanReport,
) -> Dict[float, List[Tuple[float, float]]]:
    """Median latency stretch vs LLPD for each headroom setting.

    The paper runs this on a lighter load (min-cut at 60%, growth 1.65) so
    even 40% headroom remains feasible; build the plan from a workload
    with ``growth_factor=1.65``.
    """
    return {
        headroom: per_network_quantiles(
            report.outcomes(headroom), "latency_stretch", 0.5
        )
        for headroom in report.results
    }


# ----------------------------------------------------------------------
# Figures 9 and 10
# ----------------------------------------------------------------------
def fig09_prediction_ratios(traces: Sequence[np.ndarray],
                            samples_per_minute: int) -> np.ndarray:
    """Sorted measured/predicted ratios pooled across traces."""
    from repro.core.prediction import prediction_ratios
    from repro.traces.stats import minute_means

    ratios: List[np.ndarray] = []
    for trace in traces:
        means = minute_means(trace, samples_per_minute)
        ratios.append(prediction_ratios(means))
    return np.sort(np.concatenate(ratios))


def fig10_sigma_scatter(
    traces: Sequence[np.ndarray], samples_per_minute: int
) -> List[Tuple[float, float]]:
    """(sigma_t, sigma_{t+1}) pairs pooled across traces."""
    from repro.traces.stats import minute_sigma_pairs

    points: List[Tuple[float, float]] = []
    for trace in traces:
        points.extend(minute_sigma_pairs(trace, samples_per_minute))
    return points


# ----------------------------------------------------------------------
# Figure 15
# ----------------------------------------------------------------------
def fig15_runtimes(items: Sequence[NetworkWorkload]) -> Dict[str, List[float]]:
    """Wall-clock runtimes (seconds) of the three optimizers.

    "LDR" solves with a pre-warmed k-shortest-path cache, "cold cache"
    without, and "link-based" is the monolithic node-arc LP.
    """
    from repro.routing.linkbased import LinkBasedOptimalRouting
    from repro.routing.optimal import solve_iterative_latency

    times: Dict[str, List[float]] = {"ldr": [], "ldr_cold": [], "link_based": []}
    for item in items:
        tm = item.matrices[0]

        cold_cache = KspCache(item.network)
        start = time.perf_counter()
        solve_iterative_latency(item.network, tm, cache=cold_cache)
        times["ldr_cold"].append(time.perf_counter() - start)

        # Warm run: reuse the now-populated cache.
        start = time.perf_counter()
        solve_iterative_latency(item.network, tm, cache=cold_cache)
        times["ldr"].append(time.perf_counter() - start)

        scheme = LinkBasedOptimalRouting()
        start = time.perf_counter()
        scheme.place(item.network, tm)
        times["link_based"].append(time.perf_counter() - start)
    return times


# ----------------------------------------------------------------------
# Figure 16
# ----------------------------------------------------------------------
@traced("plan_build")
def fig16_plan(workload: ZooWorkload) -> EvalPlan:
    """All (LLPD class, headroom, scheme) cells of Figure 16 as one plan.

    Networks split into LLPD classes at 0.5: the low class runs at
    headroom 0, the high class at 0 and 0.1.  Stream keys are
    ``(class_key, scheme_name)`` tuples; store stream names keep the
    headroom qualifier (``B4@h=0.1``) because ``high_h0`` and ``high_h10``
    share a workload signature (same subset, same matrices) and the scheme
    name alone would collide in the store.
    """
    low = ZooWorkload(
        networks=[w for w in workload.networks if w.llpd < 0.5],
        locality=workload.locality,
        growth_factor=workload.growth_factor,
        seed=workload.seed,
    )
    high = ZooWorkload(
        networks=[w for w in workload.networks if w.llpd >= 0.5],
        locality=workload.locality,
        growth_factor=workload.growth_factor,
        seed=workload.seed,
    )
    cases = {
        "low_h0": (low, 0.0),
        "high_h0": (high, 0.0),
        "high_h10": (high, 0.10),
    }
    plan = EvalPlan()
    for key, (subset, headroom) in cases.items():
        for name, factory in scheme_factories(headroom=headroom).items():
            plan.add(
                (key, name),
                factory,
                subset,
                scheme=f"{name}@h={headroom!r}",
            )
    return plan


def fig16_max_stretch_cdfs(
    report: PlanReport,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Max-path-stretch CDF data per (LLPD class, headroom, scheme).

    Returns ``result[class_key][scheme] = {"stretches": sorted list of max
    path stretch over routable cases, "unroutable_fraction": float}``, with
    class keys ``low_h0``, ``high_h0`` and ``high_h10`` as in the paper's
    Figures 16(a)-(c).
    """
    results: Dict[str, Dict[str, Dict[str, object]]] = {}
    for class_key, name in report.results:
        outcomes = report.outcomes((class_key, name))
        routable = [o.max_path_stretch for o in outcomes if o.fits]
        unroutable = sum(1 for o in outcomes if not o.fits)
        results.setdefault(class_key, {})[name] = {
            "stretches": sorted(routable),
            "unroutable_fraction": (
                unroutable / len(outcomes) if outcomes else 0.0
            ),
        }
    return results


# ----------------------------------------------------------------------
# Figure 17
# ----------------------------------------------------------------------
@traced("plan_build")
def fig17_plan(
    items: Sequence[NetworkWorkload],
    loads: Sequence[float] = (0.6, 0.7, 0.8, 0.9),
) -> EvalPlan:
    """The whole (load x scheme) grid of Figure 17 as one plan.

    Base matrices are rescaled per target load (growth = 1/load), exactly
    as :func:`scale_to_growth_headroom` would, from one max-concurrent-flow
    LP per base matrix; stream keys are ``(scheme_name, load)`` tuples and
    store stream names keep the historical ``<scheme>@load=<load>`` form,
    so stores written by the per-call path resume under plans unchanged.
    """
    plan = EvalPlan()
    scales = [
        [max_scale_factor(item.network, tm) for tm in item.matrices]
        for item in items
    ]
    for load in loads:
        rescaled_items = [
            NetworkWorkload(
                network=item.network,
                llpd=item.llpd,
                matrices=[
                    scaled_for_growth(tm, lam, 1.0 / load)
                    for tm, lam in zip(item.matrices, item_scales)
                ],
                cache=item.cache,
            )
            for item, item_scales in zip(items, scales)
        ]
        workload = _adhoc_workload(rescaled_items, growth_factor=1.0 / load)
        for name, factory in scheme_factories().items():
            plan.add(
                (name, load),
                factory,
                workload,
                scheme=f"{name}@load={load!r}",
            )
    return plan


def _median_max_stretch(
    report: PlanReport,
) -> Dict[str, List[Tuple[float, float]]]:
    """Per scheme, (sweep point, median max path stretch) in plan order,
    from a plan keyed ``(scheme_name, sweep_point)``."""
    results: Dict[str, List[Tuple[float, float]]] = {}
    for key in report.results:
        name, point = key
        stretches = [o.max_path_stretch for o in report.outcomes(key)]
        results.setdefault(name, []).append(
            (point, float(np.median(stretches)))
        )
    return results


def fig17_load_sweep(
    report: PlanReport,
) -> Dict[str, List[Tuple[float, float]]]:
    """Median max flow stretch vs min-cut load, high-LLPD networks."""
    return _median_max_stretch(report)


# ----------------------------------------------------------------------
# Figure 18
# ----------------------------------------------------------------------
@traced("plan_build")
def fig18_plan(
    networks: Sequence[Network],
    localities: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
    n_matrices: int = 2,
    seed: int = 0,
) -> EvalPlan:
    """The whole (locality x scheme) grid of Figure 18 as one plan.

    The base gravity matrix is scaled to the paper's default load (growth
    factor 1.3, min-cut at 77%) *first* and locality is applied to the
    scaled matrix.  This matches the paper's described dynamics: "a
    locality parameter of zero tends to load long distance links more,
    whereas localities above one tend to load local links more" and large
    localities "under-load long-distance links" — effects that only exist
    if the load normalization is not re-done per locality value (which
    would re-inflate whatever the locality shift relieved).
    """
    from repro.tm import apply_locality, gravity_traffic_matrix

    growth_factor = 1.3
    rng = np.random.default_rng(seed)
    caches = [KspCache(network) for network in networks]
    bases: List[List[TrafficMatrix]] = []
    for network in networks:
        per_network: List[TrafficMatrix] = []
        for _ in range(n_matrices):
            base = gravity_traffic_matrix(network, rng)
            base = scale_to_growth_headroom(network, base, growth_factor)
            per_network.append(base)
        bases.append(per_network)
    plan = EvalPlan()
    for locality in localities:
        items = [
            NetworkWorkload(
                network=network,
                llpd=0.0,  # not needed for this sweep
                matrices=[
                    apply_locality(network, base, locality)
                    for base in bases[position]
                ],
                cache=caches[position],
            )
            for position, network in enumerate(networks)
        ]
        workload = ZooWorkload(
            networks=items,
            locality=locality,
            growth_factor=growth_factor,
            seed=seed,
        )
        for name, factory in scheme_factories().items():
            plan.add(
                (name, locality),
                factory,
                workload,
                scheme=f"{name}@loc={locality!r}",
            )
    return plan


def fig18_locality_sweep(
    report: PlanReport,
) -> Dict[str, List[Tuple[float, float]]]:
    """Median max flow stretch vs traffic locality."""
    return _median_max_stretch(report)


# ----------------------------------------------------------------------
# Figure 20
# ----------------------------------------------------------------------
def _grow_network_cached(
    network: Network,
    growth_fraction: float,
    max_candidates: int,
    cache_dir: Optional[str],
) -> Network:
    """LLPD-guided growth (default :class:`ApaParameters`) with an on-disk
    topology cache.

    Growth is deterministic but expensive (each candidate link costs a
    full LLPD evaluation), and a store-only re-render used to pay it
    again for every network despite doing zero scheme evaluations.  With
    a ``cache_dir``, the grown topology is persisted as JSON under a key
    covering the source network's content hash and every growth
    parameter; the JSON round trip is exact (floats via repr, node and
    link order preserved), so a cache hit yields the same store
    signature and the same evaluation results as regrowing.
    """
    from repro.net.mutate import grow_by_llpd

    path = None
    if cache_dir is not None:
        from repro.net.io import from_json
        from repro.net.paths import network_signature

        params = ApaParameters()
        key = hashlib.sha256(
            f"grown|{network_signature(network)}|{growth_fraction!r}"
            f"|{max_candidates!r}|{params.stretch_limit!r}"
            f"|{params.max_alternates!r}"
            f"|{params.llpd_threshold!r}".encode()
        ).hexdigest()
        path = cache_path(cache_dir, "grown", key)
        cached = read_cache(path, from_json)
        if cached is not None:
            return cached

    grown, _ = grow_by_llpd(
        network,
        score=llpd,
        growth_fraction=growth_fraction,
        max_candidates=max_candidates,
    )
    if path is not None:
        from repro.net.io import to_json

        write_atomic(path, to_json(grown))
    return grown


@traced("plan_build")
def fig20_plan(
    items: Sequence[NetworkWorkload],
    growth_fraction: float = 0.05,
    max_candidates: int = 20,
    cache_dir: Optional[str] = None,
) -> EvalPlan:
    """Figure 20's (scheme x {base, grown}) grid as one plan.

    With a ``cache_dir`` the LLPD-grown topologies come from (and are
    persisted to) the on-disk topology cache, so a ``store_only``
    re-render does zero ``grow_by_llpd`` recomputation on top of its
    zero scheme evaluations.
    """
    grown_items: List[NetworkWorkload] = []
    for item in items:
        grown_network = _grow_network_cached(
            item.network,
            growth_fraction=growth_fraction,
            max_candidates=max_candidates,
            cache_dir=cache_dir,
        )
        grown_items.append(
            NetworkWorkload(
                network=grown_network, llpd=item.llpd, matrices=item.matrices
            )
        )
    base_workload = _adhoc_workload(items)
    grown_workload = _adhoc_workload(grown_items)
    plan = EvalPlan()
    for name, factory in scheme_factories().items():
        for phase, workload in (
            ("base", base_workload),
            ("grown", grown_workload),
        ):
            plan.add(
                (name, phase), factory, workload, scheme=f"{name}@{phase}"
            )
    return plan


def fig20_growth_benefit(
    report: PlanReport,
) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """Latency stretch before/after LLPD-guided link additions.

    Returns per scheme the (before, after) latency-stretch pairs: medians
    and 90th percentiles across each network's traffic matrices.  Each
    stream's results arrive per network, so base and grown line up
    without re-chunking a flattened outcome list.
    """
    results: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for name, phase in report.results:
        if phase != "base":
            continue
        medians: List[Tuple[float, float]] = []
        p90s: List[Tuple[float, float]] = []
        for base, grown in zip(
            report.results[(name, "base")], report.results[(name, "grown")]
        ):
            before = [o.latency_stretch for o in base.outcomes]
            after = [o.latency_stretch for o in grown.outcomes]
            medians.append((float(np.median(before)), float(np.median(after))))
            p90s.append(
                (
                    float(np.quantile(before, 0.9)),
                    float(np.quantile(after, 0.9)),
                )
            )
        results[name] = {"median": medians, "p90": p90s}
    return results
