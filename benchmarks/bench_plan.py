"""Batched plan execution vs the per-call loop it replaced.

Figure 17's grid is the motivating case: the per-call path runs one
``ExperimentEngine.run`` (and constructs one process pool) per (scheme,
load) cell — 8 pools for this benchmark's 4 schemes x 2 loads — while
the plan path executes the whole grid as ONE engine pass over a single
shared pool, interleaving tasks from every stream.  At bench scale pool
spin-up is a large share of each per-call invocation, so the batched
plan must win; this benchmark records both wall times to
``BENCH_plan.json`` and fails if batching ever stops paying for itself.

Worker count scales with ``REPRO_BENCH_WORKERS`` (min 2, so both paths
actually construct pools), ensemble size with ``REPRO_BENCH_NETWORKS``.
"""

import time

from benchmarks.conftest import N_WORKERS, record_bench_json
from repro.experiments.engine import ExperimentEngine
from repro.experiments.figures import fig17_plan
from repro.experiments.plan import execute_plan

WORKERS = max(2, N_WORKERS)
LOADS = (0.6, 0.9)


def test_batched_plan_beats_per_call(benchmark, standard_workload):
    items = standard_workload.networks[:6]
    plan = fig17_plan(items, loads=LOADS)

    # The per-call baseline: the pre-refactor figure layer, one engine
    # (and one fresh pool) per stream.
    start = time.perf_counter()
    per_call = {
        key: ExperimentEngine(n_workers=WORKERS).run(
            stream.factory, stream.workload, stream.matrices_per_network
        ).outcomes
        for key, stream in plan.streams.items()
    }
    per_call_s = time.perf_counter() - start

    report = benchmark.pedantic(
        lambda: execute_plan(plan, n_workers=WORKERS), rounds=1, iterations=1
    )
    batched_s = benchmark.stats.stats.total

    # Same grid, same results, bit for bit — batching is purely a
    # scheduling change.
    assert report.all_outcomes() == per_call

    record_bench_json(
        "plan",
        {
            "n_networks": len(items),
            "n_streams": len(plan.streams),
            "n_tasks": plan.n_tasks,
            "n_workers": WORKERS,
            "per_call_s": per_call_s,
            "batched_s": batched_s,
            "speedup": per_call_s / batched_s if batched_s > 0 else None,
        },
    )
    assert batched_s <= per_call_s, (
        f"batched plan ({batched_s:.3f}s) slower than the per-call loop "
        f"({per_call_s:.3f}s) — shared-pool batching has stopped paying "
        f"for itself"
    )
