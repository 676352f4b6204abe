"""Result store: cold evaluation vs serving a fully-stored run.

Complements ``bench_fig15_runtime.py``'s KSP cold/warm numbers with the
next caching layer up: with a populated result store, re-rendering a
figure's data performs *zero* scheme evaluations, so the stored pass must
beat the cold pass by a wide margin.  Records ``BENCH_store.json`` at the
repo root, alongside ``BENCH_fig15.json``.
"""

import time

from benchmarks.conftest import (
    N_WORKERS,
    assert_warm_beats_cold,
    record_bench_json,
)
from repro.experiments.engine import ExperimentEngine
from repro.routing import ShortestPathRouting


def sp_factory(item):
    return ShortestPathRouting(item.cache)


def test_store_cold_vs_stored(benchmark, standard_workload, tmp_path_factory):
    store_dir = str(tmp_path_factory.mktemp("result-store"))

    start = time.perf_counter()
    cold = ExperimentEngine(n_workers=N_WORKERS, store_dir=store_dir).run(
        sp_factory, standard_workload, scheme="SP"
    )
    cold_s = time.perf_counter() - start

    stored = benchmark.pedantic(
        ExperimentEngine(store_dir=store_dir, store_only=True).run,
        args=(sp_factory, standard_workload),
        kwargs={"scheme": "SP"},
        rounds=1,
        iterations=1,
    )
    stored_s = benchmark.stats.stats.total

    # bit-identical round trip through the store
    assert stored.outcomes == cold.outcomes
    record_bench_json(
        "store",
        {
            "n_networks": len(standard_workload.networks),
            "n_workers": N_WORKERS,
            "cold_s": cold_s,
            "stored_s": stored_s,
            "stored_speedup": cold_s / stored_s if stored_s > 0 else float("inf"),
        },
    )
    assert_warm_beats_cold(cold_s, stored_s, "result store")
