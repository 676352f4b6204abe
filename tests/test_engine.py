"""Tests for the parallel experiment engine and its persistent KSP caches."""

import numpy as np
import pytest

from repro.experiments.engine import (
    EngineReport,
    ExperimentEngine,
    NetworkResult,
    network_id,
)
from repro.experiments.workloads import ZooWorkload, build_zoo_workload
from repro.routing import LatencyOptimalRouting, ShortestPathRouting


@pytest.fixture(scope="module")
def workload():
    return build_zoo_workload(
        n_networks=8, n_matrices=2, seed=3, include_named=False
    )


def sp_factory(item):
    return ShortestPathRouting(item.cache)


class TestSerialParallelEquivalence:
    def test_process_pool_matches_serial_bitwise(self, workload):
        serial = ExperimentEngine(n_workers=1).run(sp_factory, workload)
        parallel = ExperimentEngine(n_workers=4).run(sp_factory, workload)
        assert serial.outcomes == parallel.outcomes
        assert len(parallel.outcomes) == 8 * 2

    def test_equivalence_with_lp_scheme(self, workload):
        # The LP path exercises warm counts and cache growth inside the
        # shard; a closure factory also exercises the fork-no-pickle path.
        factory = lambda item: LatencyOptimalRouting(cache=item.cache)
        serial = ExperimentEngine(n_workers=1).run(
            factory, workload, matrices_per_network=1
        )
        parallel = ExperimentEngine(n_workers=4).run(
            factory, workload, matrices_per_network=1
        )
        assert serial.outcomes == parallel.outcomes

    def test_matrices_per_network_respected(self, workload):
        report = ExperimentEngine(n_workers=2).run(
            sp_factory, workload, matrices_per_network=1
        )
        assert len(report.outcomes) == 8
        for result in report.results:
            assert len(result.outcomes) == 1


class TestStreaming:
    def test_stream_yields_every_network_with_timing(self, workload):
        results = list(ExperimentEngine(n_workers=2).stream(sp_factory, workload))
        assert sorted(r.index for r in results) == list(range(8))
        for result in results:
            assert isinstance(result, NetworkResult)
            assert result.seconds >= 0.0
            assert result.network_id.startswith(f"{result.index}:")

    def test_serial_stream_in_workload_order(self, workload):
        indices = [
            r.index
            for r in ExperimentEngine(n_workers=1).stream(sp_factory, workload)
        ]
        assert indices == list(range(8))

    def test_run_reassembles_workload_order(self, workload):
        report = ExperimentEngine(n_workers=4).run(sp_factory, workload)
        assert [r.index for r in report.results] == list(range(8))
        assert len(report.timings()) == 8
        assert report.total_seconds == pytest.approx(
            sum(r.seconds for r in report.results)
        )

    def test_empty_workload(self):
        empty = ZooWorkload(networks=[], locality=1.0, growth_factor=1.3)
        assert list(ExperimentEngine(n_workers=4).stream(sp_factory, empty)) == []

    def test_abandoning_parallel_stream_cleans_up(self, workload):
        engine = ExperimentEngine(n_workers=2)
        stream = engine.stream(sp_factory, workload)
        first = next(stream)
        assert isinstance(first, NetworkResult)
        stream.close()  # cancels everything not yet started
        # The pool and fork state are gone; a fresh run still works.
        report = engine.run(sp_factory, workload)
        assert len(report.results) == 8


class TestCachePersistence:
    def test_caches_persist_and_warm_start(self, workload, tmp_path):
        first = ExperimentEngine(n_workers=2, cache_dir=tmp_path).run(
            sp_factory, workload
        )
        files = list(tmp_path.glob("ksp-*.json"))
        assert len(files) == 8
        assert all(r.paths_preloaded == 0 for r in first.results)

        second = ExperimentEngine(n_workers=1, cache_dir=tmp_path).run(
            sp_factory, workload
        )
        assert second.outcomes == first.outcomes
        assert all(r.paths_preloaded > 0 for r in second.results)

    def test_caller_workload_not_mutated_by_cache_load(self, workload, tmp_path):
        ExperimentEngine(n_workers=1, cache_dir=tmp_path).run(
            sp_factory, workload
        )
        before = [item.cache for item in workload.networks]
        ExperimentEngine(n_workers=1, cache_dir=tmp_path).run(
            sp_factory, workload
        )
        # Loaded caches go onto a per-evaluation copy; the caller's items
        # keep their cache objects whatever n_workers or cache_dir say.
        after = [item.cache for item in workload.networks]
        assert all(a is b for a, b in zip(before, after))

    def test_stale_cache_file_ignored(self, workload, tmp_path):
        ExperimentEngine(n_workers=1, cache_dir=tmp_path).run(
            sp_factory, workload
        )
        for path in tmp_path.glob("ksp-*.json"):
            path.write_text("{not json")
        report = ExperimentEngine(n_workers=1, cache_dir=tmp_path).run(
            sp_factory, workload
        )
        # Corrupt files fall back to a cold cache instead of crashing.
        assert all(r.paths_preloaded == 0 for r in report.results)


class TestValidationAndFallback:
    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            ExperimentEngine(n_workers=0)

    def test_serial_fallback_without_fork(self, workload, monkeypatch, caplog):
        # A plain-function factory is not spawn-safe (only SchemeSpecs
        # are), so without fork the engine must warn and run serially.
        import logging
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with caplog.at_level(logging.WARNING, logger="repro"):
            report = ExperimentEngine(n_workers=4).run(sp_factory, workload)
        assert any(
            "falling back to serial" in record.message
            for record in caplog.records
        )
        assert report.outcomes == ExperimentEngine(n_workers=1).run(
            sp_factory, workload
        ).outcomes

    def test_network_id_unique_for_duplicate_names(self, workload):
        items = [workload.networks[0], workload.networks[0]]
        ids = {network_id(item, i) for i, item in enumerate(items)}
        assert len(ids) == 2
