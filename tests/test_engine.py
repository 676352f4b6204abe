"""Tests for the parallel experiment engine and its persistent KSP caches."""

import pytest

from repro.experiments.engine import (
    ExperimentEngine,
    NetworkResult,
    network_id,
)
from repro.experiments.spec import SchemeSpec
from repro.experiments.workloads import ZooWorkload, build_zoo_workload
from repro.routing import LatencyOptimalRouting, ShortestPathRouting
from tests.plans import all_outcomes, assert_serial_fallback, one_stream


@pytest.fixture(scope="module")
def workload():
    return build_zoo_workload(
        n_networks=8, n_matrices=2, seed=3, include_named=False
    )


def sp_factory(item):
    return ShortestPathRouting(item.cache)


class TestSerialParallelEquivalence:
    def test_process_pool_matches_serial_bitwise(self, workload):
        plan = one_stream(sp_factory, workload)
        serial = ExperimentEngine(n_workers=1).run_plan(plan)
        parallel = ExperimentEngine(n_workers=4).run_plan(plan)
        assert serial.outcomes("SP") == parallel.outcomes("SP")
        assert len(parallel.outcomes("SP")) == 8 * 2

    def test_equivalence_with_lp_scheme(self, workload):
        # The LP path exercises warm counts and cache growth inside the
        # shard; a closure factory also exercises the fork-no-pickle path.
        plan = one_stream(
            lambda item: LatencyOptimalRouting(cache=item.cache),
            build_zoo_workload(
                n_networks=8, n_matrices=1, seed=3, include_named=False
            ),
            scheme="LDR",
        )
        serial = ExperimentEngine(n_workers=1).run_plan(plan)
        parallel = ExperimentEngine(n_workers=4).run_plan(plan)
        assert all_outcomes(serial) == all_outcomes(parallel)


class TestStreaming:
    def test_stream_yields_every_network_with_timing(self, workload):
        stream = ExperimentEngine(n_workers=2).stream_plan(
            one_stream(sp_factory, workload)
        )
        results = [result for _, result in stream]
        assert sorted(r.index for r in results) == list(range(8))
        for result in results:
            assert isinstance(result, NetworkResult)
            assert result.seconds >= 0.0
            assert result.network_id.startswith(f"{result.index}:")

    def test_serial_stream_in_workload_order(self, workload):
        stream = ExperimentEngine(n_workers=1).stream_plan(
            one_stream(sp_factory, workload)
        )
        assert [result.index for _, result in stream] == list(range(8))

    def test_run_reassembles_workload_order(self, workload):
        report = ExperimentEngine(n_workers=4).run_plan(
            one_stream(sp_factory, workload)
        )
        assert [r.index for r in report.results["SP"]] == list(range(8))

    def test_empty_workload(self):
        empty = ZooWorkload(networks=[], locality=1.0, growth_factor=1.3)
        stream = ExperimentEngine(n_workers=4).stream_plan(
            one_stream(sp_factory, empty)
        )
        assert list(stream) == []

    def test_abandoning_parallel_stream_cleans_up(self, workload):
        engine = ExperimentEngine(n_workers=2)
        stream = engine.stream_plan(one_stream(sp_factory, workload))
        _, first = next(stream)
        assert isinstance(first, NetworkResult)
        stream.close()  # cancels everything not yet started
        # The pool and fork state are gone; a fresh run still works.
        report = engine.run_plan(one_stream(sp_factory, workload))
        assert len(report.results["SP"]) == 8


class TestCachePersistence:
    def test_caches_persist_and_warm_start(self, workload, tmp_path):
        plan = one_stream(sp_factory, workload)
        first = ExperimentEngine(n_workers=2, cache_dir=tmp_path).run_plan(
            plan
        )
        files = list(tmp_path.glob("ksp-*.json"))
        assert len(files) == 8
        assert all(r.paths_preloaded == 0 for r in first.results["SP"])

        second = ExperimentEngine(cache_dir=tmp_path).run_plan(plan)
        assert second.outcomes("SP") == first.outcomes("SP")
        assert all(r.paths_preloaded > 0 for r in second.results["SP"])

    def test_caller_workload_not_mutated_by_cache_load(self, workload, tmp_path):
        plan = one_stream(sp_factory, workload)
        ExperimentEngine(cache_dir=tmp_path).run_plan(plan)
        before = [item.cache for item in workload.networks]
        ExperimentEngine(cache_dir=tmp_path).run_plan(plan)
        # Loaded caches go onto a per-evaluation copy; the caller's items
        # keep their cache objects whatever n_workers or cache_dir say.
        after = [item.cache for item in workload.networks]
        assert all(a is b for a, b in zip(before, after))

    def test_stale_cache_file_ignored(self, workload, tmp_path):
        plan = one_stream(sp_factory, workload)
        ExperimentEngine(cache_dir=tmp_path).run_plan(plan)
        for path in tmp_path.glob("ksp-*.json"):
            path.write_text("{not json")
        report = ExperimentEngine(cache_dir=tmp_path).run_plan(plan)
        # Corrupt files fall back to a cold cache instead of crashing.
        assert all(r.paths_preloaded == 0 for r in report.results["SP"])


class TestValidationAndFallback:
    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            ExperimentEngine(n_workers=0)

    def test_serial_fallback_without_fork(
        self, workload, monkeypatch, caplog, tmp_path
    ):
        # A closure factory on a spawn-only host: one warning, one trace
        # counter, serial results.
        assert_serial_fallback(
            workload, sp_factory, ["spawn"], monkeypatch, caplog, tmp_path
        )

    @pytest.mark.parametrize(
        "methods,factory",
        [
            (["spawn"], SchemeSpec("SP")),
            ([], SchemeSpec("SP")),
            ([], sp_factory),
        ],
        ids=["spawn-only-spec", "none-spec", "none-closure"],
    )
    def test_serial_fallback_any_factory(
        self, workload, methods, factory, monkeypatch, caplog, tmp_path
    ):
        # Without fork the engine evaluates serially, whatever the
        # factory is and whether spawn is available or not.
        assert_serial_fallback(
            workload, factory, methods, monkeypatch, caplog, tmp_path
        )

    def test_network_id_unique_for_duplicate_names(self, workload):
        items = [workload.networks[0], workload.networks[0]]
        ids = {network_id(item, i) for i, item in enumerate(items)}
        assert len(ids) == 2
