"""Tests for the picklable scheme-spec registry and spawn-pool parity."""

import inspect
import json
import pickle

import pytest

from repro.experiments.engine import ExperimentEngine
from repro.experiments.spec import (
    SchemeSpec,
    UnknownSchemeError,
    build_scheme,
    is_spawn_safe,
    register_scheme,
    registered_schemes,
)
from repro.experiments.workloads import build_zoo_workload
from repro.routing import (
    B4Routing,
    EcmpRouting,
    LatencyOptimalRouting,
    LinkBasedOptimalRouting,
    MinMaxRouting,
    MplsTeRouting,
    ShortestPathRouting,
)


@pytest.fixture(scope="module")
def workload():
    return build_zoo_workload(
        n_networks=4, n_matrices=1, seed=3, include_named=False
    )


class TestRegistry:
    def test_covers_every_paper_scheme(self):
        names = set(registered_schemes())
        assert {
            "SP", "ECMP", "MPLS-TE", "B4", "MinMax", "MinMaxK10", "LDR",
            "LatencyOptimal", "LinkBased",
        } <= names

    @pytest.mark.parametrize(
        "name,params,cls",
        [
            ("SP", {}, ShortestPathRouting),
            ("ECMP", {"max_paths": 8}, EcmpRouting),
            ("MPLS-TE", {"headroom": 0.1}, MplsTeRouting),
            ("B4", {"headroom": 0.1}, B4Routing),
            ("MinMax", {}, MinMaxRouting),
            ("MinMaxK10", {}, MinMaxRouting),
            ("LDR", {"headroom": 0.1}, LatencyOptimalRouting),
            ("LinkBased", {}, LinkBasedOptimalRouting),
        ],
    )
    def test_specs_build_the_right_scheme(self, workload, name, params, cls):
        item = workload.networks[0]
        scheme = SchemeSpec(name, params)(item)
        assert isinstance(scheme, cls)

    def test_built_schemes_share_the_item_cache(self, workload):
        item = workload.networks[0]
        assert SchemeSpec("B4")(item)._cache is item.cache
        assert SchemeSpec("LDR")(item)._cache is item.cache

    def test_minmax_k10_matches_explicit_k(self, workload):
        item = workload.networks[0]
        assert SchemeSpec("MinMaxK10")(item).k == 10

    def test_unknown_scheme_raises(self, workload):
        with pytest.raises(UnknownSchemeError):
            build_scheme(SchemeSpec("NoSuchScheme"), workload.networks[0])

    def test_unknown_param_raises_type_error(self, workload):
        with pytest.raises(TypeError):
            SchemeSpec("SP", {"headrom": 0.1})(workload.networks[0])

    def test_register_scheme_decorator(self, workload):
        @register_scheme("TestOnlySP")
        def _build(item):
            return ShortestPathRouting(cache=item.cache)

        try:
            assert isinstance(
                SchemeSpec("TestOnlySP")(workload.networks[0]),
                ShortestPathRouting,
            )
        finally:
            from repro.experiments import spec as spec_module

            spec_module._REGISTRY.pop("TestOnlySP", None)


class TestRoundTrip:
    def test_pickle_round_trip(self):
        spec = SchemeSpec("LDR", {"headroom": 0.11, "max_paths": 40})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.params == {"headroom": 0.11, "max_paths": 40}

    def test_json_round_trip(self):
        spec = SchemeSpec("MinMax", {"k": 10})
        payload = json.loads(json.dumps(spec.to_jsonable()))
        assert SchemeSpec.from_jsonable(payload) == spec

    def test_json_round_trip_defaults_params(self):
        assert SchemeSpec.from_jsonable({"scheme": "SP"}) == SchemeSpec("SP")

    def test_from_jsonable_requires_scheme(self):
        with pytest.raises(ValueError):
            SchemeSpec.from_jsonable({"params": {}})

    def test_pickled_spec_still_builds(self, workload):
        clone = pickle.loads(pickle.dumps(SchemeSpec("SP")))
        assert isinstance(
            clone(workload.networks[0]), ShortestPathRouting
        )

    @pytest.mark.parametrize("name", registered_schemes())
    def test_registered_scheme_defaults_round_trip(self, name):
        # Every builder default must be JSON-native: a default a manifest
        # cannot express would make dispatch workers and spawn pools
        # resolve the scheme differently than an in-process run.
        from repro.experiments import spec as spec_module

        builder = spec_module._REGISTRY[name]
        params = {}
        for parameter in list(
            inspect.signature(builder).parameters.values()
        )[1:]:
            if parameter.default is inspect.Parameter.empty:
                continue
            assert isinstance(
                parameter.default, (type(None), bool, int, float, str)
            ), parameter.name
            params[parameter.name] = parameter.default
        spec = SchemeSpec(name, params)
        wire = json.loads(json.dumps(spec.to_jsonable()))
        assert SchemeSpec.from_jsonable(wire) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_spawn_safety_classification(self):
        assert is_spawn_safe(SchemeSpec("SP"))
        assert not is_spawn_safe(lambda item: ShortestPathRouting(item.cache))


class TestSpawnPool:
    def test_spawn_pool_matches_serial_and_fork(
        self, workload, monkeypatch, tmp_path
    ):
        import multiprocessing

        from repro import telemetry

        spec = SchemeSpec("SP")
        serial = ExperimentEngine(n_workers=1).run(spec, workload)
        try:
            telemetry.configure(tmp_path / "fork")
            fork = ExperimentEngine(n_workers=2).run(spec, workload)
            monkeypatch.setattr(
                multiprocessing, "get_all_start_methods", lambda: ["spawn"]
            )
            telemetry.configure(tmp_path / "spawn")
            spawn = ExperimentEngine(n_workers=2).run(spec, workload)
        finally:
            telemetry.disable()
        assert spawn.outcomes == serial.outcomes
        assert fork.outcomes == serial.outcomes
        # Both start methods run the same pool loop, so both report its
        # in-flight window.
        for method in ("fork", "spawn"):
            trace = telemetry.load_trace(tmp_path / method)
            assert "pool.pending.max" in trace.gauges
            assert len(trace.by_name("task")) == len(workload.networks)

    def test_spawn_pool_uses_persistent_caches(self, workload, monkeypatch, tmp_path):
        import multiprocessing

        spec = SchemeSpec("SP")
        first = ExperimentEngine(n_workers=1, cache_dir=tmp_path).run(
            spec, workload
        )
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        second = ExperimentEngine(n_workers=2, cache_dir=tmp_path).run(
            spec, workload
        )
        assert second.outcomes == first.outcomes
        assert all(r.paths_preloaded > 0 for r in second.results)

    def test_closure_without_fork_warns_and_runs_serial(
        self, workload, monkeypatch, caplog
    ):
        import logging
        import multiprocessing

        factory = lambda item: ShortestPathRouting(item.cache)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with caplog.at_level(logging.WARNING, logger="repro"):
            report = ExperimentEngine(n_workers=4).run(factory, workload)
        assert any(
            "not a picklable SchemeSpec" in record.message
            for record in caplog.records
        )
        assert report.outcomes == ExperimentEngine(n_workers=1).run(
            factory, workload
        ).outcomes

    def test_no_start_method_at_all_warns_and_runs_serial(
        self, workload, monkeypatch, caplog
    ):
        import logging
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: []
        )
        with caplog.at_level(logging.WARNING, logger="repro"):
            report = ExperimentEngine(n_workers=4).run(
                SchemeSpec("SP"), workload
            )
        assert any(
            "no usable multiprocessing" in record.message
            for record in caplog.records
        )
        assert len(report.outcomes) == 4


class TestFiguresUseSpecs:
    def test_scheme_factories_are_specs(self):
        from repro.experiments.figures import scheme_factories

        factories = scheme_factories(headroom=0.1)
        assert set(factories) == {"B4", "LDR", "MinMax", "MinMaxK10"}
        for factory in factories.values():
            assert isinstance(factory, SchemeSpec)
            assert is_spawn_safe(factory)
            pickle.dumps(factory)

    def test_factories_match_legacy_closures(self, workload):
        from repro.experiments.figures import scheme_factories

        item = workload.networks[0]
        built = {
            name: factory(item)
            for name, factory in scheme_factories(headroom=0.05).items()
        }
        assert isinstance(built["B4"], B4Routing)
        assert built["B4"].headroom == 0.05
        assert isinstance(built["LDR"], LatencyOptimalRouting)
        assert built["LDR"].headroom == 0.05
        assert isinstance(built["MinMax"], MinMaxRouting)
        assert built["MinMax"].k is None
        assert built["MinMaxK10"].k == 10
