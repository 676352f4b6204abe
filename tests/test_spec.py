"""Tests for the picklable scheme-spec registry."""

import dataclasses
import inspect
import json
import pickle

import pytest

from repro.experiments.spec import (
    SchemeSpec,
    UnknownSchemeError,
    build_scheme,
    check_spec,
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
from tests.plans import assert_serial_fallback


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

    @pytest.mark.parametrize("name", registered_schemes())
    def test_foreign_cache_is_left_alone(self, workload, name):
        """A spec built with another network's cache places exactly as
        with its own, and adds no path to the foreign cache."""
        item, other = workload.networks[0], workload.networks[1]
        foreign = dataclasses.replace(item, cache=other.cache)
        tm = item.matrices[0]
        cached = other.cache.total_cached()
        own = SchemeSpec(name)(item).place(item.network, tm)
        borrowed = SchemeSpec(name)(foreign).place(item.network, tm)
        assert other.cache.total_cached() == cached
        assert [
            (agg, borrowed.paths_for(agg)) for agg in borrowed.aggregates
        ] == [(agg, own.paths_for(agg)) for agg in own.aggregates]
        assert borrowed.saturated_links() == own.saturated_links()

    def test_minmax_k10_matches_explicit_k(self, workload):
        item = workload.networks[0]
        assert SchemeSpec("MinMaxK10")(item).k == 10

    def test_unknown_scheme_raises(self, workload):
        with pytest.raises(UnknownSchemeError):
            build_scheme(SchemeSpec("NoSuchScheme"), workload.networks[0])
        # check_spec finds the same error without a workload item.
        with pytest.raises(UnknownSchemeError):
            check_spec(SchemeSpec("NoSuchScheme"))

    def test_unknown_param_raises_type_error(self, workload):
        with pytest.raises(TypeError):
            SchemeSpec("SP", {"headrom": 0.1})(workload.networks[0])
        with pytest.raises(TypeError):
            check_spec(SchemeSpec("SP", {"headrom": 0.1}))

    def test_ldr_path_growth_is_not_a_param(self):
        # The Figure 13 loop's growth settings are constants.
        with pytest.raises(TypeError):
            check_spec(SchemeSpec("LDR", {"max_paths": 40}))

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
        spec = SchemeSpec("B4", {"headroom": 0.11, "max_paths_per_aggregate": 40})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.params == {"headroom": 0.11, "max_paths_per_aggregate": 40}

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
        # cannot express would make dispatch workers resolve the scheme
        # differently than an in-process run.
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
        check_spec(spec)
        wire = json.loads(json.dumps(spec.to_jsonable()))
        assert SchemeSpec.from_jsonable(wire) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestSpawnPool:
    """There is no spawn pool: on a host without fork the engine runs
    every factory, picklable or not, serially in this process."""

    def test_closure_without_fork_warns_and_runs_serial(
        self, workload, monkeypatch, caplog, tmp_path
    ):
        assert_serial_fallback(
            workload,
            lambda item: ShortestPathRouting(item.cache),
            ["spawn"],
            monkeypatch,
            caplog,
            tmp_path,
        )


class TestFiguresUseSpecs:
    def test_scheme_factories_are_specs(self):
        from repro.experiments.figures import scheme_factories

        factories = scheme_factories(headroom=0.1)
        assert set(factories) == {"B4", "LDR", "MinMax", "MinMaxK10"}
        for factory in factories.values():
            assert isinstance(factory, SchemeSpec)
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
