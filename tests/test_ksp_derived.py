"""Derived KSP caches: a failure variant's k shortest paths from its base.

Every simple path of a network cut by failures is a simple path of the
base with the same delay, so "remove the failed links and nodes" and
"take Yen's first k" commute — unless two paths near the cut tie on
delay.  A derived :class:`~repro.net.paths.KspCache` serves the filtered
base list only where its separation conditions prove the two equal, and
runs Yen on the variant elsewhere.  The property below checks the
answer, not the conditions: on tie-heavy grids (every delay equal, or
one of two values) and on the zoo, the derived cache must return exactly
what a plain cache of the variant returns.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.experiments.engine import ExperimentEngine
from repro.experiments.plan import EvalPlan
from repro.experiments.spec import SchemeSpec
from repro.experiments.workloads import NetworkWorkload, build_zoo_workload
from repro.net.graph import Network, Node
from repro.net.index import LocalityPruner
from repro.net.mutate import without_failures
from repro.net.paths import KspCache
from repro.net.units import Gbps, ms
from repro.net.zoo import generate_zoo
from repro.routing.b4 import B4Routing
from repro.scenarios import ScenarioGenerator, ScenarioSpec, ScenarioWorkload
from tests.plans import all_outcomes

KS = (1, 2, 3, 5)


def grid(rows, cols, delays):
    """A rows x cols grid; ``delays`` yields one delay (ms) per link."""
    net = Network(f"grid-{rows}x{cols}")
    names = [[f"g{r}-{c}" for c in range(cols)] for r in range(rows)]
    for row in names:
        for name in row:
            net.add_node(Node(name))
    for r, c in itertools.product(range(rows), range(cols)):
        for rr, cc in ((r, c + 1), (r + 1, c)):
            if rr < rows and cc < cols:
                net.add_duplex_link(
                    names[r][c], names[rr][cc], Gbps(10), ms(next(delays))
                )
    return net


def physical_links(network):
    return sorted({tuple(sorted(link.key)) for link in network.links()})


def assert_commutes(network, failure, k_order, warm_base):
    """The derived cache of ``network`` cut by ``failure`` answers every
    live pair and k exactly as a plain cache of the cut network."""
    kind, index = failure
    if kind == "link":
        failed_links, failed_nodes = (physical_links(network)[index],), ()
    else:
        failed_links, failed_nodes = (), (network.node_names[index],)
    variant = without_failures(
        network, failed_links, failed_nodes, name=f"{network.name}#cut"
    )
    base = KspCache(network)
    if warm_base:
        for src, dst in itertools.permutations(network.node_names, 2):
            base.get(src, dst, max(KS))
    derived = KspCache(
        variant, base=base, failed_links=failed_links,
        failed_nodes=failed_nodes,
    )
    plain = KspCache(variant)
    for src, dst in itertools.permutations(variant.node_names, 2):
        for k in k_order:
            assert derived.get(src, dst, k) == plain.get(src, dst, k), (
                src, dst, k,
            )


@st.composite
def grids(draw):
    rows = draw(st.integers(2, 4))
    cols = draw(st.integers(2, 4))
    choices = draw(st.sampled_from([(1.0,), (1.0, 2.0)]))
    n_links = rows * (cols - 1) + cols * (rows - 1)
    delays = draw(
        st.lists(st.sampled_from(choices), min_size=n_links, max_size=n_links)
    )
    return grid(rows, cols, iter(delays))


@st.composite
def failures(draw, network):
    if draw(st.booleans()):
        return "link", draw(st.integers(0, len(physical_links(network)) - 1))
    return "node", draw(st.integers(0, network.num_nodes - 1))


ZOO = [net for net in generate_zoo(12, seed=3) if net.num_nodes <= 16]


class TestCommutativity:
    @given(data=st.data(), network=grids())
    @settings(max_examples=60, deadline=None)
    def test_grids(self, data, network):
        assert_commutes(
            network,
            data.draw(failures(network)),
            data.draw(st.permutations(KS)),
            data.draw(st.booleans()),
        )

    @given(data=st.data(), network=st.sampled_from(ZOO))
    @settings(max_examples=12, deadline=None)
    def test_zoo(self, data, network):
        assert_commutes(network, data.draw(failures(network)), KS, False)


def fleet_item():
    workload = build_zoo_workload(
        n_networks=2, n_matrices=1, seed=7, include_named=False
    )
    return max(workload.networks, key=lambda item: item.network.num_links)


def every_list(cache, k=4):
    names = cache.network.node_names
    return [cache.get(s, t, k) for s, t in itertools.permutations(names, 2)]


class TestWiring:
    def test_failure_variants_derive_from_the_base(self):
        base = fleet_item()
        link = physical_links(base.network)[0]
        for spec in (
            ScenarioSpec(failed_links=(link,)),
            ScenarioSpec(failed_nodes=(base.network.node_names[-1],)),
        ):
            variant = spec.apply(base)
            assert variant.cache.base is base.cache
            assert every_list(variant.cache) == every_list(
                KspCache(variant.network)
            )

    def test_surge_variant_serves_the_base_lists(self):
        base = fleet_item()
        pair = base.matrices[0].pairs[0]
        variant = ScenarioSpec(surge_pairs=(pair,), surge_factor=3.0).apply(base)
        assert variant.network.name != base.network.name
        assert variant.cache.base is base.cache
        assert every_list(variant.cache) == every_list(base.cache)
        assert every_list(variant.cache) == every_list(KspCache(variant.network))

    def test_growth_variant_gets_a_plain_cache(self):
        base = fleet_item()
        names = base.network.node_names
        a, b = next(
            (a, b) for a, b in itertools.combinations(names, 2)
            if not base.network.has_link(a, b)
        )
        variant = ScenarioSpec(growth_links=((a, b),)).apply(base)
        assert variant.cache.base is None
        assert every_list(variant.cache) == every_list(KspCache(variant.network))

    def test_pruned_base_gives_a_plain_cache(self):
        item = fleet_item()
        network = item.network
        pruned = NetworkWorkload(
            network=network, llpd=item.llpd, matrices=item.matrices,
            cache=KspCache(network, pruner=LocalityPruner(network, radius_s=0.0)),
        )
        spec = ScenarioSpec(failed_links=(physical_links(network)[0],))
        variant = spec.apply(pruned)
        assert variant.cache.base is None and variant.cache.pruner is None
        assert every_list(variant.cache) == every_list(KspCache(variant.network))

    def test_derivation_rejects_a_pruned_base(self):
        network = fleet_item().network
        pruned = KspCache(network, pruner=LocalityPruner(network, radius_s=0.0))
        with pytest.raises(ValueError, match="unpruned"):
            KspCache(network, base=pruned)

    def test_failed_endpoint_behaves_as_a_plain_cache(self):
        network = fleet_item().network
        down = network.node_names[0]
        variant = without_failures(network, failed_nodes=(down,), name="v")
        derived = KspCache(variant, base=KspCache(network), failed_nodes=(down,))
        other = network.node_names[1]
        assert derived.get(other, down, 3) == []
        assert KspCache(variant).get(other, down, 3) == []
        with pytest.raises(KeyError):
            derived.get(down, other, 3)

    def test_counters_recorded(self, tmp_path):
        # A uniform-delay grid ties everywhere, so some requests fall back.
        network = grid(3, 3, itertools.repeat(1.0))
        link = physical_links(network)[0]
        variant = without_failures(network, (link,), name="v")
        telemetry.configure(tmp_path)
        try:
            derived = KspCache(
                variant, base=KspCache(network), failed_links=(link,)
            )
            every_list(derived, k=3)
            telemetry.recorder().flush()
            counters = telemetry.load_trace(tmp_path).counters
        finally:
            telemetry.disable()
        assert counters["ksp.derived"] > 0
        assert counters["ksp.derived_fallback"] > 0
        assert (
            counters["ksp.derived"] + counters["ksp.derived_fallback"]
            == counters["ksp.cache_miss"]
        )


class TestPersistence:
    def test_dump_holds_every_served_list(self):
        base = fleet_item()
        variant = ScenarioSpec(
            failed_links=(physical_links(base.network)[1],)
        ).apply(base)
        B4Routing(cache=variant.cache).place(variant.network, variant.matrices[0])
        served = {
            key: list(paths) for key, paths in variant.cache._paths.items()
        }
        assert served
        loaded = KspCache.load(variant.cache.dump(), variant.network)
        for (src, dst), paths in served.items():
            assert len(loaded._paths.get((src, dst), [])) == len(paths)
            assert loaded.get(src, dst, len(paths) or 1) == paths

    def test_warm_fleet_rerun_is_identical(self, tmp_path):
        base = fleet_item()
        fleet = ScenarioGenerator(base, seed=11).fleet(
            link_failure_k=1, node_failure_k=1, surges=1, budget=4
        )

        def run(cache_dir):
            workload = ScenarioWorkload(base, fleet.specs, seed=11)
            plan = EvalPlan()
            plan.add("B4", SchemeSpec("B4"), workload, scheme="B4")
            return ExperimentEngine(n_workers=1, cache_dir=cache_dir).run_plan(plan)

        reference = run(None)
        cold = run(tmp_path)
        warm = run(tmp_path)
        assert all(r.paths_preloaded == 0 for r in cold.results["B4"])
        assert all(r.paths_preloaded > 0 for r in warm.results["B4"])
        assert repr(all_outcomes(cold)) == repr(all_outcomes(reference))
        assert repr(all_outcomes(warm)) == repr(all_outcomes(reference))
