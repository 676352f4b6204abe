"""Scenario fleets: specs, seeded generation, lazy plans, dispatch parity."""

import hashlib
import json
import pickle
import subprocess
import sys
from itertools import combinations, islice, permutations

import pytest

from repro.experiments.dispatch import dispatch_plan, load_manifest
from repro.experiments.engine import ExperimentEngine
from repro.experiments.plan import EvalPlan, EvalTask
from repro.experiments.spec import SchemeSpec
from repro.experiments.store import workload_signature
from repro.experiments.workloads import NetworkWorkload, build_zoo_workload
from repro.net.mutate import ScenarioInfeasible, severed_pair, without_failures
from repro.net.graph import Network, Node
from repro.net.io import to_json as net_to_json
from repro.net.units import Gbps, ms
from repro.net.zoo import generate_zoo
from repro.scenarios import (
    BASELINE,
    ScenarioGenerator,
    ScenarioSpec,
    ScenarioWorkload,
)
from repro.scenarios.report import (
    render_json,
    render_text,
    robustness_payload,
    variant_metrics,
)
from repro.scenarios.workload import VARIANT_CACHE_SIZE
from repro.tm.matrix import TrafficMatrix
from repro.tm.matrix import from_json as tm_from_json
from repro.tm.matrix import to_json as tm_to_json
from tests.plans import all_outcomes


def build_line(n=4):
    """A chain n0 - n1 - ... - n_{n-1}: every interior link is a bridge."""
    net = Network(f"line-{n}")
    for i in range(n):
        net.add_node(Node(f"n{i}"))
    for i in range(n - 1):
        net.add_duplex_link(f"n{i}", f"n{i + 1}", Gbps(10), ms(1))
    return net


def build_square():
    """Four nodes in a cycle a-b-c-d-a: survives any single link cut."""
    net = Network("square")
    for name in "abcd":
        net.add_node(Node(name))
    net.add_duplex_link("a", "b", Gbps(10), ms(1))
    net.add_duplex_link("b", "c", Gbps(10), ms(1))
    net.add_duplex_link("c", "d", Gbps(10), ms(1))
    net.add_duplex_link("d", "a", Gbps(10), ms(1))
    return net


# ----------------------------------------------------------------------
# Satellite: TrafficMatrix.scaled(pairs=...)
# ----------------------------------------------------------------------
class TestScaledPairs:
    def tm(self):
        return TrafficMatrix(
            {
                ("a", "b"): Gbps(1),
                ("b", "c"): Gbps(2),
                ("c", "a"): Gbps(3),
                ("a", "c"): 0.0,  # zero-demand pairs are retained
            }
        )

    def test_subset_matches_manual_scaling(self):
        tm = self.tm()
        surged = tm.scaled(5.0, pairs=[("a", "b"), ("c", "a")])
        manual = TrafficMatrix(
            {
                ("a", "b"): Gbps(1) * 5.0,
                ("b", "c"): Gbps(2),
                ("c", "a"): Gbps(3) * 5.0,
                ("a", "c"): 0.0,
            }
        )
        assert surged == manual

    def test_preserves_pair_order_and_round_trips(self):
        surged = self.tm().scaled(3.0, pairs=[("b", "c")])
        assert surged.pairs == self.tm().pairs  # insertion order kept
        assert tm_from_json(tm_to_json(surged)) == surged

    def test_absent_pair_raises(self):
        with pytest.raises(KeyError):
            self.tm().scaled(2.0, pairs=[("a", "z")])

    def test_none_scales_everything(self):
        doubled = self.tm().scaled(2.0)
        assert doubled.demand("b", "c") == Gbps(2) * 2.0
        assert doubled.demand("a", "b") == Gbps(1) * 2.0


# ----------------------------------------------------------------------
# Satellite: mutate guards (typed infeasibility, not an LP crash)
# ----------------------------------------------------------------------
def line_item():
    """A 4-node chain: every interior link is a bridge."""
    network = build_line(4)
    tm = TrafficMatrix({("n0", "n3"): Gbps(1), ("n1", "n2"): Gbps(1)})
    return NetworkWorkload(network=network, llpd=1.0, matrices=[tm])


class TestMutateGuards:
    def test_removing_bridge_link_is_typed_infeasible(self):
        spec = ScenarioSpec(failed_links=(("n1", "n2"),))
        with pytest.raises(ScenarioInfeasible):
            spec.apply(line_item())

    def test_removing_absent_link_is_typed_infeasible(self):
        with pytest.raises(ScenarioInfeasible, match="no physical link"):
            without_failures(build_line(4), failed_links=[("n0", "n3")])
        with pytest.raises(ScenarioInfeasible, match="no physical link"):
            without_failures(
                build_line(4), failed_links=[("n0", "n1"), ("n1", "n0")]
            )

    def test_removing_absent_node_is_typed_infeasible(self):
        with pytest.raises(ScenarioInfeasible, match="no node 'n9'"):
            without_failures(build_line(4), failed_nodes=["n9"])

    def test_node_failure_severing_transit_demand(self):
        # Dropping n1 severs n0 <-> n3 (chain); the n0->n3 demand survives
        # the endpoint filter but has no path.
        spec = ScenarioSpec(failed_nodes=("n1",))
        with pytest.raises(ScenarioInfeasible):
            spec.apply(line_item())

    def test_connected_components_after_cut(self):
        line = build_line(4)
        pairs = [("n0", "n1"), ("n2", "n3"), ("n3", "n0"), ("n0", "n3")]
        cut = without_failures(line, failed_links=[("n1", "n2")])
        assert severed_pair(cut, pairs) == ("n3", "n0")
        assert severed_pair(line, pairs, failed_links=[("n2", "n1")]) == (
            "n3", "n0"
        )
        assert severed_pair(line, pairs) is None
        # A pair touching a failed node is dropped, not severed.
        assert severed_pair(line, [("n0", "n1")], failed_nodes=["n0"]) is None
        assert severed_pair(line, [("n0", "n2")], failed_nodes=["n1"]) == (
            "n0", "n2"
        )

    def test_failures_apply_as_one_set(self):
        # Failure order does not matter, and survivors keep insertion
        # order: the one-pass copy equals removing links one at a time.
        network = build_square()
        links = [("a", "b"), ("c", "d")]
        forward = without_failures(network, failed_links=links)
        backward = without_failures(network, failed_links=links[::-1])
        stepwise = without_failures(
            without_failures(network, [("a", "b")]), [("c", "d")]
        )
        assert net_to_json(forward) == net_to_json(backward)
        assert net_to_json(forward) == net_to_json(stepwise)
        renamed = without_failures(network, failed_nodes=["a"], name="sq#x")
        assert renamed.name == "sq#x"
        assert renamed.node_names == ["b", "c", "d"]
        assert [link.key for link in renamed.links()] == [
            ("b", "c"), ("c", "b"), ("c", "d"), ("d", "c"),
        ]

    def test_one_network_construction_per_variant(self, monkeypatch):
        item = NetworkWorkload(
            network=build_square(),
            llpd=1.0,
            matrices=[TrafficMatrix({("a", "c"): Gbps(1)})],
        )
        built = []
        real_init = Network.__init__

        def counting_init(network, *args, **kwargs):
            built.append(network)
            real_init(network, *args, **kwargs)

        monkeypatch.setattr(Network, "__init__", counting_init)
        for spec in (
            ScenarioSpec(failed_links=(("a", "b"),)),
            ScenarioSpec(failed_nodes=("b",)),
            ScenarioSpec(surge_pairs=(("a", "c"),), surge_factor=2.0),
        ):
            built.clear()
            variant = spec.apply(item)
            assert built == [variant.network], spec.label()

    def test_square_tolerates_any_single_cut(self):
        network = build_square()
        tm = TrafficMatrix({("a", "c"): Gbps(1)})
        item = NetworkWorkload(network=network, llpd=1.0, matrices=[tm])
        for a, b in sorted(network.duplex_pairs()):
            variant = ScenarioSpec(failed_links=((a, b),)).apply(item)
            assert variant.network.num_links == network.num_links - 2
            assert variant.scenario == f"fail[{a}--{b}]"


# ----------------------------------------------------------------------
# One feasibility rule: independent oracle, screen == realization
# ----------------------------------------------------------------------
def failure_cases(network):
    """The first 60 two-link failures and every single-node failure."""
    two_links = islice(combinations(sorted(network.duplex_pairs()), 2), 60)
    for links in two_links:
        yield links, ()
    for name in network.node_names:
        yield (), (name,)


class TestFeasibilityRule:
    def test_severed_pair_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        outcomes = set()
        for network in generate_zoo(12, seed=0):
            pairs = list(permutations(network.node_names, 2))
            for links, nodes in failure_cases(network):
                graph = nx.DiGraph()
                graph.add_nodes_from(
                    n for n in network.node_names if n not in nodes
                )
                cut = set(links) | {(b, a) for a, b in links}
                graph.add_edges_from(
                    link.key for link in network.links()
                    if link.key not in cut
                    and link.src not in nodes and link.dst not in nodes
                )
                component = {}
                for index, members in enumerate(
                    nx.strongly_connected_components(graph)
                ):
                    component.update(dict.fromkeys(members, index))
                live = [
                    (src, dst) for src, dst in pairs
                    if src not in nodes and dst not in nodes
                ]
                expected = next(
                    (
                        (src, dst) for src, dst in live
                        if component[src] != component[dst]
                    ),
                    None,
                )
                assert severed_pair(network, pairs, links, nodes) == (
                    expected
                ), (network.name, links, nodes)
                outcomes.add(expected is None)
        assert outcomes == {True, False}  # both answers were exercised

    def test_screen_and_realization_agree(self):
        items = build_zoo_workload(n_networks=8, n_matrices=1, seed=0)
        checked = 0
        for index, item in enumerate(items.networks):
            generator = ScenarioGenerator(item, seed=index)
            duplex = sorted(item.network.duplex_pairs())
            cases = [
                (generator.link_failures(k, budget=10**6)[0],
                 [ScenarioSpec(failed_links=c) for c in combinations(duplex, k)])
                for k in (1, 2)
            ]
            cases.append((
                generator.node_failures(1, budget=10**6)[0],
                [ScenarioSpec(failed_nodes=(name,))
                 for name in sorted(item.network.node_names)],
            ))
            for kept, every in cases:
                kept = set(kept)
                for spec in every:
                    checked += 1
                    if spec in kept:
                        spec.apply(item)
                    else:
                        with pytest.raises(ScenarioInfeasible):
                            spec.apply(item)
        assert checked > 1000

    def test_node_failure_dropping_every_demand(self):
        # Triangle a-b-c with demands a->b and c->a: failing a drops both.
        network = Network("triangle")
        for name in "abc":
            network.add_node(Node(name))
        for a, b in (("a", "b"), ("b", "c"), ("c", "a")):
            network.add_duplex_link(a, b, Gbps(10), ms(1))
        tm = TrafficMatrix({("a", "b"): Gbps(1), ("c", "a"): Gbps(1)})
        item = NetworkWorkload(network=network, llpd=1.0, matrices=[tm])
        kept, skipped = ScenarioGenerator(item, seed=0).node_failures(1)
        assert [spec.failed_nodes for spec in kept] == [("b",), ("c",)]
        assert skipped == 1
        with pytest.raises(ScenarioInfeasible, match="drops every demand"):
            ScenarioSpec(failed_nodes=("a",)).apply(item)
        for spec in kept:
            assert spec.apply(item).matrices[0].pairs


class TestFleetPin:
    """A multi-kind fleet, realized: any reordered node, link, draw or
    demand moves this digest."""

    DIGEST = "be6b8098883035d2f7932c65f54ac83efbe604c1172ff376a9b70a04774a3bfb"

    def test_realized_fleet_is_byte_identical(self):
        digest = hashlib.sha256()
        items = build_zoo_workload(8, 1, seed=0).networks[:6]
        for i, item in enumerate(items):
            fleet = ScenarioGenerator(item, seed=i).fleet(
                link_failure_k=2 if i % 2 else 1, node_failure_k=1,
                surges=4, budget=40, localities=[0.5], growth_stages=2,
            )
            digest.update(repr(sorted(fleet.skipped.items())).encode())
            for spec in fleet.specs:
                variant = spec.apply(item)
                digest.update(spec.signature().encode())
                digest.update(net_to_json(variant.network).encode())
                digest.update(repr(variant.llpd).encode())
                for tm in variant.matrices:
                    digest.update(tm_to_json(tm).encode())
        assert digest.hexdigest() == self.DIGEST


# ----------------------------------------------------------------------
# Generation: determinism, budgets, skip accounting
# ----------------------------------------------------------------------
class TestGeneration:
    def test_infeasible_variants_skipped_and_counted(self):
        fleet = ScenarioGenerator(line_item(), seed=3).fleet(link_failure_k=1)
        # Chain n0-n1-n2-n3: every single-link cut severs n0->n3.
        assert fleet.specs == [BASELINE]
        assert fleet.skipped == {"link_failure": 3}
        again = ScenarioGenerator(line_item(), seed=3).fleet(link_failure_k=1)
        assert again.skipped == fleet.skipped

    def test_baseline_is_always_variant_zero(self):
        base = zoo_base()
        fleet = ScenarioGenerator(base, seed=5).fleet(
            link_failure_k=1, surges=2
        )
        assert fleet.specs[0] == BASELINE
        assert fleet.specs[0].kind == "baseline"

    def test_exhaustive_below_budget_sampled_above(self):
        base = zoo_base()
        generator = ScenarioGenerator(base, seed=5)
        exhaustive, _ = generator.link_failures(1, budget=10_000)
        n_links = len(base.network.duplex_pairs())
        assert len(exhaustive) <= n_links
        sampled, _ = generator.node_failures(2, budget=3)
        assert len(sampled) <= 3
        assert len({spec.signature() for spec in sampled}) == len(sampled)

    def test_fleet_reproducible_within_process(self):
        base = zoo_base()
        first = ScenarioGenerator(base, seed=11).fleet(
            link_failure_k=1, surges=3, budget=5
        )
        second = ScenarioGenerator(base, seed=11).fleet(
            link_failure_k=1, surges=3, budget=5
        )
        assert [s.signature() for s in first.specs] == [
            s.signature() for s in second.specs
        ]
        different = ScenarioGenerator(base, seed=12).fleet(
            link_failure_k=1, surges=3, budget=5
        )
        assert [s.signature() for s in first.specs] != [
            s.signature() for s in different.specs
        ]

    def test_fleet_reproducible_across_processes(self):
        code = (
            "from repro.experiments.workloads import build_zoo_workload\n"
            "from repro.scenarios import ScenarioGenerator\n"
            "base = build_zoo_workload(n_networks=2, n_matrices=1, seed=7,"
            " include_named=False).networks[0]\n"
            "fleet = ScenarioGenerator(base, seed=11).fleet("
            "link_failure_k=1, surges=3, budget=5)\n"
            "print('\\n'.join(s.signature() for s in fleet.specs))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        fleet = ScenarioGenerator(zoo_base(), seed=11).fleet(
            link_failure_k=1, surges=3, budget=5
        )
        assert out == [s.signature() for s in fleet.specs]

    def test_cli_fleet_report(self, capsys):
        # The CLI's own ScenarioGenerator call site, end to end.
        from repro.experiments.__main__ import main

        assert main(
            ["scenarios", "--networks", "3", "--tms", "1", "--seed", "7",
             "--failures", "1", "--schemes", "SP", "--format", "json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kinds"]["baseline"] == 1
        assert report["kinds"]["link_failure"] == report["n_variants"] - 1

    def test_cli_cache_budget_applies(self, tmp_path, capsys):
        # --cache-max-bytes used to be honoured by figure runs only: the
        # scenarios command returned before the cache sweep.
        from repro.experiments.__main__ import main

        argv = ["scenarios", "--networks", "3", "--tms", "1", "--failures",
                "1", "--schemes", "SP", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert list(tmp_path.glob("ksp-*.json"))
        capsys.readouterr()
        assert main(argv + ["--cache-max-bytes", "0"]) == 0
        assert "evicted" in capsys.readouterr().out
        assert not list(tmp_path.glob("ksp-*.json"))


# ----------------------------------------------------------------------
# Spec identity and composition
# ----------------------------------------------------------------------
class TestSpec:
    def spec(self):
        return ScenarioSpec(
            failed_links=(("a", "b"),),
            surge_pairs=(("c", "d"),),
            surge_factor=4.0,
        )

    def test_pickle_and_json_round_trip(self):
        spec = self.spec()
        assert pickle.loads(pickle.dumps(spec)) == spec
        restored = ScenarioSpec.from_jsonable(
            json.loads(json.dumps(spec.to_jsonable()))
        )
        assert restored == spec
        assert restored.signature() == spec.signature()

    def test_foreign_payload_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_jsonable({"format": "something-else"})

    def test_composed_spec_applies(self):
        item = NetworkWorkload(
            network=build_square(),
            llpd=1.0,
            matrices=[TrafficMatrix({("a", "c"): Gbps(1)})],
        )
        spec = ScenarioSpec(
            failed_links=(("a", "b"),),
            surge_pairs=(("a", "c"),),
            surge_factor=3.0,
        )
        variant = spec.apply(item)
        assert variant.matrices[0].demand("a", "c") == Gbps(1) * 3.0
        assert variant.network.num_links == item.network.num_links - 2

    def test_baseline_apply_returns_base_unchanged(self):
        item = line_item()
        assert BASELINE.apply(item) is item


# ----------------------------------------------------------------------
# Lazy plans: streamed == materialized, any worker count, fork or serial
# ----------------------------------------------------------------------
def zoo_base():
    workload = build_zoo_workload(
        n_networks=2, n_matrices=1, seed=7, include_named=False
    )
    return max(workload.networks, key=lambda item: item.network.num_links)


def scenario_plan(schemes=("SP",)):
    # budget=4 samples four 1-link failures: small enough to keep the
    # worker-count sweep fast, large enough that every path (sampling,
    # windowed streaming, resume mid-fleet) is exercised.
    base = zoo_base()
    fleet = ScenarioGenerator(base, seed=11).fleet(link_failure_k=1, budget=4)
    workload = ScenarioWorkload(base, fleet.specs, seed=11)
    plan = EvalPlan()
    for name in schemes:
        plan.add(name, SchemeSpec(name), workload, scheme=name)
    return plan, workload


class TestLazyPlans:
    @pytest.fixture(scope="class")
    def plan_and_workload(self):
        return scenario_plan(schemes=("SP", "ECMP"))

    @pytest.fixture(scope="class")
    def reference(self, plan_and_workload):
        plan, workload = plan_and_workload
        materialized = EvalPlan()
        realized = NetworkListWorkload(list(workload.networks))
        for key, stream in plan.streams.items():
            materialized.add(key, stream.factory, realized, scheme=stream.scheme)
        report = ExperimentEngine(n_workers=1).run_plan(materialized)
        return all_outcomes(report)

    def test_iter_tasks_matches_materialized_tasks(self, plan_and_workload):
        plan, _ = plan_and_workload
        n_variants = len(plan.streams["SP"].workload.specs)
        assert list(plan.iter_tasks()) == [
            EvalTask(key, index)
            for index in range(n_variants)
            for key in ("SP", "ECMP")
        ]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_streamed_equals_materialized_fork(
        self, plan_and_workload, reference, workers
    ):
        plan, _ = plan_and_workload
        report = ExperimentEngine(n_workers=workers).run_plan(plan)
        assert all_outcomes(report) == reference

    def test_resume_after_kill_mid_fleet(
        self, plan_and_workload, reference, tmp_path
    ):
        plan, _ = plan_and_workload
        engine = ExperimentEngine(n_workers=1, store_dir=tmp_path)
        stream = engine.stream_plan(plan)
        for _ in range(5):  # "kill" the fleet run after five variants
            next(stream)
        stream.close()
        resumed = ExperimentEngine(store_dir=tmp_path).run_plan(plan)
        assert all_outcomes(resumed) == reference

    def test_variants_materialize_on_demand(self, plan_and_workload):
        _, workload = plan_and_workload
        assert len(workload.networks) == len(workload.specs)
        item = workload.networks[1]
        assert item.scenario == workload.specs[1].label()
        assert workload.networks[0] is workload.base  # baseline shares base


class TestFleetStreams:
    """A huge fleet streams: variant realizations are counted, not timed."""

    N_SPECS = 10_000

    @pytest.fixture
    def applies(self, monkeypatch):
        """Every ``ScenarioSpec.apply`` call made after the fixture starts."""
        calls = []
        real_apply = ScenarioSpec.apply

        def counting_apply(spec, base):
            calls.append(spec)
            return real_apply(spec, base)

        monkeypatch.setattr(ScenarioSpec, "apply", counting_apply)
        return calls

    def fleet(self):
        specs = [BASELINE] + [
            ScenarioSpec(surge_pairs=(("n0", "n3"),), surge_factor=2.0 + i)
            for i in range(self.N_SPECS - 1)
        ]
        return ScenarioWorkload(line_item(), specs, seed=0)

    def test_iterating_every_task_realizes_no_variant(self, applies):
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), self.fleet(), scheme="SP")
        assert sum(1 for _ in plan.iter_tasks()) == self.N_SPECS
        assert applies == []

    def test_indexing_realizes_each_variant_once_in_a_bounded_window(
        self, applies
    ):
        fleet = self.fleet()
        k = 4 * VARIANT_CACHE_SIZE
        indices = range(0, self.N_SPECS, self.N_SPECS // k)[:k]
        for index in indices:
            assert fleet.networks[index].scenario == (
                fleet.specs[index].label() if index else None
            )
            assert len(fleet.networks._cache) <= VARIANT_CACHE_SIZE
        assert applies == [fleet.specs[index] for index in indices]


class NetworkListWorkload:
    """A fully materialized stand-in mirroring ZooWorkload's surface."""

    def __init__(self, networks):
        self.networks = networks
        self.locality = 1.0
        self.growth_factor = 1.3
        self.seed = 11


# ----------------------------------------------------------------------
# Store identity and dispatch parity
# ----------------------------------------------------------------------
class TestStoreAndDispatch:
    def test_content_signature_is_the_store_identity(self):
        _, workload = scenario_plan()
        assert workload_signature(workload) == workload.content_signature()
        _, twin = scenario_plan()
        assert workload_signature(twin) == workload_signature(workload)
        shrunk = ScenarioWorkload(workload.base, workload.specs[:-1], seed=11)
        assert workload_signature(shrunk) != workload_signature(workload)

    def test_manifest_round_trips_fleet(self):
        _, workload = scenario_plan()
        payload = json.loads(json.dumps(workload.to_manifest_jsonable()))
        restored = ScenarioWorkload.from_manifest_jsonable(payload)
        assert restored.content_signature() == workload.content_signature()

    def test_dispatch_two_shards_matches_in_process(self, tmp_path):
        plan, _ = scenario_plan(schemes=("SP", "ECMP"))
        report = dispatch_plan(
            plan,
            n_shards=2,
            store_dir=tmp_path / "store",
            work_dir=tmp_path / "work",
        )
        direct = ExperimentEngine(n_workers=1).run_plan(plan)
        assert all_outcomes(report) == all_outcomes(direct)
        shards = sorted((tmp_path / "work" / "manifests").glob("shard-*.json"))
        assert len(shards) == 2
        for path in shards:
            manifest = load_manifest(path)
            # The fleet ships once, compactly: one workload entry holding
            # the fleet description, never materialized items.
            (entry,) = manifest["workloads"]
            assert "fleet" in entry and "items" not in entry
            # Tasks are run-length ranges, at most one per stream here.
            assert len(manifest["tasks"]) <= len(manifest["streams"])
        n_variants = len(plan.streams["SP"].workload.specs)
        assert {
            key: len(outcomes)
            for key, outcomes in all_outcomes(report).items()
        } == {"SP": n_variants, "ECMP": n_variants}


# ----------------------------------------------------------------------
# Robustness report
# ----------------------------------------------------------------------
class Outcome:
    def __init__(self, stretch, congested=0.0, util=0.5):
        self.latency_stretch = stretch
        self.congested_fraction = congested
        self.max_utilization = util


class TestReport:
    def payload(self):
        per_scheme = {
            "SP": {
                0: variant_metrics([Outcome(1.0)]),
                1: variant_metrics([Outcome(1.5, congested=0.2)]),
                2: variant_metrics([Outcome(1.2)]),
            },
            "B4": {
                0: variant_metrics([Outcome(1.0)]),
                1: variant_metrics([Outcome(1.1)]),
                2: variant_metrics([Outcome(1.05)]),
            },
        }
        return robustness_payload(
            "toy",
            ["baseline", "fail[a--b]", "fail[b--c]"],
            per_scheme,
            {"link_failure": 1},
            {"baseline": 1, "link_failure": 2},
        )

    def test_ranking_prefers_least_p90_degradation(self):
        payload = self.payload()
        assert payload["ranking"] == ["B4", "SP"]
        assert payload["schemes"]["SP"]["worst_variant"]["label"] == (
            "fail[a--b]"
        )
        assert payload["schemes"]["SP"]["stretch_ratio"]["max"] == 1.5
        assert payload["n_infeasible"] == 1

    def test_worst_variant_is_the_largest_ratio(self):
        # Growth only ever shortens paths here: every ratio is below 1.0,
        # and the worst variant is still a variant, not the baseline.
        per_scheme = {"SP": {
            0: variant_metrics([Outcome(1.2)]),
            1: variant_metrics([Outcome(1.1)]),
            2: variant_metrics([Outcome(1.05)]),
            3: variant_metrics([Outcome(1.1)]),
        }}
        labels = ["baseline", "grow[a--c]", "grow[a--c,b--d]", "grow[b--d]"]
        detail = robustness_payload(
            "toy", labels, per_scheme, {}, {"baseline": 1, "growth": 3}
        )["schemes"]["SP"]
        worst = detail["worst_variant"]
        assert worst["stretch_ratio"] == detail["stretch_ratio"]["max"]
        assert worst["stretch_ratio"] < 1.0
        assert (worst["index"], worst["label"]) == (1, "grow[a--c]")
        only_baseline = robustness_payload(
            "toy", ["baseline"], {"SP": {0: per_scheme["SP"][0]}}, {}, {}
        )["schemes"]["SP"]["worst_variant"]
        assert only_baseline == {
            "index": 0, "label": "baseline", "stretch_ratio": 1.0
        }

    def test_variant_metrics_averages_over_matrices(self):
        metrics = variant_metrics([Outcome(1.0), Outcome(2.0)])
        assert metrics["latency_stretch"] == 1.5

    def test_missing_baseline_rejected(self):
        with pytest.raises(ValueError):
            robustness_payload("toy", ["v"], {"SP": {1: {}}}, {}, {})

    def test_renderings_are_deterministic(self):
        payload = self.payload()
        assert render_json(payload) == render_json(self.payload())
        text = render_text(payload)
        assert "least degradation (p90 stretch ratio): B4" in text
        assert json.loads(render_json(payload))["ranking"] == ["B4", "SP"]
