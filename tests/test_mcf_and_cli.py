"""Tests for the concurrent-flow machinery and the CLI entry point."""

import pytest

from repro.experiments.workloads import build_zoo_workload
from repro.net.flows import concurrent_flow_bound
from repro.net.units import Gbps
from repro.net.zoo import generate_zoo
from repro.routing.minmax import mcf_seed_paths, optimal_max_utilization
from repro.tm import TrafficMatrix
from repro.tm.scale import max_scale_flows
from tests.conftest import loaded_gts_tm
from tests.oracles import legacy_mcf_seed_paths


class TestMaxScaleFlows:
    def test_flows_route_the_matrix(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(20)})
        lam, flows, _ = max_scale_flows(diamond, tm)
        assert lam == pytest.approx(2.5)  # 50G of s-t capacity / 20G demand
        per_link = flows["s"]
        # Conservation at the source: everything leaves s.
        out = per_link.get(("s", "x"), 0.0) + per_link.get(("s", "y"), 0.0)
        assert out == pytest.approx(Gbps(20), rel=1e-6)

    def test_flows_respect_scaled_capacity(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(20)})
        lam, flows, _ = max_scale_flows(diamond, tm)
        for key, value in flows["s"].items():
            capacity = diamond.link(*key).capacity_bps
            # Flow at scale 1 on a link is at most capacity / lambda.
            assert value <= capacity / lam * (1 + 1e-6)

    def test_want_flows_false_skips(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(1)})
        lam, flows, _ = max_scale_flows(diamond, tm, want_flows=False)
        assert flows is None
        assert lam > 0


@pytest.fixture(scope="module")
def zoo_scales():
    workload = build_zoo_workload(12, 2, seed=0)
    return [
        (item.network, tm)
        for item in workload.networks
        for tm in item.matrices
    ]


def _check_routes(network, tm, lam, flows):
    """``flows`` routes ``tm`` itself, and ``lam`` times it fits."""
    tolerance = 1e-6 * tm.total_demand_bps
    expected = {}
    for agg in tm.aggregates():
        per_source = expected.setdefault(agg.src, {})
        per_source[agg.src] = per_source.get(agg.src, 0.0) + agg.demand_bps
        per_source[agg.dst] = per_source.get(agg.dst, 0.0) - agg.demand_bps
    assert sorted(flows) == sorted(expected)
    load = {}
    for src, per_link in flows.items():
        balance = {}
        for key, bps in per_link.items():
            balance[key[0]] = balance.get(key[0], 0.0) + bps
            balance[key[1]] = balance.get(key[1], 0.0) - bps
            load[key] = load.get(key, 0.0) + bps
        for node in network.node_names:
            assert balance.get(node, 0.0) == pytest.approx(
                expected[src].get(node, 0.0), abs=tolerance
            ), (src, node)
    for key, bps in load.items():
        assert lam * bps <= network.link(*key).capacity_bps * (1 + 1e-6), key


class TestScaleCertificate:
    """Every TM scale is certified from both sides: the returned flow is a
    feasible concurrent flow of value λ (so λ* >= λ), and the
    Garg-Könemann length bound on the capacity duals, computed in bits/s
    outside the LP's units, closes the gap (λ* <= bound ~= λ)."""

    def test_diamond_bound_is_the_cut(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(20)})
        lam, _, lengths = max_scale_flows(diamond, tm)
        assert lam == pytest.approx(2.5)
        assert concurrent_flow_bound(diamond, tm, lengths) == pytest.approx(
            lam, rel=1e-9
        )

    def test_zoo_scales_are_certified(self, zoo_scales):
        assert len(zoo_scales) == 30
        for network, tm in zoo_scales:
            lam, flows, lengths = max_scale_flows(network, tm)
            assert lam > 0 and min(lengths) >= 0.0, network.name
            bound = concurrent_flow_bound(network, tm, lengths)
            assert abs(bound / lam - 1.0) <= 1e-9, (network.name, bound, lam)
            _check_routes(network, tm, lam, flows)


class TestMcfSeedPaths:
    def test_seeds_achieve_optimum(self, gts, gts_tm):
        target, seeds = mcf_seed_paths(gts, gts_tm)
        assert target == pytest.approx(1 / 1.3, rel=1e-3)
        assert seeds
        # Every seed path connects its pair.
        for (src, dst), paths in seeds.items():
            for path in paths:
                assert path[0] == src and path[-1] == dst

    def test_seed_paths_are_simple(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(30)})
        target, seeds = mcf_seed_paths(diamond, tm)
        for paths in seeds.values():
            for path in paths:
                assert len(set(path)) == len(path)

    def test_split_demand_gets_both_paths(self, diamond):
        # 30G cannot fit on either route alone: the seed decomposition
        # must use both.
        tm = TrafficMatrix({("s", "t"): Gbps(30)})
        _, seeds = mcf_seed_paths(diamond, tm)
        assert len(seeds[("s", "t")]) == 2

    def test_matches_optimal_max_utilization(self, gts, gts_tm):
        target, _ = mcf_seed_paths(gts, gts_tm)
        assert target == pytest.approx(
            optimal_max_utilization(gts, gts_tm), rel=1e-9
        )

    @pytest.mark.parametrize(
        "network", generate_zoo(12, seed=0, include_named=True),
        ids=lambda network: network.name,
    )
    def test_matches_subgraph_oracle(self, network):
        # Masked stripping on the base index finds the same path, ties
        # included, as a search over a per-strip copy of the network.
        for seed in (0, 1):
            tm = loaded_gts_tm(network, seed)
            target, seeds = mcf_seed_paths(network, tm)
            ref_target, ref_seeds = legacy_mcf_seed_paths(network, tm)
            assert target == ref_target
            assert list(seeds.items()) == list(ref_seeds.items())


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig03" in out

    def test_unknown_figure(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["nope"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert "argument command: invalid choice: 'nope'" in error

    def test_fig09_runs(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig09", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "measured/predicted" in out

    def test_fig07_runs(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig07"]) == 0
        out = capsys.readouterr().out
        assert "minmax" in out

    @pytest.mark.parametrize(
        "flag, minimum, argv",
        [
            ("--workers", 1, ["fig03", "--workers", "0"]),
            ("--networks", 1, ["fig03", "--networks", "0"]),
            ("--tms", 1, ["fig03", "--tms", "0"]),
            ("--shards", 1, ["dispatch", "SP", "--shards", "0",
                             "--store-dir", "unused"]),
            ("--shards", 1, ["scenarios", "--dispatch", "--shards", "-1",
                             "--store-dir", "unused"]),
            ("--cache-max-bytes", 0, ["fig03", "--cache-dir", "unused",
                                      "--cache-max-bytes", "-1"]),
            ("--failures", 0, ["scenarios", "--failures", "-1"]),
            ("--node-failures", 0, ["scenarios", "--node-failures", "-1"]),
            ("--surges", 0, ["scenarios", "--surges", "-1"]),
            ("--growth-stages", 0, ["scenarios", "--growth-stages", "-1"]),
            ("--variant-budget", 1, ["scenarios", "--variant-budget", "0"]),
            ("--surge-pairs", 1, ["scenarios", "--surges", "1",
                                  "--surge-pairs", "-1"]),
            ("--seed", 0, ["fig03", "--seed", "-1"]),
            ("--growth-factor", 1, ["fig03", "--growth-factor", "0.5"]),
            ("--surge-factor", 0, ["scenarios", "--surges", "1",
                                   "--surge-factor", "-3"]),
        ],
        ids=[
            "workers", "networks", "tms", "shards", "scenarios-shards",
            "cache-max-bytes", "failures",
            "node-failures", "surges", "growth-stages", "variant-budget",
            "surge-pairs", "seed", "growth-factor", "surge-factor",
        ],
    )
    def test_count_flags_below_one_exit_2(self, flag, minimum, argv, capsys):
        # An out-of-range count used to reach the engine, the manifest
        # writer or the cache writer (after the whole figure had been
        # evaluated) and die with a ValueError traceback — or, for a
        # negative perturbation count, be silently read as 0; argparse
        # now rejects it up front.
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert f"argument {flag}: must be at least {minimum}" in error

    @pytest.mark.parametrize("value", ["-1", "nan", "x", "0.5,-2"])
    def test_bad_localities_exit_2(self, value, capsys):
        # A negative locality used to end in a ValueError traceback from
        # apply_locality and a NaN one in an infeasible LP, both mid-run.
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["scenarios", f"--localities={value}"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert "argument --localities:" in error
