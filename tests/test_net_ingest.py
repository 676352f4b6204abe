"""Tests for the Internet-scale topology ingestion layer."""

import json
import warnings

import pytest

from repro.net import io
from repro.net.geo import MIN_LINK_DELAY_S
from repro.net.graph import Link, Network, Node
from repro.net.ingest import (
    DEFAULT_CAPACITY_BPS,
    degree_histogram,
    distances_jsonable,
    from_distances_json,
    load_distances,
    network_from_distances,
    synthesize_internet_like,
    to_distances_json,
)
from repro.net.paths import network_signature
from repro.net.units import Gbps, ms

PAYLOAD = {
    "name": "toy",
    "distances": {
        "ams": {"fra": 360.0, "lon": 357.0},
        "fra": {"lon": 634.0},
    },
    "bandwidth": {"ams": {"fra": 40e9}},
}


class TestDistancesFormat:
    def test_parses_duplex_links(self):
        net = network_from_distances(PAYLOAD)
        assert net.num_nodes == 3
        assert net.num_links == 6  # three duplex links
        assert net.link("ams", "fra").capacity_bps == 40e9
        assert net.link("fra", "ams").capacity_bps == 40e9
        assert net.link("ams", "lon").capacity_bps == DEFAULT_CAPACITY_BPS

    def test_delay_from_distance(self):
        net = network_from_distances(PAYLOAD)
        # Propagation delay over 360 km of fiber at the default route
        # factor: well above the floor, deterministic.
        delay = net.link("ams", "fra").delay_s
        assert delay >= MIN_LINK_DELAY_S
        assert delay == net.link("fra", "ams").delay_s
        # Longer distance, longer delay.
        assert net.link("fra", "lon").delay_s > delay

    def test_minimum_delay_floor(self):
        payload = {"name": "close", "distances": {"a": {"b": 0.001}}}
        net = network_from_distances(payload)
        assert net.link("a", "b").delay_s == MIN_LINK_DELAY_S

    def test_conflicting_duplex_distance_rejected(self):
        payload = {
            "name": "bad",
            "distances": {"a": {"b": 100.0}, "b": {"a": 200.0}},
        }
        with pytest.raises(ValueError):
            network_from_distances(payload)

    def test_round_trip_is_signature_equal(self):
        net = network_from_distances(PAYLOAD)
        again = from_distances_json(to_distances_json(net), name=net.name)
        assert network_signature(again) == network_signature(net)

    def test_synthesized_round_trip_is_signature_equal(self):
        net = synthesize_internet_like(80, seed=6)
        again = from_distances_json(to_distances_json(net), name=net.name)
        assert network_signature(again) == network_signature(net)

    def test_jsonable_rejects_asymmetric_networks(self):
        net = Network("oneway")
        net.add_node(Node("a"))
        net.add_node(Node("b"))
        net.add_link(Link("a", "b", Gbps(1), ms(1)))
        with pytest.raises(ValueError):
            distances_jsonable(net)

    def test_load_distances_names_after_file_stem(self, tmp_path):
        path = tmp_path / "tiny-isp.json"
        path.write_text(json.dumps(PAYLOAD | {"name": None}))
        assert load_distances(path).name == "tiny-isp"


class TestIoSniffing:
    def test_load_routes_distances_payloads(self, tmp_path):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(PAYLOAD))
        net = io.load(str(path))
        assert net.num_nodes == 3

    def test_load_still_reads_repro_format(self, triangle, tmp_path):
        path = tmp_path / "triangle.json"
        path.write_text(io.to_json(triangle))
        again = io.load(str(path))
        assert network_signature(again) == network_signature(triangle)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            io.load(str(path))


class TestSynthesis:
    def test_deterministic(self):
        a = synthesize_internet_like(150, seed=3)
        b = synthesize_internet_like(150, seed=3)
        assert network_signature(a) == network_signature(b)

    def test_seed_changes_topology(self):
        a = synthesize_internet_like(150, seed=3)
        b = synthesize_internet_like(150, seed=4)
        assert network_signature(a) != network_signature(b)

    def test_connected(self):
        from repro.net.paths import shortest_path_delays

        net = synthesize_internet_like(200, seed=1)
        src = sorted(net.node_names)[0]
        assert len(shortest_path_delays(net, src)) == net.num_nodes - 1

    def test_power_law_shape(self):
        # Heavy-tailed: many low-degree nodes, a few well-connected hubs.
        net = synthesize_internet_like(500, seed=8)
        hist = degree_histogram(net)
        degrees = sorted(hist)
        assert max(degrees) >= 10
        low = sum(count for degree, count in hist.items() if degree <= 4)
        assert low >= net.num_nodes * 0.5

    def test_names_sort_in_construction_order(self):
        net = synthesize_internet_like(120, seed=0)
        names = list(net.node_names)
        assert names == sorted(names)

    def test_nodes_have_coordinates(self):
        net = synthesize_internet_like(60, seed=2)
        for name in net.node_names:
            node = net.node(name)
            assert -90 <= node.lat_deg <= 90
            assert -180 <= node.lon_deg <= 180

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            synthesize_internet_like(1, seed=0)

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf")])
    def test_non_finite_exponent_rejected(self, exponent):
        # Rejected before numpy sees it: no "Probabilities contain NaN",
        # no RuntimeWarning from normalising infinite weights.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive and finite"):
                synthesize_internet_like(20, seed=0, degree_exponent=exponent)


class TestIngestCli:
    def test_synth_summary_json(self, capsys):
        from repro.experiments.__main__ import main

        assert (
            main(
                [
                    "ingest",
                    "synth",
                    "--synth-nodes",
                    "60",
                    "--seed",
                    "5",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["nodes"] == 60
        assert summary["signature"]

    def test_file_round_trip_through_cli(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "synth.json"
        assert (
            main(
                [
                    "ingest",
                    "synth",
                    "--synth-nodes",
                    "40",
                    "--seed",
                    "1",
                    "--out",
                    str(out),
                    "--emit",
                    "distances",
                ]
            )
            == 0
        )
        capsys.readouterr()  # drain the text summary of the synth run
        assert main(["ingest", str(out), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["nodes"] == 40
        assert summary["signature"] == network_signature(
            synthesize_internet_like(40, seed=1)
        )

    def test_failed_out_write_keeps_the_old_file(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import durable
        from repro.experiments.__main__ import main

        out = tmp_path / "synth.json"
        out.write_text("old")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(durable.os, "replace", broken_replace)
        assert main(
            ["ingest", "synth", "--synth-nodes", "40", "--seed", "1",
             "--out", str(out), "--emit", "distances"]
        ) == 1
        assert out.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["synth.json"]
        assert capsys.readouterr().err == "ingest: disk full\n"

    def test_missing_target_is_usage_error(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["ingest"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert "the following arguments are required: target" in error

    def test_unreadable_file_is_runtime_error(self, tmp_path):
        from repro.experiments.__main__ import main

        assert main(["ingest", str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--synth-nodes", "1"], "need at least 2 nodes"),
            (["--degree-exponent", "0"], "degree exponent must be positive"),
            (["--degree-exponent", "nan"], "must be positive and finite, got nan"),
            (["--degree-exponent", "inf"], "must be positive and finite, got inf"),
        ],
        ids=["synth-nodes", "degree-exponent", "nan-exponent", "inf-exponent"],
    )
    def test_bad_synth_parameters_are_runtime_errors(
        self, flags, message, capsys
    ):
        from repro.experiments.__main__ import main

        assert main(["ingest", "synth", "--synth-nodes", "20"] + flags) == 1
        error = capsys.readouterr().err
        assert error.startswith("ingest: ") and message in error
