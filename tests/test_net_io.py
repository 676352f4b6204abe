"""Tests for topology serialization (JSON round-trip, GraphML import)."""

import textwrap

import pytest

from repro.net.io import from_graphml, from_json, load, to_json
from repro.net.units import Gbps


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self, diamond):
        clone = from_json(to_json(diamond))
        assert clone.name == diamond.name
        assert sorted(clone.node_names) == sorted(diamond.node_names)
        assert clone.num_links == diamond.num_links
        for link in diamond.links():
            other = clone.link(link.src, link.dst)
            assert other.capacity_bps == link.capacity_bps
            assert other.delay_s == link.delay_s

    def test_round_trip_zoo_network(self, gts):
        clone = from_json(to_json(gts))
        assert clone.num_nodes == gts.num_nodes
        assert clone.node("n0-0").lat_deg == gts.node("n0-0").lat_deg

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a repro network"):
            from_json('{"format": "something-else"}')

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError, match="version"):
            from_json('{"format": "repro-network", "version": 99}')

    def test_file_round_trip(self, triangle, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(to_json(triangle))
        assert load(str(path)).num_links == triangle.num_links


GRAPHML = textwrap.dedent(
    """\
    <?xml version="1.0" encoding="utf-8"?>
    <graphml xmlns="http://graphml.graphdrawing.org/xmlns">
      <key id="d0" for="node" attr.name="Latitude" attr.type="double"/>
      <key id="d1" for="node" attr.name="Longitude" attr.type="double"/>
      <key id="d2" for="node" attr.name="label" attr.type="string"/>
      <key id="d3" for="edge" attr.name="LinkSpeedRaw" attr.type="double"/>
      <key id="d4" for="graph" attr.name="Network" attr.type="string"/>
      <graph edgedefault="undirected">
        <data key="d4">TestNet</data>
        <node id="0">
          <data key="d0">48.85</data><data key="d1">2.35</data>
          <data key="d2">Paris</data>
        </node>
        <node id="1">
          <data key="d0">52.52</data><data key="d1">13.40</data>
          <data key="d2">Berlin</data>
        </node>
        <node id="2">
          <data key="d2">Nowhere</data>
        </node>
        <edge source="0" target="1">
          <data key="d3">10000000000</data>
        </edge>
        <edge source="0" target="2"/>
      </graph>
    </graphml>
    """
)


class TestGraphmlImport:
    @pytest.fixture
    def graphml_path(self, tmp_path):
        path = tmp_path / "net.graphml"
        path.write_text(GRAPHML)
        return str(path)

    def test_loads_located_nodes_only(self, graphml_path):
        network = from_graphml(graphml_path)
        assert network.name == "TestNet"
        assert sorted(network.node_names) == ["Berlin", "Paris"]

    def test_link_capacity_from_attribute(self, graphml_path):
        network = from_graphml(graphml_path)
        assert network.link("Paris", "Berlin").capacity_bps == pytest.approx(
            Gbps(10)
        )
        # Duplex import.
        assert network.has_link("Berlin", "Paris")

    def test_delay_from_geography(self, graphml_path):
        network = from_graphml(graphml_path)
        # Paris-Berlin is about 880 km: several milliseconds.
        assert 3e-3 < network.link("Paris", "Berlin").delay_s < 8e-3

    def test_pipeline_runs_on_imported_topology(self, graphml_path):
        """An imported topology drops straight into the full pipeline."""
        import numpy as np

        from repro.routing import LatencyOptimalRouting
        from repro.tm import gravity_traffic_matrix, scale_to_growth_headroom

        network = from_graphml(graphml_path)
        tm = gravity_traffic_matrix(network, np.random.default_rng(0))
        tm = scale_to_growth_headroom(network, tm, 1.3)
        placement = LatencyOptimalRouting().place(network, tm)
        assert placement.fits_all_traffic
