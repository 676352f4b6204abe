"""Final coverage batch: GraphML corner cases, link-based headroom,
decomposition robustness, CLI figure runners."""

import textwrap

import pytest

from repro.net.io import from_graphml
from repro.net.units import Gbps
from repro.routing import LinkBasedOptimalRouting
from repro.routing.decompose import decompose_flow
from repro.tm import TrafficMatrix

DUPLICATED_GRAPHML = textwrap.dedent(
    """\
    <?xml version="1.0" encoding="utf-8"?>
    <graphml xmlns="http://graphml.graphdrawing.org/xmlns">
      <key id="d0" for="node" attr.name="Latitude" attr.type="double"/>
      <key id="d1" for="node" attr.name="Longitude" attr.type="double"/>
      <key id="d2" for="node" attr.name="label" attr.type="string"/>
      <key id="d3" for="edge" attr.name="LinkSpeedRaw" attr.type="double"/>
      <graph edgedefault="undirected">
        <node id="0">
          <data key="d0">50.0</data><data key="d1">8.0</data>
          <data key="d2">Frankfurt</data>
        </node>
        <node id="1">
          <data key="d0">48.1</data><data key="d1">11.6</data>
          <data key="d2">Munich</data>
        </node>
        <node id="2">
          <data key="d0">48.2</data><data key="d1">11.7</data>
          <data key="d2">Munich</data>
        </node>
        <edge source="0" target="1">
          <data key="d3">5000000000</data>
        </edge>
        <edge source="0" target="1">
          <data key="d3">5000000000</data>
        </edge>
        <edge source="0" target="2"/>
      </graph>
    </graphml>
    """
)


class TestGraphmlCorners:
    @pytest.fixture
    def path(self, tmp_path):
        p = tmp_path / "dup.graphml"
        p.write_text(DUPLICATED_GRAPHML)
        return str(p)

    def test_duplicate_labels_disambiguated(self, path):
        net = from_graphml(path)
        assert sorted(net.node_names) == ["Frankfurt", "Munich", "Munich#2"]

    def test_parallel_edges_sum_capacity(self, path):
        net = from_graphml(path)
        assert net.link("Frankfurt", "Munich").capacity_bps == pytest.approx(
            Gbps(10)
        )

    def test_missing_speed_uses_default(self, path):
        net = from_graphml(path, default_capacity_bps=Gbps(40))
        assert net.link("Frankfurt", "Munich#2").capacity_bps == pytest.approx(
            Gbps(40)
        )


class TestLinkBasedHeadroom:
    def test_headroom_shifts_traffic(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(10)})
        plain = LinkBasedOptimalRouting().place(diamond, tm)
        reserved = LinkBasedOptimalRouting(headroom=0.2).place(diamond, tm)
        # 20% headroom leaves 8G on the fast path: 2G must detour.
        assert (
            reserved.total_latency_stretch()
            > plain.total_latency_stretch()
        )
        loads = reserved.link_loads_bps()
        assert loads[("s", "x")] == pytest.approx(Gbps(8), rel=0.01)

    def test_invalid_headroom(self):
        with pytest.raises(ValueError):
            LinkBasedOptimalRouting(headroom=1.0)


class TestDecomposeRobustness:
    def test_flow_with_spurious_cycle(self, square):
        """A cycle superimposed on a path flow must not break the
        decomposition or inflate the delivered volume."""
        flows = {
            ("a", "b"): 5.0,
            # Cycle b->c->d->a->b carrying 1 unit plus path flow overlap.
            ("b", "c"): 1.0,
            ("c", "d"): 1.0,
            ("d", "a"): 1.0,
            ("a", "b", ): 5.0,
        }
        # Path a->b carries 5 (the demand); the rest is a cycle.
        splits = decompose_flow(square, "a", "b", flows, demand_bps=5.0)
        delivered = sum(fraction for _, fraction in splits)
        assert delivered == pytest.approx(1.0, abs=1e-6)
        assert splits[0][0] == ("a", "b")


class TestCliRunners:
    def test_fig01_small(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig01", "--networks", "3", "--tms", "1"]) == 0
        assert "APA" in capsys.readouterr().out

    def test_fig08_small(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig08", "--networks", "3", "--tms", "1"]) == 0
        out = capsys.readouterr().out
        assert "h=0%" in out and "h=40%" in out

    def test_fig10_small(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig10", "--seed", "2"]) == 0
        assert "corr" in capsys.readouterr().out
