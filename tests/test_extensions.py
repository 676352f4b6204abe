"""Tests for the paper's §8 extension: stretch-bounded MinMax."""

import pytest

from repro.net.units import Gbps
from repro.routing import MinMaxRouting
from repro.tm.matrix import TrafficMatrix


class TestStretchBoundedMinMax:
    def test_mutually_exclusive_with_k(self):
        with pytest.raises(ValueError):
            MinMaxRouting(k=10, stretch_bound=1.4)

    def test_bound_below_one_rejected(self):
        with pytest.raises(ValueError):
            MinMaxRouting(stretch_bound=0.9)

    def test_name(self):
        assert MinMaxRouting(stretch_bound=1.4).name == "MinMaxS1.4"

    def test_limits_max_path_stretch(self, gts, gts_tm):
        """The §8 idea: bounding the path set by stretch caps the worst
        detour MinMax can choose."""
        bound = 2.0
        bounded = MinMaxRouting(stretch_bound=bound).place(gts, gts_tm)
        full = MinMaxRouting().place(gts, gts_tm)
        assert bounded.max_path_stretch() <= bound + 1e-6
        assert full.max_path_stretch() > bounded.max_path_stretch()

    def test_congestion_free_once_bound_wide_enough(self, gts, gts_tm):
        """A tight bound loses capacity (exactly like MinMaxK on diverse
        networks); widening it restores congestion freedom at the true
        optimal utilization."""
        tight = MinMaxRouting(stretch_bound=1.3).place(gts, gts_tm)
        wide = MinMaxRouting(stretch_bound=2.0).place(gts, gts_tm)
        assert tight.max_utilization() > wide.max_utilization()
        assert wide.congested_pair_fraction() == 0.0
        assert wide.max_utilization() == pytest.approx(1 / 1.3, rel=0.01)

    def test_falls_back_to_shortest_when_bound_tight(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(5)})
        placement = MinMaxRouting(stretch_bound=1.0).place(diamond, tm)
        agg = placement.aggregates[0]
        assert placement.paths_for(agg)[0].path == ("s", "x", "t")
