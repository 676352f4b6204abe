"""Routing schemes studied by the paper.

All schemes implement :class:`repro.routing.base.RoutingScheme` and return a
:class:`repro.routing.base.Placement` mapping each traffic aggregate to a
set of (path, fraction) splits.  ``RoutingScheme`` checks ``headroom`` and
chooses the KSP cache (``cache_for``) for all of them; the placement alone
judges, from its real link loads, whether the traffic fits.

* :class:`repro.routing.shortest_path.ShortestPathRouting` — OSPF/IS-IS
  style with delay-proportional costs;
* :class:`repro.routing.b4.B4Routing` — greedy progressive filling over the
  k-shortest paths, as in Google's B4 (and, per the paper, MPLS-TE
  auto-bandwidth behaves alike);
* :class:`repro.routing.minmax.MinMaxRouting` — minimize the maximum link
  utilization with a latency tie-break (TeXCP/MATE-style), either over all
  paths or over the k shortest ("MinMax K=10");
* :class:`repro.routing.optimal.LatencyOptimalRouting` — the paper's
  latency-optimal LP (its Figure 12) solved by iterative path-set growth
  (its Figure 13); with headroom and the multiplexing loop on top it
  becomes LDR (:mod:`repro.core.ldr`);
* :class:`repro.routing.priority.PriorityLatencyOptimalRouting` — that
  LP with per-class delay weights on the flow counts (paper §8);
* :class:`repro.routing.linkbased.LinkBasedOptimalRouting` — the same
  optimization as a per-aggregate link-based multi-commodity flow, the slow
  baseline of the paper's Figure 15.
"""

from repro.routing.base import Placement, RoutingScheme
from repro.routing.shortest_path import ShortestPathRouting
from repro.routing.ecmp import EcmpRouting
from repro.routing.mplste import MplsTeRouting
from repro.routing.b4 import B4Routing
from repro.routing.minmax import MinMaxRouting
from repro.routing.optimal import LatencyOptimalRouting
from repro.routing.linkbased import LinkBasedOptimalRouting

__all__ = [
    "Placement",
    "RoutingScheme",
    "ShortestPathRouting",
    "EcmpRouting",
    "MplsTeRouting",
    "B4Routing",
    "MinMaxRouting",
    "LatencyOptimalRouting",
    "LinkBasedOptimalRouting",
]
