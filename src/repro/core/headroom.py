"""The headroom dial (paper §4).

"We can regard headroom as a dial that can be controlled by the routing
system.  We can calculate latency-optimal paths for a given value of
headroom by simply scaling down link capacities by the chosen headroom and
running the optimal routing scheme on the modified topology.  With headroom
set to zero, we get the latency-optimal curve [...].  If we set headroom to
the value MinMax calculates as the maximal free capacity on the busiest
links, then the latency-optimal algorithm converges with MinMax."

The capacity scaling itself is :meth:`repro.net.graph.Network.with_capacity_factor`
(used by every scheme's ``headroom`` parameter); this module provides the
end of the dial: the headroom value at which latency-optimal routing and
MinMax coincide.
"""

from __future__ import annotations

from repro.net.graph import Network
from repro.tm.matrix import TrafficMatrix


def minmax_equivalent_headroom(network: Network, tm: TrafficMatrix) -> float:
    """Headroom at which latency-optimal placement converges to MinMax.

    This is the free capacity MinMax achieves on the busiest link:
    ``1 - Umax*``.  Reserving exactly that much on every link forces the
    latency-optimal LP into the same max-utilization regime as MinMax.
    Returns 0 when the traffic cannot be fitted at all (Umax* >= 1).
    """
    from repro.routing.minmax import optimal_max_utilization

    umax = optimal_max_utilization(network, tm)
    return max(0.0, 1.0 - umax)
