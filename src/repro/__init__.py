"""repro: low-latency-capable topologies and intra-domain routing.

A from-scratch Python reproduction of Gvozdiev, Vissicchio, Karp and
Handley, "On low-latency-capable topologies, and their impact on the design
of intra-domain routing" (SIGCOMM 2018).

The package provides:

* topology metrics — APA and LLPD (:mod:`repro.core.metrics`);
* a synthetic topology zoo with realistic geography (:mod:`repro.net.zoo`);
* gravity/locality traffic-matrix synthesis (:mod:`repro.tm`);
* the paper's routing schemes — shortest-path, B4-style greedy, MinMax
  (full and k-limited), the latency-optimal iterative LP, and a link-based
  baseline (:mod:`repro.routing`);
* headroom machinery — Algorithm 1 rate prediction, temporal and
  FFT-convolution multiplexing checks, and the LDR controller
  (:mod:`repro.core`);
* the experiment harness regenerating every evaluation figure
  (:mod:`repro.experiments`).

Quickstart::

    import numpy as np
    from repro.net.zoo import gts_like
    from repro.core.metrics import llpd
    from repro.tm import gravity_traffic_matrix, scale_to_growth_headroom
    from repro.routing import LatencyOptimalRouting

    network = gts_like()
    print("LLPD:", llpd(network))
    tm = scale_to_growth_headroom(
        network, gravity_traffic_matrix(network, np.random.default_rng(0))
    )
    placement = LatencyOptimalRouting().place(network, tm)
    print("stretch:", placement.total_latency_stretch())
"""

from repro.core.ldr import AggregateTraffic, LdrConfig, LdrController, LdrResult
from repro.core.metrics import ApaParameters, apa_all_pairs, llpd
from repro.core.prediction import MeanRatePredictor
from repro.net.graph import Link, Network, Node
from repro.routing import (
    B4Routing,
    LatencyOptimalRouting,
    LinkBasedOptimalRouting,
    MinMaxRouting,
    Placement,
    RoutingScheme,
    ShortestPathRouting,
)
from repro.tm import (
    TrafficMatrix,
    apply_locality,
    gravity_traffic_matrix,
    max_scale_factor,
    scale_to_growth_headroom,
)

__version__ = "1.0.0"

__all__ = [
    "AggregateTraffic",
    "LdrConfig",
    "LdrController",
    "LdrResult",
    "ApaParameters",
    "apa_all_pairs",
    "llpd",
    "MeanRatePredictor",
    "Link",
    "Network",
    "Node",
    "B4Routing",
    "LatencyOptimalRouting",
    "LinkBasedOptimalRouting",
    "MinMaxRouting",
    "Placement",
    "RoutingScheme",
    "ShortestPathRouting",
    "TrafficMatrix",
    "apply_locality",
    "gravity_traffic_matrix",
    "max_scale_factor",
    "scale_to_growth_headroom",
    "__version__",
]
