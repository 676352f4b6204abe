#!/usr/bin/env python3
"""A morning in the life of the LDR controller (paper §5, Figure 11).

Simulates the full centralized loop minute by minute on the GTS-like
network: ingress routers report each minute's 100 ms samples, the
controller predicts the next minute (Algorithm 1), optimizes with the
multiplexing checks, installs the placement — and then the *next* minute's
real traffic flows over it.  Each row below scores an installed placement
against the traffic that actually arrived.
"""

import numpy as np

from repro.net.zoo import gts_like
from repro.sim import TimelineSimulation
from repro.tm import (
    apply_locality,
    gravity_traffic_matrix,
    scale_to_growth_headroom,
)
from repro.traces import SyntheticTraceConfig, synthesize_trace

MINUTES = 8


def main() -> None:
    network = gts_like()
    rng = np.random.default_rng(3)
    tm = gravity_traffic_matrix(network, rng)
    tm = apply_locality(network, tm, locality=1.0)
    tm = scale_to_growth_headroom(network, tm, growth_factor=1.65)

    traces = {}
    for agg in tm.aggregates():
        config = SyntheticTraceConfig(
            mean_bps=agg.demand_bps,
            minutes=MINUTES,
            sample_ms=100,
            mean_drift=0.03,
            burst_sigma_fraction=float(rng.uniform(0.08, 0.2)),
        )
        traces[agg.pair] = synthesize_trace(config, rng)

    simulation = TimelineSimulation(network, traces)
    print(f"{network.name}: {len(traces)} aggregates, "
          f"{MINUTES} minutes of traffic, re-optimizing every minute\n")
    print(f"{'minute':>6s} {'rounds':>7s} {'converged':>10s} "
          f"{'stretch':>8s} {'util(real)':>11s} {'max queue':>10s} "
          f"{'over budget':>12s}")
    for report in simulation.run():
        print(
            f"{report.minute:>6d} {report.ldr_rounds:>7d} "
            f"{'yes' if report.converged else 'NO':>10s} "
            f"{report.latency_stretch:>8.4f} "
            f"{report.actual_max_utilization:>11.3f} "
            f"{report.max_queue_delay_s * 1000:>8.2f}ms "
            f"{report.links_over_budget:>12d}"
        )
    print(
        "\nEvery row is a placement computed from minute m's measurements "
        "and judged against minute m+1's actual traffic.  The 10% hedge "
        "plus per-aggregate multiplexing headroom keep real queueing at "
        "(or near) zero while the stretch stays a few percent above the "
        "shortest-path floor."
    )


if __name__ == "__main__":
    main()
