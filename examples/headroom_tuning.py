#!/usr/bin/env python3
"""The headroom dial and the full LDR control loop (§4-§5).

Part 1 sweeps static headroom on the latency-optimal LP, showing the
paper's Figure 8 trade-off: moderate headroom costs almost no latency;
only approaching the MinMax end does stretch climb.

Part 2 runs the complete LDR controller — Algorithm 1 rate prediction,
the iterative LP, the temporal-correlation queue test and the
FFT-convolution multiplexing test — on synthetic per-aggregate traces,
showing how it automatically finds per-aggregate headroom.
"""

import numpy as np

from repro.core.headroom import minmax_equivalent_headroom
from repro.core.ldr import AggregateTraffic, LdrController
from repro.net.zoo import gts_like
from repro.routing import LatencyOptimalRouting, MinMaxRouting
from repro.tm import (
    apply_locality,
    gravity_traffic_matrix,
    scale_to_growth_headroom,
)
from repro.traces import SyntheticTraceConfig, minute_means, synthesize_trace


def static_headroom_sweep(network, tm) -> None:
    print("=== Part 1: the headroom dial (static) ===")
    dial_end = minmax_equivalent_headroom(network, tm)
    print(f"MinMax-equivalent headroom for this load: {dial_end:.1%}\n")
    print(f"{'headroom':>9s} {'stretch':>9s} {'max-util':>9s}")
    for headroom in (0.0, 0.11, 0.23, min(0.40, dial_end)):
        placement = LatencyOptimalRouting(headroom=headroom).place(network, tm)
        print(
            f"{headroom:>8.0%} {placement.total_latency_stretch():>9.4f} "
            f"{placement.max_utilization():>9.3f}"
        )
    minmax = MinMaxRouting().place(network, tm)
    print(
        f"{'MinMax':>9s} {minmax.total_latency_stretch():>9.4f} "
        f"{minmax.max_utilization():>9.3f}   <- the far end of the dial"
    )


def ldr_control_loop(network, tm) -> None:
    print("\n=== Part 2: LDR's automatic headroom (dynamic) ===")
    rng = np.random.default_rng(7)
    traffic = []
    for agg in tm.aggregates():
        config = SyntheticTraceConfig(
            mean_bps=agg.demand_bps,
            minutes=3,
            sample_ms=100,
            burst_sigma_fraction=float(rng.uniform(0.05, 0.25)),
        )
        trace = synthesize_trace(config, rng)
        traffic.append(
            AggregateTraffic(
                agg.src, agg.dst, trace[-600:], minute_means(trace, 600)
            )
        )
    controller = LdrController(network)
    result = controller.route(traffic)
    peak_means = {a.pair: max(a.minute_means_bps) for a in traffic}
    scaled = [
        pair
        for pair, demand in result.demands_bps.items()
        if demand > 1.1 * peak_means[pair] * 1.001
    ]
    print(f"converged: {result.converged} in {result.rounds} round(s)")
    print(f"failing links per round: "
          f"{[len(x) for x in result.failed_links_history]}")
    print(f"aggregates that needed extra headroom: {len(scaled)} "
          f"of {len(traffic)}")
    print(f"final latency stretch (on predicted demands): "
          f"{result.placement.total_latency_stretch():.4f}")
    checks = result.link_checks
    if checks:
        worst = max(checks.values(), key=lambda c: c.exceed_probability)
        print(f"links needing a full multiplexing check: {len(checks)}; "
              f"worst exceedance probability {worst.exceed_probability:.2e}")


def main() -> None:
    network = gts_like()
    rng = np.random.default_rng(0)
    tm = gravity_traffic_matrix(network, rng)
    tm = apply_locality(network, tm, locality=1.0)
    # Figure 8's lighter load: min-cut at 60%.
    tm = scale_to_growth_headroom(network, tm, growth_factor=1.65)
    static_headroom_sweep(network, tm)
    ldr_control_loop(network, tm)


if __name__ == "__main__":
    main()
