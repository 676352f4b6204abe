#!/usr/bin/env python3
"""The paper's Figures 5 and 6: why greedy routing fails on path-diverse
networks.

Figure 5 (congestion trap): node V has exactly two exits.  Many blue
aggregates fill link 1 eastbound — green's shortest path — while many red
aggregates fill link 2 westbound — green's only alternative.  Greedy B4,
allocating everyone in parallel, leaves green stranded; the optimal
placement moves red onto a fractionally longer path through G and fits
everyone.

Figure 6 (needless detour): two aggregates share a bottleneck; when it
fills, B4 spills *both* onto their next-shortest paths even though one of
them faces a far longer detour.  The optimum detours only the cheap-to-
move aggregate.
"""

import sys
from pathlib import Path

# The pathology topologies are shared with the test suite.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.test_b4_pathologies import (  # noqa: E402
    build_congestion_trap,
    build_unequal_detours,
    trap_traffic_matrix,
)

from repro.net.paths import path_links  # noqa: E402
from repro.net.units import Gbps  # noqa: E402
from repro.routing import B4Routing, LatencyOptimalRouting  # noqa: E402
from repro.tm import TrafficMatrix  # noqa: E402


def show(placement, label):
    print(f"  {label}:")
    print(f"    fits all traffic: {placement.fits_all_traffic}")
    print(f"    congested pairs:  {placement.congested_pair_fraction():.1%}")
    print(f"    latency stretch:  {placement.total_latency_stretch():.4f}")


def figure5() -> None:
    print("=== Figure 5: the congestion trap ===")
    net = build_congestion_trap()
    tm = trap_traffic_matrix()
    b4 = B4Routing().place(net, tm)
    optimal = LatencyOptimalRouting().place(net, tm)
    show(b4, "B4 (greedy)")
    green = next(a for a in b4.aggregates if a.pair == ("v", "g"))
    utilization = b4.link_utilizations()
    saturated = set(b4.saturated_links())
    for alloc in b4.paths_for(green):
        for link in path_links(alloc.path):
            if link in saturated:
                print(f"    green (v->g) stranded on saturated link "
                      f"{link[0]}->{link[1]}: {utilization[link]:.0%} utilized")
    show(optimal, "latency-optimal LP")
    red_via_g = sum(
        alloc.fraction
        for agg in optimal.aggregates
        if agg.src.startswith("r")
        for alloc in optimal.paths_for(agg)
        if "g" in alloc.path
    )
    print(f"    red aggregate-fractions detoured through G: {red_via_g:.2f}")


def figure6() -> None:
    print("\n=== Figure 6: the needless detour ===")
    net = build_unequal_detours()
    tm = TrafficMatrix({("s1", "t"): Gbps(8), ("s2", "t"): Gbps(8)})
    b4 = B4Routing().place(net, tm)
    optimal = LatencyOptimalRouting().place(net, tm)

    def blue_off_shortest(placement):
        blue = next(a for a in placement.aggregates if a.pair == ("s2", "t"))
        return sum(
            alloc.fraction
            for alloc in placement.paths_for(blue)
            if alloc.path != ("s2", "m", "t")
        )

    show(b4, "B4 (greedy)")
    print(f"    blue traffic forced off its shortest path: "
          f"{blue_off_shortest(b4):.0%}")
    show(optimal, "latency-optimal LP")
    print(f"    blue traffic forced off its shortest path: "
          f"{blue_off_shortest(optimal):.0%}  "
          f"(red, whose detour costs only +1 ms, moves instead)")


def main() -> None:
    figure5()
    figure6()


if __name__ == "__main__":
    main()
