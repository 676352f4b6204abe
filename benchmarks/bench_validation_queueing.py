"""Validation: do LDR's multiplexing checks actually prevent queueing?

Not a paper figure, but the experiment that closes the paper's loop: route
the same bursty traffic (a) with the latency-optimal LP fed raw mean rates
and zero headroom ("living on the edge", §4) and (b) with the full LDR
controller (Algorithm 1 hedge + multiplexing loop); then *replay* the
actual rate samples through both placements and measure the transient
queues that really form.

Expected shape: the mean-based edge placement shows queueing delays well
beyond LDR's 10 ms budget on its hottest links; the LDR placement stays
within budget.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.core.ldr import AggregateTraffic, LdrController
from repro.experiments.workloads import build_traffic_matrices
from repro.net.zoo import gts_like
from repro.routing import LatencyOptimalRouting
from repro.sim import replay_placement
from repro.tm import TrafficMatrix
from repro.traces import SyntheticTraceConfig, minute_means, synthesize_trace


def run_validation():
    network = gts_like()
    rng = np.random.default_rng(99)
    # The paper's lighter-load regime (min-cut 60%): enough slack exists
    # for LDR to find a queue-free placement; the edge placement wastes it.
    tm = build_traffic_matrices(
        network, 1, rng, locality=1.0, growth_factor=1.65
    )[0]

    traffic = []
    samples = {}
    measured_means = {}
    for agg in tm.aggregates():
        config = SyntheticTraceConfig(
            mean_bps=agg.demand_bps,
            minutes=2,
            sample_ms=100,
            burst_sigma_fraction=float(rng.uniform(0.10, 0.25)),
        )
        trace = synthesize_trace(config, rng)
        window = trace[-600:]
        samples[agg.pair] = window
        measured_means[agg.pair] = float(window.mean())
        traffic.append(
            AggregateTraffic(agg.src, agg.dst, window, minute_means(trace, 600))
        )

    # (a) the edge: optimize for the measured means, no headroom at all.
    edge_tm = TrafficMatrix(measured_means)
    edge_placement = LatencyOptimalRouting().place(network, edge_tm)
    edge_replay = replay_placement(edge_placement, samples)

    # (b) LDR: hedged prediction + multiplexing loop.
    controller = LdrController(network)
    result = controller.route(traffic)
    ldr_replay = replay_placement(result.placement, samples)

    return {
        "edge_max_queue_ms": edge_replay.max_queue_delay_s * 1000,
        "ldr_max_queue_ms": ldr_replay.max_queue_delay_s * 1000,
        "edge_links_over_budget": len(edge_replay.links_over_budget()),
        "ldr_links_over_budget": len(ldr_replay.links_over_budget()),
        "ldr_converged": result.converged,
        "ldr_rounds": result.rounds,
        "edge_stretch": edge_placement.total_latency_stretch(),
        "ldr_stretch": result.placement.total_latency_stretch(),
    }


def test_validation_queueing(benchmark):
    stats = benchmark.pedantic(run_validation, rounds=1, iterations=1)

    assert stats["ldr_converged"]
    # LDR keeps every link within its queue budget...
    assert stats["ldr_links_over_budget"] == 0
    assert stats["ldr_max_queue_ms"] <= 10.0 + 1e-6
    # ...while the mean-based edge placement does not.
    assert stats["edge_max_queue_ms"] > stats["ldr_max_queue_ms"]

    lines = [
        "replayed transient queueing (budget 10 ms):",
        f"  mean-based, zero headroom: max queue "
        f"{stats['edge_max_queue_ms']:.2f} ms on "
        f"{stats['edge_links_over_budget']} link(s) over budget, "
        f"stretch {stats['edge_stretch']:.4f}",
        f"  LDR ({stats['ldr_rounds']} round(s)): max queue "
        f"{stats['ldr_max_queue_ms']:.2f} ms, "
        f"{stats['ldr_links_over_budget']} link(s) over budget, "
        f"stretch {stats['ldr_stretch']:.4f}",
    ]
    emit("validation_queueing", "\n".join(lines))
