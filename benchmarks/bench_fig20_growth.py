"""Figure 20: latency benefits of LLPD-guided network growth.

The paper takes hard-to-route (non-clique) networks, repeatedly adds the
candidate link that most increases LLPD until link count grows 5%, and
compares each scheme's latency stretch before and after.

Paper shape: LDR exploits the added links fully (median stretch close to
1 after growth); B4 benefits partially; the MinMax variants benefit least
and can even get *worse*, because they use new links to load-balance more
widely.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.experiments.engine import ExperimentEngine
from repro.experiments.figures import fig20_growth_benefit, fig20_plan
from repro.experiments.render import render_scatter_summary

N_HARD_NETWORKS = 3


def pick_hard_items(workload):
    """Non-clique networks with the worst optimal-routing stretch."""
    from repro.routing import LatencyOptimalRouting

    scored = []
    for item in workload.networks:
        n = item.network.num_nodes
        if item.network.num_links >= n * (n - 1):
            continue  # clique: nothing to add
        placement = LatencyOptimalRouting(cache=item.cache).place(
            item.network, item.matrices[0]
        )
        scored.append((placement.total_latency_stretch(), item))
    scored.sort(key=lambda pair: -pair[0])
    return [item for _, item in scored[:N_HARD_NETWORKS]]


def test_fig20_growth(benchmark, standard_workload):
    items = pick_hard_items(standard_workload)
    assert items

    results = benchmark.pedantic(
        lambda: fig20_growth_benefit(
            ExperimentEngine().run_plan(fig20_plan(items, max_candidates=12))
        ),
        rounds=1,
        iterations=1,
    )

    # LDR profits from growth at least as much as MinMax does (the
    # paper's central claim: the routing scheme determines which links
    # are worth adding).
    def median_improvement(scheme):
        pairs = results[scheme]["median"]
        return float(np.mean([before - after for before, after in pairs]))

    assert median_improvement("LDR") >= median_improvement("MinMax") - 1e-6
    # After growth, LDR's stretch is the lowest of all schemes (Fig 20:
    # "For three of the networks, LDR's 90th percentile is less than all
    # other routing systems' median latency").  Note stretch is measured
    # against each topology's own shortest paths, which the added links
    # shorten, so "close to 1" depends on how much the baseline moved.
    mean_after = {
        scheme: float(np.mean([after for _, after in data["median"]]))
        for scheme, data in results.items()
    }
    assert mean_after["LDR"] == min(mean_after.values())

    sections = []
    for scheme, data in results.items():
        sections.append(
            render_scatter_summary(
                f"{scheme}: stretch before (x) vs after (y), medians",
                data["median"],
            )
        )
        pairs = ", ".join(
            f"({before:.3f} -> {after:.3f})" for before, after in data["median"]
        )
        sections.append(f"  per-network medians: {pairs}")
    emit("fig20_growth", "\n".join(sections))
