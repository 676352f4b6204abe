"""Figure 15: run time of the optimization algorithms on the networks with
LLPD > 0.5 (the hardest to route).

Paper shape: the iterative path-based LP ("LDR") solves in well under a
second; a cold k-shortest-paths cache costs noticeably more than a warm
one; and the per-aggregate link-based formulation is around two orders of
magnitude slower.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.experiments.figures import fig15_runtimes
from repro.experiments.render import render_cdf
from repro.experiments.workloads import NetworkWorkload, build_traffic_matrices
from repro.net.zoo import grid_network


def larger_grids():
    """Bigger grid-class networks, closing in on the paper's scale.

    The paper's Figure 15 networks reach 197 nodes; the link-based LP's
    disadvantage grows with size (its model is aggregates x links), so we
    add 35- and 48-node grids to the ensemble.  Grids of this density are
    high-LLPD by construction (verified for smaller instances in the test
    suite), so the expensive LLPD computation is skipped here.
    """
    rng = np.random.default_rng(15)
    items = []
    for rows, cols in ((5, 7), (6, 8)):
        network = grid_network(
            rows, cols, np.random.default_rng(rows * cols),
            name=f"grid-{rows}x{cols}",
        )
        items.append(
            NetworkWorkload(
                network=network,
                llpd=0.6,  # grid-class placeholder; not used by fig15
                matrices=build_traffic_matrices(
                    network, 1, rng, locality=1.0, growth_factor=1.3
                ),
            )
        )
    return items


def test_fig15_runtime(benchmark, high_llpd_items):
    items = list(high_llpd_items) + larger_grids()
    times = benchmark.pedantic(
        fig15_runtimes, args=(items,), rounds=1, iterations=1
    )

    warm = np.array(times["ldr"])
    cold = np.array(times["ldr_cold"])
    link_based = np.array(times["link_based"])
    assert len(warm) == len(items)
    # Warm-cache runs beat cold-cache runs (medians): a warm KSP cache
    # that stops paying for itself means cache reuse is broken.
    assert np.median(warm) < np.median(cold), (
        f"warm median {np.median(warm):.4f}s is not faster than cold "
        f"{np.median(cold):.4f}s"
    )
    # The link-based LP's handicap grows with network size; on the larger
    # networks it exceeds an order of magnitude (the paper, with networks
    # up to 197 nodes, reports about two orders).
    ratios = link_based / warm
    assert float(np.max(ratios)) > 10.0, f"best ratio only {ratios.max():.1f}x"
    assert float(np.median(ratios)) > 3.0
    # LDR itself is fast enough for online use.
    assert np.median(warm) < 2.0
    ratio = float(np.median(ratios))

    emit(
        "fig15_runtime",
        "\n\n".join(
            [
                render_cdf("LDR (warm cache) runtime [s]", warm),
                render_cdf("LDR (cold cache) runtime [s]", cold),
                render_cdf("link-based runtime [s]", link_based),
                f"median link-based / median warm LDR = {ratio:.1f}x",
            ]
        ),
    )
