"""Figure 3: fraction of congested pairs vs LLPD under shortest-path
routing.

Paper shape: networks with high LLPD tend to concentrate traffic when
using SP routing — the congested fraction trends upward with LLPD, while
low-LLPD (tree-like) networks show almost none.
"""

import numpy as np

from benchmarks.conftest import N_WORKERS, emit
from repro.experiments.engine import ExperimentEngine
from repro.experiments.figures import fig03_plan, fig03_sp_congestion
from repro.experiments.render import render_series


def test_fig03_sp_congestion(benchmark, standard_workload):
    result = benchmark.pedantic(
        lambda: fig03_sp_congestion(
            ExperimentEngine(n_workers=N_WORKERS).run_plan(
                fig03_plan(standard_workload)
            )
        ),
        rounds=1,
        iterations=1,
    )

    median = result["median"]
    # Shape check: mean congested fraction in the top LLPD third exceeds
    # the bottom third (the paper's upward trend).
    third = max(1, len(median) // 3)
    low = float(np.mean([y for _, y in median[:third]]))
    high = float(np.mean([y for _, y in median[-third:]]))
    assert high > low, f"expected congestion to grow with LLPD ({low=} {high=})"
    # Tree-like networks (SP is the only routing) show zero congestion.
    assert min(y for _, y in median) == 0.0

    emit(
        "fig03_sp_congestion",
        render_series(
            "Fig 3: congested-pair fraction vs LLPD (SP routing)",
            result,
            x_label="LLPD",
        ),
    )
