"""Figure 4: congestion and latency stretch vs LLPD for the four active
schemes (latency-optimal, B4, MinMax, MinMax K=10).

Paper shapes:
* optimal ("LDR" engine at zero headroom): no congestion anywhere, low
  stretch even at high LLPD;
* B4: matches optimal on simple networks but induces congestion on the
  most path-diverse ones;
* MinMax: never congests, but pays clearly higher latency stretch;
* MinMax K=10: stretch between B4 and MinMax, but congestion reappears on
  high-LLPD networks.
"""

import numpy as np

from benchmarks.conftest import N_WORKERS, emit
from repro.experiments.engine import ExperimentEngine
from repro.experiments.figures import fig04_plan, fig04_schemes
from repro.experiments.render import render_series


def _mean(points):
    return float(np.mean([y for _, y in points])) if points else 0.0


def test_fig04_schemes(benchmark, standard_workload):
    results = benchmark.pedantic(
        lambda: fig04_schemes(
            ExperimentEngine(n_workers=N_WORKERS).run_plan(
                fig04_plan(standard_workload)
            )
        ),
        rounds=1,
        iterations=1,
    )

    # --- Paper shape assertions -------------------------------------
    # (a) The optimal scheme never congests.
    assert all(y == 0.0 for _, y in results["LDR"]["congestion_median"])
    # (c) MinMax never congests either...
    assert all(y == 0.0 for _, y in results["MinMax"]["congestion_median"])
    # ...but pays more latency than the optimum.
    assert _mean(results["MinMax"]["stretch_median"]) > _mean(
        results["LDR"]["stretch_median"]
    )
    # (b)/(d) Greedy and k-limited schemes congest somewhere (the paper's
    # high-LLPD pathologies), mostly at the high-LLPD end.
    b4_congestion = results["B4"]["congestion_p90"]
    k10_congestion = results["MinMaxK10"]["congestion_p90"]
    assert max(y for _, y in b4_congestion + k10_congestion) > 0.0

    series = {}
    for scheme, data in results.items():
        series[f"{scheme}:cong"] = data["congestion_median"]
        series[f"{scheme}:stretch"] = data["stretch_median"]
    emit(
        "fig04_schemes",
        render_series(
            "Fig 4: median congested fraction and latency stretch vs LLPD",
            series,
            x_label="LLPD",
        ),
    )
