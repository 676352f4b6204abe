"""Figure 19: the Figure 3 shortest-path congestion plot with a
Google-SNet-like enterprise topology added.

Paper shape: the Google-like network has the highest LLPD of the whole
ensemble (the paper measures 0.875) and, unsurprisingly, cannot be routed
with shortest paths alone.
"""

from benchmarks.conftest import N_MATRICES, emit
from repro.core.metrics import llpd
from repro.experiments.engine import ExperimentEngine
from repro.experiments.figures import fig03_plan, fig03_sp_congestion
from repro.experiments.render import render_series
from repro.experiments.workloads import NetworkWorkload, ZooWorkload, build_traffic_matrices
from repro.net.zoo import google_like

import numpy as np


def test_fig19_google(benchmark, standard_workload):
    google = google_like()
    google_llpd = llpd(google)
    rng = np.random.default_rng(19)
    google_item = NetworkWorkload(
        network=google,
        llpd=google_llpd,
        matrices=build_traffic_matrices(
            google, N_MATRICES, rng, locality=1.0, growth_factor=1.3
        ),
    )
    augmented = ZooWorkload(
        networks=standard_workload.networks + [google_item],
        locality=1.0,
        growth_factor=1.3,
    )

    result = benchmark.pedantic(
        lambda: fig03_sp_congestion(
            ExperimentEngine().run_plan(fig03_plan(augmented))
        ),
        rounds=1,
        iterations=1,
    )

    median = result["median"]
    # The Google-like point has the greatest LLPD of the ensemble...
    assert median[-1][0] == max(x for x, _ in median)
    assert median[-1][0] > 0.75
    # ...and shortest paths congest it.
    assert median[-1][1] > 0.0

    emit(
        "fig19_google",
        render_series(
            f"Fig 19: SP congestion vs LLPD with google-like "
            f"(LLPD={google_llpd:.3f}) added",
            result,
            x_label="LLPD",
        ),
    )
