"""Figure 16: CDFs of maximum path stretch per traffic matrix, split by
LLPD class and headroom.

Paper shapes:
* (a) LLPD < 0.5, no headroom: little separates the schemes (few routing
  options), with very high tail stretch possible;
* (b) LLPD > 0.5, no headroom: B4 and MinMaxK10 fail to fit some
  scenarios (their CDFs do not reach 1.0);
* (c) LLPD > 0.5, 10% headroom: B4 fits a wider range of scenarios than
  without headroom; LDR-with-headroom and MinMax give similar maxima.
"""

from benchmarks.conftest import N_WORKERS, emit
from repro.experiments.engine import ExperimentEngine
from repro.experiments.figures import fig16_max_stretch_cdfs, fig16_plan
from repro.experiments.render import render_cdf


def test_fig16_max_stretch(benchmark, standard_workload):
    results = benchmark.pedantic(
        lambda: fig16_max_stretch_cdfs(
            ExperimentEngine(n_workers=N_WORKERS).run_plan(
                fig16_plan(standard_workload)
            )
        ),
        rounds=1,
        iterations=1,
    )

    assert set(results) == {"low_h0", "high_h0", "high_h10"}
    # (b): on high-LLPD networks without headroom, the restricted schemes
    # fail to fit some scenarios while MinMax and LDR fit everything.
    assert results["high_h0"]["MinMax"]["unroutable_fraction"] == 0.0
    assert results["high_h0"]["LDR"]["unroutable_fraction"] == 0.0
    restricted_failures = (
        results["high_h0"]["B4"]["unroutable_fraction"]
        + results["high_h0"]["MinMaxK10"]["unroutable_fraction"]
    )
    # (c): headroom lets B4 fit at least as many scenarios as without.
    assert (
        results["high_h10"]["B4"]["unroutable_fraction"]
        <= results["high_h0"]["B4"]["unroutable_fraction"] + 1e-9
    )

    sections = []
    for key, by_scheme in results.items():
        for scheme, data in sorted(by_scheme.items()):
            title = (
                f"{key} / {scheme} (unroutable "
                f"{data['unroutable_fraction']:.2f})"
            )
            sections.append(render_cdf(title, data["stretches"]))
    emit("fig16_max_stretch", "\n\n".join(sections))
