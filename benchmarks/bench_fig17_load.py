"""Figure 17: effect of load on median maximum flow stretch, high-LLPD
networks.

Paper shape: B4 is quite sensitive to high load; the other schemes are
not.  At low load B4 is (near) optimal; at high load MinMax and the
optimal scheme converge.
"""

from benchmarks.conftest import N_WORKERS, RESULTS_DIR, emit
from repro.experiments.engine import ExperimentEngine
from repro.experiments.figures import fig17_load_sweep, fig17_plan
from repro.experiments.render import render_series

LOADS = (0.6, 0.7, 0.8, 0.9)


def test_fig17_load(benchmark, high_llpd_items):
    # Engine-backed since the result-store refactor: shards across
    # REPRO_BENCH_WORKERS and shares the persistent KSP cache directory
    # with the other benchmarks (same networks, same content hashes).
    results = benchmark.pedantic(
        lambda: fig17_load_sweep(
            ExperimentEngine(
                n_workers=N_WORKERS,
                cache_dir=str(RESULTS_DIR / "ksp-cache"),
            ).run_plan(fig17_plan(high_llpd_items, LOADS))
        ),
        rounds=1,
        iterations=1,
    )

    def series(name):
        return [y for _, y in results[name]]

    # B4 degrades with load more than LDR does.
    b4_growth = series("B4")[-1] - series("B4")[0]
    ldr_growth = series("LDR")[-1] - series("LDR")[0]
    assert b4_growth >= ldr_growth - 1e-6
    # MinMax approaches the optimum at the highest load: the gap at 90%
    # is no bigger than the gap at 60%.
    gap_low = series("MinMax")[0] - series("LDR")[0]
    gap_high = series("MinMax")[-1] - series("LDR")[-1]
    assert gap_high <= gap_low + 1e-6

    emit(
        "fig17_load",
        render_series(
            "Fig 17: median max path stretch vs min-cut load "
            "(LLPD > 0.5 networks)",
            results,
            x_label="load",
        ),
    )
