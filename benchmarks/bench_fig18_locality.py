"""Figure 18: effect of traffic locality on median maximum flow stretch.

Paper shape: low locality (more long-distance traffic) hurts every scheme
— B4 the most; all schemes improve as locality rises, with little change
beyond locality ~1.5.
"""

from benchmarks.conftest import N_WORKERS, RESULTS_DIR, emit
from repro.experiments.engine import ExperimentEngine
from repro.experiments.figures import fig18_locality_sweep, fig18_plan
from repro.experiments.render import render_series

LOCALITIES = (0.0, 0.5, 1.0, 1.5, 2.0)


def test_fig18_locality(benchmark, high_llpd_items):
    networks = [item.network for item in high_llpd_items]
    # Engine-backed since the result-store refactor: shards across
    # REPRO_BENCH_WORKERS and warm-starts from the shared KSP cache dir.
    results = benchmark.pedantic(
        lambda: fig18_locality_sweep(
            ExperimentEngine(
                n_workers=N_WORKERS,
                cache_dir=str(RESULTS_DIR / "ksp-cache"),
            ).run_plan(fig18_plan(networks, LOCALITIES, n_matrices=1))
        ),
        rounds=1,
        iterations=1,
    )

    def at(name, locality):
        return dict(results[name])[locality]

    # B4 is the most locality-sensitive scheme: worst at locality 0 and
    # clearly better at 2 (the paper: "B4 is especially sensitive to
    # congesting the wide-area links, so a traffic matrix with low
    # locality tends to hurt latency").
    assert at("B4", 0.0) >= at("B4", 2.0) - 1e-6
    # LDR dominates B4 at every locality.
    for locality in LOCALITIES:
        assert at("LDR", locality) <= at("B4", locality) + 1e-6
    # "the MinMax curves are rather level with locality greater than 1.5".
    assert abs(at("MinMax", 2.0) - at("MinMax", 1.5)) < 0.5
    # Note: the paper's fully-monotone improvement with locality does not
    # reproduce on the synthetic zoo — when locality concentrates demand
    # onto adjacent PoP pairs, their detours carry large *relative*
    # stretch; see EXPERIMENTS.md for the discussion.

    emit(
        "fig18_locality",
        render_series(
            "Fig 18: median max path stretch vs locality "
            "(LLPD > 0.5 networks)",
            results,
            x_label="locality",
        ),
    )
