"""Ablation: targeted detour paths in the iterative latency LP.

The paper's Figure 13 grows path sets with "shortest paths for an
increasing k".  On multi-continent topologies pure k-shortest-path growth
can need combinatorially many paths before it finds one avoiding a hot
transoceanic link, so our implementation additionally adds, per overloaded
link, each crossing aggregate's shortest path *around* that link.  This
bench quantifies that design choice: fit rate and LP-solve counts with and
without detour augmentation.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.routing.optimal import solve_iterative_latency


def run_variants(items):
    outcomes = {}
    for use_detours in (True, False):
        label = "with-detours" if use_detours else "ksp-only"
        fits = 0
        total = 0
        solves = []
        paths = []
        for item in items:
            for tm in item.matrices:
                result, stats = solve_iterative_latency(
                    item.network, tm, cache=item.cache, use_detours=use_detours
                )
                total += 1
                fits += int(result.fits)
                solves.append(stats.lp_solves)
                paths.append(stats.total_paths)
        outcomes[label] = {
            "fit_rate": fits / total,
            "median_solves": float(np.median(solves)),
            "median_paths": float(np.median(paths)),
        }
    return outcomes


def test_ablation_detours(benchmark, high_llpd_items):
    outcomes = benchmark.pedantic(
        run_variants, args=(high_llpd_items,), rounds=1, iterations=1
    )

    with_detours = outcomes["with-detours"]
    ksp_only = outcomes["ksp-only"]
    # Detours never hurt the fit rate and reach feasibility with no more
    # LP solves than blind growth.
    assert with_detours["fit_rate"] >= ksp_only["fit_rate"]
    assert with_detours["fit_rate"] == 1.0
    assert with_detours["median_solves"] <= ksp_only["median_solves"] + 1e-9

    lines = [f"{'variant':>14s} {'fit rate':>9s} {'med solves':>11s} "
             f"{'med paths':>10s}"]
    for label, row in outcomes.items():
        lines.append(
            f"{label:>14s} {row['fit_rate']:>9.2f} "
            f"{row['median_solves']:>11.1f} {row['median_paths']:>10.0f}"
        )
    emit("ablation_detours", "\n".join(lines))
