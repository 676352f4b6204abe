"""The LP hot path: structure reuse and the certified approximate solver.

A sweep solves the *same* (network, path-set) model at many traffic
scales — only the demand payload changes — so the per-path delays, link
order and matrix pattern that dominate model-*build* time should be paid
once per model, not once per solve.  This benchmark replays a small
MinMax sweep and records wall times to ``BENCH_lp.json``:

* **assembly, cold vs warm** — model assembly (builder + both MinMax
  stage models) with the structure cache cleared before every case vs
  pre-warmed.  The cache saves exactly this work, so warm assembly must
  beat cold or reuse has silently broken; this is the CI guard least
  exposed to solver-time noise.
* **exact sweep, cold vs warm** — end-to-end solve times for context
  (solver time dominates both; recorded, not guarded).  Warm must be
  bit-identical to cold: reuse is purely a performance change.
* **approx sweep** — :func:`solve_minmax_approx` at screening settings
  over the same cases.  Its certified bounds must bracket every exact
  optimum and the whole approximate sweep must be cheaper than the
  exact one, or the fast path is no longer fast.

Scale the ensemble with ``REPRO_BENCH_NETWORKS``.
"""

import gc
import time

from benchmarks.conftest import record_bench_json
from repro.lp import resolve_backend
from repro.routing.pathlp import (
    _PathLpBuilder,
    clear_structure_cache,
    solve_minmax_approx,
    solve_minmax_lp,
)

SCALES = (0.6, 0.8, 1.0)
K_PATHS = 10
#: Screening settings for the approximate pass: iteration-capped, with
#: whatever certified gap that budget buys (reported, never assumed).
APPROX_TARGET_GAP = 0.05
APPROX_MAX_ITERATIONS = 150


def _sweep_cases(items):
    """(network, path_sets) per (item, scale): the sweep's exact inputs."""
    cases = []
    for item in items:
        base = item.matrices[0]
        for scale in SCALES:
            tm = base.scaled(scale)
            path_sets = {
                agg: list(item.cache.get(agg.src, agg.dst, K_PATHS))
                for agg in tm.aggregates()
            }
            cases.append((item.network, path_sets))
    return cases


def _assemble_all(cases, cold=False):
    for network, path_sets in cases:
        if cold:
            clear_structure_cache()
        builder = _PathLpBuilder(network, path_sets)
        builder.minmax_stage1_model()
        builder.minmax_stage2_model(1.0)


def _run_exact(cases, cold=False):
    out = []
    for network, path_sets in cases:
        if cold:
            clear_structure_cache()
        result, cap = solve_minmax_lp(network, path_sets)
        out.append((result.fractions, cap))
    return out


def _run_approx(cases):
    out = []
    for network, path_sets in cases:
        result, _ = solve_minmax_approx(
            network,
            path_sets,
            target_gap=APPROX_TARGET_GAP,
            max_iterations=APPROX_MAX_ITERATIONS,
        )
        out.append(result)
    return out


def _timed(fn):
    """``(fn(), wall seconds)``; garbage is collected first so a gen-2
    pause owed to earlier allocations is not billed to ``fn``."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_lp_reuse_and_approx_fast_path(benchmark, standard_workload):
    items = standard_workload.networks[:6]
    cases = _sweep_cases(items)

    # Assembly alone, cold vs warm: the work the structure cache saves.
    _, assemble_cold_s = _timed(lambda: _assemble_all(cases, cold=True))
    _assemble_all(cases)  # populate the cache
    _, assemble_warm_s = _timed(lambda: _assemble_all(cases))

    # Exact end-to-end sweeps (solver time dominates; context numbers).
    cold, cold_s = _timed(lambda: _run_exact(cases, cold=True))
    warm = benchmark.pedantic(
        lambda: _run_exact(cases), rounds=1, iterations=1
    )
    warm_s = benchmark.stats.stats.total

    # Reuse is purely a performance change: bit-identical results.
    assert warm == cold, "structure-cache reuse changed exact results"

    # Approx: the same sweep through the certified fast path.
    approx, approx_s = _timed(lambda: _run_approx(cases))

    worst_gap = 0.0
    for result, (_, exact_cap) in zip(approx, cold):
        lower = result.utilization_lower_bound
        upper = result.utilization_upper_bound
        assert lower - 1e-9 <= exact_cap <= upper + 1e-9, (
            f"certified bounds [{lower}, {upper}] miss the exact optimum "
            f"{exact_cap}"
        )
        worst_gap = max(worst_gap, result.certified_gap)

    record_bench_json(
        "lp",
        {
            "backend": resolve_backend(),
            "n_networks": len(items),
            "n_solves": len(cases),
            "scales": list(SCALES),
            "assemble_cold_s": assemble_cold_s,
            "assemble_warm_s": assemble_warm_s,
            "assemble_speedup": (
                assemble_cold_s / assemble_warm_s
                if assemble_warm_s > 0 else None
            ),
            "cold_s": cold_s,
            "warm_s": warm_s,
            "approx_s": approx_s,
            "approx_max_iterations": APPROX_MAX_ITERATIONS,
            "approx_speedup": warm_s / approx_s if approx_s > 0 else None,
            "worst_certified_gap": worst_gap,
        },
    )
    assert assemble_warm_s < assemble_cold_s, (
        f"warm assembly ({assemble_warm_s:.4f}s) not faster than cold "
        f"({assemble_cold_s:.4f}s) — LP structure reuse has stopped "
        f"paying for itself"
    )
    assert approx_s <= warm_s, (
        f"approximate sweep ({approx_s:.3f}s) slower than the exact one "
        f"({warm_s:.3f}s) — the fast path is no longer fast"
    )
