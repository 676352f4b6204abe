"""Telemetry overhead: a traced run must cost within 5% of an untraced one.

The tracer's contract is "off by default, cheap when on": the no-op
recorder makes instrumented call sites free, and the active recorder
only appends one JSONL line per span at top-level flush boundaries.
This benchmark enforces the "cheap when on" half — the same plan runs
untraced and traced (interleaved, medians of several rounds, so a CI
noise spike on one round cannot decide the verdict), and the traced
median must stay within 5% plus a small absolute epsilon.

The epsilon matters at this benchmark's laptop scale: a run measured in
hundreds of milliseconds can swing more than 5% on scheduler jitter
alone, and the guard is after *proportional* overhead (span writes per
task), not a fixed floor.  Outcome equality rides along: tracing must
never change a result.  Everything lands in ``BENCH_obs.json``.
"""

import statistics
import time

from benchmarks.conftest import record_bench_json
from repro import telemetry
from repro.experiments.plan import EvalPlan, execute_plan
from repro.experiments.spec import SchemeSpec

ROUNDS = 5
#: Allowed overhead: 5% relative plus CI-noise epsilon.
MAX_RELATIVE_OVERHEAD = 0.05
ABS_EPSILON_S = 0.15


def _build_plan(workload) -> EvalPlan:
    plan = EvalPlan()
    plan.add("SP", SchemeSpec("SP"), workload)
    plan.add("B4", SchemeSpec("B4", {"headroom": 0.1}), workload)
    return plan


def _timed_run(plan):
    start = time.perf_counter()
    report = execute_plan(plan)
    return time.perf_counter() - start, report


def test_tracing_overhead_within_five_percent(
    standard_workload, tmp_path, benchmark
):
    plan = _build_plan(standard_workload)

    # Warm-up: pay one-time costs (KSP materialization memoized on the
    # shared workload's networks) outside the measured rounds, so both
    # sides time the same steady-state work.
    _, baseline_report = _timed_run(plan)

    trace_dir = tmp_path / "traces"
    untraced_s = []
    traced_s = []
    traced_report = None
    try:
        # Interleave the two conditions so slow drift (thermal, page
        # cache) lands evenly on both medians instead of on whichever
        # condition ran last.
        for _ in range(ROUNDS):
            seconds, report = _timed_run(plan)
            untraced_s.append(seconds)
            assert report.all_outcomes() == baseline_report.all_outcomes()

            telemetry.configure(trace_dir)
            seconds, traced_report = _timed_run(plan)
            telemetry.disable()
            traced_s.append(seconds)
            assert (
                traced_report.all_outcomes() == baseline_report.all_outcomes()
            ), "tracing changed results"
    finally:
        telemetry.disable()

    untraced_median = statistics.median(untraced_s)
    traced_median = statistics.median(traced_s)
    overhead = (
        traced_median / untraced_median - 1.0 if untraced_median > 0 else 0.0
    )

    trace = telemetry.load_trace(trace_dir)
    n_tasks = sum(len(r) for r in baseline_report.results.values())
    assert len(trace.by_name("task")) == ROUNDS * n_tasks

    # One representative traced round through pytest-benchmark, for the
    # timing machinery's own record.
    telemetry.configure(trace_dir)
    benchmark.pedantic(lambda: execute_plan(plan), rounds=1, iterations=1)
    telemetry.disable()

    record_bench_json(
        "obs",
        {
            "rounds": ROUNDS,
            "n_tasks_per_round": n_tasks,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "untraced_median_s": untraced_median,
            "traced_median_s": traced_median,
            "overhead_fraction": overhead,
            "max_relative_overhead": MAX_RELATIVE_OVERHEAD,
            "abs_epsilon_s": ABS_EPSILON_S,
            "n_spans": len(trace.spans),
        },
    )
    assert traced_median <= (
        untraced_median * (1.0 + MAX_RELATIVE_OVERHEAD) + ABS_EPSILON_S
    ), (
        f"tracing overhead {overhead:+.1%} "
        f"(traced {traced_median:.3f}s vs untraced {untraced_median:.3f}s) "
        f"exceeds the {MAX_RELATIVE_OVERHEAD:.0%} budget — the recorder "
        f"has gotten too expensive for hot paths"
    )
