"""One-stream plans: how tests run one scheme over one workload, and the
check that an engine without fork falls back to serial evaluation."""

import logging
import multiprocessing

from repro import telemetry
from repro.experiments.engine import ExperimentEngine
from repro.experiments.plan import EvalPlan


def all_outcomes(report):
    """Every stream's flattened outcomes, keyed like the plan."""
    return {key: report.outcomes(key) for key in report.results}


def one_stream(factory, workload, scheme="SP"):
    """A plan of the single stream ``scheme`` (its key and store name)."""
    plan = EvalPlan()
    plan.add(scheme, factory, workload)
    return plan


def traced_counters(trace_dir, run):
    """Call ``run()`` traced into ``trace_dir``; return its result and the
    counters of the one plan trace it recorded."""
    telemetry.configure(trace_dir)
    try:
        result = run()
    finally:
        telemetry.disable()
    (trace_id,) = [
        trace for trace in telemetry.list_traces(trace_dir)
        if trace != telemetry.ADHOC_TRACE
    ]
    return result, telemetry.load_trace(trace_dir, trace_id).counters


def assert_warm(counters):
    """The KSP caches served every request: hits, no miss, no Yen search."""
    assert counters.get("ksp.cache_hit", 0) > 0
    assert "ksp.cache_miss" not in counters
    assert "ksp.searches" not in counters


def assert_serial_fallback(
    workload, factory, methods, monkeypatch, caplog, trace_dir
):
    """Run ``factory`` on a 4-worker engine that sees only ``methods`` as
    start methods: it must warn once, count one fallback in its trace and
    match a serial run."""
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: methods
    )
    plan = one_stream(factory, workload)
    telemetry.configure(trace_dir)
    try:
        with caplog.at_level(logging.WARNING, logger="repro"):
            report = ExperimentEngine(n_workers=4).run_plan(plan)
    finally:
        telemetry.disable()
    warnings = [
        record.message for record in caplog.records
        if record.levelno == logging.WARNING
    ]
    assert len(warnings) == 1
    assert "evaluating serially" in warnings[0]
    assert "dispatch" in warnings[0]
    (trace_id,) = telemetry.list_traces(trace_dir)
    trace = telemetry.load_trace(trace_dir, trace_id)
    assert trace.counters["engine.serial_fallback"] == 1
    assert trace.n_shards == len(trace.pids) == 1
    assert all_outcomes(report) == all_outcomes(
        ExperimentEngine().run_plan(plan)
    )
