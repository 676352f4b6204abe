"""One-stream plans: how tests run one scheme over one workload, and the
check that an engine without fork falls back to serial evaluation."""

import logging
import multiprocessing

from repro import telemetry
from repro.experiments.engine import ExperimentEngine
from repro.experiments.plan import EvalPlan


def one_stream(factory, workload, scheme="SP"):
    """A plan of the single stream ``scheme`` (its key and store name)."""
    plan = EvalPlan()
    plan.add(scheme, factory, workload)
    return plan


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
    assert report.all_outcomes() == ExperimentEngine().run_plan(
        plan
    ).all_outcomes()
