"""One repetition of one workload, in a fresh interpreter.

This is how users pay for a figure: one process, cold memos, cold KSP
caches.  The child times *set-up* (interpreter start + imports + input
construction) and the *measured operation* separately, checks the
answer, and prints one JSON line that :mod:`benchmarks.e2e.run`
aggregates.  It is launched by the parent only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional


def _cpu_seconds() -> float:
    """User+system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports kilobytes


def _environment() -> Dict[str, Any]:
    import numpy
    import scipy

    from repro.lp import resolve_backend

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lp_backend": resolve_backend(),
    }


def repetition(args: argparse.Namespace) -> Dict[str, Any]:
    # Heavy imports happen here, after the parent's launch stamp, so
    # they are part of ``setup_s``.
    from benchmarks.e2e import workloads
    from benchmarks.e2e.params import PROFILES
    from benchmarks.e2e.spans import SpanLog
    from repro.experiments import telemetry

    workdir = Path(args.workdir)
    workload = workloads.WORKLOADS[args.workload]
    params = PROFILES[args.profile][args.workload]
    run = workloads.Run(
        workdir=workdir, log=SpanLog(), workers=args.workers, seed=args.seed,
        trace_dir=workdir / "trace" if args.trace else None,
    )
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "environment": _environment(),
    }

    with run.log.span("setup"):
        inputs = workload.build(params, run)
    shape = workload.shape(inputs)
    attempted = sum(n_tasks for n_tasks, _ in shape.values())
    record["sizes"] = workload.sizes(inputs)
    record["attempted"] = attempted

    if args.trace:
        telemetry.configure(run.trace_dir)
    cpu_start = _cpu_seconds()
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's launch
    # stamp and this reading share a time base.
    record["setup_s"] = time.monotonic() - args.launched
    start = time.perf_counter()
    try:
        with run.log.span("op"):
            result = workload.operate(inputs, run)
    except Exception:
        # A crashed operation fails every task it was meant to evaluate.
        record.update(failed=attempted, errors=[traceback.format_exc()])
        return record
    finally:
        if args.trace:
            telemetry.disable()
    record["wall_s"] = time.perf_counter() - start
    record["cpu_s"] = _cpu_seconds() - cpu_start
    record["peak_rss_mb"] = _peak_rss_mb()

    outcomes = workload.outcomes(inputs, result)
    failed, errors = workloads.failed_tasks(outcomes, shape)
    errors += workload.check(inputs, result, run)
    record["failed"] = failed
    record["errors"] = errors
    record["sha256"] = hashlib.sha256(
        json.dumps(outcomes, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    record["aggregates"] = workloads.aggregates(outcomes)
    if args.trace:
        record["layers"] = workload.layers(
            inputs, result, run, record["wall_s"], probes=bool(args.probes)
        )
        record["spans"] = run.log.spans
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--profile", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument(
        "--launched", type=float, required=True,
        help="the parent's time.monotonic() just before it started this child",
    )
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--probes", type=int, default=0)
    args = parser.parse_args(argv)
    print(json.dumps(repetition(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
