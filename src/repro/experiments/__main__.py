"""Command-line runner: regenerate a paper figure from the terminal.

Usage::

    python -m repro.experiments fig03 [--networks 18] [--tms 2] [--workers 4]
    python -m repro.experiments fig03 --store-dir results/   # persist + resume
    python -m repro.experiments render fig03 --store-dir results/
    python -m repro.experiments dispatch SP --shards 2 --store-dir results/
    python -m repro.experiments dispatch fig17 --shards 2 --store-dir results/
    python -m repro.experiments worker shard-000.json --store-dir worker0/
    python -m repro.experiments store ls --store-dir results/ [--timings]
    python -m repro.experiments store gc --store-dir results/ --max-age-days 30
    python -m repro.experiments fig17 --trace-dir traces/      # record spans
    python -m repro.experiments trace summary --trace-dir traces/
    python -m repro.experiments trace critical-path --trace-dir traces/
    python -m repro.experiments ingest topo.json --format json
    python -m repro.experiments ingest synth --synth-nodes 10000 --seed 42 \\
        --out as10k.json --emit distances
    python -m repro.experiments list

Every subcommand is a :data:`FIGURES` or :data:`COMMANDS` entry naming
the flag groups its handler reads; flags follow the command, and any
other flag is a usage error.  An engine-backed figure's entry builds its
plan from the flags and draws the report its reducer folds; plain runs,
``render`` (re-draw purely from the result store, zero scheme
evaluations) and ``dispatch`` (shard the plan across worker
subprocesses) all execute that one plan.  Its full (scheme x sweep-point
x network) grid runs as ONE engine pass over one shared process pool.

With ``--store-dir``, every completed network's results are appended to a
durable result store keyed by workload content hash, so a killed run
restarted with the same arguments evaluates only the missing tasks
(``--resume``, the default; ``--no-resume`` discards the stored streams
and recomputes).

``dispatch <scheme>`` shards the standard workload (one scheme — a
one-stream plan) and ``dispatch <figure>`` shards the figure's whole
multi-scheme plan into self-contained JSON shard manifests, evaluates
them in separate ``worker`` subprocesses (each appending to its own
store), and merges the worker stores back into ``--store-dir`` — the
same cycle a multi-host run performs by copying manifests out and store
directories back, shipping only the tasks the store is missing.
``worker`` is that subprocess's entry point and runs anywhere the
package is importable.  ``store ls`` / ``store gc`` list and prune the
store's streams; ``store ls --timings`` adds each stream's stored
evaluation seconds.

``--trace-dir`` records span telemetry for any run, render, dispatch or
worker invocation: every process appends its spans and metrics to JSONL
shards under ``<trace-dir>/<trace-id>/`` (the trace id derives from the
workload, so a dispatch coordinator and its workers share one trace).
``trace summary|tree|critical-path|ls`` reads them back; tracing is off
by default and never changes any figure's output.

Benchmarks under ``benchmarks/`` do the same with timing and shape
assertions; this entry point is the quick, dependency-free way to look at
one figure's numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.experiments import figures
from repro.experiments.dispatch import SpecError, dispatch_plan, run_worker
from repro.experiments.engine import ExperimentEngine
from repro.experiments.plan import EvalPlan
from repro.experiments.render import (
    render_cdf,
    render_scatter_summary,
    render_series,
)
from repro.experiments.spec import SchemeSpec, registered_schemes
from repro.experiments.store import ResultStore, StoreError
from repro.experiments.workloads import (
    build_traffic_matrices,
    build_zoo_workload,
)
from repro.net.zoo import generate_zoo, gts_like
from repro.traces import trace_ensemble


def build_workload(args, growth_factor: Optional[float] = None):
    # Callers with a fixed setting (fig08's lighter load) pass it
    # explicitly; everything else follows --growth-factor so that
    # `dispatch <scheme>` and `scenarios` can run any load.
    return build_zoo_workload(
        n_networks=args.networks,
        n_matrices=args.tms,
        locality=1.0,
        growth_factor=(
            args.growth_factor if growth_factor is None else growth_factor
        ),
        seed=args.seed,
    )


def engine_options(args) -> dict:
    """:class:`ExperimentEngine` keyword arguments from the CLI flags.

    The single place the CLI's store/cache plumbing lives: every
    engine-backed figure (and the scenario fleet) runs with these.
    """
    return dict(
        n_workers=args.workers,
        cache_dir=args.cache_dir,
        store_dir=args.store_dir,
        resume=args.resume,
    )


def _bare_networks(args):
    # Figure 18 generates its own matrices and ignores LLPD, so it takes
    # the bare networks (same ensemble as build_workload) rather than
    # paying for a full workload's matrices and APA analysis.
    return [
        network
        for network in generate_zoo(args.networks, seed=args.seed)
        if network.num_nodes >= 2
    ]


def _gts_utilization(args) -> dict:
    network = gts_like()
    tm = build_traffic_matrices(
        network, 1, np.random.default_rng(args.seed), 1.0, 1.3
    )[0]
    return figures.fig07_utilization_cdf(network, tm)


# Flag groups (:func:`flag_groups`) of a workload and of a plan run.
WORKLOAD = ("seed", "size", "growth")
ENGINE = ("workers", "cache", "cache_limits", "store_dir", "resume", "record")


@dataclasses.dataclass(frozen=True)
class FigureDef:
    """One registry entry: how the CLI builds and draws a figure.

    An engine-backed figure has a ``plan``: ``plan(args)`` builds its
    evaluation plan from the flags, and ``draw(report)`` folds the
    :class:`~repro.experiments.plan.PlanReport` with the figure's reducer
    and renders the text.  A plain run executes that plan, ``render``
    serves it from the store alone, and ``dispatch`` shards the same plan
    across workers and merges their stores for ``render`` to draw.  A
    figure without a plan computes directly: ``draw(args)``.  ``flags``
    are the flag groups its subcommand reads.
    """

    draw: Callable[[Any], str]
    plan: Optional[Callable[[argparse.Namespace], EvalPlan]] = None
    flags: Tuple[str, ...] = WORKLOAD + ENGINE


FIGURES: Dict[str, FigureDef] = {
    "fig01": FigureDef(
        lambda args: "\n\n".join(
            render_cdf(f"APA: {name}", cdf)
            for name, cdf in sorted(
                figures.fig01_apa_cdfs(
                    [item.network for item in build_workload(args).networks]
                ).items()
            )
        ),
        flags=WORKLOAD + ("record",),
    ),
    "fig03": FigureDef(
        lambda report: render_series(
            "Fig 3: congested fraction vs LLPD (SP)",
            figures.fig03_sp_congestion(report),
            x_label="LLPD",
        ),
        plan=lambda args: figures.fig03_plan(build_workload(args)),
    ),
    "fig04": FigureDef(
        lambda report: render_series(
            "Fig 4: schemes vs LLPD",
            {
                f"{scheme}:{label}": data[field]
                for scheme, data in figures.fig04_schemes(report).items()
                for label, field in (
                    ("cong", "congestion_median"),
                    ("stretch", "stretch_median"),
                )
            },
            x_label="LLPD",
        ),
        plan=lambda args: figures.fig04_plan(build_workload(args)),
    ),
    "fig07": FigureDef(
        lambda args: "\n\n".join(
            render_cdf(name, values)
            for name, values in _gts_utilization(args).items()
        ),
        flags=("seed", "record"),
    ),
    "fig08": FigureDef(
        lambda report: render_series(
            "Fig 8: stretch vs LLPD per headroom",
            {
                f"h={h:.0%}": points
                for h, points in figures.fig08_headroom_sweep(report).items()
            },
            x_label="LLPD",
        ),
        plan=lambda args: figures.fig08_plan(
            build_workload(args, growth_factor=1.65)
        ),
        flags=("seed", "size") + ENGINE,
    ),
    "fig09": FigureDef(
        lambda args: render_cdf(
            "Fig 9: measured/predicted",
            figures.fig09_prediction_ratios(
                trace_ensemble(
                    8, np.random.default_rng(args.seed), minutes=30,
                    sample_ms=100,
                ),
                600,
            ),
        ),
        flags=("seed",),
    ),
    "fig10": FigureDef(
        lambda args: render_scatter_summary(
            "Fig 10: sigma(t) vs sigma(t+1)",
            figures.fig10_sigma_scatter(
                trace_ensemble(
                    6, np.random.default_rng(args.seed), minutes=15,
                    sample_ms=10,
                ),
                6000,
            ),
        ),
        flags=("seed",),
    ),
    "fig17": FigureDef(
        lambda report: render_series(
            "Fig 17: median max path stretch vs load",
            figures.fig17_load_sweep(report),
            x_label="load",
        ),
        plan=lambda args: figures.fig17_plan(build_workload(args).networks),
    ),
    "fig18": FigureDef(
        lambda report: render_series(
            "Fig 18: median max path stretch vs locality",
            figures.fig18_locality_sweep(report),
            x_label="locality",
        ),
        plan=lambda args: figures.fig18_plan(
            _bare_networks(args), n_matrices=args.tms, seed=args.seed
        ),
        flags=("seed", "size") + ENGINE,
    ),
    "fig20": FigureDef(
        lambda report: "\n\n".join(
            render_scatter_summary(
                f"Fig 20 {scheme}: stretch before (x) vs after (y)",
                data["median"],
            )
            for scheme, data in figures.fig20_growth_benefit(report).items()
        ),
        plan=lambda args: figures.fig20_plan(
            build_workload(args).networks, cache_dir=args.cache_dir
        ),
    ),
}


def store_backed_figures() -> list:
    """Figure ids that run a plan: resumable, renderable, dispatchable."""
    return sorted(
        name for name, figure in FIGURES.items() if figure.plan is not None
    )


def run_worker_command(args) -> int:
    """`worker <manifest>`: evaluate one shard into its own store."""
    summary = run_worker(
        args.manifest,
        store_dir=args.store_dir,
        cache_dir=args.cache_dir,
        resume=args.resume,
    )
    print(
        f"worker: shard {summary['shard_index'] + 1}/{summary['n_shards']} "
        f"scheme {summary['scheme']}: evaluated {summary['evaluated']}, "
        f"skipped {summary['skipped']} (already stored) -> "
        f"{summary['stream']}"
    )
    return 0


def _dispatch(plan: EvalPlan, args):
    """Run ``plan`` on ``--shards`` worker subprocesses; merge, serve."""
    return dispatch_plan(
        plan,
        n_shards=args.shards,
        store_dir=args.store_dir,
        work_dir=args.work_dir,
        cache_dir=args.cache_dir,
        resume=args.resume,
    )


def run_dispatch_command(args) -> int:
    """`dispatch <scheme|figure>`: shard, run workers, merge, serve."""
    figure = FIGURES.get(args.target)
    if figure is not None and figure.plan is None:
        # Fail before building the workload: falling through would treat
        # the figure id as an unknown scheme name.
        print(
            f"figure {args.target!r} is not dispatchable; choose one of "
            f"{', '.join(store_backed_figures())} or a scheme name",
            file=sys.stderr,
        )
        return 2
    if figure is not None:
        if args.params:
            print(
                "--params applies only to scheme dispatch; figure plans "
                "fix their own scheme parameters",
                file=sys.stderr,
            )
            return 2
        plan = figure.plan(args)
        what = f"the {args.target} plan"
        hint = f" — `render {args.target}` re-draws it from there"
    else:
        # One scheme over the standard workload is a one-stream plan;
        # keying the stream by the scheme name makes the merged store
        # the one the figures read (`render fig03` after `dispatch SP`).
        try:
            params = json.loads(args.params) if args.params else {}
        except json.JSONDecodeError as error:
            print(f"--params is not valid JSON: {error}", file=sys.stderr)
            return 2
        if not isinstance(params, dict):
            print(f"--params must be a JSON object, got {args.params!r}",
                  file=sys.stderr)
            return 2
        plan = EvalPlan()
        plan.add(
            args.target, SchemeSpec(args.target, params), build_workload(args)
        )
        what = f"scheme {args.target!r}"
        hint = ""

    shipped = plan.n_tasks - _dispatch(plan, args).n_stored
    # One worker per shard manifest, and never more manifests than tasks.
    workers = min(args.shards, shipped)
    if shipped < plan.n_tasks:
        # A resumed dispatch ships only the tasks the store is missing.
        what = f"the {shipped} missing task(s) of {what}"
    print(
        f"dispatch: {workers} shard worker(s) evaluated {what} "
        f"({len(plan.streams)} stream(s), {plan.n_tasks} task(s)); "
        f"merged into {args.store_dir}{hint}"
    )
    return 0


def _traced_stream_phases(trace_dir) -> Dict[Tuple[str, str], Counter]:
    """Phase seconds per (workload signature, scheme) over every trace."""
    phases: Dict[Tuple[str, str], Counter] = defaultdict(Counter)
    for trace_id in telemetry.list_traces(trace_dir):
        table = telemetry.attribute(telemetry.load_trace(trace_dir, trace_id))
        for (_, _, name, scheme, signature), row in table.items():
            if scheme is not None and signature is not None:
                stream = phases[signature, scheme]
                stream[telemetry.phase_of(name)] += row.exclusive_s
    return phases


def run_scenarios_command(args) -> int:
    """The scenario-fleet CLI: perturb, evaluate, report robustness.

    Builds one plan — one stream per scheme over a shared lazy
    :class:`~repro.scenarios.workload.ScenarioWorkload` — and answers
    "which scheme degrades least" with per-scheme degradation quantiles
    vs the unperturbed baseline.  ``--dispatch`` runs the same plan
    through shard workers instead of the in-process engine; the report
    is byte-identical either way.
    """
    from repro.scenarios import ScenarioGenerator, ScenarioWorkload
    from repro.scenarios import report as robustness

    schemes = [name for name in args.schemes.split(",") if name]
    known = set(registered_schemes())
    for name in schemes:
        if name not in known:
            print(
                f"unknown scheme {name!r}; choose from "
                f"{', '.join(sorted(known))}",
                file=sys.stderr,
            )
            return 2
    if not schemes:
        print("need at least one scheme (--schemes)", file=sys.stderr)
        return 2
    if args.dispatch and args.store_dir is None:
        print("scenarios --dispatch needs --store-dir", file=sys.stderr)
        return 2

    workload = build_workload(args)
    if not workload.networks:
        print("workload is empty", file=sys.stderr)
        return 2
    if args.base_network is not None:
        if not 0 <= args.base_network < len(workload.networks):
            print(
                f"--base-network {args.base_network} out of range "
                f"(workload has {len(workload.networks)} networks)",
                file=sys.stderr,
            )
            return 2
        base = workload.networks[args.base_network]
    else:
        # Default: the best-connected network (most physical links) —
        # the interesting what-if substrate; ties break to the lowest
        # index, deterministically.
        best = max(
            range(len(workload.networks)),
            key=lambda i: (workload.networks[i].network.num_links, -i),
        )
        base = workload.networks[best]

    generator = ScenarioGenerator(base, seed=args.seed)
    fleet = generator.fleet(
        link_failure_k=args.failures,
        node_failure_k=args.node_failures,
        surges=args.surges,
        surge_factor=args.surge_factor,
        surge_pairs=args.surge_pairs,
        localities=args.localities,
        growth_stages=args.growth_stages,
        budget=args.variant_budget,
    )
    scenario_workload = ScenarioWorkload(
        base,
        fleet.specs,
        locality=workload.locality,
        growth_factor=workload.growth_factor,
        seed=args.seed,
    )
    plan = EvalPlan()
    for name in schemes:
        plan.add(name, SchemeSpec(name), scenario_workload)

    per_scheme: Dict[str, Dict[int, Dict[str, float]]] = {
        name: {} for name in schemes
    }
    if args.dispatch:
        stream = (
            (key, result)
            for key, results in _dispatch(plan, args).results.items()
            for result in results
        )
    else:
        # Streaming consumption: only the per-variant scalar metrics are
        # retained, so a 10^5-task fleet needs O(window) result memory.
        stream = ExperimentEngine(**engine_options(args)).stream_plan(plan)
    for key, result in stream:
        per_scheme[key][result.index] = robustness.variant_metrics(
            result.outcomes
        )

    payload = robustness.robustness_payload(
        base.network.name,
        [spec.label() for spec in fleet.specs],
        per_scheme,
        fleet.skipped,
        fleet.kind_counts(),
    )
    if args.format == "json":
        print(robustness.render_json(payload))
    else:
        print(robustness.render_text(payload))
    return 0


def run_store_command(args) -> int:
    """`store ls` / `store gc`: list and prune result-store streams."""
    store = ResultStore(args.store_dir)
    if args.action == "ls":
        streams = store.list_streams()
        if not streams:
            print(f"store {args.store_dir}: empty")
            return 0
        phases_by_stream: Dict[Tuple[str, str], Counter] = {}
        if args.timings and args.trace_dir is not None:
            # With a trace dir, the coarse per-stream seconds gain a
            # span-derived breakdown: where inside the tasks those
            # seconds went (ksp / lp_solve / place / ...).
            phases_by_stream = _traced_stream_phases(args.trace_dir)
        for record in streams:
            scheme = record["scheme"] or "<no valid header>"
            total = record["n_networks"]
            progress = (
                f"{record['n_results']}/{total}"
                if total is not None
                else f"{record['n_results']}"
            )
            line = (
                f"{record['signature'][:16]}  {scheme:24s} "
                f"{progress:>9s} networks  {record['bytes']:>10d} bytes"
            )
            if args.timings:
                if record["seconds_total"] is not None:
                    line += (
                        f"  {record['seconds_total']:>9.2f}s total "
                        f"{record['seconds_mean']:>8.3f}s mean"
                    )
                else:
                    line += "  <no timings>"
                phases = phases_by_stream.get((record["signature"], scheme))
                if phases:
                    line += f"  [{telemetry.format_phases(phases)}]"
            print(line)
        return 0

    keep = set(args.keep or ())
    max_age_s = (
        args.max_age_days * 86400.0 if args.max_age_days is not None else None
    )
    if max_age_s is None and not keep:
        print(
            "store gc needs --max-age-days or --keep "
            "(refusing to prune everything by default)",
            file=sys.stderr,
        )
        return 2
    removed = store.gc(max_age_s=max_age_s, keep_signatures=keep or None)
    if removed:
        for path in removed:
            print(f"pruned {path}")
    else:
        print("nothing to prune")
    return 0


def run_trace_command(args) -> int:
    """`trace summary|tree|critical-path|ls`: read recorded telemetry."""
    try:
        if args.action == "ls":
            trace_ids = telemetry.list_traces(args.trace_dir)
            if not trace_ids:
                print(f"trace dir {args.trace_dir}: no traces")
                return 0
            if args.format == "json":
                print(json.dumps(trace_ids))
                return 0
            for trace_id in trace_ids:
                trace = telemetry.load_trace(args.trace_dir, trace_id)
                print(
                    f"{trace_id}  {len(trace.spans):>7d} span(s)  "
                    f"{trace.n_shards:>3d} shard(s)  "
                    f"{len(trace.pids):>3d} process(es)"
                )
            return 0
        trace = telemetry.load_trace(args.trace_dir, args.trace)
    except telemetry.TraceError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 1
    as_json, as_text = {
        "summary": (telemetry.summary, telemetry.render_summary),
        "critical-path": (
            telemetry.critical_path, telemetry.render_critical_path
        ),
        "tree": (
            lambda trace: {
                "trace": trace.trace_id,
                "spans": [dataclasses.asdict(span) for span in trace.spans],
            },
            lambda trace: "\n".join(telemetry.tree_lines(trace)),
        ),
    }[args.action]
    if args.format == "json":
        print(json.dumps(as_json(trace), indent=2, sort_keys=True))
    else:
        print(as_text(trace))
    return 0


def run_ingest_command(args) -> int:
    """Load or synthesize an ingest-scale topology and summarize it.

    ``ingest <path>`` reads a topology file — either this library's
    ``repro-network`` JSON or the external distances+bandwidth format —
    and ``ingest synth`` synthesizes an Internet-like graph from a
    power-law degree distribution (``--synth-nodes``, ``--seed``,
    ``--degree-exponent``).  ``--out`` writes the result back out as
    ``repro-network`` JSON (``--emit distances`` for the external format),
    so synthesized or converted topologies feed any downstream run.
    """
    from repro.durable import write_atomic
    from repro.net import ingest, io
    from repro.net.paths import network_signature

    try:
        if args.target == "synth":
            network = ingest.synthesize_internet_like(
                args.synth_nodes,
                seed=args.seed,
                degree_exponent=args.degree_exponent,
            )
        else:
            network = io.load(args.target)
        if args.out is not None:
            emit = (
                ingest.to_distances_json if args.emit == "distances"
                else io.to_json
            )
            write_atomic(args.out, emit(network))
    except (OSError, ValueError) as exc:
        print(f"ingest: {exc}", file=sys.stderr)
        return 1
    histogram = ingest.degree_histogram(network)
    degrees = [d for d, count in histogram.items() for _ in range(count)]
    summary = {
        "name": network.name,
        "nodes": network.num_nodes,
        "directed_links": network.num_links,
        "min_degree": min(degrees, default=0),
        "max_degree": max(degrees, default=0),
        "mean_degree": sum(degrees) / len(degrees) if degrees else 0.0,
        "total_capacity_bps": network.total_capacity_bps(),
        "signature": network_signature(network),
    }
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(
        "{name}: {nodes} nodes, {directed_links} directed links, degree "
        "{min_degree}..{max_degree} (mean {mean_degree:.2f})".format(**summary)
    )
    print(f"signature {summary['signature'][:16]}…")
    if args.out is not None:
        print(f"wrote {args.out} ({args.emit})")
    return 0


def run_figure_command(args) -> int:
    """`<figure>` / `render <figure>`: print one figure.

    An engine-backed figure executes its plan (``render`` serves it from
    the result store alone, with zero scheme evaluations) and draws the
    report; any other figure draws straight from the flags.
    """
    if args.command == "render":
        figure = FIGURES[args.figure]
        options = dict(store_dir=args.store_dir, store_only=True)
    else:
        figure = FIGURES[args.command]
        if figure.plan is None:
            print(figure.draw(args))
            return 0
        options = engine_options(args)
    print(figure.draw(ExperimentEngine(**options).run_plan(figure.plan(args))))
    return 0


def run_list_command(args) -> int:
    """`list`: the figures, which of them run a plan, and the schemes."""
    print("available:", ", ".join(sorted(FIGURES)))
    print("store-backed (resumable, renderable, dispatchable):",
          ", ".join(store_backed_figures()))
    print("dispatchable schemes (dispatch/worker):",
          ", ".join(registered_schemes()))
    print("(figures 15/16/19 run via pytest benchmarks/ --benchmark-only)")
    return 0


def _at_least(minimum: int, convert: Callable[[str], Any], name: str):
    """An argparse ``type`` named ``name`` (argparse's message for text
    ``convert`` cannot read names it): at least ``minimum``."""

    def parse(text: str):
        value = convert(text)
        if not value >= minimum:  # NaN fails too
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    parse.__name__ = name
    return parse


# Counts; byte budgets and perturbation counts; growth factors; demand
# multipliers and ages.
positive_int = _at_least(1, int, "positive_int")
non_negative_int = _at_least(0, int, "non_negative_int")
at_least_one_float = _at_least(1, float, "at_least_one_float")
non_negative_float = _at_least(0, float, "non_negative_float")


def localities(text: str) -> List[float]:
    """argparse ``type``: comma-separated finite floats of 0 or more."""
    values = [float(value) for value in text.split(",") if value]
    if not all(math.isfinite(value) and value >= 0 for value in values):
        raise argparse.ArgumentTypeError(
            f"must be finite and at least 0, got {text!r}"
        )
    return values


def flag_groups() -> Dict[str, argparse.ArgumentParser]:
    """Every CLI argument, defined once, in named parent parsers: the
    shared groups, and per command its positional and own flags."""
    groups: Dict[str, argparse.ArgumentParser] = {}

    def group(name: str) -> argparse.ArgumentParser:
        groups[name] = argparse.ArgumentParser(add_help=False)
        return groups[name]

    group("seed").add_argument("--seed", type=non_negative_int, default=0)
    size = group("size")
    size.add_argument("--networks", type=positive_int, default=12)
    size.add_argument("--tms", type=positive_int, default=1)
    group("growth").add_argument(
        "--growth-factor",
        type=at_least_one_float,
        default=1.3,
        help="workload min-cut load shaping (1.3 = the paper's default "
        "77%% load)",
    )
    group("workers").add_argument(
        "--workers",
        type=positive_int,
        default=1,
        help="shard evaluation tasks across this many processes (results "
        "identical); multi-call figures run their whole grid on one pool",
    )
    group("cache").add_argument(
        "--cache-dir",
        help="persist per-network KSP caches (and fig20's grown "
        "topologies) here; repeated and parallel runs warm-start from "
        "disk",
    )
    group("cache_limits").add_argument(
        "--cache-max-bytes",
        type=non_negative_int,
        help="after the run, evict least-recently-used ksp-*.json and "
        "grown-*.json files from --cache-dir until it fits this budget",
    )
    for name, required in (("store_dir", False), ("needs_store_dir", True)):
        group(name).add_argument(
            "--store-dir",
            required=required,
            help="persist per-network results here (append-only JSONL "
            "keyed by workload content hash); interrupted runs resume and "
            "'render' re-draws without re-evaluating",
        )
    group("resume").add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve already-stored networks from --store-dir instead of "
        "re-evaluating them (--no-resume discards the stored streams)",
    )
    shards = group("shards")
    shards.add_argument(
        "--shards",
        type=positive_int,
        default=2,
        help="number of shard manifests / worker subprocesses",
    )
    shards.add_argument(
        "--work-dir",
        help="where shard manifests and worker stores go (default: a temp "
        "directory, removed afterwards)",
    )
    group("record").add_argument(
        "--trace-dir",
        help="record span telemetry into per-process JSONL shards under "
        "this directory (off by default; never changes results); the "
        "'trace' command reads the same directory back",
    )
    group("format").add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )

    group("render").add_argument(
        "figure", choices=store_backed_figures(), help="figure id"
    )
    dispatch = group("dispatch")
    dispatch.add_argument(
        "target", help="a registered scheme name or a store-backed figure id"
    )
    dispatch.add_argument(
        "--params",
        help="JSON object of scheme params for scheme dispatch, e.g. "
        "'{\"headroom\": 0.1}'",
    )
    group("worker").add_argument("manifest", help="shard manifest path")

    store = group("store")
    store.add_argument("action", choices=("ls", "gc"))
    store.add_argument(
        "--timings",
        action="store_true",
        help="ls: add a per-stream column with total/mean stored "
        "evaluation seconds; with --trace-dir also a span-derived "
        "per-phase breakdown",
    )
    store.add_argument(
        "--trace-dir",
        help="ls --timings: the trace directory the phase breakdown is "
        "read from",
    )
    store.add_argument(
        "--max-age-days",
        type=non_negative_float,
        help="gc: prune workload-signature dirs whose newest stream "
        "is older than this many days",
    )
    store.add_argument(
        "--keep",
        action="append",
        metavar="SIGNATURE",
        help="gc: prune signature dirs NOT listed here (repeatable)",
    )

    trace = group("trace")
    trace.add_argument(
        "action",
        nargs="?",
        default="summary",
        choices=("summary", "tree", "critical-path", "ls"),
    )
    trace.add_argument(
        "--trace-dir",
        required=True,
        help="the directory traces were recorded into",
    )
    trace.add_argument(
        "--trace",
        help="which trace id (or unique prefix) to analyze when the "
        "directory holds several",
    )

    ingest = group("ingest")
    ingest.add_argument("target", help="a topology file or 'synth'")
    ingest.add_argument(
        "--out",
        help="write the loaded/synthesized topology to this path",
    )
    ingest.add_argument(
        "--emit",
        choices=("repro", "distances"),
        default="repro",
        help="--out format: 'repro' (repro-network JSON) or "
        "'distances' (external distances+bandwidth JSON)",
    )
    ingest.add_argument(
        "--synth-nodes",
        type=int,
        default=1000,
        help="synth: number of nodes to synthesize",
    )
    ingest.add_argument(
        "--degree-exponent",
        type=float,
        default=2.1,
        help="synth: power-law exponent of the degree distribution "
        "(2.1 is the usual AS-graph figure)",
    )

    fleet = group("scenarios")
    fleet.add_argument(
        "--failures",
        type=non_negative_int,
        default=2,
        help="fail every combination of this many physical links (0 "
        "disables; sampled beyond --variant-budget)",
    )
    fleet.add_argument(
        "--node-failures",
        type=non_negative_int,
        default=0,
        help="fail every combination of this many nodes (demands "
        "touching a failed node are dropped)",
    )
    fleet.add_argument(
        "--surges",
        type=non_negative_int,
        default=0,
        help="number of seeded flash-crowd variants",
    )
    fleet.add_argument(
        "--surge-factor",
        type=non_negative_float,
        default=5.0,
        help="demand multiplier a flash crowd applies",
    )
    fleet.add_argument(
        "--surge-pairs",
        type=positive_int,
        default=2,
        help="demand pairs surged per flash-crowd variant",
    )
    fleet.add_argument(
        "--localities",
        type=localities,
        default="",
        help="comma-separated locality values, one regional demand-shift "
        "variant each (e.g. '0.5,1.0,2.0')",
    )
    fleet.add_argument(
        "--growth-stages",
        type=non_negative_int,
        default=0,
        help="staged topology growth depth; stage s adds the first s "
        "candidate links (geographically shortest first)",
    )
    fleet.add_argument(
        "--variant-budget",
        type=positive_int,
        default=1000,
        help="per-kind variant cap; failure enumeration is exhaustive "
        "while the combination count fits, seeded distinct sampling "
        "beyond it",
    )
    fleet.add_argument(
        "--schemes",
        default="SP,ECMP,MPLS-TE,B4",
        help="comma-separated schemes to compare ('list' shows the "
        "registry)",
    )
    fleet.add_argument(
        "--base-network",
        type=int,
        help="workload index of the base network to perturb (default: "
        "the best-connected one)",
    )
    fleet.add_argument(
        "--dispatch",
        action="store_true",
        help="run the fleet as one dispatched plan across --shards worker "
        "subprocesses (needs --store-dir); the report is byte-identical "
        "to the in-process run",
    )
    return groups


@dataclasses.dataclass(frozen=True)
class Command:
    """A subcommand: its handler (whose docstring's first line is the
    help) and the :func:`flag_groups` it reads.  With
    ``record`` it records spans; with ``cache_limits`` it sweeps
    ``--cache-dir`` to ``--cache-max-bytes`` after a run."""

    run: Callable[[argparse.Namespace], int]
    flags: Tuple[str, ...] = ()


COMMANDS: Dict[str, Command] = {
    "render": Command(
        run_figure_command,
        ("render",) + WORKLOAD + ("cache", "needs_store_dir", "record"),
    ),
    "dispatch": Command(
        run_dispatch_command,
        ("dispatch",) + WORKLOAD + ("cache", "cache_limits",
                                    "needs_store_dir", "resume", "shards",
                                    "record"),
    ),
    "worker": Command(
        run_worker_command,
        ("worker", "cache", "cache_limits", "needs_store_dir", "resume",
         "record"),
    ),
    "store": Command(run_store_command, ("store", "needs_store_dir")),
    "trace": Command(run_trace_command, ("trace", "format")),
    "ingest": Command(run_ingest_command, ("ingest", "seed", "format")),
    "scenarios": Command(
        run_scenarios_command,
        ("scenarios",) + WORKLOAD + ENGINE + ("shards", "format"),
    ),
    "list": Command(run_list_command),
}


def commands() -> Dict[str, Command]:
    """Every subcommand: one per :data:`FIGURES` entry, then :data:`COMMANDS`."""
    table = {
        name: Command(run_figure_command, figure.flags)
        for name, figure in FIGURES.items()
    }
    table.update(COMMANDS)
    return table


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser: one subparser per :func:`commands` entry."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate one of the paper's figures.",
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, metavar="command"
    )
    groups = flag_groups()
    for name, command in commands().items():
        subparsers.add_parser(
            name,
            help=command.run.__doc__.splitlines()[0],
            parents=[groups[flag] for flag in command.flags],
        )
    return parser


def main(argv=None) -> int:  # analysis: allow[R402] tests drive the CLI in-process
    args = build_parser().parse_args(argv)
    command = commands()[args.command]
    records = "record" in command.flags and args.trace_dir is not None

    if records:
        telemetry.configure(args.trace_dir)
    try:
        code = command.run(args)
    except StoreError as exc:
        figure = command.run is run_figure_command
        print(f"{'result store' if figure else args.command}: {exc}",
              file=sys.stderr)
        # A bad scheme spec is a usage error, caught before any worker.
        return 2 if isinstance(exc, SpecError) else 1

    # Every command that writes KSP caches leaves --cache-dir within its
    # budget.
    if (
        code == 0
        and "cache_limits" in command.flags
        and args.cache_dir is not None
        and args.cache_max_bytes is not None
    ):
        from repro.durable import sweep_cache_dir

        removed = sweep_cache_dir(args.cache_dir, args.cache_max_bytes)
        if removed:
            print(f"evicted {len(removed)} cache file(s) from "
                  f"{args.cache_dir}")
    if records:
        telemetry.recorder().flush()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
