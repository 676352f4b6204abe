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

Every figure is one entry in the :data:`FIGURES` registry.  An
engine-backed figure's entry builds its plan from the flags and draws
the report its reducer folds; plain runs, ``render`` (re-draw purely
from the result store, zero scheme evaluations) and ``dispatch`` (shard
the plan across worker subprocesses) all execute that one plan.  Its
full (scheme x sweep-point x network) grid runs as ONE engine pass over
one shared process pool.

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
directories back.  ``worker`` is that subprocess's entry point and runs
anywhere the package is importable.  ``store ls`` / ``store gc`` list
and prune the store's streams; ``store ls --timings`` adds each stream's
stored evaluation seconds.

``--trace-dir`` records span telemetry for any run, render, dispatch or
worker invocation: every process appends its spans and metrics to JSONL
shards under ``<trace-dir>/<trace-id>/`` (the trace id derives from the
workload, so a dispatch coordinator and its workers share one trace).
``trace summary|tree|critical-path|ls`` reads them back; tracing is off
by default and never changes any figure's output.  ``--log-level``
controls the ``repro`` logger (serial-fallback notices and friends).

Benchmarks under ``benchmarks/`` do the same with timing and shape
assertions; this entry point is the quick, dependency-free way to look at
one figure's numbers.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.experiments import figures
from repro.experiments.plan import EvalPlan, execute_plan
from repro.experiments.render import (
    render_cdf,
    render_scatter_summary,
    render_series,
)
from repro.experiments.workloads import (
    build_traffic_matrices,
    build_zoo_workload,
)
from repro.net.zoo import generate_zoo, gts_like
from repro.traces import trace_ensemble


def build_workload(args, growth_factor: Optional[float] = None):
    if growth_factor is None:
        # Callers with a fixed setting (fig08's lighter load) pass it
        # explicitly; everything else follows --growth-factor so that
        # `store gc --match-workload` and `dispatch` can describe any
        # workload the figure runners can build.
        growth_factor = getattr(args, "growth_factor", 1.3)
    return build_zoo_workload(
        n_networks=args.networks,
        n_matrices=args.tms,
        locality=1.0,
        growth_factor=growth_factor,
        seed=args.seed,
    )


def engine_options(args) -> dict:
    """Engine/store keyword arguments for :func:`execute_plan`.

    The single place the CLI's store/cache plumbing lives: every
    engine-backed figure (and the scenario fleet) runs with these.
    """
    return dict(
        n_workers=args.workers,
        cache_dir=args.cache_dir,
        store_dir=args.store_dir,
        resume=args.resume,
        store_only=args.store_only,
        cache_max_paths=args.cache_max_paths,
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


@dataclass(frozen=True)
class FigureDef:
    """One registry entry: how the CLI builds and draws a figure.

    An engine-backed figure has a ``plan``: ``plan(args)`` builds its
    evaluation plan from the flags, and ``draw(report)`` folds the
    :class:`~repro.experiments.plan.PlanReport` with the figure's reducer
    and renders the text.  A plain run executes that plan, ``render``
    serves it from the store alone, and ``dispatch`` shards the same plan
    across workers and merges their stores for ``render`` to draw.  A
    figure without a plan computes directly: ``draw(args)``.
    """

    draw: Callable[[Any], str]
    plan: Optional[Callable[[argparse.Namespace], EvalPlan]] = None


FIGURES: Dict[str, FigureDef] = {
    "fig01": FigureDef(
        lambda args: "\n\n".join(
            render_cdf(f"APA: {name}", cdf)
            for name, cdf in sorted(
                figures.fig01_apa_cdfs(
                    [item.network for item in build_workload(args).networks]
                ).items()
            )
        )
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
        )
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
        )
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
        )
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
    from repro.experiments.dispatch import run_worker

    if args.target is None:
        print("worker needs a manifest path", file=sys.stderr)
        return 2
    if args.store_dir is None:
        print("worker needs --store-dir", file=sys.stderr)
        return 2
    summary = run_worker(
        args.target,
        store_dir=args.store_dir,
        cache_dir=args.cache_dir,
        cache_max_paths=args.cache_max_paths,
        resume=args.resume,
    )
    print(
        f"worker: shard {summary['shard_index'] + 1}/{summary['n_shards']} "
        f"scheme {summary['scheme']}: evaluated {summary['evaluated']}, "
        f"skipped {summary['skipped']} (already stored) -> "
        f"{summary['stream']}"
    )
    return 0


def run_dispatch_command(args) -> int:
    """`dispatch <scheme|figure>`: shard, run workers, merge, serve."""
    import json

    from repro.experiments.spec import SchemeSpec, registered_schemes

    if args.target is None:
        print(
            f"dispatch needs a scheme name or a figure id; registered "
            f"schemes: {', '.join(registered_schemes())}; dispatchable "
            f"figures: {', '.join(store_backed_figures())}",
            file=sys.stderr,
        )
        return 2
    if args.store_dir is None:
        print("dispatch needs --store-dir", file=sys.stderr)
        return 2

    figure = FIGURES.get(args.target)
    if figure is not None and figure.plan is None:
        # Fail fast: falling through would treat the figure id as a
        # scheme name and only crash deep inside the shard workers.
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

    from repro.experiments.dispatch import dispatch_plan

    dispatch_plan(
        plan,
        n_shards=args.shards,
        store_dir=args.store_dir,
        work_dir=args.work_dir,
        cache_dir=args.cache_dir,
        cache_max_paths=args.cache_max_paths,
        resume=args.resume,
    )
    print(
        f"dispatch: {args.shards} shard worker(s) evaluated {what} "
        f"({len(plan.streams)} stream(s), {plan.n_tasks} task(s)); "
        f"merged into {args.store_dir}{hint}"
    )
    return 0


def _traced_scheme_phases(trace_dir) -> Dict[str, Dict[str, float]]:
    """Per-scheme phase seconds pooled across every trace in a dir."""
    from repro import telemetry

    pooled: Dict[str, Dict[str, float]] = {}
    for trace_id in telemetry.list_traces(trace_dir):
        try:
            trace = telemetry.load_trace(trace_dir, trace_id)
        except telemetry.TraceError:
            continue
        for scheme, phases in telemetry.scheme_phases(trace).items():
            merged = pooled.setdefault(scheme, {})
            for phase, seconds in phases.items():
                merged[phase] = merged.get(phase, 0.0) + seconds
    return pooled


def run_scenarios_command(args) -> int:
    """The scenario-fleet CLI: perturb, evaluate, report robustness.

    Builds one plan — one stream per scheme over a shared lazy
    :class:`~repro.scenarios.workload.ScenarioWorkload` — and answers
    "which scheme degrades least" with per-scheme degradation quantiles
    vs the unperturbed baseline.  ``--dispatch`` runs the same plan
    through shard workers instead of the in-process engine; the report
    is byte-identical either way.
    """
    from repro.experiments.engine import ExperimentEngine
    from repro.experiments.spec import SchemeSpec, registered_schemes
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
    try:
        localities = [
            float(value) for value in args.localities.split(",") if value
        ]
    except ValueError:
        print(f"bad --localities {args.localities!r}", file=sys.stderr)
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
        localities=localities,
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
        from repro.experiments.dispatch import dispatch_plan

        if args.store_dir is None:
            print("scenarios --dispatch needs --store-dir", file=sys.stderr)
            return 2
        plan_report = dispatch_plan(
            plan,
            n_shards=args.shards,
            store_dir=args.store_dir,
            work_dir=args.work_dir,
            cache_dir=args.cache_dir,
            cache_max_paths=args.cache_max_paths,
            resume=args.resume,
        )
        for key, results in plan_report.results.items():
            for result in results:
                per_scheme[key][result.index] = robustness.variant_metrics(
                    result.outcomes
                )
    else:
        engine = ExperimentEngine(**engine_options(args))
        # Streaming consumption: only the per-variant scalar metrics are
        # retained, so a 10^5-task fleet needs O(window) result memory.
        for key, result in engine.stream_plan(plan):
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
    from repro.experiments.store import ResultStore, workload_signature

    if args.target not in ("ls", "gc"):
        print("store needs an action: ls or gc", file=sys.stderr)
        return 2
    if args.store_dir is None:
        print("store needs --store-dir", file=sys.stderr)
        return 2
    store = ResultStore(args.store_dir)
    if args.target == "ls":
        streams = store.list_streams()
        if not streams:
            print(f"store {args.store_dir}: empty")
            return 0
        phases_by_scheme: Dict[str, Dict[str, float]] = {}
        if args.timings and args.trace_dir is not None:
            # With a trace dir, the coarse per-stream seconds gain a
            # span-derived breakdown: where inside the tasks those
            # seconds went (ksp / lp_solve / place / ...).
            from repro.telemetry import format_phases

            phases_by_scheme = _traced_scheme_phases(args.trace_dir)
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
                phases = phases_by_scheme.get(record["scheme"])
                if phases:
                    line += f"  [{format_phases(phases)}]"
            print(line)
        return 0

    keep = None
    if args.match_workload:
        # Prune everything except the signature of the workload the other
        # CLI flags describe — the knob for "keep only the current run".
        keep = {workload_signature(build_workload(args))}
    if args.keep:
        keep = (keep or set()) | set(args.keep)
    max_age_s = (
        args.max_age_days * 86400.0 if args.max_age_days is not None else None
    )
    if max_age_s is None and keep is None:
        print(
            "store gc needs --max-age-days, --keep or --match-workload "
            "(refusing to prune everything by default)",
            file=sys.stderr,
        )
        return 2
    removed = store.gc(max_age_s=max_age_s, keep_signatures=keep)
    if removed:
        for path in removed:
            print(f"pruned {path}")
    else:
        print("nothing to prune")
    return 0


def run_trace_command(args) -> int:
    """`trace summary|tree|critical-path|ls`: read recorded telemetry."""
    import dataclasses
    import json

    from repro import telemetry

    action = args.target or "summary"
    if action not in ("summary", "tree", "critical-path", "ls"):
        print(
            "trace needs an action: summary, tree, critical-path or ls",
            file=sys.stderr,
        )
        return 2
    if args.trace_dir is None:
        print("trace needs --trace-dir", file=sys.stderr)
        return 2
    try:
        if action == "ls":
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
    if args.format == "json":
        if action == "summary":
            payload = telemetry.summary(trace)
        elif action == "critical-path":
            payload = telemetry.critical_path(trace)
        else:
            payload = {
                "trace": trace.trace_id,
                "spans": [dataclasses.asdict(span) for span in trace.spans],
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if action == "summary":
        print(telemetry.render_summary(trace))
    elif action == "critical-path":
        print(telemetry.render_critical_path(trace))
    else:
        print("\n".join(telemetry.tree_lines(trace)))
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
    import json

    from repro.net import ingest, io
    from repro.net.paths import network_signature

    if args.target is None:
        print(
            "ingest needs a topology file or 'synth', e.g. "
            "'ingest topo.json' or 'ingest synth --synth-nodes 1000'",
            file=sys.stderr,
        )
        return 2
    try:
        if args.target == "synth":
            network = ingest.synthesize_internet_like(
                args.synth_nodes,
                seed=args.seed,
                degree_exponent=args.degree_exponent,
            )
        else:
            network = io.load(args.target)
    except (OSError, ValueError) as exc:
        print(f"ingest: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        if args.emit == "distances":
            with open(args.out, "w") as handle:
                handle.write(ingest.to_distances_json(network))
        else:
            io.save(network, args.out)
    histogram = ingest.degree_histogram(network)
    degrees = [d for d, count in histogram.items() for _ in range(count)]
    min_degree = min(degrees) if degrees else 0
    max_degree = max(degrees) if degrees else 0
    mean_degree = sum(degrees) / len(degrees) if degrees else 0.0
    signature = network_signature(network)
    if args.format == "json":
        summary = {
            "name": network.name,
            "nodes": network.num_nodes,
            "directed_links": network.num_links,
            "min_degree": min_degree,
            "max_degree": max_degree,
            "mean_degree": mean_degree,
            "total_capacity_bps": network.total_capacity_bps(),
            "signature": signature,
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(
        f"{network.name}: {network.num_nodes} nodes, "
        f"{network.num_links} directed links, degree "
        f"{min_degree}..{max_degree} (mean {mean_degree:.2f})"
    )
    print(f"signature {signature[:16]}…")
    if args.out is not None:
        print(f"wrote {args.out} ({args.emit})")
    return 0


def run_figure_command(args) -> int:
    """`<figure>` / `render <figure>`: print one figure.

    An engine-backed figure executes its plan (``render`` serves it from
    the result store alone, with zero scheme evaluations) and draws the
    report; any other figure draws straight from the flags.
    """
    name = args.figure
    if name == "render":
        if args.target is None:
            print("render needs a figure id, e.g. 'render fig03'",
                  file=sys.stderr)
            return 2
        if args.store_dir is None:
            print("render needs --store-dir", file=sys.stderr)
            return 2
        name = args.target
        args.store_only = True
        if name not in store_backed_figures():
            print(f"figure {name!r} is not store-backed; choose one of "
                  f"{', '.join(store_backed_figures())}", file=sys.stderr)
            return 2
    elif args.target is not None:
        print(f"unexpected extra argument {args.target!r}", file=sys.stderr)
        return 2

    figure = FIGURES.get(name)
    if figure is None:
        print(f"unknown figure {name!r}; try 'list'", file=sys.stderr)
        return 2
    if figure.plan is None:
        print(figure.draw(args))
    else:
        report = execute_plan(figure.plan(args), **engine_options(args))
        print(figure.draw(report))
    return 0


def positive_int(text: str) -> int:
    """argparse ``type`` for count flags: an integer of at least 1.

    The function's name appears in argparse's message for a non-integer
    (``invalid positive_int value: 'x'``).
    """
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse ``type`` for byte budgets and perturbation counts: 0 or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def at_least_one_float(text: str) -> float:
    """argparse ``type`` for growth factors: a float of at least 1."""
    value = float(text)
    if not value >= 1.0:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_float(text: str) -> float:
    """argparse ``type`` for demand multipliers: a float of 0 or more."""
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate one of the paper's figures.",
    )
    parser.add_argument(
        "figure",
        help="figure id (e.g. fig03), 'render' to re-draw one purely from "
        "the result store, 'dispatch'/'worker' for sharded subprocess "
        "runs, 'scenarios' for perturbation-fleet robustness reports, "
        "'store' for ls/gc, 'trace' to analyze recorded telemetry, "
        "'ingest' to load/synthesize Internet-scale topologies, "
        "or 'list' to enumerate available ones",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="figure id (render), scheme name or figure id (dispatch), "
        "manifest path (worker), action (store: ls|gc; trace: "
        "summary|tree|critical-path|ls), topology file or 'synth' "
        "(ingest)",
    )
    parser.add_argument("--networks", type=positive_int, default=12)
    parser.add_argument("--tms", type=positive_int, default=1)
    parser.add_argument("--seed", type=non_negative_int, default=0)
    parser.add_argument(
        "--growth-factor",
        type=at_least_one_float,
        default=1.3,
        help="workload min-cut load shaping (1.3 = the paper's default "
        "77%% load; fig08 always uses its own 1.65).  Matters for "
        "dispatch and for store gc --match-workload, whose signature "
        "must describe the workload that populated the store",
    )
    parser.add_argument(
        "--workers",
        type=positive_int,
        default=1,
        help="shard evaluation tasks across this many processes (results "
        "identical); multi-call figures run their whole grid on one pool",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist per-network KSP caches (and fig20's grown "
        "topologies) here; repeated and parallel runs warm-start from "
        "disk",
    )
    parser.add_argument(
        "--cache-max-paths",
        type=positive_int,
        default=None,
        help="keep at most this many KSP paths per node pair in each "
        "persisted cache file",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=non_negative_int,
        default=None,
        help="after the run, evict least-recently-used ksp-*.json files "
        "from --cache-dir until it fits this budget",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help="persist per-network results here (append-only JSONL keyed by "
        "workload content hash); interrupted runs resume and 'render' "
        "re-draws without re-evaluating",
    )
    parser.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve already-stored networks from --store-dir instead of "
        "re-evaluating them (--no-resume discards the stored streams)",
    )
    parser.add_argument(
        "--shards",
        type=positive_int,
        default=2,
        help="number of shard manifests / worker subprocesses (dispatch)",
    )
    parser.add_argument(
        "--work-dir",
        default=None,
        help="where dispatch writes shard manifests and worker stores "
        "(default: a temp directory, removed afterwards)",
    )
    parser.add_argument(
        "--params",
        default=None,
        help="JSON object of scheme params for dispatch, e.g. "
        "'{\"headroom\": 0.1}'",
    )
    parser.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="store gc: prune workload-signature dirs whose newest stream "
        "is older than this many days",
    )
    parser.add_argument(
        "--keep",
        action="append",
        default=None,
        metavar="SIGNATURE",
        help="store gc: prune signature dirs NOT listed here (repeatable)",
    )
    parser.add_argument(
        "--match-workload",
        action="store_true",
        help="store gc: keep only the signature of the workload described "
        "by --networks/--tms/--seed, prune the rest",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="store ls: add a per-stream column with total/mean stored "
        "evaluation seconds; with --trace-dir also a span-derived "
        "per-phase breakdown",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="warning",
        help="threshold for the 'repro' logger on stderr (serial-fallback "
        "notices and other diagnostics)",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="record span telemetry into per-process JSONL shards under "
        "this directory (off by default; never changes results); the "
        "'trace' command reads the same directory back",
    )
    parser.add_argument(
        "--trace-id",
        default=None,
        help="override the workload-derived trace id when recording "
        "(rarely needed; dispatch coordinators and workers converge on "
        "the same id without it)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        help="trace command: which trace id (or unique prefix) to analyze "
        "when the directory holds several",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="trace / scenarios / ingest command output format",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="ingest: write the loaded/synthesized topology to this path",
    )
    parser.add_argument(
        "--emit",
        choices=("repro", "distances"),
        default="repro",
        help="ingest --out format: 'repro' (repro-network JSON) or "
        "'distances' (external distances+bandwidth JSON)",
    )
    parser.add_argument(
        "--synth-nodes",
        type=int,
        default=1000,
        help="ingest synth: number of nodes to synthesize",
    )
    parser.add_argument(
        "--degree-exponent",
        type=float,
        default=2.1,
        help="ingest synth: power-law exponent of the degree distribution "
        "(2.1 is the usual AS-graph figure)",
    )
    parser.add_argument(
        "--failures",
        type=non_negative_int,
        default=2,
        help="scenarios: fail every combination of this many physical "
        "links (0 disables; sampled beyond --variant-budget)",
    )
    parser.add_argument(
        "--node-failures",
        type=non_negative_int,
        default=0,
        help="scenarios: fail every combination of this many nodes "
        "(demands touching a failed node are dropped)",
    )
    parser.add_argument(
        "--surges",
        type=non_negative_int,
        default=0,
        help="scenarios: number of seeded flash-crowd variants",
    )
    parser.add_argument(
        "--surge-factor",
        type=non_negative_float,
        default=5.0,
        help="scenarios: demand multiplier a flash crowd applies",
    )
    parser.add_argument(
        "--surge-pairs",
        type=positive_int,
        default=2,
        help="scenarios: demand pairs surged per flash-crowd variant",
    )
    parser.add_argument(
        "--localities",
        default="",
        help="scenarios: comma-separated locality values, one regional "
        "demand-shift variant each (e.g. '0.5,1.0,2.0')",
    )
    parser.add_argument(
        "--growth-stages",
        type=non_negative_int,
        default=0,
        help="scenarios: staged topology growth depth; stage s adds the "
        "first s candidate links (geographically shortest first)",
    )
    parser.add_argument(
        "--variant-budget",
        type=positive_int,
        default=1000,
        help="scenarios: per-kind variant cap; failure enumeration is "
        "exhaustive while the combination count fits, seeded distinct "
        "sampling beyond it",
    )
    parser.add_argument(
        "--schemes",
        default="SP,ECMP,MPLS-TE,B4",
        help="scenarios: comma-separated schemes to compare ('list' "
        "shows the registry)",
    )
    parser.add_argument(
        "--base-network",
        type=int,
        default=None,
        help="scenarios: workload index of the base network to perturb "
        "(default: the best-connected one)",
    )
    parser.add_argument(
        "--dispatch",
        action="store_true",
        help="scenarios: run the fleet as one dispatched plan across "
        "--shards worker subprocesses (needs --store-dir); the report "
        "is byte-identical to the in-process run",
    )
    args = parser.parse_args(argv)
    args.store_only = False

    from repro.experiments.store import StoreError
    from repro.logutil import configure_logging

    configure_logging(args.log_level)

    figure = args.figure
    if args.trace_dir is not None and figure not in ("trace", "store", "list"):
        from repro import telemetry

        telemetry.configure(args.trace_dir, trace=args.trace_id)

    if figure == "trace":
        return run_trace_command(args)
    if figure == "list":
        from repro.experiments.spec import registered_schemes

        print("available:", ", ".join(sorted(FIGURES)))
        print("store-backed (resumable, renderable, dispatchable):",
              ", ".join(store_backed_figures()))
        print("dispatchable schemes (dispatch/worker):",
              ", ".join(registered_schemes()))
        print("(figures 15/16/19 run via pytest benchmarks/ --benchmark-only)")
        return 0
    commands = {
        "worker": run_worker_command,
        "dispatch": run_dispatch_command,
        "store": run_store_command,
        "scenarios": run_scenarios_command,
        "ingest": run_ingest_command,
    }
    try:
        code = commands.get(figure, run_figure_command)(args)
    except StoreError as exc:
        from repro.experiments.dispatch import SpecError

        prefix = figure if figure in commands else "result store"
        print(f"{prefix}: {exc}", file=sys.stderr)
        # A bad scheme spec is a usage error, caught before any worker.
        return 2 if isinstance(exc, SpecError) else 1

    # Every command that read --cache-dir leaves it within its budget.
    if (
        code == 0
        and args.cache_dir is not None
        and args.cache_max_bytes is not None
    ):
        from repro.net.paths import sweep_ksp_cache_dir

        removed = sweep_ksp_cache_dir(args.cache_dir, args.cache_max_bytes)
        if removed:
            print(f"evicted {len(removed)} KSP cache file(s) from "
                  f"{args.cache_dir}")
    if args.trace_dir is not None:
        from repro import telemetry

        telemetry.recorder().flush()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
