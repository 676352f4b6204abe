"""Multi-host shard dispatch: manifests, workers, and store merge.

The engine shards one plan across local processes; this module shards
it across *store directories*, which is what makes the boundary a host
boundary: a shard manifest is a self-contained JSON file (networks,
traffic matrices, scheme specs, and the store signatures of every
stream), a worker is any interpreter anywhere running

    python -m repro.experiments worker <manifest> --store-dir <dir>

and collection is a merge of the worker's result-store streams back into
the main store.  N-host dispatch is therefore: copy N manifests to N
hosts, run N workers, copy N store directories back, merge.  The local
coordinator :func:`dispatch_plan` does exactly that with subprocesses
and temp directories, so the single-host path exercises the same
manifest/worker/merge machinery a cluster run would.

There is one manifest layout: a shard of an
:class:`~repro.experiments.plan.EvalPlan` as a workload table, a
stream table and run-length task ranges (:func:`build_plan_manifest`),
so every worker gets a mix of schemes and sweep points rather than one
scheme's heaviest networks.  A single scheme over one workload (the
classic ``dispatch <scheme>`` cycle) is simply a one-stream plan.
Shards are equal-*count* contiguous chunks of the plan's round-robin
task order.  The merge is order-blind: worker stores are just
(signature, scheme) streams, deduplicated by network index, so any
partitioning yields the same merged store.

Workers and resume
------------------

A shard is a subset of the plan's tasks (tasks commute), so a worker
has no loop of its own: it rebuilds the plan its manifest describes
(JSON forms round-trip floats exactly; every workload keeps the
coordinator's full-workload signature) and runs
``ExperimentEngine.run_plan(plan, indices=<its shard>)``.  Every task
keeps its *original* workload index, so worker records are
bit-identical to the in-process engine's.  A worker holds each
distinct network of its shard once: every item that carries the same
network text, in any workload entry, shares one network object and
one KSP cache (:func:`_shared_item`), just as an in-process plan's
sweep points share their base items' caches.  Warm KSP-cache state
affects only timing, so the sharing moves no record; it only stops a
shard from rebuilding and re-warming a network once per sweep point.
The engine's store-backed stream decides which tasks are already
stored, by the same rule with which a resumed :func:`dispatch_plan`
ships only the tasks its main store is missing.

The merge deduplicates by (workload signature, scheme, network index):
re-merging a worker store is a no-op, and two workers that redundantly
evaluated the same network contribute one record.  A record whose
``network_id`` disagrees with an already-merged one for the same index
raises :class:`~repro.experiments.store.StoreMismatchError` — that is two
*different* workloads colliding on a key and must never be papered over.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.durable import write_atomic
from repro.experiments.engine import ExperimentEngine
from repro.experiments.plan import EvalPlan, EvalTask, PlanReport
from repro.experiments.spec import SchemeSpec, UnknownSchemeError, check_spec
from repro.experiments.store import (
    ResultStore,
    StoreError,
    StoreMismatchError,
    workload_signature,
)
from repro.experiments.workloads import NetworkWorkload
from repro.tm.matrix import from_json as tm_from_json

MANIFEST_FORMAT = "repro-shard-manifest"
#: Version tag of shard manifests (workload, stream and task tables).
MANIFEST_VERSION = 3


class DispatchError(StoreError):
    """A shard worker failed or produced an inconsistent store."""


class SpecError(DispatchError):
    """A plan stream's spec would fail to build in every worker."""


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
#: Fields every manifest carries; the last three are its tables.
_REQUIRED_FIELDS = ("shard_index", "n_shards", "workloads", "streams", "tasks")


def load_manifest(path: "os.PathLike[str] | str") -> dict:
    """Read and validate a shard manifest file.

    Manifests are copied between hosts, so the file is outside input:
    anything that is not a complete version-3 manifest raises
    :class:`DispatchError` rather than failing later inside the worker.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as error:
        raise DispatchError(f"{path}: unreadable: {error.strerror}") from error
    except ValueError as error:  # bad JSON or bad UTF-8
        raise DispatchError(
            f"{path}: not valid JSON (truncated copy?): {error}"
        ) from error
    if not isinstance(manifest, dict) or (
        manifest.get("format") != MANIFEST_FORMAT
    ):
        raise DispatchError(f"{path}: not a {MANIFEST_FORMAT} document")
    if manifest.get("version") != MANIFEST_VERSION:
        raise DispatchError(
            f"{path}: unsupported manifest version "
            f"{manifest.get('version')!r}; re-dispatch the run to write "
            f"version {MANIFEST_VERSION} manifests"
        )
    missing = [name for name in _REQUIRED_FIELDS if name not in manifest]
    if missing:
        raise DispatchError(f"{path}: missing {', '.join(missing)}")
    _check_references(manifest, path)
    return manifest


def _check_references(manifest: dict, path: "os.PathLike[str] | str") -> None:
    """Raise unless every table is a list of well-formed objects and
    every reference resolves within the manifest: a dangling one ends in
    an ``IndexError`` or ``KeyError`` in the worker, and a signature
    that is not a sha256 digest could name a path outside its store."""

    def check(value: object, size: int, what: str) -> int:
        if type(value) is not int or not 0 <= value < size:
            raise DispatchError(
                f"{path}: {what} {value!r} is out of range, "
                f"expected 0 to {size - 1}"
            )
        return value

    for name in _REQUIRED_FIELDS[2:]:
        if not isinstance(manifest[name], list) or not all(
            isinstance(entry, dict) for entry in manifest[name]
        ):
            raise DispatchError(f"{path}: {name} is not a list of objects")
    workloads = manifest["workloads"]
    for wid, workload in enumerate(workloads):
        n_networks = workload.get("n_networks")
        if type(n_networks) is not int or n_networks < 0:
            raise DispatchError(
                f"{path}: workload {wid} n_networks {n_networks!r} "
                f"is not a count"
            )
        if not re.fullmatch("[0-9a-f]{64}", str(workload.get("signature"))):
            raise DispatchError(
                f"{path}: workload {wid} signature is not a sha256 digest"
            )
        kinds = [kind for kind in ("items", "fleet") if kind in workload]
        if len(kinds) != 1 or not isinstance(workload[kinds[0]], dict):
            raise DispatchError(
                f"{path}: workload {wid} needs one items or fleet object"
            )
    streams = manifest["streams"]
    for stream in streams:
        check(stream.get("workload"), len(workloads), "stream workload")
    for task in manifest["tasks"]:
        sid = check(task.get("stream"), len(streams), "task stream")
        wid = streams[sid]["workload"]
        n_networks = workloads[wid]["n_networks"]
        start = check(task.get("start"), n_networks, "task start")
        count = check(task.get("count"), n_networks - start + 1, "task count")
        items = workloads[wid].get("items")
        lost = [] if items is None else [
            i for i in range(start, start + count) if str(i) not in items
        ]
        if lost:
            raise DispatchError(
                f"{path}: a task names index {lost[0]} of workload {wid}, "
                f"which ships no item for it"
            )


def _check_plan_specs(plan: EvalPlan) -> None:
    """Raise unless every stream's spec can be built in a worker: a
    non-:class:`SchemeSpec` factory is a :class:`DispatchError`, an
    unknown scheme or param a :class:`SpecError`."""
    for key, stream in plan.streams.items():
        if not isinstance(stream.factory, SchemeSpec):
            raise DispatchError(
                f"plan stream {key!r} uses a non-SchemeSpec factory; "
                f"only registry specs can cross a host boundary"
            )
        try:
            check_spec(stream.factory)
        except (UnknownSchemeError, TypeError) as error:
            raise SpecError(f"plan stream {key!r}: {error.args[0]}") from None


def build_plan_manifest(
    plan: EvalPlan,
    tasks: Iterable[EvalTask],
    shard_index: int,
    n_shards: int,
) -> dict:
    """The self-contained JSON payload for one shard of a whole plan.

    Three tables.  ``workloads`` holds each distinct plan workload once:
    its store signature, its size, and either the ``items`` the shard's
    tasks name (keyed by workload index, in the one item form of
    :meth:`NetworkWorkload.to_jsonable`) or, for a lazy fleet (anything
    exposing ``to_manifest_jsonable``), the fleet description (base
    item + specs), so no variant is materialized.  ``streams`` holds
    one entry per plan stream: scheme stream name, spec and workload
    position.  ``tasks`` holds the shard's tasks as run-length
    ``(stream, start, count)`` index ranges in order of first appearance,
    so two streams evaluating the same network (every scheme of a figure
    runs over the same workload) ship it once per manifest, and a
    10^5-variant fleet shard is a handful of ranges.
    """
    workloads: List[dict] = []
    workload_ids: Dict[int, int] = {}
    streams: List[dict] = []
    stream_ids = {key: sid for sid, key in enumerate(plan.streams)}
    for stream in plan.streams.values():
        wid = workload_ids.get(id(stream.workload))
        if wid is None:
            wid = workload_ids[id(stream.workload)] = len(workloads)
            fleet = getattr(stream.workload, "to_manifest_jsonable", None)
            workloads.append(
                {
                    "signature": workload_signature(stream.workload),
                    "n_networks": stream.n_networks,
                    **({"fleet": fleet()} if fleet else {"items": {}}),
                }
            )
        streams.append(
            {
                "scheme": stream.scheme,
                "spec": stream.factory.to_jsonable(),
                "workload": wid,
            }
        )
    ranges: List[dict] = []
    open_ranges: Dict[int, dict] = {}
    for task in tasks:
        sid = stream_ids[task.stream]
        run = open_ranges.get(sid)
        if run is not None and run["start"] + run["count"] == task.index:
            run["count"] += 1
        else:
            run = open_ranges[sid] = {
                "stream": sid, "start": task.index, "count": 1
            }
            ranges.append(run)
        items = workloads[streams[sid]["workload"]].get("items")
        if items is not None and str(task.index) not in items:
            networks = plan.streams[task.stream].workload.networks
            items[str(task.index)] = networks[task.index].to_jsonable()
    return {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "shard_index": shard_index,
        "n_shards": n_shards,
        "workloads": workloads,
        "streams": streams,
        "tasks": ranges,
    }


def write_plan_manifests(
    plan: EvalPlan,
    n_shards: int,
    out_dir: "os.PathLike[str] | str",
    indices: Optional[Dict[Hashable, Sequence[int]]] = None,
) -> List[Path]:
    """Split a plan's tasks into shard manifest files under ``out_dir``.

    :meth:`EvalPlan.iter_tasks` (restricted to ``indices`` if given) is
    cut lazily into contiguous, equal-size chunks of its round-robin
    order, so every worker receives a mix of *all* schemes and sweep
    points.  (Stride striping would resonate with the stream count —
    with 4 schemes and 2 shards, every other task is the same two
    schemes — whereas a contiguous chunk of a round-robin sequence
    cycles through every stream.)  Always writes at least one manifest,
    never more manifests than tasks.  Every workload's signature is the
    full workload's, so all shards append into the same mergeable store
    keys the in-process plan run would use — partitioning never changes
    the merged results.  Each stream's spec is checked first
    (:func:`_check_plan_specs`), before any manifest is written, instead
    of in every worker.
    """
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    _check_plan_specs(plan)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = plan.iter_tasks(indices=indices)
    n_tasks = plan.n_tasks if indices is None else sum(
        len(indices.get(key, ())) for key in plan.streams
    )
    n_effective = min(n_shards, max(n_tasks, 1))
    base, extra = divmod(n_tasks, n_effective)
    paths: List[Path] = []
    recorder = telemetry.recorder()
    for shard_index in range(n_effective):
        size = base + (1 if shard_index < extra else 0)
        with recorder.span("manifest_write", {"shard_index": shard_index}):
            manifest = build_plan_manifest(
                plan,
                itertools.islice(tasks, size),
                shard_index=shard_index,
                n_shards=n_effective,
            )
            path = out / f"shard-{shard_index:03d}.json"
            write_atomic(path, json.dumps(manifest, indent=2))
        paths.append(path)
    return paths


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _ShardWorkload:
    """One workload entry of a shard manifest, as the engine's workload.

    ``networks[i]`` is the fleet's variant ``i`` or the rebuilt item
    ``i``.  Items are rebuilt through the shard's ``shared`` table
    (:func:`_shared_item`), so the items of every entry that carry one
    network share its object and KSP cache, as in process.
    Only the shard's indices resolve.  The length is the full
    workload's and the signature the one the coordinator computed over
    it, so store keys and the trace id are the in-process plan's.
    """

    def __init__(
        self, entry: dict, shared: Dict[str, NetworkWorkload]
    ) -> None:
        self.networks = self
        self._entry = entry
        if "fleet" in entry:
            # Imported lazily: repro.scenarios builds on this package.
            from repro.scenarios.workload import ScenarioWorkload

            fleet = ScenarioWorkload.from_manifest_jsonable(entry["fleet"])
            self._item = fleet.networks.__getitem__
        else:
            items = {
                int(index): _shared_item(payload, shared)
                for index, payload in entry["items"].items()
            }
            self._item = items.__getitem__

    def __len__(self) -> int:
        return self._entry["n_networks"]

    def __getitem__(self, index: int) -> NetworkWorkload:
        return self._item(index)

    def content_signature(self) -> str:
        return self._entry["signature"]


def _shared_item(
    payload: dict, shared: Dict[str, NetworkWorkload]
) -> NetworkWorkload:
    """Rebuild one manifest item, sharing its network through ``shared``.

    ``shared`` maps network JSON text (network content, as the on-disk
    KSP cache is keyed) to the first item rebuilt with it.  A later item
    with the same text takes that item's network object, with its
    graph-index memos and KSP cache, and parses only its own LLPD and
    matrices.
    """
    first = shared.get(payload["network"])
    if first is None:
        first = shared[payload["network"]] = NetworkWorkload.from_jsonable(
            payload
        )
        return first
    return NetworkWorkload(
        network=first.network,
        llpd=float(payload["llpd"]),
        matrices=[tm_from_json(text) for text in payload["matrices"]],
        cache=first.cache,
    )


def _shard_plan(manifest: dict) -> Tuple[EvalPlan, Dict[int, List[int]]]:
    """The plan a checked shard manifest describes, and its indices.

    One plan stream per manifest stream, keyed by its table position,
    over one :class:`_ShardWorkload` per workload entry, all rebuilt
    through one ``shared`` network table.
    """
    shared: Dict[str, NetworkWorkload] = {}
    workloads = [
        _ShardWorkload(entry, shared) for entry in manifest["workloads"]
    ]
    plan = EvalPlan()
    for sid, stream in enumerate(manifest["streams"]):
        plan.add(
            sid,
            SchemeSpec.from_jsonable(stream["spec"]),
            workloads[stream["workload"]],
            scheme=stream["scheme"],
        )
    indices: Dict[int, List[int]] = {sid: [] for sid in plan.streams}
    for task in manifest["tasks"]:
        start = task["start"]
        indices[task["stream"]] += range(start, start + task["count"])
    return plan, indices


def run_worker(
    manifest_path: "os.PathLike[str] | str",
    store_dir: "os.PathLike[str] | str",
    cache_dir: Optional["os.PathLike[str] | str"] = None,
    resume: bool = True,
) -> dict:
    """Evaluate one plan shard and append its results to ``store_dir``.

    Runs the manifest's plan (:func:`_shard_plan`) over the shard's
    indices through a serial store-backed engine, so a re-run worker
    resumes like any engine run.  Returns a summary dict for logging.
    """
    manifest = load_manifest(manifest_path)
    plan, indices = _shard_plan(manifest)
    recorder = telemetry.recorder()
    attrs = None
    if recorder.enabled:
        # The stream table always carries the *whole* plan's streams, so
        # every shard — and the coordinator — derives the same trace id
        # independently.
        recorder.begin_trace(telemetry.plan_trace_id(plan))
        attrs = {
            "shard_index": manifest["shard_index"],
            "n_shards": manifest["n_shards"],
        }
    engine = ExperimentEngine(
        cache_dir=cache_dir, store_dir=store_dir, resume=resume
    )
    with recorder.span("worker", attrs):
        report = engine.run_plan(plan, indices=indices)
    n_results = sum(len(results) for results in report.results.values())
    schemes = sorted({stream["scheme"] for stream in manifest["streams"]})
    return {
        "shard_index": manifest["shard_index"],
        "n_shards": manifest["n_shards"],
        "scheme": "+".join(schemes),
        "evaluated": n_results - report.n_stored,
        "skipped": report.n_stored,
        "stream": os.fspath(Path(store_dir)),
    }


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def merge_worker_store(
    main_store_dir: "os.PathLike[str] | str",
    worker_store_dir: "os.PathLike[str] | str",
) -> Dict[str, int]:
    """Merge every stream of a worker store into the main store.

    Deduplicates by (signature, scheme, network index): records whose
    index the main stream already holds are dropped, so merging is
    idempotent — re-merging the same worker store appends nothing.  An
    index collision with a *different* ``network_id`` raises
    :class:`StoreMismatchError` instead of silently keeping either.

    Returns ``{"<signature>/<scheme>": records appended}`` per stream.
    """
    worker_root = Path(worker_store_dir)
    main = ResultStore(main_store_dir)
    appended: Dict[str, int] = {}
    if not worker_root.is_dir():
        return appended
    with telemetry.recorder().span("merge"):
        _merge_worker_streams(worker_root, main, appended)
    return appended


def _merge_worker_streams(
    worker_root: Path, main: ResultStore, appended: Dict[str, int]
) -> None:
    """The per-stream body of :func:`merge_worker_store`."""
    from repro.experiments.store import _scan_stream

    for stream in sorted(worker_root.glob("*/*.jsonl")):
        signature = stream.parent.name
        header, results, _ = _scan_stream(os.fspath(stream))
        if header is None:
            raise StoreMismatchError(f"{stream}: no valid header record")
        if header.get("signature") != signature:
            raise StoreMismatchError(
                f"{stream}: header signature "
                f"{header.get('signature')!r} does not match its "
                f"directory {signature!r}"
            )
        scheme = header["scheme"]
        writer = main.open_writer(
            signature,
            scheme,
            n_networks=header.get("n_networks", len(results)),
            resume=True,
        )
        count = 0
        try:
            for index in sorted(results):
                result = results[index]
                existing = writer.stored.get(index)
                if existing is not None:
                    if existing.network_id != result.network_id:
                        raise StoreMismatchError(
                            f"{stream}: index {index} holds "
                            f"{result.network_id!r} but the main store has "
                            f"{existing.network_id!r} under the same key"
                        )
                    continue
                writer.append(result)
                count += 1
        finally:
            writer.close()
        appended[f"{signature}/{scheme}"] = count


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
def _worker_command(
    manifest: Path, store_dir: Path, cache_dir: Optional[Path]
) -> List[str]:
    command = [
        sys.executable,
        "-m",
        "repro.experiments",
        "worker",
        os.fspath(manifest),
        "--store-dir",
        os.fspath(store_dir),
    ]
    if cache_dir is not None:
        command += ["--cache-dir", os.fspath(cache_dir)]
    trace_dir = telemetry.recorder().trace_dir
    if trace_dir is not None:
        # Local workers would inherit REPRO_TRACE_DIR anyway; the flag
        # also documents exactly what a remote host must be handed.  The
        # worker derives its trace id from the manifest, so no id flag.
        command += ["--trace-dir", trace_dir]
    return command


def _worker_env() -> dict:
    """Subprocess environment with this repro package importable."""
    env = dict(os.environ)
    package_root = os.fspath(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else package_root + os.pathsep + existing
    )
    return env


def _run_shard_workers(
    manifests: Sequence[Path],
    work: Path,
    cache_dir: Optional["os.PathLike[str] | str"],
) -> List[Path]:
    """Launch one worker subprocess per manifest; return worker stores.

    Every worker gets its own store directory under ``work``.  All
    workers run concurrently; any non-zero exit raises
    :class:`DispatchError` carrying each failure's stderr tail.
    """
    env = _worker_env()
    procs = []
    for shard_index, manifest in enumerate(manifests):
        worker_store = work / f"worker-{shard_index:03d}"
        procs.append(
            (
                manifest,
                worker_store,
                subprocess.Popen(
                    _worker_command(
                        manifest,
                        worker_store,
                        Path(cache_dir) if cache_dir else None,
                    ),
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    env=env,
                    text=True,
                ),
            )
        )
    failures = []
    for manifest, _, proc in procs:
        _, stderr = proc.communicate()
        if proc.returncode != 0:
            failures.append(
                f"{manifest.name} exited {proc.returncode}: "
                f"{stderr.strip()[-2000:]}"
            )
    if failures:
        raise DispatchError(
            "shard worker(s) failed:\n" + "\n".join(failures)
        )
    return [worker_store for _, worker_store, _ in procs]


def dispatch_plan(
    plan: EvalPlan,
    n_shards: int,
    store_dir: "os.PathLike[str] | str",
    work_dir: Optional["os.PathLike[str] | str"] = None,
    cache_dir: Optional["os.PathLike[str] | str"] = None,
    resume: bool = True,
) -> PlanReport:
    """Shard a whole evaluation plan across worker subprocesses and merge.

    The full coordinator cycle on one machine: write shard manifests
    under ``work_dir`` (a temp directory by default), launch one
    ``python -m repro.experiments worker`` subprocess per manifest (each
    appending to its own store directory), merge the worker stores into
    ``store_dir``, and serve the report from the merged store.  The
    plan's flat task list — every (scheme, sweep point, network) cell of
    a figure, or one scheme's networks for a one-stream plan —
    is cut into ``n_shards`` contiguous chunks of the round-robin order
    (:func:`write_plan_manifests`), so each worker evaluates a mix of
    *all* streams.  Worker stores merge back into ``store_dir`` with
    the usual idempotent, conflict-checked (signature, scheme, index)
    dedup, and the merged store then serves the full
    :class:`~repro.experiments.plan.PlanReport` — equal to what an
    in-process :meth:`~repro.experiments.engine.ExperimentEngine.run_plan`
    returns regardless of partitioning.

    With ``resume`` (the default) only the tasks missing from
    ``store_dir`` ship (:meth:`ResultStore.resumable_results`), and a
    complete store starts no worker; the report's ``n_stored`` counts
    the tasks that did not ship.  ``resume=False`` ships every task
    and resets the plan's streams in the main store once every worker
    succeeded — a failed dispatch never destroys existing results.
    """
    recorder = telemetry.recorder()
    if recorder.enabled:
        recorder.begin_trace(telemetry.plan_trace_id(plan))
    _check_plan_specs(plan)
    store = ResultStore(store_dir)
    served = ExperimentEngine(store_dir=store_dir, store_only=True)
    signatures = {
        key: workload_signature(stream.workload)
        for key, stream in plan.streams.items()
    }
    indices = None
    n_shipped = plan.n_tasks
    if resume:
        indices = {}
        for key, stream in plan.streams.items():
            stored = store.resumable_results(signatures[key], stream.scheme)
            indices[key] = [
                i for i in range(stream.n_networks) if i not in stored
            ]
        n_shipped = sum(len(missing) for missing in indices.values())
        if not n_shipped:
            return served.run_plan(plan)
    own_work_dir = None
    if work_dir is None:
        own_work_dir = tempfile.TemporaryDirectory(prefix="repro-dispatch-")
        work_dir = own_work_dir.name
    work = Path(work_dir)
    try:
        manifests = write_plan_manifests(
            plan, n_shards, work / "manifests", indices=indices
        )
        worker_stores = _run_shard_workers(manifests, work, cache_dir)
        if not resume:
            for key, stream in plan.streams.items():
                store.open_writer(
                    signatures[key],
                    stream.scheme,
                    n_networks=stream.n_networks,
                    resume=False,
                ).close()
        for worker_store in worker_stores:
            merge_worker_store(store_dir, worker_store)
    finally:
        if own_work_dir is not None:
            own_work_dir.cleanup()
    report = served.run_plan(plan)
    report.n_stored = plan.n_tasks - n_shipped
    return report
