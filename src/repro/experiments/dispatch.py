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

There is one manifest generation: a shard of an
:class:`~repro.experiments.plan.EvalPlan` — a stream table (spec +
signature per stream) plus a flat task list, so every worker gets a mix
of schemes and sweep points rather than one scheme's heaviest networks.
A single scheme over one workload (the classic ``dispatch <scheme>``
cycle) is simply a one-stream plan.  Shards are equal-*count*
contiguous chunks of the plan's round-robin task order.  The merge is
order-blind: worker stores are just (signature, scheme) streams,
deduplicated by network index, so any partitioning yields the same
merged store.

Workers and resume
------------------

A shard is a subset of the plan's tasks (tasks commute), so a worker
has no loop of its own: it rebuilds the plan its manifest describes
(JSON forms round-trip floats exactly; every stream keeps the
coordinator's full-workload signature) and runs
``ExperimentEngine.run_plan(plan, indices=<its shard>)``.  Every task
keeps its *original* workload index, so worker records are
bit-identical to the in-process engine's.  The engine's store-backed
stream decides which tasks are already stored, by the same rule with
which a resumed :func:`dispatch_plan` ships only the tasks its main
store is missing.

The merge deduplicates by (workload signature, scheme, network index):
re-merging a worker store is a no-op, and two workers that redundantly
evaluated the same network contribute one record.  A record whose
``network_id`` disagrees with an already-merged one for the same index
raises :class:`~repro.experiments.store.StoreMismatchError` — that is two
*different* workloads colliding on a key and must never be papered over.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.durable import write_atomic
from repro.experiments.engine import ExperimentEngine, NetworkResult
from repro.experiments.plan import EvalPlan, EvalTask, PlanReport
from repro.experiments.spec import SchemeSpec, UnknownSchemeError, check_spec
from repro.experiments.store import (
    ResultStore,
    StoreError,
    StoreMismatchError,
    workload_signature,
)
from repro.experiments.workloads import NetworkWorkload
from repro.net.io import from_json as network_from_json
from repro.net.io import to_json as network_to_json
from repro.tm.matrix import from_json as tm_from_json
from repro.tm.matrix import to_json as tm_to_json

MANIFEST_FORMAT = "repro-shard-manifest"
#: Version tag of plan shard manifests (stream table + task list).
PLAN_MANIFEST_VERSION = 2


class DispatchError(StoreError):
    """A shard worker failed or produced an inconsistent store."""


class SpecError(DispatchError):
    """A plan stream's spec would fail to build in every worker."""


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
#: Fields every manifest carries (``scenarios``/``task_chunks`` are
#: optional additions).
_REQUIRED_FIELDS = ("shard_index", "n_shards", "streams", "items", "tasks")


def load_manifest(path: "os.PathLike[str] | str") -> dict:
    """Read and validate a shard manifest file.

    Manifests are copied between hosts, so the file is outside input:
    anything that is not a complete plan manifest raises
    :class:`DispatchError` rather than failing later inside the worker.
    """
    with open(path) as handle:
        try:
            manifest = json.load(handle)
        except json.JSONDecodeError as error:
            raise DispatchError(
                f"{path}: not valid JSON (truncated copy?): {error}"
            ) from error
    if not isinstance(manifest, dict) or (
        manifest.get("format") != MANIFEST_FORMAT
    ):
        raise DispatchError(f"{path}: not a {MANIFEST_FORMAT} document")
    if manifest.get("version") != PLAN_MANIFEST_VERSION:
        version = manifest.get("version")
        if version == 1:
            raise DispatchError(
                f"{path}: version 1 is the retired single-scheme manifest "
                f"layout; re-dispatch the run to write plan manifests"
            )
        raise DispatchError(
            f"{path}: unsupported manifest version {version!r}"
        )
    missing = [name for name in _REQUIRED_FIELDS if name not in manifest]
    if missing:
        raise DispatchError(
            f"{path}: manifest is missing {', '.join(missing)}"
        )
    _check_references(manifest, path)
    return manifest


def _check_references(manifest: dict, path: "os.PathLike[str] | str") -> None:
    """Raise unless every task and chunk resolves within the manifest
    (a dangling reference would end in an ``IndexError`` in the worker).
    """

    def check(value: object, size: int, what: str) -> int:
        if type(value) is not int or not 0 <= value < size:
            raise DispatchError(
                f"{path}: {what} {value!r} is out of range, "
                f"expected 0 to {size - 1}"
            )
        return value

    streams = manifest["streams"]
    n_scenarios = len(manifest.get("scenarios") or [])
    for sid, stream in enumerate(streams):
        n_networks = stream.get("n_networks")
        if type(n_networks) is not int or n_networks < 0:
            raise DispatchError(
                f"{path}: stream {sid} n_networks {n_networks!r} "
                f"is not a count"
            )
        if stream.get("scenario") is not None:
            check(stream["scenario"], n_scenarios, "stream scenario")
    for task in manifest["tasks"]:
        sid = check(task.get("stream"), len(streams), "task stream")
        check(task.get("index"), streams[sid]["n_networks"], "task index")
        check(task.get("item"), len(manifest["items"]), "task item")
    for chunk in manifest.get("task_chunks") or []:
        sid = check(chunk.get("stream"), len(streams), "chunk stream")
        if streams[sid].get("scenario") is None:
            raise DispatchError(
                f"{path}: chunk on stream {sid}, which has no scenario fleet"
            )
        n_networks = streams[sid]["n_networks"]
        start = check(chunk.get("start"), n_networks, "chunk start")
        check(chunk.get("count"), n_networks - start + 1, "chunk count")


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
    tasks: Sequence[EvalTask],
    shard_index: int,
    n_shards: int,
) -> dict:
    """The self-contained JSON payload for one shard of a whole plan.

    The manifest carries a stream table (spec, store signature, scheme
    stream name, workload size per stream) and a flat task list; each
    task references its stream by table position and its workload item
    by position in a deduplicated item table — two streams evaluating
    the same network (the common case: every scheme of a figure runs
    over the same workload) serialize that network once per manifest,
    not once per task.

    Lazy scenario workloads (anything exposing ``to_manifest_jsonable``)
    ship *compactly*: the fleet description (base item + specs) lands
    once in a deduplicated ``scenarios`` table, the stream entry points
    at it, and the stream's tasks are run-length encoded as
    ``task_chunks`` (contiguous index ranges) instead of one entry per
    task — a 10^5-variant shard is a handful of chunk records, and no
    variant is ever materialized while writing the manifest.  Both
    additions are optional fields of the version-2 layout; manifests
    without them read exactly as before.
    """
    stream_ids: Dict[object, int] = {}
    streams = []
    scenarios: List[dict] = []
    scenario_ids: Dict[int, int] = {}
    for key, stream in plan.streams.items():
        scenario_ref = None
        to_payload = getattr(stream.workload, "to_manifest_jsonable", None)
        if callable(to_payload):
            scenario_ref = scenario_ids.get(id(stream.workload))
            if scenario_ref is None:
                scenario_ref = len(scenarios)
                scenario_ids[id(stream.workload)] = scenario_ref
                scenarios.append(to_payload())
        stream_ids[key] = len(streams)
        streams.append(
            {
                "scheme": stream.scheme,
                "spec": stream.factory.to_jsonable(),
                "signature": workload_signature(stream.workload),
                "n_networks": stream.n_networks,
                "scenario": scenario_ref,
            }
        )
    items: List[dict] = []
    item_ids: Dict[Tuple[int, int], int] = {}
    task_entries = []
    task_chunks: List[dict] = []
    open_chunks: Dict[int, dict] = {}
    for task in tasks:
        stream = plan.streams[task.stream]
        sid = stream_ids[task.stream]
        if streams[sid]["scenario"] is not None:
            chunk = open_chunks.get(sid)
            if (
                chunk is not None
                and chunk["start"] + chunk["count"] == task.index
            ):
                chunk["count"] += 1
            else:
                chunk = {"stream": sid, "start": task.index, "count": 1}
                open_chunks[sid] = chunk
                task_chunks.append(chunk)
            continue
        item = stream.workload.networks[task.index]
        ident = (id(stream.workload), task.index)
        item_id = item_ids.get(ident)
        if item_id is None:
            item_id = len(items)
            item_ids[ident] = item_id
            items.append(
                {
                    "llpd": item.llpd,
                    "network": json.loads(network_to_json(item.network)),
                    "matrices": [
                        json.loads(tm_to_json(tm)) for tm in item.matrices
                    ],
                }
            )
        task_entries.append(
            {
                "stream": stream_ids[task.stream],
                "index": task.index,
                "item": item_id,
            }
        )
    return {
        "format": MANIFEST_FORMAT,
        "version": PLAN_MANIFEST_VERSION,
        "shard_index": shard_index,
        "n_shards": n_shards,
        "streams": streams,
        "items": items,
        "tasks": task_entries,
        "scenarios": scenarios,
        "task_chunks": task_chunks,
    }


def write_plan_manifests(
    plan: EvalPlan,
    n_shards: int,
    out_dir: "os.PathLike[str] | str",
    indices: Optional[Dict[Hashable, Sequence[int]]] = None,
) -> List[Path]:
    """Split a plan's tasks into shard manifest files under ``out_dir``.

    :meth:`EvalPlan.tasks` is cut into contiguous, equal-size chunks of
    its round-robin order, so every worker receives a mix of *all*
    schemes and sweep points.  (Stride striping would resonate with the
    stream count — with 4 schemes and 2 shards, every other task is the
    same two schemes — whereas a contiguous chunk of a round-robin list
    cycles through every stream.)  Always writes at least one manifest,
    never more manifests than tasks.  Every stream's signature is the
    full workload's, so all shards append into the same mergeable store
    keys the in-process plan run would use — partitioning never changes
    the merged results.  ``indices`` restricts each stream to the given
    network indices, as in :meth:`EvalPlan.tasks`.  Each stream's spec
    is checked first (:func:`_check_plan_specs`), before any manifest is
    written, instead of in every worker.
    """
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    _check_plan_specs(plan)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = plan.tasks(indices=indices)
    n_effective = min(n_shards, max(len(tasks), 1))
    base, extra = divmod(len(tasks), n_effective)
    paths: List[Path] = []
    recorder = telemetry.recorder()
    position = 0
    for shard_index in range(n_effective):
        size = base + (1 if shard_index < extra else 0)
        with recorder.span("manifest_write", {"shard_index": shard_index}):
            manifest = build_plan_manifest(
                plan,
                tasks[position:position + size],
                shard_index=shard_index,
                n_shards=n_effective,
            )
            path = out / f"shard-{shard_index:03d}.json"
            write_atomic(path, json.dumps(manifest, indent=2))
        position += size
        paths.append(path)
    return paths


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _ShardWorkload:
    """One stream of a shard manifest, as the engine's workload.

    ``networks[i]`` is ``item(i)``, built on first use; only the shard's
    indices resolve.  The length is the full workload's and the
    signature the one the coordinator computed over it, so store keys
    and the trace id are the in-process plan's.
    """

    def __init__(self, stream: dict, item: Callable) -> None:
        self.networks = self
        self._stream = stream
        self._item = item

    def __len__(self) -> int:
        return self._stream["n_networks"]

    def __getitem__(self, index: int) -> NetworkWorkload:
        return self._item(index)

    def content_signature(self) -> str:
        return self._stream["signature"]


def _shard_plan(manifest: dict) -> Tuple[EvalPlan, Dict[int, List[int]]]:
    """The plan a checked shard manifest describes, and its indices.

    One plan stream per manifest stream, keyed by its table position.
    Each item id is rebuilt once and shared by every stream naming it,
    so those streams share one KSP cache, as in process.
    """

    @functools.lru_cache(maxsize=None)
    def rebuild(ref: int) -> NetworkWorkload:
        entry = manifest["items"][ref]
        return NetworkWorkload(
            network=network_from_json(json.dumps(entry["network"])),
            llpd=entry["llpd"],
            matrices=[
                tm_from_json(json.dumps(tm)) for tm in entry["matrices"]
            ],
        )

    def item(refs: Dict[int, int], index: int) -> NetworkWorkload:
        return rebuild(refs[index])

    @functools.lru_cache(maxsize=None)
    def fleet(ref: int):
        # Imported lazily: scenarios imports the store layer, and this
        # module must stay importable without it.
        from repro.scenarios.workload import ScenarioWorkload

        return ScenarioWorkload.from_manifest_jsonable(
            manifest["scenarios"][ref]
        )

    streams = manifest["streams"]
    refs: List[Dict[int, int]] = [{} for _ in streams]
    for task in manifest["tasks"]:
        refs[task["stream"]][task["index"]] = task["item"]
    indices = [list(stream_refs) for stream_refs in refs]
    for chunk in manifest.get("task_chunks") or []:
        start = chunk["start"]
        indices[chunk["stream"]] += range(start, start + chunk["count"])
    plan = EvalPlan()
    for sid, stream in enumerate(streams):
        if stream.get("scenario") is None:
            lookup = functools.partial(item, refs[sid])
        else:
            lookup = fleet(stream["scenario"]).networks.__getitem__
        plan.add(
            sid,
            SchemeSpec.from_jsonable(stream["spec"]),
            _ShardWorkload(stream, lookup),
            scheme=stream["scheme"],
        )
    return plan, dict(enumerate(indices))


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
