"""Durable, append-only result store for experiment engine runs.

The paper's evaluation grid (116 networks x 100 traffic matrices x several
schemes) is the shape of workload where interrupted runs and repeated
re-plots dominate wall-clock cost.  This module persists the engine's
per-network results so that

* a run killed partway can be restarted and evaluates only the networks
  whose results are not yet on disk (crash resume), and
* a figure can be re-rendered entirely from disk, without constructing a
  single routing scheme (re-render without re-evaluate).

Store layout
------------

One JSONL stream per (workload signature, scheme name)::

    <store>/<workload-signature>/<scheme>.jsonl

The workload signature is a content hash (:func:`workload_signature`)
covering every network (via :func:`repro.net.io.to_json`), every traffic
matrix (via :func:`repro.tm.matrix.to_json`) and the workload's shaping
parameters (locality, growth factor, seed).  Any change to the workload
changes the signature, so stale results are rejected *by key* — they are
simply never looked up — rather than trusted.

Each stream starts with a header record restating its key (format version,
signature, scheme name); readers verify the header against the requested
key and raise :class:`StoreMismatchError` on any disagreement (a file moved
between directories, a renamed scheme, a future format).  After the header
come one ``result`` record per completed network, appended as a single
flushed line each, so concurrent appenders never interleave *within* a
record and a crash can tear at most the trailing line.  Readers stop at
the first unparseable line (:func:`repro.durable.scan_jsonl`); the
writer truncates such a torn tail before resuming, so a mid-write kill
costs exactly one network's result.

Stored results round-trip bit-identically: JSON preserves Python floats
exactly (``repr`` round-trip), so a :class:`SchemeOutcome` read back from
the store compares equal to the freshly computed one, for any worker
count — the engine's determinism contract extends to the store.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro import telemetry
from repro.durable import json_line, scan_jsonl, write_atomic
from repro.experiments.runner import SchemeOutcome
from repro.experiments.workloads import NetworkWorkload, ZooWorkload

if TYPE_CHECKING:  # circular at runtime: engine imports this module
    from repro.experiments.engine import NetworkResult

#: Version tag of both the signature recipe and the stream record layout.
#: Bumping it orphans (never corrupts) existing stores: old streams live
#: under old signature directories and are no longer looked up.
STORE_FORMAT = 1


class StoreError(Exception):
    """Base class for result-store failures."""


class StoreMismatchError(StoreError):
    """A stream's header does not match the key it was looked up under."""


class StoreMissError(StoreError):
    """A store-only run needs results the store does not hold."""


def workload_signature(workload: ZooWorkload) -> str:
    """Content hash identifying one evaluation workload.

    Covers every network's full JSON form, every traffic matrix,
    per-network LLPD, and the workload's shaping parameters.  Two
    workloads hash equal iff the engine would produce identical outcomes
    for them, so the hash is safe to use as the storage key for results.

    The hash is memoized on the workload instance: figure functions call
    the engine once per (scheme, sweep point) over the same workload, and
    re-serializing every network and matrix each time is pure waste.
    Workloads must not be mutated mid-evaluation anyway (the engine and
    KSP-cache contracts already assume it), so the memo cannot go stale.
    """
    cached = getattr(workload, "_signature_memo", None)
    if cached is not None:
        return cached
    # Lazy workloads (e.g. repro.scenarios' 10^5-variant fleets) provide
    # their own content signature so hashing does not materialize every
    # variant; the contract is the same — equal signature iff the engine
    # would produce identical outcomes.
    content = getattr(workload, "content_signature", None)
    if callable(content):
        workload._signature_memo = content()
        return workload._signature_memo
    digest = signature_digest(workload)
    for item in workload.networks:
        digest.update(b"|N|")
        digest_item(digest, item)
    workload._signature_memo = digest.hexdigest()
    return workload._signature_memo


def signature_digest(workload: ZooWorkload) -> "hashlib._Hash":
    """A fresh signature hash fed the recipe's header: the store format
    and the workload's shaping parameters.  Every workload signature,
    a lazy workload's ``content_signature`` included, starts here."""
    digest = hashlib.sha256()
    digest.update(f"repro-store|{STORE_FORMAT}".encode())
    # The trailing ``|None`` is where the recipe once hashed a
    # matrices-per-network truncation that no run ever set; it stays so
    # every existing store keeps its key.
    digest.update(
        f"|W|{workload.locality!r}|{workload.growth_factor!r}"
        f"|{workload.seed!r}|None".encode()
    )
    return digest


def digest_item(digest: "hashlib._Hash", item: NetworkWorkload) -> None:
    """Feed one item's JSON form (:meth:`NetworkWorkload.to_jsonable`:
    network, LLPD, traffic matrices) to ``digest``."""
    payload = item.to_jsonable()
    digest.update(payload["network"].encode())
    digest.update(f"|{payload['llpd']!r}".encode())
    for text in payload["matrices"]:
        digest.update(b"|T|")
        digest.update(text.encode())


def scheme_file_name(scheme: str) -> str:
    """Filesystem-safe stream file name for a scheme key.

    Scheme keys like ``LDR@h=0.11`` keep their punctuation; anything the
    filesystem might object to becomes ``_``, plus a short hash of the
    original key so that two keys which sanitize identically (``a/b`` vs
    ``a_b``) still get distinct streams — without the hash they would
    silently clobber each other's results on every alternating run.
    """
    if not scheme:
        raise ValueError("scheme key must be non-empty")
    sanitized = re.sub(r"[^A-Za-z0-9._@=+-]", "_", scheme)
    if sanitized != scheme:
        tag = hashlib.sha256(scheme.encode()).hexdigest()[:8]
        sanitized = f"{sanitized}-{tag}"
    return sanitized + ".jsonl"


# ----------------------------------------------------------------------
# Record conversion
# ----------------------------------------------------------------------
def _result_to_record(result: "NetworkResult") -> dict:
    return {
        "kind": "result",
        "index": result.index,
        "network_id": result.network_id,
        "seconds": result.seconds,
        "outcomes": [asdict(outcome) for outcome in result.outcomes],
    }


def _result_from_record(record: dict) -> "NetworkResult":
    from repro.experiments.engine import NetworkResult

    index = record["index"]
    if not isinstance(index, int):
        raise ValueError(f"non-integer result index {index!r}")
    seconds = record["seconds"]
    if not isinstance(seconds, (int, float)):
        raise ValueError(f"non-numeric result seconds {seconds!r}")
    # Other keys are ignored, so records that also carry
    # ``network_name``, ``paths_preloaded`` or ``network_signature`` load.
    return NetworkResult(
        index=index,
        network_id=record["network_id"],
        outcomes=[SchemeOutcome(**o) for o in record["outcomes"]],
        seconds=seconds,
    )


def _header_record(signature: str, scheme: str, n_networks: int) -> dict:
    return {
        "kind": "header",
        "format": STORE_FORMAT,
        "signature": signature,
        "scheme": scheme,
        "n_networks": n_networks,
    }


def _header_matches(header: dict, signature: str, scheme: str) -> bool:
    return (
        header.get("format") == STORE_FORMAT
        and header.get("signature") == signature
        and header.get("scheme") == scheme
    )


def _scan_stream(path: str) -> Tuple[Optional[dict], Dict[int, "NetworkResult"], int]:
    """Parse a stream file: (header, results by index, valid byte length).

    Reads the lines :func:`repro.durable.scan_jsonl` yields and also stops
    at the first record that is not well formed.  ``valid`` is the byte
    offset just past the last good line, which is where a resuming
    writer truncates before appending.

    Returns ``header=None`` when the first line is not a header record
    (empty, corrupt, or foreign file).
    """
    header: Optional[dict] = None
    results: Dict[int, "NetworkResult"] = {}
    valid = 0
    for record, end in scan_jsonl(path):
        if header is None:
            if record.get("kind") != "header":
                break
            header = record
        elif record.get("kind") == "result":
            try:
                parsed = _result_from_record(record)
            except (KeyError, TypeError, ValueError):
                break
            results[parsed.index] = parsed
        # Records of unknown kind are skipped, not fatal: a newer writer
        # may add annotations an older reader can safely ignore.
        valid = end
    if header is None:
        return None, {}, 0
    return header, results, valid


def _adoptable(
    path: str, signature: str, scheme: str
) -> Optional[Tuple[Dict[int, "NetworkResult"], int]]:
    """``(results by index, valid byte length)`` a resuming writer
    adopts; ``None`` (the stream counts as empty) when it is missing,
    unreadable, headerless or keyed differently."""
    try:
        header, results, valid = _scan_stream(path)
    except OSError:  # missing or unreadable
        return None
    if header is None or not _header_matches(header, signature, scheme):
        return None
    return results, valid


class StoreWriter:
    """Appender for one (signature, scheme) stream.

    Opening with ``resume=True`` adopts what :func:`_adoptable` accepts:
    its results are exposed as :attr:`stored` and any torn trailing line
    is truncated away before appending continues.  Anything else starts
    the stream fresh (atomically, so a concurrent reader never sees a
    header-less file).
    """

    def __init__(
        self,
        path: "os.PathLike[str] | str",
        signature: str,
        scheme: str,
        n_networks: int,
        resume: bool = True,
    ) -> None:
        self._path = os.fspath(path)
        self.stored: Dict[int, "NetworkResult"] = {}
        os.makedirs(os.path.dirname(self._path) or ".", exist_ok=True)
        adopted = _adoptable(self._path, signature, scheme) if resume else None
        if adopted is not None:
            self.stored, valid = adopted
            if valid < os.path.getsize(self._path):
                with open(self._path, "r+b") as handle:
                    handle.truncate(valid)
        else:
            write_atomic(
                self._path,
                json_line(_header_record(signature, scheme, n_networks)),
            )
        self._handle = open(self._path, "a", encoding="utf-8")

    def append(self, result: "NetworkResult") -> None:
        """Append one completed network's result as a single flushed line."""
        recorder = telemetry.recorder()
        with recorder.span("store_append"):
            self._handle.write(json_line(_result_to_record(result)))
            self._handle.flush()
        if recorder.enabled:
            recorder.counter("store.records_appended")

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MultiStreamWriter:
    """Batched appender over the several streams of one plan run.

    A plan (:mod:`repro.experiments.plan`) writes to one stream per
    (scheme, sweep point) in a single engine pass; this writer holds one
    :class:`StoreWriter` per plan stream key so each stream resumes
    independently — a plan killed mid-run re-opens every stream and each
    one serves exactly the results it already holds.

    Opening two plan streams onto the same underlying file — same
    signature and a scheme key that sanitizes to the same file name —
    raises :class:`StoreError` immediately: two appenders interleaving
    records into one stream would corrupt the resume bookkeeping, and a
    plan that declares such streams is malformed.
    """

    def __init__(self, store: "ResultStore", resume: bool = True) -> None:
        self._store = store
        self._resume = resume
        self._writers: Dict[object, StoreWriter] = {}
        self._files: Dict[Tuple[str, str], object] = {}

    def open(
        self, key: object, signature: str, scheme: str, n_networks: int
    ) -> Dict[int, "NetworkResult"]:
        """Open (or adopt) one stream; returns its already-stored results."""
        if key in self._writers:
            raise StoreError(f"plan stream {key!r} opened twice")
        ident = (signature, scheme_file_name(scheme))
        clash = self._files.get(ident)
        if clash is not None:
            raise StoreError(
                f"plan streams {clash!r} and {key!r} both write "
                f"{signature}/{ident[1]}; scheme stream names must be "
                f"unique per workload"
            )
        writer = self._store.open_writer(
            signature, scheme, n_networks=n_networks, resume=self._resume
        )
        self._writers[key] = writer
        self._files[ident] = key
        return writer.stored

    def append(self, key: object, result: "NetworkResult") -> None:
        """Append one completed network's result to its stream."""
        self._writers[key].append(result)

    def close(self) -> None:
        """Close every stream, even if individual closes fail."""
        errors = []
        for writer in self._writers.values():
            try:
                writer.close()
            except OSError as exc:  # pragma: no cover - close rarely fails
                errors.append(exc)
        self._writers.clear()
        self._files.clear()
        if errors:
            raise errors[0]


class ResultStore:
    """A directory of result streams, keyed by (signature, scheme)."""

    def __init__(self, root: "os.PathLike[str] | str") -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Lifecycle tooling (the `store ls` / `store gc` CLI)
    # ------------------------------------------------------------------
    def list_streams(self) -> List[dict]:
        """One record per stream: signature, scheme, result count, size.

        Headerless or torn streams are reported with ``scheme=None`` and
        whatever results parsed before the corruption — visibility for
        ``store ls``, never an exception, since listing must work on the
        messes ``store gc`` exists to clean up.

        ``seconds_total`` / ``seconds_mean`` sum the stream's stored
        evaluation times in index order (``None`` when no result
        parsed) — what ``store ls --timings`` prints.
        """
        records: List[dict] = []
        if not self.root.is_dir():
            return records
        for stream in sorted(self.root.glob("*/*.jsonl")):
            try:
                header, results, _ = _scan_stream(os.fspath(stream))
            except OSError:
                header, results = None, {}
            stat = stream.stat()
            total = sum(results[index].seconds for index in sorted(results))
            records.append(
                {
                    "signature": stream.parent.name,
                    "scheme": None if header is None else header.get("scheme"),
                    "n_results": len(results),
                    "n_networks": (
                        None if header is None else header.get("n_networks")
                    ),
                    "bytes": stat.st_size,
                    "mtime": stat.st_mtime,
                    "path": os.fspath(stream),
                    "seconds_total": total if results else None,
                    "seconds_mean": total / len(results) if results else None,
                }
            )
        return records

    def gc(
        self,
        max_age_s: Optional[float] = None,
        keep_signatures: Optional[set] = None,
        now: Optional[float] = None,  # analysis: allow[R402] tests age directories on a fixed clock
    ) -> List[str]:
        """Prune whole workload-signature directories; returns removed dirs.

        A directory in ``keep_signatures`` is never pruned — the
        allow-list is absolute protection, including from the age bound.
        Any other directory is removed when an allow-list is given at all,
        or when it is older than ``max_age_s`` (age = newest mtime of any
        file inside, so one live stream keeps its siblings).  With neither
        criterion enabled this removes nothing — a no-op gc must be
        explicit, not destructive.
        """
        import shutil
        import time as _time

        if max_age_s is None and keep_signatures is None:
            return []
        if now is None:
            now = _time.time()  # analysis: allow[D102] — gc ages by wall clock
        removed: List[str] = []
        if not self.root.is_dir():
            return removed
        for directory in sorted(p for p in self.root.iterdir() if p.is_dir()):
            signature = directory.name
            if keep_signatures is not None and signature in keep_signatures:
                continue
            prune = keep_signatures is not None
            if not prune and max_age_s is not None:
                mtimes = [f.stat().st_mtime for f in directory.glob("*")]
                newest = max(mtimes, default=directory.stat().st_mtime)
                if now - newest > max_age_s:
                    prune = True
            if prune:
                shutil.rmtree(directory)
                removed.append(os.fspath(directory))
        return removed

    def stream_path(self, signature: str, scheme: str) -> Path:
        return self.root / signature / scheme_file_name(scheme)

    def open_writer(
        self,
        signature: str,
        scheme: str,
        n_networks: int,
        resume: bool = True,
    ) -> StoreWriter:
        return StoreWriter(
            self.stream_path(signature, scheme),
            signature,
            scheme,
            n_networks,
            resume=resume,
        )

    def resumable_results(
        self, signature: str, scheme: str
    ) -> Dict[int, "NetworkResult"]:
        """The results a resuming writer would adopt for a key
        (:func:`_adoptable`); ``{}`` when the stream counts as empty."""
        adopted = _adoptable(
            os.fspath(self.stream_path(signature, scheme)), signature, scheme
        )
        return {} if adopted is None else adopted[0]

    def load_results(
        self, signature: str, scheme: str
    ) -> Dict[int, "NetworkResult"]:
        """Stored results for a key, strictly validated.

        Returns ``{}`` when the stream does not exist.  Raises
        :class:`StoreMismatchError` when a file is present but its header
        is missing or names a different key than it was looked up under —
        such results must never be served.
        """
        path = self.stream_path(signature, scheme)
        if not path.exists():
            return {}
        header, results, _ = _scan_stream(os.fspath(path))
        if header is None:
            raise StoreMismatchError(f"{path}: no valid header record")
        if not _header_matches(header, signature, scheme):
            raise StoreMismatchError(
                f"{path}: header names "
                f"(format={header.get('format')!r}, "
                f"signature={header.get('signature')!r}, "
                f"scheme={header.get('scheme')!r}), "
                f"expected (format={STORE_FORMAT!r}, "
                f"signature={signature!r}, scheme={scheme!r})"
            )
        return results
