"""How every file the package persists is written and read back.

Store streams and trace shards are append-only JSONL: a kill can tear at
most the trailing line, so :func:`scan_jsonl` reads complete lines up to
the first one that is not a JSON object.  Whole files (KSP caches, grown
topologies, store headers, shard manifests, saved networks) go through
:func:`write_atomic`, so a reader sees the old file or the new one, never
half of one.  The ``ksp-*.json`` and ``grown-*.json`` files under a
``--cache-dir`` share one name rule, one read and one LRU sweep.
Standard library only, so every layer, :mod:`repro.telemetry` included,
can import it.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Tuple, TypeVar,
)

T = TypeVar("T")

#: File-name prefixes of the cache files :func:`sweep_cache_dir` bounds.
CACHE_KINDS = ("ksp", "grown")


def write_atomic(path: "os.PathLike[str] | str", text: str) -> None:
    """Replace ``path`` with ``text`` in one rename.

    The temp file gets a fresh name in the target directory and mode
    ``0o666``, which the kernel masks with the umask exactly as for
    ``open(path, "w")``; it is removed if anything fails.
    """
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def json_line(record: Dict[str, Any]) -> str:
    """One compact JSONL record, newline included."""
    return json.dumps(record, separators=(",", ":")) + "\n"


def scan_jsonl(
    path: "os.PathLike[str] | str",
) -> Iterator[Tuple[Dict[str, Any], int]]:
    """``(record, offset just past its line)`` for each complete line,
    stopping at the first that is unterminated or not a JSON object."""
    with open(path, "rb") as handle:
        data = handle.read()
    pos = 0
    while (newline := data.find(b"\n", pos)) != -1:
        try:
            record = json.loads(data[pos:newline].decode("utf-8"))
        except ValueError:  # includes UnicodeDecodeError
            return
        if not isinstance(record, dict):
            return
        pos = newline + 1
        yield record, pos


def cache_path(directory: "os.PathLike[str] | str", kind: str, key: str) -> str:
    """Where a ``kind`` (one of :data:`CACHE_KINDS`) cache file lives."""
    return os.path.join(os.fspath(directory), f"{kind}-{key}.json")


def read_cache(
    path: "os.PathLike[str] | str", parse: Callable[[str], T]
) -> Optional[T]:
    """``parse`` of a cache file's text, or ``None`` when it is missing,
    unreadable or stale (``parse`` raised).  A hit touches the file's
    mtime, so :func:`sweep_cache_dir` evicts by last use."""
    try:
        with open(path, encoding="utf-8") as handle:
            value = parse(handle.read())
    except (OSError, ValueError, KeyError, TypeError):
        return None
    with contextlib.suppress(OSError):  # a read-only shared cache still hits
        os.utime(path)
    return value


def sweep_cache_dir(
    directory: "os.PathLike[str] | str", max_bytes: int
) -> List[str]:
    """Delete the least recently used cache files beyond ``max_bytes``;
    returns the deleted paths.  A file swept by a concurrent run is
    simply recomputed on its next use."""
    if max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    entries: List[Tuple[float, int, str]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        kind, _, rest = name.partition("-")
        if kind in CACHE_KINDS and rest.endswith(".json"):
            path = os.path.join(os.fspath(directory), name)
            try:
                status = os.stat(path)
            except OSError:
                continue  # concurrently removed
            entries.append((status.st_mtime, status.st_size, path))
    entries.sort(reverse=True)  # most recently used first
    removed: List[str] = []
    total = 0
    for _, size, path in entries:
        total += size
        if total > max_bytes:
            try:
                os.unlink(path)
            except OSError:
                continue
            removed.append(path)
    return removed
