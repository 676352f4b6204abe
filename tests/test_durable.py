"""Tests for the durable-file module: atomic writes, the torn-tail JSONL
reader both append-only artifacts share, and the cache-dir read and
sweep."""

import os
import stat

import numpy as np
import pytest

from repro import durable, telemetry
from repro.durable import cache_path, json_line, sweep_cache_dir, write_atomic
from repro.experiments.engine import NetworkResult
from repro.experiments.figures import _grow_network_cached
from repro.experiments.store import (
    ResultStore,
    _header_record,
    _result_to_record,
    _scan_stream,
)
from repro.net.io import to_json
from repro.net.paths import KspCache
from repro.net.zoo import ring_network


def mode_of(path):
    return stat.S_IMODE(os.stat(path).st_mode)


class TestWriteAtomic:
    @pytest.mark.parametrize("umask", [0o022, 0o027])
    def test_dumped_ksp_cache_has_the_umask_mode(self, tmp_path, umask):
        # A temp file from tempfile.mkstemp is 0600 whatever the umask,
        # so a shared --cache-dir was unreadable to everyone else.
        network = ring_network(5, np.random.default_rng(1))
        previous = os.umask(umask)
        try:
            KspCache(network).dump_file(tmp_path / "ksp.json")
            with open(tmp_path / "plain.json", "w"):
                pass
        finally:
            os.umask(previous)
        assert mode_of(tmp_path / "ksp.json") == mode_of(tmp_path / "plain.json")

    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.json"
        path.write_text("old")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(durable.os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk full"):
            write_atomic(path, "new")
        assert path.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json"]


# ----------------------------------------------------------------------
# One torn-tail table, run against the store and the trace reader
# ----------------------------------------------------------------------
#: name -> (file layout from (head line, three data lines), records kept)
TORN_TAILS = {
    "unterminated last line": (
        lambda head, lines: head + lines[0] + lines[1] + lines[2][:-9], 2
    ),
    "non-UTF-8 line": (
        lambda head, lines: head + lines[0] + lines[1] + b"\xff\xfe\n" + lines[2],
        2,
    ),
    "JSON array line": (
        lambda head, lines: head + lines[0] + lines[1] + b"[1, 2]\n" + lines[2],
        2,
    ),
    "unknown kind mid-file": (
        lambda head, lines: (
            head + lines[0] + lines[1] + b'{"kind":"note"}\n' + lines[2]
        ),
        3,
    ),
    "empty file": (lambda head, lines: b"", 0),
}


def _store_lines():
    head = json_line(_header_record("sig", "SP", 3)).encode()
    lines = [
        json_line(
            _result_to_record(
                NetworkResult(
                    index=i,
                    network_name=f"net-{i}",
                    network_id=f"net-{i}",
                    outcomes=[],
                    seconds=0.5,
                )
            )
        ).encode()
        for i in range(3)
    ]
    return head, lines


def _trace_lines():
    head = json_line(
        {"kind": "trace", "trace": "t", "run": "r", "pid": 1, "wall": 1.0}
    ).encode()
    lines = [
        json_line(
            {
                "kind": "span", "trace": "t", "run": "r", "pid": 1,
                "id": f"1:{i}", "parent": None, "name": f"s{i}",
                "t0": float(i), "t1": float(i) + 0.5,
            }
        ).encode()
        for i in range(3)
    ]
    return head, lines


@pytest.mark.parametrize("case", sorted(TORN_TAILS))
def test_store_and_trace_cut_at_the_same_record(tmp_path, case):
    layout, kept = TORN_TAILS[case]

    head, lines = _store_lines()
    data = layout(head, lines)
    store = ResultStore(tmp_path / "store")
    path = store.stream_path("sig", "SP")
    path.parent.mkdir(parents=True)
    path.write_bytes(data)
    valid = data.index(lines[kept - 1]) + len(lines[kept - 1]) if kept else 0
    assert _scan_stream(os.fspath(path))[2] == valid
    assert sorted(store.resumable_results("sig", "SP")) == list(range(kept))
    if data:
        assert sorted(store.load_results("sig", "SP")) == list(range(kept))
        # A resuming writer truncates exactly there before appending.
        store.open_writer("sig", "SP", 3).close()
        assert path.read_bytes() == data[:valid]

    head, lines = _trace_lines()
    shard = tmp_path / "trace" / "t" / "spans-r.jsonl"
    shard.parent.mkdir(parents=True)
    shard.write_bytes(layout(head, lines))
    trace = telemetry.load_trace(tmp_path / "trace", "t")
    assert [span.name for span in trace.spans] == [f"s{i}" for i in range(kept)]


# ----------------------------------------------------------------------
# Cache files: one name rule, one read, one LRU sweep
# ----------------------------------------------------------------------
class TestCacheDir:
    def test_cache_max_bytes_bounds_grown_topologies(self, tmp_path, capsys):
        # The sweep used to know only ksp-*.json: fig20's grown-*.json
        # files stayed behind whatever the budget.
        from repro.experiments.__main__ import main

        assert main(
            ["fig20", "--networks", "3", "--tms", "1",
             "--cache-dir", str(tmp_path), "--cache-max-bytes", "0"]
        ) == 0
        assert "evicted" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_recently_read_grown_file_outlives_older_ksp_file(self, tmp_path):
        network = ring_network(6, np.random.default_rng(1))
        grow = dict(
            growth_fraction=0.2,
            max_candidates=2,
            cache_dir=str(tmp_path),
        )
        grown = _grow_network_cached(network, **grow)
        (grown_path,) = tmp_path.glob("grown-*.json")
        ksp_path = cache_path(tmp_path, "ksp", "older")
        KspCache(network).dump_file(ksp_path)
        # The grown file was written first; the KSP file after it.
        os.utime(grown_path, (1_000, 1_000))
        os.utime(ksp_path, (2_000, 2_000))
        hit = _grow_network_cached(network, **grow)
        assert to_json(hit) == to_json(grown)
        removed = sweep_cache_dir(tmp_path, grown_path.stat().st_size)
        assert removed == [ksp_path]
        assert grown_path.exists()
