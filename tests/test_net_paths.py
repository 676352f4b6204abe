"""Unit tests for shortest paths, Yen's KSP and the path cache."""

import json
import os

import pytest

from repro.durable import read_cache, sweep_cache_dir
from repro.net.graph import Network, Node
from repro.net.mutate import without_failures
from repro.net.paths import (
    KspCache,
    KspCacheMismatchError,
    NoPathError,
    all_pairs_shortest_paths,
    is_simple,
    k_shortest_paths,
    network_signature,
    path_bottleneck_bps,
    path_delay_s,
    path_links,
    shortest_path,
    shortest_path_delays,
)
from repro.net.units import Gbps, ms


def read_ksp_file(path, network):
    """A dumped cache read back the way the engine reads it."""
    return read_cache(path, lambda text: KspCache.load(json.loads(text), network))


class TestPathHelpers:
    def test_path_links(self):
        assert path_links(("a", "b", "c")) == [("a", "b"), ("b", "c")]

    def test_path_links_single_node(self):
        assert path_links(("a",)) == []

    def test_path_delay(self, triangle):
        assert path_delay_s(triangle, ("a", "b", "c")) == pytest.approx(ms(2))

    def test_path_bottleneck(self, diamond):
        assert path_bottleneck_bps(diamond, ("s", "x", "t")) == Gbps(10)
        assert path_bottleneck_bps(diamond, ("s", "y", "t")) == Gbps(40)

    def test_bottleneck_of_empty_path_rejected(self, triangle):
        with pytest.raises(ValueError):
            path_bottleneck_bps(triangle, ("a",))

    def test_is_simple(self):
        assert is_simple(("a", "b", "c"))
        assert not is_simple(("a", "b", "a"))


class TestShortestPath:
    def test_direct_link_wins(self, triangle):
        assert shortest_path(triangle, "a", "b") == ("a", "b")

    def test_follows_lowest_delay(self, diamond):
        assert shortest_path(diamond, "s", "t") == ("s", "x", "t")

    def test_same_endpoints_rejected(self, triangle):
        with pytest.raises(ValueError):
            shortest_path(triangle, "a", "a")

    def test_unknown_node_rejected(self, triangle):
        with pytest.raises(KeyError):
            shortest_path(triangle, "zz", "a")

    def test_disconnected_raises(self):
        net = Network("disc")
        net.add_node(Node("a"))
        net.add_node(Node("b"))
        with pytest.raises(NoPathError):
            shortest_path(net, "a", "b")

    def test_excluded_link_forces_detour(self, triangle):
        path = shortest_path(triangle, "a", "b", excluded_links={("a", "b")})
        assert path == ("a", "c", "b")

    def test_excluded_node_forces_detour(self, diamond):
        path = shortest_path(diamond, "s", "t", excluded_nodes={"x"})
        assert path == ("s", "y", "t")

    def test_delays_from_source(self, line4):
        delays = shortest_path_delays(line4, "n0")
        assert delays["n1"] == pytest.approx(ms(1))
        assert delays["n3"] == pytest.approx(ms(3))
        assert "n0" not in delays

    def test_all_pairs(self, triangle):
        paths = all_pairs_shortest_paths(triangle)
        assert len(paths) == 6
        assert paths[("a", "c")] == ("a", "c")


class TestYenKsp:
    def test_yields_in_delay_order(self, diamond):
        paths = list(k_shortest_paths(diamond, "s", "t"))
        delays = [path_delay_s(diamond, p) for p in paths]
        assert delays == sorted(delays)
        assert paths[0] == ("s", "x", "t")

    def test_exhausts_simple_paths(self, square):
        # a->c in a square: exactly two simple paths.
        paths = list(k_shortest_paths(square, "a", "c"))
        assert len(paths) == 2
        assert set(paths) == {("a", "b", "c"), ("a", "d", "c")}

    def test_all_paths_simple(self, gts):
        paths = []
        generator = k_shortest_paths(gts, "n0-0", "n3-5")
        for _ in range(12):
            paths.append(next(generator))
        assert all(is_simple(p) for p in paths)
        assert len(set(paths)) == len(paths)

    def test_disconnected_yields_nothing(self):
        net = Network("disc")
        net.add_node(Node("a"))
        net.add_node(Node("b"))
        assert list(k_shortest_paths(net, "a", "b")) == []

    def test_triangle_paths(self, triangle):
        paths = list(k_shortest_paths(triangle, "a", "b"))
        assert paths == [("a", "b"), ("a", "c", "b")]


class TestKspCache:
    def test_get_returns_k_paths(self, gts):
        cache = KspCache(gts)
        paths = cache.get("n0-0", "n2-3", 4)
        assert len(paths) == 4
        delays = [path_delay_s(gts, p) for p in paths]
        assert delays == sorted(delays)

    def test_incremental_extension_consistent(self, gts):
        cache = KspCache(gts)
        first_two = cache.get("n0-0", "n2-3", 2)
        five = cache.get("n0-0", "n2-3", 5)
        assert five[:2] == first_two

    def test_matches_uncached_yen(self, square):
        cache = KspCache(square)
        assert cache.get("a", "c", 5) == list(k_shortest_paths(square, "a", "c"))

    def test_exhaustion_returns_fewer(self, square):
        cache = KspCache(square)
        assert len(cache.get("a", "c", 99)) == 2

    def test_shortest(self, diamond):
        cache = KspCache(diamond)
        assert cache.shortest("s", "t") == ("s", "x", "t")

    def test_shortest_raises_when_disconnected(self):
        net = Network("disc")
        net.add_node(Node("a"))
        net.add_node(Node("b"))
        cache = KspCache(net)
        with pytest.raises(NoPathError):
            cache.shortest("a", "b")

    def test_invalid_k_rejected(self, triangle):
        cache = KspCache(triangle)
        with pytest.raises(ValueError):
            cache.get("a", "b", 0)

    def test_count_cached(self, triangle):
        cache = KspCache(triangle)
        assert cache.total_cached() == 0
        cache.get("a", "b", 2)
        assert cache.total_cached() == 2

    def test_failed_lookup_leaves_no_phantom_pair(self, triangle):
        cache = KspCache(triangle)
        for src, dst, error in (
            ("nope", "a", KeyError),
            ("a", "a", ValueError),
        ):
            for _ in range(2):  # the second call must fail the same way
                with pytest.raises(error):
                    cache.get(src, dst, 1)
            assert cache.dump()["pairs"] == []
            assert cache.dump()["nodes"] == []
            assert cache.total_cached() == 0
        assert cache.get("a", "b", 2) == KspCache(triangle).get("a", "b", 2)
        assert [(e["src"], e["dst"]) for e in cache.dump()["pairs"]] == [(0, 1)]


class TestNetworkSignature:
    def test_stable_across_copies(self, gts):
        assert network_signature(gts) == network_signature(gts.copy())

    def test_capacity_change_changes_signature(self, triangle):
        assert network_signature(triangle) != network_signature(
            triangle.with_capacity_factor(2.0)
        )

    def test_removed_link_changes_signature(self, triangle):
        assert network_signature(triangle) != network_signature(
            without_failures(triangle, [("a", "b")])
        )


class TestKspCachePersistence:
    def test_dump_load_round_trip(self, gts):
        cache = KspCache(gts)
        expected = cache.get("n0-0", "n2-3", 4)
        restored = KspCache.load(cache.dump(), gts)
        assert restored.total_cached() == 4
        assert restored.get("n0-0", "n2-3", 4) == expected

    def test_loaded_cache_extends_beyond_dumped_paths(self, gts):
        cache = KspCache(gts)
        cache.get("n0-0", "n2-3", 2)
        restored = KspCache.load(cache.dump(), gts)
        # Asking for more than was persisted resumes Yen deterministically.
        assert restored.get("n0-0", "n2-3", 6) == KspCache(gts).get(
            "n0-0", "n2-3", 6
        )

    def test_exhaustion_survives_round_trip(self, square):
        cache = KspCache(square)
        assert len(cache.get("a", "c", 99)) == 2
        restored = KspCache.load(cache.dump(), square)
        assert len(restored.get("a", "c", 99)) == 2

    def test_mutated_network_rejected(self, triangle):
        payload = KspCache(triangle).dump()
        with pytest.raises(KspCacheMismatchError):
            KspCache.load(payload, triangle.with_capacity_factor(0.5))

    def test_malformed_payload_rejected(self, triangle):
        # Valid JSON, right format and signature, broken structure: must
        # hit the mismatch path, not leak a KeyError to the caller.
        payload = KspCache(triangle).dump()
        payload["pairs"] = [{"src": "a"}]
        with pytest.raises(KspCacheMismatchError):
            KspCache.load(payload, triangle)

    def test_unknown_format_rejected(self, triangle):
        payload = KspCache(triangle).dump()
        payload["format"] = 999
        with pytest.raises(KspCacheMismatchError):
            KspCache.load(payload, triangle)

    def test_file_round_trip(self, diamond, tmp_path):
        cache = KspCache(diamond)
        cache.get("s", "t", 2)
        path = tmp_path / "cache.json"
        cache.dump_file(path)
        restored = read_ksp_file(path, diamond)
        assert restored.get("s", "t", 2) == cache.get("s", "t", 2)

    def test_corrupt_file_rejected(self, triangle, tmp_path):
        path = tmp_path / "cache.json"
        for data in (b"{definitely not json", b"[1, 2]", b"\xff"):
            path.write_bytes(data)
            assert read_ksp_file(path, triangle) is None
        assert read_ksp_file(tmp_path / "absent.json", triangle) is None


class TestDumpBounds:
    @staticmethod
    def pair_entry(payload, src, dst):
        """The format-2 payload entry for a pair, resolved via the name table."""
        names = payload["nodes"]
        (entry,) = [
            e
            for e in payload["pairs"]
            if (names[e["src"]], names[e["dst"]]) == (src, dst)
        ]
        return entry

    def test_unbounded_dump_keeps_exhaustion(self, square):
        cache = KspCache(square)
        cache.get("a", "c", 99)
        payload = cache.dump()
        assert self.pair_entry(payload, "a", "c")["exhausted"] is True
        # A pair the cache has not exhausted is dumped as such.
        partial = KspCache(square)
        partial.get("a", "c", 1)
        payload = partial.dump()
        assert self.pair_entry(payload, "a", "c")["exhausted"] is False

    def test_dump_paths_are_integer_indexed(self, square):
        cache = KspCache(square)
        expected = cache.get("a", "c", 99)
        payload = cache.dump()
        assert payload["format"] == 2
        entry = self.pair_entry(payload, "a", "c")
        names = payload["nodes"]
        assert names == sorted(names)
        for path in entry["paths"]:
            assert all(isinstance(i, int) for i in path)
        decoded = [tuple(names[i] for i in path) for path in entry["paths"]]
        assert decoded == expected

    def test_format1_file_rejected_and_regenerated(self, square, tmp_path):
        cache = KspCache(square)
        expected = cache.get("a", "c", 99)
        legacy = {
            "format": 1,
            "signature": network_signature(square),
            "pairs": [
                {
                    "src": "a",
                    "dst": "c",
                    "paths": [list(path) for path in expected],
                    "exhausted": True,
                }
            ],
        }
        with pytest.raises(KspCacheMismatchError, match="format 1"):
            KspCache.load(legacy, square)
        # A persisted file is only a cache: the consumer starts cold,
        # recomputes the same paths and rewrites the file as format 2.
        path = tmp_path / "ksp.json"
        path.write_text(json.dumps(legacy))
        assert read_ksp_file(path, square) is None
        fresh = KspCache(square)
        assert fresh.get("a", "c", 99) == expected
        fresh.dump_file(path)
        assert json.loads(path.read_text())["format"] == 2
        restored = read_ksp_file(path, square)
        assert restored.get("a", "c", 99) == expected

    @pytest.mark.parametrize("bad", [-1, 99, 1.5, "0"])
    @pytest.mark.parametrize("where", ["src", "dst", "path"])
    def test_bad_node_index_rejected(self, square, where, bad):
        cache = KspCache(square)
        cache.get("a", "c", 2)
        payload = cache.dump()
        entry = payload["pairs"][0]
        if where == "path":
            entry["paths"][0][1] = bad
        else:
            entry[where] = bad
        with pytest.raises(KspCacheMismatchError, match="malformed"):
            KspCache.load(payload, square)


class TestSweepCacheDir:
    @staticmethod
    def fake_cache(directory, name, size, mtime):
        path = directory / f"ksp-{name}.json"
        path.write_bytes(b"x" * size)
        os.utime(path, (mtime, mtime))
        return path

    def test_keeps_recent_within_budget(self, tmp_path):
        old = self.fake_cache(tmp_path, "old", 100, 1_000)
        mid = self.fake_cache(tmp_path, "mid", 100, 2_000)
        new = self.fake_cache(tmp_path, "new", 100, 3_000)
        removed = sweep_cache_dir(tmp_path, max_bytes=250)
        assert removed == [str(old)]
        assert mid.exists() and new.exists() and not old.exists()

    def test_under_budget_removes_nothing(self, tmp_path):
        self.fake_cache(tmp_path, "a", 10, 1_000)
        assert sweep_cache_dir(tmp_path, max_bytes=1_000) == []

    def test_zero_budget_clears_everything(self, tmp_path):
        self.fake_cache(tmp_path, "a", 10, 1_000)
        self.fake_cache(tmp_path, "b", 10, 2_000)
        assert len(sweep_cache_dir(tmp_path, max_bytes=0)) == 2

    def test_ignores_foreign_files(self, tmp_path):
        keep = tmp_path / "notes.json"
        keep.write_text("{}")
        self.fake_cache(tmp_path, "a", 50, 1_000)
        sweep_cache_dir(tmp_path, max_bytes=0)
        assert keep.exists()

    def test_missing_directory_is_empty(self, tmp_path):
        assert sweep_cache_dir(tmp_path / "absent", max_bytes=0) == []

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            sweep_cache_dir(tmp_path, max_bytes=-1)
