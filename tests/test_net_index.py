"""Parity and behavior tests for the integer-indexed sparse graph core.

The indexed core (:mod:`repro.net.index`) must be *bit-identical* to the
legacy name-keyed algorithms it replaced — same paths, same tie-breaks,
same float sums, same dict insertion order, same exceptions.  The legacy
implementations are kept in ``tests/oracles.py`` as ``legacy_*`` exactly
so these tests can use them as a parity oracle.
"""

import itertools
import math
import pickle
import random
from array import array

import pytest

from repro import telemetry
from repro.net.graph import Link, Network, Node
from repro.net.index import GraphIndex, LocalityPruner, graph_index
from repro.net.ingest import synthesize_internet_like
from repro.net.mutate import without_failures
from repro.net.paths import (
    KspCache,
    NoPathError,
    all_pairs_shortest_paths,
    k_shortest_paths,
    path_delay_s,
    shortest_path,
    shortest_path_delays,
)
from repro.net.zoo import generate_zoo
from repro.net.units import Gbps, ms
from tests.oracles import (
    legacy_all_pairs_shortest_paths,
    legacy_k_shortest_paths,
    legacy_shortest_path,
    legacy_shortest_path_delays,
)


def parity_networks():
    """Zoo ensemble plus seeded Internet-like graphs: the parity corpus."""
    networks = generate_zoo(n_networks=12, seed=5, include_named=True)
    networks.append(synthesize_internet_like(120, seed=2))
    networks.append(synthesize_internet_like(250, seed=9))
    return networks


@pytest.fixture(scope="module")
def corpus():
    return parity_networks()


class TestIndexStructure:
    def test_ids_follow_sorted_name_order(self, gts):
        index = GraphIndex(gts)
        assert index.names == sorted(gts.node_names)
        for i, name in enumerate(index.names):
            assert index.node_id(name) == i
            assert index.node_name(i) == name

    def test_csr_shape(self, gts):
        index = GraphIndex(gts)
        assert index.num_nodes == gts.num_nodes
        assert index.num_edges == gts.num_links
        csr = index.csr()
        assert len(csr.indptr) == index.num_nodes + 1
        assert len(csr.heads) == index.num_edges
        assert len(index.delay_array) == index.num_edges
        assert len(index.capacity_array) == index.num_edges

    def test_csr_rows_preserve_adjacency_order(self, gts):
        # Per-node neighbor runs must keep the Network's adjacency
        # insertion order — Yen's exclusion masks depend on edge position.
        index = GraphIndex(gts)
        csr = index.csr()
        for name in index.names:
            u = index.node_id(name)
            start, end = csr.indptr[u], csr.indptr[u + 1]
            run = [index.node_name(v) for v in csr.heads[start:end]]
            assert run == gts.successors(name)


class TestPerCallWeights:
    def test_delays_as_weights_change_nothing(self, gts):
        index = GraphIndex(gts)
        for src in range(0, index.num_nodes, 7):
            assert index.dijkstra_ids(
                src, weights=list(index.delay_array)
            ) == index.dijkstra_ids(src)

    def test_weights_replace_delays(self, diamond):
        # Pricing the fast route's s->x link above the slow route's delay
        # turns the search onto the slow route.
        index = GraphIndex(diamond)
        s, t = index.node_id("s"), index.node_id("t")
        weights = list(index.delay_array)
        weights[index.edge_position(s, index.node_id("x"))] = 1.0
        dist, parent, _ = index.dijkstra_ids(s, t, weights=weights)
        path = index.to_names(index.extract_ids(parent, s, t))
        assert path == ("s", "y", "t")
        assert dist[t] == pytest.approx(0.010)
        # The index's own delays are untouched.
        assert index.shortest_path("s", "t") == ("s", "x", "t")


class TestShortestPathParity:
    def test_paths_identical_across_corpus(self, corpus):
        for network in corpus:
            assert all_pairs_shortest_paths(
                network
            ) == legacy_all_pairs_shortest_paths(network)

    def test_all_pairs_dict_order_identical(self, corpus):
        for network in corpus[:4]:
            fast = list(all_pairs_shortest_paths(network))
            slow = list(legacy_all_pairs_shortest_paths(network))
            assert fast == slow

    def test_delays_identical_including_order(self, corpus):
        for network in corpus:
            for src in sorted(network.node_names)[:5]:
                fast = shortest_path_delays(network, src)
                slow = legacy_shortest_path_delays(network, src)
                assert fast == slow
                assert list(fast) == list(slow)

    def test_single_pair_matches_legacy(self, corpus):
        for network in corpus[:6]:
            names = sorted(network.node_names)
            for src, dst in itertools.islice(
                itertools.permutations(names, 2), 12
            ):
                assert shortest_path(network, src, dst) == legacy_shortest_path(
                    network, src, dst
                )

    def test_error_parity(self, triangle):
        for func in (shortest_path, legacy_shortest_path):
            with pytest.raises(ValueError):
                func(triangle, "a", "a")
            with pytest.raises(KeyError):
                func(triangle, "nope", "a")
            with pytest.raises(NoPathError):
                func(triangle, "a", "nope")

    def test_unreachable_destination_parity(self):
        net = Network("split")
        for name in ("a", "b", "c", "d"):
            net.add_node(Node(name))
        net.add_duplex_link("a", "b", Gbps(1), ms(1))
        net.add_duplex_link("c", "d", Gbps(1), ms(1))
        with pytest.raises(NoPathError):
            shortest_path(net, "a", "c")
        assert shortest_path_delays(net, "a") == legacy_shortest_path_delays(
            net, "a"
        )


class TestKspParity:
    def test_first_k_identical(self, corpus):
        for network in corpus:
            names = sorted(network.node_names)
            src, dst = names[0], names[-1]
            fast = list(itertools.islice(k_shortest_paths(network, src, dst), 8))
            slow = list(
                itertools.islice(legacy_k_shortest_paths(network, src, dst), 8)
            )
            assert fast == slow

    def test_exhaustion_identical(self, square):
        assert list(k_shortest_paths(square, "a", "c")) == list(
            legacy_k_shortest_paths(square, "a", "c")
        )

    def test_delays_non_decreasing(self, gts):
        names = sorted(gts.node_names)
        paths = list(
            itertools.islice(k_shortest_paths(gts, names[0], names[-1]), 10)
        )
        delays = [path_delay_s(gts, p) for p in paths]
        assert delays == sorted(delays)

    def test_generator_is_lazy_on_errors(self, triangle):
        # Errors must surface at first next(), not at call time — exactly
        # like the legacy generator.
        gen = k_shortest_paths(triangle, "nope", "a")
        with pytest.raises(KeyError):
            next(gen)
        gen = legacy_k_shortest_paths(triangle, "nope", "a")
        with pytest.raises(KeyError):
            next(gen)


DELAY_SETS = (
    (1.0,),
    (0.0, 1.0),
    (0.1, 0.2, 0.30000000000000004),
    (1e-9, 1.0, 1e9),
)


def random_directed_network(rng, delay_set):
    """A small tie-heavy directed graph: duplex and one-way links mixed,
    sparse enough that some targets cannot be reached."""
    n = rng.randint(4, 9)
    names = [f"n{i}" for i in range(n)]
    rng.shuffle(names)  # adjacency insertion order != sorted-name order
    net = Network("random-directed")
    for name in names:
        net.add_node(Node(name))
    for u, v in itertools.combinations(names, 2):
        roll = rng.random()
        if roll < 0.3:
            net.add_link(Link(u, v, Gbps(1), rng.choice(delay_set)))
            net.add_link(Link(v, u, Gbps(1), rng.choice(delay_set)))
        elif roll < 0.5:
            if rng.random() < 0.5:
                u, v = v, u
            net.add_link(Link(u, v, Gbps(1), rng.choice(delay_set)))
    return net


class TestGoalDirectedIdentity:
    """The bounded, Lawler-pruned Yen against the unbounded legacy oracle,
    where identity is hardest: ties, zero and mixed-magnitude delays,
    one-way links, unreachable targets, k to exhaustion."""

    def test_tie_heavy_directed_graphs_to_exhaustion(self):
        rng = random.Random(19)
        compared = unreachable = 0
        for trial in range(320):
            net = random_directed_network(rng, DELAY_SETS[trial % len(DELAY_SETS)])
            pairs = list(itertools.permutations(net.node_names, 2))
            for src, dst in rng.sample(pairs, min(6, len(pairs))):
                fast = list(itertools.islice(k_shortest_paths(net, src, dst), 40))
                slow = list(
                    itertools.islice(legacy_k_shortest_paths(net, src, dst), 40)
                )
                assert fast == slow, (trial, src, dst)
                compared += 1
                unreachable += not slow
        assert compared >= 1500
        assert unreachable >= 20  # the corpus really has dead-end targets

    def test_smoke_size_graph_matches_legacy(self):
        network = synthesize_internet_like(300, seed=11)
        names = sorted(network.node_names)
        rng = random.Random(3)
        for _ in range(30):
            src, dst = rng.sample(names, 2)
            fast = list(itertools.islice(k_shortest_paths(network, src, dst), 4))
            slow = list(
                itertools.islice(legacy_k_shortest_paths(network, src, dst), 4)
            )
            assert fast == slow, (src, dst)

    def test_bound_keeps_searches_local(self, tmp_path):
        # A count, not a timing: every search a cold cache runs is bounded
        # by delays_to, so on average it labels well under half the graph
        # (an unbounded Yen labels ~85 % of it per search).
        network = synthesize_internet_like(1000, seed=7)
        names = sorted(network.node_names)
        rng = random.Random(7)
        pairs = [tuple(rng.sample(names, 2)) for _ in range(30)]
        telemetry.configure(tmp_path)
        try:
            cache = KspCache(network)
            for src, dst in pairs:
                cache.get(src, dst, 4)
            telemetry.recorder().flush()
            counters = telemetry.load_trace(tmp_path).counters
        finally:
            telemetry.disable()
        assert counters["ksp.cache_miss"] == len(set(pairs))
        assert counters["ksp.searches"] >= 4 * len(set(pairs))
        mean_reached = counters["ksp.nodes_reached"] / counters["ksp.searches"]
        assert mean_reached <= 0.40 * network.num_nodes


class TestDelaysTo:
    def test_equals_legacy_sweep_on_reversed_network(self):
        rng = random.Random(5)
        for trial in range(40):
            net = random_directed_network(rng, DELAY_SETS[trial % len(DELAY_SETS)])
            flipped = Network("flipped")
            for name in net.node_names:
                flipped.add_node(Node(name))
            for link in net.links():
                flipped.add_link(link.reversed())
            index = graph_index(net)
            for target in net.node_names:
                t = index.node_id(target)
                h, next_hop = index.delays_to(t)
                expected = legacy_shortest_path_delays(flipped, target)
                assert h[t] == 0.0 and next_hop[t] == -1
                for name in net.node_names:
                    v = index.node_id(name)
                    if name == target:
                        continue
                    if name not in expected:
                        # cannot reach the target: infinite bound, no hop
                        assert h[v] == math.inf and next_hop[v] == -1
                        continue
                    assert h[v] == pytest.approx(expected[name], rel=1e-12, abs=0)
                    hop = index.node_name(next_hop[v])
                    assert net.has_link(name, hop)
                    assert h[v] == pytest.approx(
                        net.link(name, hop).delay_s + h[next_hop[v]],
                        rel=1e-12, abs=0,
                    )

    def test_memoized_per_target_and_dropped_on_mutation(self, gts):
        index = graph_index(gts)
        t = index.node_id(sorted(gts.node_names)[-1])
        first = index.delays_to(t)
        assert index.delays_to(t) is first
        assert index.delays_to(0) is not first
        # Re-adding a node is a mutation, even one that changes nothing.
        gts.add_node(gts.node(index.node_name(t)))
        rebuilt = graph_index(gts)
        assert rebuilt is not index
        assert rebuilt.delays_to(t) is not first


class TestSuspendedSearchRetention:
    def test_frame_keeps_only_index_owned_arrays(self):
        """A suspended Yen generator keeps its paths, not its searches:
        every node- or link-sized array in its frame is one the index
        owns (the CSR lists or the target's ``delays_to`` memo), never a
        search's ``dist``/``parent`` list or exclusion mask."""
        index = graph_index(synthesize_internet_like(400, seed=3))
        n = index.num_nodes
        shared = {id(part) for part in index.csr()}
        private = []
        for s, t in [(0, n - 1), (5, n // 2), (n // 3, 7)]:
            owned = shared | {id(part) for part in index.delays_to(t)}
            gen = index.k_shortest_ids(s, t)
            for _ in range(5):
                next(gen)
                private.extend(
                    (s, t, name)
                    for name, value in gen.gi_frame.f_locals.items()
                    if isinstance(value, (list, bytearray, array))
                    and len(value) >= n
                    and id(value) not in owned
                )
        assert private == []


class TestExclusionParity:
    def test_excluded_links_and_nodes(self, corpus):
        for network in corpus[:8]:
            names = sorted(network.node_names)
            src, dst = names[0], names[-1]
            index = graph_index(network)
            base = index.shortest_path(src, dst)
            # Exclude the first hop's link, then the first intermediate node,
            # and check the masked indexed query against a rebuilt network.
            u, v = base[0], base[1]
            reduced = without_failures(network, [(u, v)])
            try:
                expected = legacy_shortest_path(reduced, src, dst)
            except NoPathError:
                expected = None
            excluded = {(u, v), (v, u)}
            if expected is None:
                with pytest.raises(NoPathError):
                    index.shortest_path(src, dst, excluded_links=excluded)
            else:
                assert (
                    index.shortest_path(src, dst, excluded_links=excluded)
                    == expected
                )

    def test_node_mask_matches_spur_semantics(self, square):
        index = graph_index(square)
        path = index.shortest_path("a", "c", excluded_nodes={"b"})
        assert "b" not in path

    def test_unknown_names_in_masks_ignored(self, triangle):
        index = graph_index(triangle)
        assert index.shortest_path(
            "a", "b", excluded_links={("x", "y")}
        ) == ("a", "b")


class TestMemoization:
    def test_same_object_until_mutation(self, gts):
        first = graph_index(gts)
        assert graph_index(gts) is first
        gts.add_node(gts.node(gts.node_names[0]))
        rebuilt = graph_index(gts)
        assert rebuilt is not first
        # A mutation that changes nothing still yields an equivalent index.
        assert rebuilt.names == first.names

    def test_pickle_drops_index(self, gts):
        graph_index(gts)
        clone = pickle.loads(pickle.dumps(gts))
        assert clone._graph_index is None
        # And the clone can build a fresh one with identical results.
        assert all_pairs_shortest_paths(clone) == all_pairs_shortest_paths(gts)


class TestLocalityPruner:
    def test_lower_bound_never_exceeds_true_delay(self, corpus):
        for network in corpus[:6]:
            pruner = LocalityPruner(network, radius_s=ms(1))
            names = sorted(network.node_names)
            src = names[0]
            true = shortest_path_delays(network, src)
            for dst, delay in list(true.items())[:10]:
                assert pruner.lower_bound_s(src, dst) <= delay + 1e-12

    def test_admits_is_radius_cut(self, gts):
        # a huge radius admits everything; a zero one admits nothing
        # (except unknown names, whose errors belong to the algorithms).
        names = sorted(gts.node_names)
        wide = LocalityPruner(gts, radius_s=1e6)
        assert wide.admits(names[0], names[-1])
        narrow = LocalityPruner(gts, radius_s=0.0)
        assert not narrow.admits(names[0], names[-1])
        assert narrow.admits("nope", "also-nope")

    def test_landmarks_deterministic(self, gts):
        first = LocalityPruner(gts, radius_s=ms(5))
        second = LocalityPruner(gts, radius_s=ms(5))
        assert first.landmarks == second.landmarks
        assert len(first.landmarks) == len(set(first.landmarks))

    def test_pruned_cache_clamps_to_single_path(self, gts):
        names = sorted(gts.node_names)
        src, dst = names[0], names[-1]
        pruned = KspCache(gts, pruner=LocalityPruner(gts, radius_s=0.0))
        exact = KspCache(gts)
        assert pruned.get(src, dst, 4) == exact.get(src, dst, 1)
        # The single shortest path itself is never approximated.
        assert pruned.get(src, dst, 1) == exact.get(src, dst, 1)

    def test_pruned_metric_recorded(self, gts, tmp_path):
        names = sorted(gts.node_names)
        telemetry.configure(tmp_path)
        try:
            cache = KspCache(gts, pruner=LocalityPruner(gts, radius_s=0.0))
            cache.get(names[0], names[-1], 4)
            telemetry.recorder().flush()
            trace = telemetry.load_trace(tmp_path)
            assert trace.counters.get("ksp.pruned", 0) >= 1
        finally:
            telemetry.disable()


class TestIngestScaleSmoke:
    def test_indexed_sweep_matches_legacy_at_scale(self):
        network = synthesize_internet_like(400, seed=4)
        src = sorted(network.node_names)[0]
        assert shortest_path_delays(network, src) == legacy_shortest_path_delays(
            network, src
        )
