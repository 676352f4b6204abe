"""Unit tests for APA and LLPD."""

import functools

import numpy as np
import pytest

from repro import telemetry
from repro.core.metrics import (
    ApaParameters,
    _apa,
    apa_all_pairs,
    apa_cdf,
    llpd,
    llpd_from_apa,
)
from repro.net.graph import Network, Node
from repro.net.index import graph_index
from repro.net.ingest import synthesize_internet_like
from repro.net.paths import all_pairs_shortest_paths
from repro.net.units import Gbps, ms
from repro.net.zoo import generate_zoo, gts_like
from tests.oracles import legacy_apa_all_pairs


class TestApaParameters:
    def test_defaults(self):
        params = ApaParameters()
        assert params.stretch_limit == 1.4
        assert params.llpd_threshold == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            ApaParameters(stretch_limit=0.9)
        with pytest.raises(ValueError):
            ApaParameters(max_alternates=0)
        with pytest.raises(ValueError):
            ApaParameters(llpd_threshold=1.5)


def apa_of(network, src, dst, params=ApaParameters()):
    """One pair's APA, read off the all-pairs computation."""
    return apa_all_pairs(network, params)[(src, dst)]


class TestPairApa:
    def test_line_has_zero_apa(self, line4):
        # No alternates exist anywhere on a chain.
        assert apa_of(line4, "n0", "n3") == 0.0

    def test_triangle_full_apa(self, triangle):
        # The single link a->b can be routed around via c at stretch 2.0.
        generous = ApaParameters(stretch_limit=2.0)
        assert apa_of(triangle, "a", "b", generous) == 1.0

    def test_triangle_stretch_limit_binds(self, triangle):
        # Stretch 2.0 exceeds the default 1.4 limit.
        assert apa_of(triangle, "a", "b") == 0.0

    def test_capacity_gates_viability(self):
        """An alternate thinner than the shortest path's bottleneck does
        not count, per the paper's 1 Gb/s vs 100 Gb/s example."""
        net = Network("thin-alt")
        for name in ("s", "t", "alt"):
            net.add_node(Node(name))
        net.add_duplex_link("s", "t", Gbps(100), ms(10))
        net.add_duplex_link("s", "alt", Gbps(1), ms(5))
        net.add_duplex_link("alt", "t", Gbps(1), ms(6))
        assert apa_of(net, "s", "t") == 0.0
        # With a fat alternate it becomes routable-around.
        fat = Network("fat-alt")
        for name in ("s", "t", "alt"):
            fat.add_node(Node(name))
        fat.add_duplex_link("s", "t", Gbps(100), ms(10))
        fat.add_duplex_link("s", "alt", Gbps(100), ms(5))
        fat.add_duplex_link("alt", "t", Gbps(100), ms(6))
        assert apa_of(fat, "s", "t") == 1.0

    def test_multiple_alternates_combine_capacity(self):
        """Two thin alternates whose min-cut jointly reaches the required
        bottleneck count, with the delay of the n-th path."""
        net = Network("combine")
        for name in ("s", "t", "p", "q"):
            net.add_node(Node(name))
        net.add_duplex_link("s", "t", Gbps(10), ms(10))
        # Two disjoint 5G alternates within the stretch budget.
        net.add_duplex_link("s", "p", Gbps(5), ms(5))
        net.add_duplex_link("p", "t", Gbps(5), ms(6))
        net.add_duplex_link("s", "q", Gbps(5), ms(6))
        net.add_duplex_link("q", "t", Gbps(5), ms(7))
        assert apa_of(net, "s", "t") == 1.0

    def test_combined_capacity_insufficient(self):
        net = Network("insufficient")
        for name in ("s", "t", "p"):
            net.add_node(Node(name))
        net.add_duplex_link("s", "t", Gbps(10), ms(10))
        net.add_duplex_link("s", "p", Gbps(5), ms(5))
        net.add_duplex_link("p", "t", Gbps(5), ms(6))
        assert apa_of(net, "s", "t") == 0.0

    def test_partial_apa(self):
        """Only some links on the shortest path can be routed around."""
        net = Network("partial")
        for name in ("s", "m", "t", "d"):
            net.add_node(Node(name))
        net.add_duplex_link("s", "m", Gbps(10), ms(10))
        net.add_duplex_link("m", "t", Gbps(10), ms(10))
        # Detour only around the first hop.
        net.add_duplex_link("s", "d", Gbps(10), ms(5))
        net.add_duplex_link("d", "m", Gbps(10), ms(6))
        assert apa_of(net, "s", "t") == pytest.approx(0.5)


class TestNetworkLevel:
    def test_all_pairs_cover(self, triangle):
        values = apa_all_pairs(triangle)
        assert len(values) == 6

    def test_apa_cdf_sorted(self, gts):
        cdf = apa_cdf(apa_all_pairs(gts))
        assert (cdf[:-1] <= cdf[1:]).all()
        assert 0.0 <= cdf[0] and cdf[-1] <= 1.0

    def test_llpd_class_ordering(self, rng):
        """The paper's qualitative ranking: trees ~ 0, rings mid,
        grids/meshes high."""
        from repro.net.zoo import grid_network, ring_network, tree_network

        tree = tree_network(14, rng)
        ring = ring_network(12, rng)
        grid = grid_network(4, 5, rng)
        assert llpd(tree) == 0.0
        assert llpd(tree) <= llpd(ring) <= llpd(grid)
        assert llpd(grid) > 0.4

    def test_llpd_from_apa_matches(self, gts):
        values = apa_all_pairs(gts)
        assert llpd_from_apa(values) == pytest.approx(llpd(gts))

    def test_llpd_empty_rejected(self):
        net = Network("lonely")
        net.add_node(Node("a"))
        with pytest.raises(ValueError):
            llpd(net)

    def test_llpd_threshold_monotone(self, gts):
        values = apa_all_pairs(gts)
        strict = llpd_from_apa(values, threshold=0.9)
        loose = llpd_from_apa(values, threshold=0.5)
        assert strict <= loose

    def test_google_has_highest_llpd(self):
        """Figure 19: the Google-like network tops the zoo."""
        from repro.net.zoo import google_like, gts_like

        assert llpd(google_like()) > llpd(gts_like())
        assert llpd(google_like()) > 0.75


# ----------------------------------------------------------------------
# Bit identity with APA on a network copy per removed link
# ----------------------------------------------------------------------
def uniform_grid(rows: int, cols: int) -> Network:
    """Equal delays and capacities everywhere: every pair has ties."""
    net = Network(f"uniform-grid-{rows}x{cols}")
    for r in range(rows):
        for c in range(cols):
            net.add_node(Node(f"g{r}-{c}"))
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                net.add_duplex_link(f"g{r}-{c}", f"g{r}-{c + 1}", Gbps(10), ms(1))
            if r + 1 < rows:
                net.add_duplex_link(f"g{r}-{c}", f"g{r + 1}-{c}", Gbps(10), ms(1))
    return net


def fractional(base: Network, seed: int) -> Network:
    """``base`` with every physical link's capacity redrawn off-integer,
    so max flows add and subtract inexact floats."""
    rng = np.random.default_rng(seed)
    net = Network(f"{base.name}-fractional")
    for name in base.node_names:
        net.add_node(base.node(name))
    for a, b in base.duplex_pairs():
        capacity = float(rng.uniform(0.3, 3.0)) * 1e9
        net.add_duplex_link(a, b, capacity, base.link(a, b).delay_s)
    return net


def knife_edge() -> Network:
    """Delays chosen so that the ``s -> t`` check at stretch 2.0 hinges on
    an alternate whose delay is within an ulp of the acceptance limit.

    The first alternate ``s-x-t`` is too thin; the second, ``s-x-w-y-t``,
    supplies the missing capacity.  Its left-to-right delay is within the
    limit, but summed from ``x`` (a spur search) or with a backward
    ``w -> t`` sweep (the flow guard) it lands one ulp above.  Without
    their slack, either of those drops it.
    """
    net = Network("knife-edge")
    for name in "stwxy":
        net.add_node(Node(name))
    delay = float.fromhex
    net.add_duplex_link("s", "t", Gbps(10), delay("0x1.57ea173a69b3fp-7"))
    net.add_duplex_link("s", "x", Gbps(10), delay("0x1.9ae4056e0bc56p-8"))
    net.add_duplex_link("x", "t", Gbps(3), ms(5))
    net.add_duplex_link("x", "w", Gbps(7), delay("0x1.5d0809bbec437p-8"))
    net.add_duplex_link("w", "y", Gbps(7), delay("0x1.3e2c22480b5c5p-8"))
    net.add_duplex_link("y", "t", Gbps(7), delay("0x1.29902b78bce45p-8"))
    return net


@functools.lru_cache(maxsize=None)
def parity_corpus():
    """``(spread, always)``: networks each checked under one parameter
    set, and small adversarial ones checked under all of them."""
    spread = generate_zoo(30, seed=3, include_named=True) + [
        synthesize_internet_like(n, seed=seed)
        for n, seed in ((20, 0), (35, 1), (50, 2), (60, 3))
    ]
    always = [
        uniform_grid(4, 5),
        fractional(spread[5], 0),
        fractional(spread[12], 1),
        knife_edge(),
    ]
    return spread, always


PARITY_PARAMS = [
    ApaParameters(stretch_limit=stretch, max_alternates=alternates)
    for stretch in (1.0, 1.4, 2.0)
    for alternates in (1, 2, 8)
]


class TestLegacyParity:
    """APA equals the copy-per-link oracle, order and floats included.

    The zoo and the synthetic Internet-like graphs are dealt round-robin
    over the nine parameter sets (the full cross costs about a minute);
    the tie-heavy grid, the fractional-capacity graphs and the knife edge
    run under every set.
    """

    @pytest.mark.parametrize("number", range(len(PARITY_PARAMS)))
    def test_matches_legacy(self, number):
        params = PARITY_PARAMS[number]
        spread, always = parity_corpus()
        networks = spread[number :: len(PARITY_PARAMS)] + always
        for network in networks:
            new = apa_all_pairs(network, params)
            legacy = legacy_apa_all_pairs(network, params)
            assert list(new.items()) == list(legacy.items()), network.name

    def test_knife_edge_alternate_counts(self):
        params = ApaParameters(stretch_limit=2.0)
        assert apa_of(knife_edge(), "s", "t", params) == 1.0

    def test_pair_apa_agrees_with_all_pairs(self, gts):
        """One pair's APA computed alone equals its all-pairs value:
        nothing the sweep shares across pairs leaks into a value."""
        index = graph_index(gts)
        shortest = index.all_pairs_shortest_ids(gts.node_names)
        values = apa_all_pairs(gts)
        for pair in list(values)[::37]:
            alone = _apa(index, {pair: shortest[pair]}, ApaParameters())
            assert alone == {pair: values[pair]}


class TestWork:
    def test_one_index_build_and_exact_counters(self, tmp_path):
        """One ``GraphIndex`` per ``llpd()``: every removed link is a
        masked view of it, never a copy that is indexed again."""
        network = gts_like()
        telemetry.configure(tmp_path)
        try:
            llpd(network)
            telemetry.recorder().flush()
            trace = telemetry.load_trace(tmp_path)
        finally:
            telemetry.disable()
        counters = trace.counters
        assert counters["index.build"] == 1
        assert counters["apa.checks"] == sum(
            len(path) - 1
            for path in all_pairs_shortest_paths(network).values()
        )
        assert 0 < counters["apa.yen_checks"] < counters["apa.checks"]
        assert counters["apa.maxflows"] >= counters["apa.yen_checks"]
        assert [span.name for span in trace.spans].count("llpd") == 1
