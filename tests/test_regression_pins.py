"""Regression pins: exact values that must stay stable across refactors.

Everything here is deterministic (fixed seeds, exact LP optima).  If a
change moves one of these numbers, it changed behaviour — intentionally or
not — and this file makes that visible at review time.
"""

import hashlib

import numpy as np
import pytest

from repro import telemetry
from repro.core.metrics import apa_all_pairs, llpd
from repro.net.zoo import (
    cogent_like,
    generate_zoo,
    globalcenter_like,
    google_like,
    gts_like,
)
from repro.net.units import Gbps
from repro.routing import (
    B4Routing,
    LatencyOptimalRouting,
    LinkBasedOptimalRouting,
    MinMaxRouting,
)
from repro.tm.matrix import TrafficMatrix
from tests.conftest import build_diamond, loaded_gts_tm


class TestNamedReplicaPins:
    def test_llpd_values(self):
        assert llpd(gts_like()) == pytest.approx(0.5833, abs=1e-3)
        assert llpd(cogent_like()) == pytest.approx(0.5579, abs=1e-3)
        assert llpd(globalcenter_like()) == pytest.approx(0.5, abs=1e-3)
        assert llpd(google_like()) == pytest.approx(0.8406, abs=1e-3)

    def test_topology_sizes(self):
        assert (gts_like().num_nodes, gts_like().num_links) == (24, 80)
        assert google_like().num_nodes == 24

    def test_zoo_generation_stable(self):
        zoo = generate_zoo(5, seed=0, include_named=False)
        assert [net.name.split("-", 2)[2] for net in zoo] == [
            "sparse-mesh",
            "sparse-mesh",
            "dense-mesh",
            "dense-mesh",
            "star",
        ]


class TestApaPin:
    """Exact APA of every pair of the named replicas, recorded while APA
    still copied and re-indexed the network for every removed link."""

    PINS = {
        "gts":
            "f4f40115c41807804e62c68d7249910f180ff1136d83f132e5325845f3bc58a8",
        "cogent":
            "aa838ea22bda70e4101dce68440fe111867155623db336923fdde794d93283d4",
        "globalcenter":
            "8f6815a6303c94c6cf0ce6c73a0999a9219f7519f5668c2eb4568908d450d802",
        "google":
            "a9b03a497420f4d48b2c6a62057ef17402e8b55b7e6473936f75b322dcc59a8c",
    }
    BUILDERS = {
        "gts": gts_like,
        "cogent": cogent_like,
        "globalcenter": globalcenter_like,
        "google": google_like,
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_apa_exact(self, name):
        values = apa_all_pairs(self.BUILDERS[name]())
        listing = [(pair, value.hex()) for pair, value in values.items()]
        digest = hashlib.sha256(repr(listing).encode()).hexdigest()
        assert digest == self.PINS[name]


class TestWorkloadPins:
    @pytest.fixture(scope="class")
    def case(self):
        network = gts_like()
        return network, loaded_gts_tm(network, seed=0)

    def test_tm_totals(self, case):
        network, tm = case
        assert tm.total_demand_bps / 1e9 == pytest.approx(210.38, abs=0.05)
        assert len(tm.aggregates()) == 260

    def test_optimal_stretch(self, case):
        network, tm = case
        placement = LatencyOptimalRouting().place(network, tm)
        assert placement.total_latency_stretch() == pytest.approx(
            1.0486, abs=2e-3
        )

    def test_minmax_utilization_exact(self, case):
        network, tm = case
        scheme = MinMaxRouting()
        scheme.place(network, tm)
        assert scheme.last_max_utilization == pytest.approx(1 / 1.3, abs=1e-4)


class TestLinkBasedPin:
    """Exact LinkBased output: every (path, fraction) of every aggregate.

    The node-arc LP is assembled straight into ``CompiledLP.from_coo``;
    column order, row order and coefficient arithmetic all reach the
    solver, so any drift in the assembly moves these digests.
    """

    PINS = {
        ("gts", 0.0):
            "03996b21aac985c05e04cdaf312eae1d46ed5b2dda97d5c7c1594d76ea332382",
        ("gts", 0.2):
            "b641460738ff3b7396cf90e3eb97d30a26883f4888b4127685eebae3f869618d",
        ("diamond", 0.0):
            "7c64c29fe306b8c9a11f8d6e5c458255ddde32f30a6e9f609f4c1d47d4d5c217",
        ("diamond", 0.2):
            "ff040c1ee0be60dbe48a4b4ce2f15bebfbf22337868dc7e6063a5a4191888d26",
    }

    @staticmethod
    def _case(name):
        if name == "gts":
            network = gts_like()
            return network, loaded_gts_tm(network, seed=0)
        return build_diamond(), TrafficMatrix({("s", "t"): Gbps(20)})

    @pytest.mark.parametrize("name,headroom", sorted(PINS))
    def test_allocations_exact(self, name, headroom):
        network, tm = self._case(name)
        placement = LinkBasedOptimalRouting(headroom=headroom).place(
            network, tm
        )
        assert allocation_digest(placement) == self.PINS[(name, headroom)]


def allocation_digest(placement):
    """sha256 over every aggregate's ``(path, fraction.hex())`` list."""
    listing = [
        (agg.src, agg.dst, [
            (alloc.path, alloc.fraction.hex())
            for alloc in placement.paths_for(agg)
        ])
        for agg in placement.aggregates
    ]
    return hashlib.sha256(repr(listing).encode()).hexdigest()


class TestLpPin:
    """Exact LDR / MinMax / MinMaxK10 output, recorded while every LP still
    went through SciPy's ``method="highs"`` front end and MinMax seeds were
    stripped on a network copy per strip.  Scale 2.5 overloads both
    networks, so LDR's growth loop and MinMax's overload accounting run."""

    PINS = {
        ("LDR", "diamond", 1.0):
            "7c64c29fe306b8c9a11f8d6e5c458255ddde32f30a6e9f609f4c1d47d4d5c217",
        ("MinMax", "diamond", 1.0):
            "de5d04a7254c583224a98f3d82ea7ddfa26723b546ce15435b8aac9520f0ae86",
        ("MinMaxK10", "diamond", 1.0):
            "de5d04a7254c583224a98f3d82ea7ddfa26723b546ce15435b8aac9520f0ae86",
        ("LDR", "diamond", 2.5):
            "0488060039eb1a4470f8ee97471eb3aafbc3279783e12cf1ff35e5c59a2a400f",
        ("MinMax", "diamond", 2.5):
            "89d238f90a9ac38e4db5324f5e393447c55d281a102cbcc6de4797371bc08094",
        ("MinMaxK10", "diamond", 2.5):
            "89d238f90a9ac38e4db5324f5e393447c55d281a102cbcc6de4797371bc08094",
        ("LDR", "gts", 1.0):
            "61ab685a8aefdfd78fe3bf238b358d3f54e034ecf0fdbed982481a711b00ccc0",
        ("MinMax", "gts", 1.0):
            "83209d7536453bb54fbbcfca0bbe3caff5833316ee33d03762573fa6d097d4d5",
        ("MinMaxK10", "gts", 1.0):
            "e1cb8cce49ff1584719d60225cb135138c4a46ed6c9b104fd81ae5f5b3454021",
        ("LDR", "gts", 2.5):
            "04f1f96fa7f2cfd6234db2fe8009a16a32e5cc09827607d6376503de6fbcb08c",
        ("MinMax", "gts", 2.5):
            "c8108d9d21600a6e07d0a41a4ff354911be0270fb362c871c35fe78fff722639",
        ("MinMaxK10", "gts", 2.5):
            "ab6217105ef75b154fd5c796294b74c65cf95227d595c42dce748bcd8dc36e19",
    }

    SCHEMES = {
        "LDR": LatencyOptimalRouting,
        "MinMax": MinMaxRouting,
        "MinMaxK10": lambda: MinMaxRouting(k=10),
    }

    @pytest.mark.parametrize("scheme,name,scale", sorted(PINS))
    def test_allocations_exact(self, scheme, name, scale):
        network, tm = TestLinkBasedPin._case(name)
        placement = self.SCHEMES[scheme]().place(network, tm.scaled(scale))
        assert allocation_digest(placement) == self.PINS[(scheme, name, scale)]


def b4_digest(placement):
    """sha256 over every aggregate's ``(path, fraction.hex())`` list and
    its ``unplaced_bps`` in hex: any float that moves, moves the digest."""
    listing = [
        (agg.src, agg.dst, [
            (alloc.path, alloc.fraction.hex())
            for alloc in placement.paths_for(agg)
        ], placement.unplaced_bps.get(agg, 0.0).hex())
        for agg in placement.aggregates
    ]
    return hashlib.sha256(repr(listing).encode()).hexdigest()


class TestB4Pin:
    """Exact B4 output, recorded before the water-filling loop was made
    incremental.  Scale 2.5 overloads both networks, so the headroom
    second pass and the force-placed leftovers run too."""

    PINS = {
        ("gts", 0.0, 1.0):
            "660599a1a87e08d6dcd9f2dec915bc385ad422f4590e5727b876d6de374e95d1",
        ("gts", 0.0, 2.5):
            "98a9f1c15bc042343492622df5f5923ce93f9d3c5103b2eac02e6f5678772c65",
        ("gts", 0.2, 1.0):
            "11e5eac51d743a3b6ac7b83cfd0f26a757afc2ceedd2644642642382607e95df",
        ("gts", 0.2, 2.5):
            "fbdfd7eb230c6f84bb951f198403f292059de5af32de75ac206e1070166ef475",
        ("diamond", 0.0, 1.0):
            "d2b8f1853528f130dd2c5ecaf206b157ef4cd2aac5db053399b2f3db5b514bea",
        ("diamond", 0.0, 2.5):
            "a48ed6dfa369888bac12ca8a3bca2f7711053d01c8bb3bcdc03bf43bc8dd52c5",
        ("diamond", 0.2, 1.0):
            "00a441bd11c36f60b4897e3985f747465025a1ea4476bd74095846a639f45125",
        ("diamond", 0.2, 2.5):
            "a48ed6dfa369888bac12ca8a3bca2f7711053d01c8bb3bcdc03bf43bc8dd52c5",
    }

    #: ``(b4.rounds, b4.advances)`` per gts case: facts of the algorithm.
    WORK = {
        (0.0, 1.0): (139, 298),
        (0.0, 2.5): (135, 381),
        (0.2, 1.0): (144, 316),
        (0.2, 2.5): (150, 512),
    }

    @staticmethod
    def _case(name, scale):
        network, tm = TestLinkBasedPin._case(name)
        return network, tm.scaled(scale)

    @pytest.mark.parametrize("name,headroom,scale", sorted(PINS))
    def test_allocations_exact(self, name, headroom, scale):
        network, tm = self._case(name, scale)
        placement = B4Routing(headroom=headroom).place(network, tm)
        assert b4_digest(placement) == self.PINS[(name, headroom, scale)]

    @pytest.mark.parametrize("headroom,scale", sorted(WORK))
    def test_work_counters(self, tmp_path, headroom, scale):
        network, tm = self._case("gts", scale)
        telemetry.configure(tmp_path)
        try:
            B4Routing(headroom=headroom).place(network, tm)
            telemetry.recorder().flush()
            counters = telemetry.load_trace(tmp_path).counters
        finally:
            telemetry.disable()
        assert (counters["b4.rounds"], counters["b4.advances"]) == (
            self.WORK[(headroom, scale)]
        )
