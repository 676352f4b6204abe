"""Regression pins: exact values that must stay stable across refactors.

Everything here is deterministic (fixed seeds, exact LP optima).  If a
change moves one of these numbers, it changed behaviour — intentionally or
not — and this file makes that visible at review time.
"""

import hashlib

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
from repro.routing.base import OVERLOAD_TOLERANCE
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
        placement = MinMaxRouting().place(network, tm)
        assert placement.max_utilization() == pytest.approx(1 / 1.3, abs=1e-4)


class TestStoreIdentityPin:
    """Store signatures and plan trace ids, recorded while the signature
    recipe still took a matrices-per-network truncation: every existing
    result store and trace directory must keep its key."""

    def test_zoo_workload_signature_and_trace_id(self):
        from repro.experiments.figures import fig04_plan
        from repro.experiments.store import workload_signature
        from repro.experiments.workloads import build_zoo_workload

        workload = build_zoo_workload(
            n_networks=4, n_matrices=1, seed=3, include_named=False
        )
        assert workload_signature(workload) == (
            "fdbade8b2a5bd46d0c6f95822c2a953a759cc9415abb25f7f138b6a24ae5e65e"
        )
        assert telemetry.plan_trace_id(fig04_plan(workload)) == "802bed375a0d"

    def test_scenario_workload_signature(self):
        from repro.experiments.store import workload_signature
        from repro.experiments.workloads import build_zoo_workload
        from repro.scenarios import ScenarioGenerator, ScenarioWorkload

        zoo = build_zoo_workload(
            n_networks=2, n_matrices=1, seed=7, include_named=False
        )
        base = max(zoo.networks, key=lambda item: item.network.num_links)
        fleet = ScenarioGenerator(base, seed=11).fleet(
            link_failure_k=1, budget=4
        )
        assert len(fleet.specs) == 5
        workload = ScenarioWorkload(base, fleet.specs, seed=11)
        assert workload_signature(workload) == (
            "1f3df6535b5bb7bed698b5e8dc5bb6b5936e77ef22ce5a1706cbd3db7dd217b8"
        )


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

    #: ``(lp_solve spans, lp_assemble spans, summed path-LP n_paths)`` per
    #: gts case: no refactor of LP assembly may add or lose a solve.
    WORK = {
        ("LDR", 1.0): (4, 8, 1272),
        ("LDR", 2.5): (56, 112, 96676),
        ("MinMax", 1.0): (3, 6, 2128),
        ("MinMax", 2.5): (3, 6, 2128),
        ("MinMaxK10", 1.0): (2, 4, 5200),
        ("MinMaxK10", 2.5): (2, 4, 5200),
    }

    #: sha256 over the real utilization, in hex, of every link loaded
    #: beyond ``1 + OVERLOAD_TOLERANCE`` on gts at scale 2.5: the traffic
    #: the network cannot carry, shown where it overloads.
    OVERLOADED = {
        "LDR":
            "0cf1f89fbc732feb78f1f8748f1aa0cdeb8611df25e25c527bf46f0102fcc96f",
        "MinMax":
            "1b4d04ce620e4c3ec90b2bac4659a024821971b1261992259224e7f6ec88ae12",
        "MinMaxK10":
            "a6d7fd807893b820e641879de5a85863da9b8593d0d601c30b293a5cf3c4cc28",
    }

    @pytest.mark.parametrize("scheme,name,scale", sorted(PINS))
    def test_allocations_exact(self, scheme, name, scale):
        network, tm = TestLinkBasedPin._case(name)
        placement = self.SCHEMES[scheme]().place(network, tm.scaled(scale))
        assert allocation_digest(placement) == self.PINS[(scheme, name, scale)]

    @pytest.mark.parametrize("scheme", sorted(OVERLOADED))
    def test_unplaced_exact(self, scheme):
        network, tm = TestLinkBasedPin._case("gts")
        placement = self.SCHEMES[scheme]().place(network, tm.scaled(2.5))
        listing = [
            (key, utilization.hex())
            for key, utilization in placement.link_utilizations().items()
            if utilization > 1.0 + OVERLOAD_TOLERANCE
        ]
        assert listing and not placement.fits_all_traffic
        digest = hashlib.sha256(repr(listing).encode()).hexdigest()
        assert digest == self.OVERLOADED[scheme]

    @pytest.mark.parametrize("scheme,scale", sorted(WORK))
    def test_lp_work(self, tmp_path, scheme, scale):
        network, tm = TestLinkBasedPin._case("gts")
        telemetry.configure(tmp_path)
        try:
            self.SCHEMES[scheme]().place(network, tm.scaled(scale))
            telemetry.recorder().flush()
            trace = telemetry.load_trace(tmp_path)
        finally:
            telemetry.disable()
        assemblies = trace.by_name("lp_assemble")
        work = (
            len(trace.by_name("lp_solve")),
            len(assemblies),
            sum(span.attrs.get("n_paths", 0) for span in assemblies),
        )
        assert work == self.WORK[(scheme, scale)]


class TestB4Pin:
    """Exact B4 allocations (:func:`allocation_digest`); the placements
    are those recorded before the water-filling loop was made
    incremental.  Scale 2.5 overloads both networks, so the headroom
    second pass and the force-placed leftovers run too."""

    PINS = {
        ("gts", 0.0, 1.0):
            "41e78e731612e99d33e2f0cc5c1bfbfa3f6c44a9d650f42d9209d9cc371850b1",
        ("gts", 0.0, 2.5):
            "d22166c6ada6d16d84a8d1835e9973509c29dfa9936506d1be2bf75e1d068c32",
        ("gts", 0.2, 1.0):
            "17d34be4facdb7470ed33515f6e488e218fde3d0dc8284bc3225d1371ba041b4",
        ("gts", 0.2, 2.5):
            "429bd6243a94133140955a3bdfa42a4f61182132f302cd0addb9611fcc309746",
        ("diamond", 0.0, 1.0):
            "7c64c29fe306b8c9a11f8d6e5c458255ddde32f30a6e9f609f4c1d47d4d5c217",
        ("diamond", 0.0, 2.5):
            "0488060039eb1a4470f8ee97471eb3aafbc3279783e12cf1ff35e5c59a2a400f",
        ("diamond", 0.2, 1.0):
            "ff040c1ee0be60dbe48a4b4ce2f15bebfbf22337868dc7e6063a5a4191888d26",
        ("diamond", 0.2, 2.5):
            "0488060039eb1a4470f8ee97471eb3aafbc3279783e12cf1ff35e5c59a2a400f",
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
        assert allocation_digest(placement) == self.PINS[(name, headroom, scale)]

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
