"""One judge of fit: a placement fits when its real link loads do.

No scheme reports fit itself: ``Placement.fits_all_traffic`` is the real
network's maximum utilization within ``1 + OVERLOAD_TOLERANCE``, whatever
the scheme, its headroom, or how it got there.  The sweep checks that rule
on every registered scheme over zoo items and loads from comfortable to
overloaded; the cases below it are the placements whose fit some scheme
once decided for itself, wrongly.
"""

import inspect

import pytest

from repro.experiments import spec as spec_module
from repro.experiments.spec import SchemeSpec, registered_schemes
from repro.experiments.workloads import build_zoo_workload
from repro.net.zoo import gts_like
from repro.routing import (
    EcmpRouting,
    LinkBasedOptimalRouting,
    MinMaxRouting,
    MplsTeRouting,
    ShortestPathRouting,
)
from repro.routing.base import OVERLOAD_TOLERANCE
from repro.routing.minmax import optimal_max_utilization
from repro.tm import max_scale_factor
from tests.conftest import loaded_gts_tm

#: Items of ``build_zoo_workload(12, 1, seed=0)`` cheap enough for LDR,
#: the slow scheme: a star and a tree (one path per pair), two cliques.
ITEMS = ("zoo-004-star", "zoo-005-clique", "zoo-010-tree", "globalcenter-like")
#: Matrices are built for 1.3x growth: below, at and beyond capacity.
SCALES = (1.0, 1.3, 1.8)


def sweep_cases():
    """One name per registered builder, at headroom 0 and 0.1 when the
    builder takes one."""
    names = {}
    for name in registered_schemes():
        names.setdefault(spec_module._REGISTRY[name], name)
    cases = []
    for builder, name in names.items():
        takes = "headroom" in inspect.signature(builder).parameters
        cases += [(name, h) for h in ((0.0, 0.1) if takes else (0.0,))]
    return cases


@pytest.fixture(scope="module")
def zoo():
    workload = build_zoo_workload(12, 1, seed=0)
    return {item.network.name: item for item in workload.networks}


@pytest.mark.parametrize("scheme,headroom", sweep_cases())
def test_fit_is_real_utilization(zoo, scheme, headroom):
    spec = SchemeSpec(scheme, {"headroom": headroom} if headroom else {})
    wrong = []
    for name in ITEMS:
        item = zoo[name]
        for scale in SCALES:
            placement = spec(item).place(
                item.network, item.matrices[0].scaled(scale)
            )
            utilization = placement.max_utilization()
            fits = placement.fits_all_traffic
            if fits != (utilization <= 1.0 + OVERLOAD_TOLERANCE):
                wrong.append((name, scale, fits, utilization))
            if fits and placement.congested_pair_fraction() != 0.0:
                wrong.append((name, scale, "congested", utilization))
    assert not wrong


@pytest.fixture(scope="module")
def gts_at_95():
    network = gts_like()
    tm = loaded_gts_tm(network, seed=0)
    return network, tm.scaled(0.95 * max_scale_factor(network, tm))


def test_link_based_with_headroom_fits_below_capacity(gts_at_95):
    """LinkBased(h=10%) overloads its scaled capacities at 95% of what
    gts carries; the real ones are 95% utilized, so it fits."""
    network, tm = gts_at_95
    placement = LinkBasedOptimalRouting(headroom=0.1).place(network, tm)
    assert placement.max_utilization() == pytest.approx(0.95, abs=1e-6)
    assert placement.fits_all_traffic


@pytest.mark.parametrize("scheme", [ShortestPathRouting, EcmpRouting])
def test_shortest_paths_overload_gts(gts_at_95, scheme):
    """SP and ECMP pile gts's 95% load onto shortest paths at about three
    times capacity: that does not fit."""
    network, tm = gts_at_95
    placement = scheme().place(network, tm)
    assert placement.max_utilization() == pytest.approx(2.99, abs=0.01)
    assert not placement.fits_all_traffic
    assert placement.congested_pair_fraction() > 0.0


def test_mplste_with_headroom_fits_gts_item(zoo):
    """MPLS-TE(h=10%) places against 90% of every link and forces what
    is left onto shortest paths; the real links end 93% utilized."""
    item = zoo["gts-like"]
    placement = MplsTeRouting(headroom=0.1, cache=item.cache).place(
        item.network, item.matrices[0]
    )
    assert placement.max_utilization() == pytest.approx(0.933, abs=1e-3)
    assert placement.fits_all_traffic


def test_full_minmax_reaches_optimal_utilization(zoo):
    """Full MinMax solves once over its k-shortest and MCF-seed paths; the
    seeds make the optimal maximum utilization reachable, so stage 1 lands
    on the link-based optimum at every item and load."""
    gts = gts_like()
    cases = [(item.network, item.matrices[0], item.cache) for item in zoo.values()]
    cases.append((gts, loaded_gts_tm(gts, seed=0), None))
    wrong = []
    for network, tm, cache in cases:
        for scale in (1.0, 1.5, 3.0):
            scaled = tm.scaled(scale)
            scheme = MinMaxRouting(cache=cache)
            scheme.place(network, scaled)
            target = optimal_max_utilization(network, scaled)
            if scheme.last_max_utilization != pytest.approx(target, rel=1e-9):
                wrong.append(
                    (network.name, scale, scheme.last_max_utilization, target)
                )
    assert not wrong
