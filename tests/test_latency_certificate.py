"""The latency certificate of a solved Figure 12 LP.

``latency_certificate`` prices every aggregate over *all* its paths with
the LP's capacity-row duals and returns a Lagrangian lower bound on the
delay term of any fitting placement, plus the solved LP's relative gap to
it.  The bound must hold against an independent optimum (the link-based
LP); the gap is whatever it is and is not asserted to be zero, except
where the path sets are known to hold an optimum or known not to.
"""

import pytest

from repro.experiments.workloads import build_zoo_workload
from repro.net.units import Gbps
from repro.routing import LinkBasedOptimalRouting
from repro.routing.optimal import solve_iterative_latency
from repro.routing.pathlp import (
    M1_TIEBREAK,
    latency_certificate,
    solve_latency_lp,
)
from repro.tm.matrix import TrafficMatrix


def delay_term(result, placement):
    """Figure 12's delay term of ``placement``, with the per-aggregate
    weights of ``result``'s LP, recomputed from link delays: flow share
    times ``(1 + M1 D / S_a) / D`` per second of path delay, ``S_a`` the
    delay of the aggregate's first path and ``D`` their flow-weighted
    mean."""
    network = placement.network

    def delay(path):
        return sum(
            network.link(path[i], path[i + 1]).delay_s
            for i in range(len(path) - 1)
        )

    total_flows = sum(agg.n_flows for agg in result.fractions)
    first = {
        agg.pair: delay(splits[0][0]) for agg, splits in result.fractions.items()
    }
    unit = sum(
        agg.n_flows / total_flows * first[agg.pair] for agg in result.fractions
    )
    term = 0.0
    for agg in placement.aggregates:
        weight = agg.n_flows / total_flows / unit * (
            1.0 + M1_TIEBREAK * unit / first[agg.pair]
        )
        term += weight * sum(
            alloc.fraction * delay(alloc.path) for alloc in placement.paths_for(agg)
        )
    return term


@pytest.fixture(scope="module")
def zoo():
    return build_zoo_workload(12, 1, seed=0).networks


def test_bound_holds_against_link_based_optimum(zoo):
    """On every zoo item LDR's bound is at most the delay term of the
    link-based optimum, which fits over all paths; and at most LDR's own
    delay term, since LDR's placement fits too."""
    broken = []
    for item in zoo:
        tm = item.matrices[0]
        result, _ = solve_iterative_latency(item.network, tm, cache=item.cache)
        assert result.fits
        bound, gap = latency_certificate(item.network, result)
        link_based = LinkBasedOptimalRouting().place(item.network, tm)
        optimum = delay_term(result, link_based)
        if bound > optimum * (1.0 + 1e-6) or gap < -1e-9:
            broken.append((item.network.name, bound, optimum, gap))
    assert not broken


def test_gap_is_exact_on_a_forced_detour(diamond):
    """One aggregate on the slow route alone (10 ms) fits, and the fast
    route (2 ms) is free: the bound is the fast route's cost, so the gap
    is exactly 1 - 2/10."""
    tm = TrafficMatrix({("s", "t"): Gbps(5)})
    agg = tm.aggregates()[0]
    result = solve_latency_lp(diamond, {agg: [("s", "y", "t")]})
    assert result.fits
    bound, gap = latency_certificate(diamond, result)
    assert bound == pytest.approx(0.2 * (1.0 + M1_TIEBREAK), rel=1e-9)
    assert gap == pytest.approx(0.8, rel=1e-9)


def test_shortest_paths_only_shows_a_gap(diamond):
    """The planted mutant: shortest paths only, on a graph where a detour
    exists.  20 Gbps overloads the fast route; the LP's duals price it,
    and the certificate reports a positive gap.  The Figure 13 loop, which
    adds the detour, closes it."""
    tm = TrafficMatrix({("s", "t"): Gbps(20)})
    agg = tm.aggregates()[0]
    mutant = solve_latency_lp(diamond, {agg: [("s", "x", "t")]})
    assert not mutant.fits
    assert latency_certificate(diamond, mutant)[1] > 0.1

    result, _ = solve_iterative_latency(diamond, tm)
    assert result.fits
    assert latency_certificate(diamond, result)[1] == pytest.approx(0.0, abs=1e-9)

