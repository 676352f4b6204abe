"""B4-style greedy traffic placement (paper §3).

"B4 starts by incrementally placing traffic from each aggregate onto its
shortest path.  This is done in parallel for all aggregates.  When an
aggregate's shortest path fills up, B4 starts allocating that aggregate
onto the next shortest path, and so forth.  Hence, while it considers
low-latency paths first, B4 still uses a greedy algorithm."

We implement that as synchronous water-filling.  Each round, every active
aggregate (demand left and a usable path) pushes the same rate ``step``
onto its current path: the largest uniform increment before some
aggregate's demand completes or some link fills, i.e. the minimum of every
active ``remaining_bps`` and every used link's ``residual / users``.  An
aggregate whose path then has a link with at most ``RATE_EPSILON_BPS``
left advances to the next of its ``max_paths_per_aggregate`` shortest
paths on which every link has more than that left.  An aggregate that runs
out of such paths keeps its leftover demand, which is force-placed on its
shortest path and reported in ``Placement.unplaced_bps`` — this models the
congestion the paper observes B4 inducing on high-LLPD networks (its
Figure 5 trap).

With ``headroom > 0`` the water-filling works against capacities scaled by
``1 - headroom``; leftover demand then gets a second pass, restarting from
each aggregate's shortest path, against what remains of the full
capacities — the paper's observation that headroom lets B4 fit traffic it
otherwise could not, by eating into the reserve (§6).

**Incremental bookkeeping, bit-identical placements.**  Each aggregate
carries its current path's link tuple, built once when it advances, and
the per-link census ``users`` is built once per pass and then updated only
when an aggregate completes, advances or runs out of paths.  Every
placement equals, bit for bit, that of the loop which rebuilt both every
round (kept as ``legacy_b4_place`` in ``tests/oracles.py``), because:

* the maintained census holds the same counts as a rebuilt one, so
  ``step``, a minimum over the same values, is the same float;
* a link with ``count`` users gets ``residual -= step`` ``count`` times in
  a row instead of once per user in aggregate order.  Every subtraction on
  one key in one round uses the same ``step``, so each residual runs
  through the same sequence of floats; ``placed[path]`` and
  ``remaining_bps`` still take exactly one ``+ step`` / ``- step`` a round.
  Subtracting ``count * step`` in one operation would round differently;
* at the start of every round each link on an active path has more than
  ``RATE_EPSILON_BPS`` left (an aggregate only takes such a path, and any
  aggregate whose link dropped to the threshold has advanced), so the
  saturation check can only fire when this round's subtraction drove some
  link to the threshold, and runs only then.  ``_advance`` only reads
  ``residual``, so the order of advances cannot change any result;
* the numerical-corner branch breaks ties in ``min(users, key=...)`` by
  dict order.  The maintained dict's order drifts as links leave and
  rejoin, so that branch rebuilds the census in the original order —
  active aggregates in ``states`` order, links in path order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.graph import Network
from repro.net.paths import KspCache, Path, path_links
from repro.routing.base import PathAllocation, Placement, RoutingScheme
from repro.telemetry import recorder
from repro.tm.matrix import Aggregate, TrafficMatrix

# Stop allocating below this rate: avoids infinitesimal water-filling steps.
RATE_EPSILON_BPS = 1.0

LinkKey = Tuple[str, str]


@dataclass
class _AggregateState:
    """Book-keeping for one aggregate during water-filling."""

    aggregate: Aggregate
    remaining_bps: float
    #: Allocated rate per path (paths are added as the aggregate advances).
    placed: Dict[Path, float] = field(default_factory=dict)
    #: Index of the next k-shortest path to try.
    next_path_rank: int = 0
    current_path: Optional[Path] = None
    #: Directed links of ``current_path`` (empty while there is none).
    links: Tuple[LinkKey, ...] = ()
    exhausted: bool = False


def _join(users: Dict[LinkKey, int], links: Tuple[LinkKey, ...]) -> None:
    for key in links:
        users[key] = users.get(key, 0) + 1


def _leave(users: Dict[LinkKey, int], links: Tuple[LinkKey, ...]) -> None:
    for key in links:
        count = users[key] - 1
        if count:
            users[key] = count
        else:
            del users[key]


def _census(active: List[_AggregateState]) -> Dict[LinkKey, int]:
    """Active aggregates per link, keyed in first-use order."""
    users: Dict[LinkKey, int] = {}
    for state in active:
        _join(users, state.links)
    return users


def _tightest_link(
    active: List[_AggregateState], residual: Dict[LinkKey, float]
) -> LinkKey:
    """The link with the least residual per user; ties go to the link an
    earlier active aggregate uses first (a freshly built census's order)."""
    users = _census(active)
    return min(users, key=lambda key: residual[key] / users[key])


class B4Routing(RoutingScheme):
    """Greedy progressive filling over k-shortest paths.

    ``headroom`` reserves that share of every link's capacity for the
    first pass; ``max_paths_per_aggregate`` caps how many of an
    aggregate's shortest paths it may try.  A ``cache`` built for the
    network being placed is reused; otherwise each placement builds its
    own.
    """

    name = "B4"

    def __init__(
        self,
        headroom: float = 0.0,
        max_paths_per_aggregate: int = 25,
        cache: Optional[KspCache] = None,
    ) -> None:
        if not 0.0 <= headroom < 1.0:
            raise ValueError(f"headroom must be in [0, 1), got {headroom}")
        self.headroom = headroom
        self.max_paths_per_aggregate = max_paths_per_aggregate
        self._cache = cache
        if headroom > 0:
            self.name = f"B4(h={headroom:.0%})"

    # ------------------------------------------------------------------
    def place(self, network: Network, tm: TrafficMatrix) -> Placement:
        """Water-fill ``tm`` onto ``network``; count the rounds and
        advances as ``b4.rounds`` / ``b4.advances`` when tracing."""
        if self._cache is not None and self._cache.network is network:
            cache = self._cache
        else:
            cache = KspCache(network)

        residual = {
            link.key: link.capacity_bps * (1.0 - self.headroom)
            for link in network.links()
        }
        states = [
            _AggregateState(agg, agg.demand_bps) for agg in tm.aggregates()
        ]
        rounds, advances = self._waterfill(states, residual, cache)

        if self.headroom > 0:
            # Second pass: leftover traffic may eat into the reserved
            # headroom (residuals measured against full capacity).
            leftovers = [s for s in states if s.remaining_bps > RATE_EPSILON_BPS]
            if leftovers:
                full_residual = {
                    link.key: link.capacity_bps for link in network.links()
                }
                for key, value in residual.items():
                    used = (
                        network.link(*key).capacity_bps * (1.0 - self.headroom)
                        - value
                    )
                    full_residual[key] -= used
                for state in leftovers:
                    state.exhausted = False
                    state.next_path_rank = 0
                    state.current_path = None
                    state.links = ()
                more_rounds, more_advances = self._waterfill(
                    leftovers, full_residual, cache
                )
                rounds += more_rounds
                advances += more_advances
        rec = recorder()
        if rec.enabled:
            rec.counter("b4.rounds", rounds)
            rec.counter("b4.advances", advances)

        # Whatever remains cannot fit: force it onto the shortest path and
        # record it so congestion metrics can see it.
        allocations: Dict[Aggregate, List[PathAllocation]] = {}
        unplaced: Dict[Aggregate, float] = {}
        for state in states:
            agg = state.aggregate
            placed = dict(state.placed)
            if state.remaining_bps > RATE_EPSILON_BPS:
                shortest = cache.shortest(agg.src, agg.dst)
                placed[shortest] = placed.get(shortest, 0.0) + state.remaining_bps
                unplaced[agg] = state.remaining_bps
            total = sum(placed.values())
            if total <= 0:
                shortest = cache.shortest(agg.src, agg.dst)
                placed = {shortest: agg.demand_bps}
                total = agg.demand_bps
                unplaced[agg] = agg.demand_bps
            allocations[agg] = [
                PathAllocation(path, rate / total)
                for path, rate in placed.items()
                if rate > 0.0
            ]
        return Placement(network, allocations, unplaced_bps=unplaced)

    # ------------------------------------------------------------------
    def _waterfill(
        self,
        states: List[_AggregateState],
        residual: Dict[LinkKey, float],
        cache: KspCache,
    ) -> Tuple[int, int]:
        """Fill paths synchronously until demands are met or paths run out.

        Returns ``(rounds, advances)``: the rounds run and the
        :meth:`_advance` calls made, each aggregate's first path included.
        """
        for state in states:
            self._advance(state, residual, cache)
        advances = len(states)
        active = [
            s
            for s in states
            if not s.exhausted and s.remaining_bps > RATE_EPSILON_BPS
        ]
        users = _census(active)
        rounds = 0
        while active:
            rounds += 1
            # Largest uniform increment before a link fills or an
            # aggregate's demand completes.
            step = min([s.remaining_bps for s in active])
            for key, count in users.items():
                share = residual[key] / count
                if share < step:
                    step = share

            left_active = False
            if step > RATE_EPSILON_BPS:
                saturated = False
                for key, count in users.items():
                    left = residual[key]
                    for _ in range(count):
                        left -= step
                    residual[key] = left
                    if left <= RATE_EPSILON_BPS:
                        saturated = True
                for state in active:
                    path = state.current_path
                    if path is None:
                        raise RuntimeError(
                            "active aggregate has no current path; _advance "
                            "must give it one or mark it exhausted"
                        )
                    state.placed[path] = state.placed.get(path, 0.0) + step
                    state.remaining_bps -= step
                    if state.remaining_bps <= RATE_EPSILON_BPS:
                        _leave(users, state.links)
                        left_active = True
                # Advance any aggregate whose preferred path just saturated.
                moved = []
                if saturated:
                    moved = [
                        s
                        for s in active
                        if s.remaining_bps > RATE_EPSILON_BPS
                        and any(residual[key] <= RATE_EPSILON_BPS for key in s.links)
                    ]
            else:
                # Numerical corner: many users share a nearly-empty link so
                # the uniform step underflows without any single residual
                # dropping below epsilon.  Force the users of the tightest
                # link to advance so the loop always makes progress.
                tightest = _tightest_link(active, residual)
                moved = [s for s in active if tightest in s.links]

            for state in moved:
                _leave(users, state.links)
                self._advance(state, residual, cache)
                _join(users, state.links)
                left_active = left_active or state.exhausted
            advances += len(moved)
            if left_active:
                active = [
                    s
                    for s in active
                    if not s.exhausted and s.remaining_bps > RATE_EPSILON_BPS
                ]
        return rounds, advances

    def _advance(
        self,
        state: _AggregateState,
        residual: Dict[LinkKey, float],
        cache: KspCache,
    ) -> None:
        """Move to the next untried shortest path on which every link has
        more than ``RATE_EPSILON_BPS`` left, or mark the aggregate
        exhausted once ``max_paths_per_aggregate`` paths (or all simple
        paths) have been tried."""
        agg = state.aggregate
        while state.next_path_rank < self.max_paths_per_aggregate:
            rank = state.next_path_rank
            paths = cache.get(agg.src, agg.dst, rank + 1)
            if len(paths) <= rank:
                break  # no more simple paths exist
            state.next_path_rank += 1
            candidate = paths[rank]
            links = tuple(path_links(candidate))
            if all(residual[key] > RATE_EPSILON_BPS for key in links):
                state.current_path = candidate
                state.links = links
                return
        state.current_path = None
        state.links = ()
        state.exhausted = True
