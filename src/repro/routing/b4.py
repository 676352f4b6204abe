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
shortest path, where it overloads links — this models the congestion the
paper observes B4 inducing on high-LLPD networks (its Figure 5 trap).

With ``headroom > 0`` the water-filling works against capacities scaled by
``1 - headroom``; leftover demand then gets a second pass, restarting from
each aggregate's shortest path, against what remains of the full
capacities — the paper's observation that headroom lets B4 fit traffic it
otherwise could not, by eating into the reserve (§6).

**Arrays, bit-identical placements.**  Links are the CSR positions of the
network's :func:`~repro.net.index.graph_index`.  Residuals are one float64
array indexed by link id, plus one sentinel slot at ``+inf`` past the last
link, and each aggregate's current path is a row of link ids padded with
``-1``, which indexes the sentinel.  A round is a fixed handful of array
operations over the active rows; its cost follows the links on active
paths, never the network's link count.  Every placement equals, bit for
bit, that of the name-keyed loop that recounted each link's users every
round (kept as ``legacy_b4_place`` in ``tests/oracles.py``), because every
float takes the same sequence of operations:

* ``step`` is a minimum over the same values: every active remainder and
  every used link's ``residual / users``.  The users are counted afresh
  each round (``np.add.at`` into a scratch array, cleared again after
  reading), one quotient per occurrence of a link on the active rows; the
  duplicates are equal and the sentinel's ``inf`` never wins;
* ``np.subtract.at(residual, links, step)`` is unbuffered, so a link that
  occurs ``count`` times on the active rows gets ``count`` sequential
  ``- step`` operations, as it got one per user in the loop.  Every
  subtraction on one link in one round uses the same ``step``, so the
  order of the users does not matter.  Subtracting ``count * step`` in
  one operation would round differently;
* an aggregate's rate on its current path is kept in an array, seeded
  from ``placed.get(path, 0.0)`` when it takes the path and given one
  ``+ step`` a round, as ``placed[path]`` was.  It is written back to
  ``placed[path]`` when the aggregate leaves the path or the pass ends,
  and only if a step landed on it, so ``placed`` ends with the same
  values and the same key order, in the headroom second pass too.
  ``remaining`` likewise takes one ``- step`` a round;
* after a round's subtraction, each active aggregate that still has
  demand left and has a link at or below ``RATE_EPSILON_BPS`` on its row
  advances, in aggregate order.  ``_advance`` only reads ``residual``, so
  the order of advances cannot change any result;
* at the start of a round every link on an active row has more than
  ``RATE_EPSILON_BPS`` left (an aggregate only takes such a path, and any
  aggregate whose link dropped to the threshold has advanced), so a round
  whose ``step`` underflows the threshold saturates nothing.  Only then
  does the numerical-corner branch run.  It breaks ties in
  ``min(users, key=...)`` by the census's key order, and ``_census``
  rebuilds that census as the loop did: active aggregates in aggregate
  order, links in path order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.net.graph import Network
from repro.net.index import FloatArray, GraphIndex, graph_index
from repro.net.paths import KspCache, Path, path_links
from repro.routing.base import PathAllocation, Placement, RoutingScheme
from repro.telemetry import recorder
from repro.tm.matrix import Aggregate, TrafficMatrix

# Stop allocating below this rate: avoids infinitesimal water-filling steps.
RATE_EPSILON_BPS = 1.0

LinkRows = npt.NDArray[np.intp]

#: Pads path rows.  As an index it is the residual array's last slot, the
#: sentinel at ``+inf``.
_PAD = -1


class _Pass:
    """Array state of one water-filling pass over some aggregates.

    Row ``j`` is ``aggregates[j]``: ``paths[j]`` is its current path
    (``None`` before its first and once it has run out), ``rows[j]`` that
    path's link ids padded with ``_PAD``, ``rate[j]`` its rate on the
    path and ``stepped[j]`` whether a step has landed there since it took
    the path; ``exhausted[j]`` is set once it has run out of paths.
    ``placed[j]`` is the aggregate's rate per path, shared with the
    caller, and ``remaining[j]`` its demand left.
    """

    def __init__(
        self,
        aggregates: List[Aggregate],
        placed: List[Dict[Path, float]],
        remaining: FloatArray,
        residual: FloatArray,
    ) -> None:
        n = len(aggregates)
        self.aggregates = aggregates
        self.placed = placed
        self.remaining = remaining
        self.residual = residual
        self.paths: List[Optional[Path]] = [None] * n
        self.next_rank = [0] * n
        self.rows: LinkRows = np.full((n, 1), _PAD, dtype=np.intp)
        self.rate = np.zeros(n)
        self.stepped = np.zeros(n, dtype=bool)
        self.exhausted = np.zeros(n, dtype=bool)

    def take(self, j: int, path: Path, links: List[int]) -> None:
        """Move row ``j`` onto ``path`` (link ids ``links``)."""
        hops = len(links)
        width = self.rows.shape[1]
        if hops > width:
            pad = np.full((len(self.paths), hops - width), _PAD, dtype=np.intp)
            self.rows = np.concatenate((self.rows, pad), axis=1)
        self.rows[j, :hops] = links
        self.rows[j, hops:] = _PAD
        self.paths[j] = path
        self.rate[j] = self.placed[j].get(path, 0.0)
        self.stepped[j] = False

    def leave(self, j: int) -> None:
        """Write row ``j``'s rate back to ``placed`` if a step landed on
        its current path."""
        path = self.paths[j]
        if path is not None and self.stepped[j]:
            self.placed[j][path] = float(self.rate[j])
        self.paths[j] = None


def _census(rows: LinkRows) -> Dict[int, int]:
    """Active aggregates per link id, keyed in first-use order: ``rows``
    are the active aggregates' paths, in aggregate order."""
    users: Dict[int, int] = {}
    for link in rows.ravel().tolist():
        if link != _PAD:
            users[link] = users.get(link, 0) + 1
    return users


def _tightest_link(rows: LinkRows, residual: FloatArray) -> int:
    """The link with the least residual per user; ties go to the link an
    earlier active aggregate uses first (a freshly built census's order)."""
    users = _census(rows)
    return min(users, key=lambda link: residual[link] / users[link])


class B4Routing(RoutingScheme):
    """Greedy progressive filling over k-shortest paths.

    ``headroom`` reserves that share of every link's capacity for the
    first pass; ``max_paths_per_aggregate`` caps how many of an
    aggregate's shortest paths it may try.  The cache is
    :meth:`~RoutingScheme.cache_for`'s; leftover demand rides the
    aggregate's shortest path.
    """

    name = "B4"

    def __init__(
        self,
        headroom: float = 0.0,
        max_paths_per_aggregate: int = 25,
        cache: Optional[KspCache] = None,
    ) -> None:
        super().__init__(headroom, cache)
        if max_paths_per_aggregate < 1:
            raise ValueError(
                f"max_paths_per_aggregate must be >= 1, got "
                f"{max_paths_per_aggregate}"
            )
        self.max_paths_per_aggregate = max_paths_per_aggregate
        if headroom > 0:
            self.name = f"B4(h={headroom:.0%})"

    # ------------------------------------------------------------------
    def place(self, network: Network, tm: TrafficMatrix) -> Placement:
        """Water-fill ``tm`` onto ``network``; count the rounds and
        advances as ``b4.rounds`` / ``b4.advances`` when tracing."""
        cache = self.cache_for(network)
        index = graph_index(network)
        capacity = index.capacity_array

        aggregates = tm.aggregates()
        placed: List[Dict[Path, float]] = [{} for _ in aggregates]
        remaining = np.array(
            [agg.demand_bps for agg in aggregates], dtype=np.float64
        )
        # The sentinel slot past the last link is where ``_PAD`` points.
        residual = np.append(capacity * (1.0 - self.headroom), np.inf)
        rounds, advances = self._waterfill(
            _Pass(aggregates, placed, remaining, residual), cache, index
        )

        if self.headroom > 0:
            # Second pass: leftover traffic may eat into the reserved
            # headroom (residuals measured against full capacity).
            leftovers = np.flatnonzero(remaining > RATE_EPSILON_BPS)
            if leftovers.size:
                residual[:-1] = capacity - (
                    capacity * (1.0 - self.headroom) - residual[:-1]
                )
                fill = _Pass(
                    [aggregates[i] for i in leftovers],
                    [placed[i] for i in leftovers],
                    remaining[leftovers],
                    residual,
                )
                more_rounds, more_advances = self._waterfill(fill, cache, index)
                remaining[leftovers] = fill.remaining
                rounds += more_rounds
                advances += more_advances
        rec = recorder()
        if rec.enabled:
            rec.counter("b4.rounds", rounds)
            rec.counter("b4.advances", advances)

        # Whatever remains cannot fit: force it onto the shortest path,
        # where the placement's link loads show the overload.
        allocations: Dict[Aggregate, List[PathAllocation]] = {}
        for agg, rates, left in zip(aggregates, placed, remaining.tolist()):
            if left > RATE_EPSILON_BPS:
                shortest = cache.shortest(agg.src, agg.dst)
                rates[shortest] = rates.get(shortest, 0.0) + left
            total = sum(rates.values())
            if total <= 0:
                shortest = cache.shortest(agg.src, agg.dst)
                rates = {shortest: agg.demand_bps}
                total = agg.demand_bps
            allocations[agg] = [
                PathAllocation(path, rate / total)
                for path, rate in rates.items()
                if rate > 0.0
            ]
        return Placement(network, allocations)

    # ------------------------------------------------------------------
    def _waterfill(
        self, fill: _Pass, cache: KspCache, index: GraphIndex
    ) -> Tuple[int, int]:
        """Fill paths synchronously until demands are met or paths run out.

        Returns ``(rounds, advances)``: the rounds run and the
        :meth:`_advance` calls made, each aggregate's first path included.
        """
        for j in range(len(fill.paths)):
            self._advance(fill, j, cache, index)
        advances = len(fill.paths)
        remaining, rate, residual = fill.remaining, fill.rate, fill.residual
        # Users per link id: all zero between rounds.
        users = np.zeros(residual.size, dtype=np.intp)
        active = np.flatnonzero(~fill.exhausted & (remaining > RATE_EPSILON_BPS))
        rounds = 0
        while active.size:
            rounds += 1
            rows = fill.rows[active]
            links = rows.ravel()
            left = remaining[active]
            # Largest uniform increment before a link fills or an
            # aggregate's demand completes.
            np.add.at(users, links, 1)
            share = residual[links] / users[links]
            users[links] = 0
            step = min(left.min(), share.min())

            moved: List[int] = []
            if step > RATE_EPSILON_BPS:
                np.subtract.at(residual, links, step)
                left -= step
                remaining[active] = left
                rate[active] += step
                fill.stepped[active] = True
                going = left > RATE_EPSILON_BPS
                # Advance any aggregate whose path just saturated.
                full = residual[rows] <= RATE_EPSILON_BPS
                if full.any():
                    moved = active[going & full.any(axis=1)].tolist()
            else:
                # Numerical corner: many users share a nearly-empty link so
                # the uniform step underflows without any single residual
                # dropping below epsilon.  Force the users of the tightest
                # link to advance so the loop always makes progress.
                going = np.ones(active.size, dtype=bool)
                tightest = _tightest_link(rows, residual)
                moved = active[(rows == tightest).any(axis=1)].tolist()

            if moved:
                for j in moved:
                    self._advance(fill, j, cache, index)
                advances += len(moved)
                going &= ~fill.exhausted[active]
            if not going.all():
                active = active[going]
        for j in range(len(fill.paths)):
            fill.leave(j)
        return rounds, advances

    def _advance(
        self, fill: _Pass, j: int, cache: KspCache, index: GraphIndex
    ) -> None:
        """Move row ``j`` to its next untried shortest path on which every
        link has more than ``RATE_EPSILON_BPS`` left, or mark it exhausted
        once ``max_paths_per_aggregate`` paths (or all simple paths) have
        been tried."""
        fill.leave(j)
        agg = fill.aggregates[j]
        residual = fill.residual
        while fill.next_rank[j] < self.max_paths_per_aggregate:
            rank = fill.next_rank[j]
            paths = cache.get(agg.src, agg.dst, rank + 1)
            if len(paths) <= rank:
                break  # no more simple paths exist
            fill.next_rank[j] += 1
            candidate = paths[rank]
            links = index.edge_positions(path_links(candidate))
            if all(residual[link] > RATE_EPSILON_BPS for link in links):
                fill.take(j, candidate, links)
                return
        fill.exhausted[j] = True
