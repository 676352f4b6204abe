"""The traffic matrix datatype.

A :class:`TrafficMatrix` maps ordered PoP pairs to aggregate demands.  Each
aggregate carries a mean rate (bits/s) and a flow count — the paper's
latency objective weights each aggregate by its number of flows ``n_a``, and
ingress routers are assumed to report both quantities (§5).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

Pair = Tuple[str, str]

#: Version tag of the :func:`to_json` document layout.
TM_JSON_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Aggregate:
    """Traffic between one ordered PoP pair."""

    src: str
    dst: str
    demand_bps: float
    n_flows: int = 1

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"aggregate with equal endpoints {self.src!r}")
        if self.demand_bps < 0:
            raise ValueError(f"negative demand for {self.src}->{self.dst}")
        if self.n_flows < 1:
            raise ValueError(f"aggregate {self.src}->{self.dst} needs >= 1 flow")

    @property
    def pair(self) -> Pair:
        return (self.src, self.dst)


# One flow per 5 Mb/s of demand is a reasonable backbone-aggregate figure;
# the exact constant only affects the flow-count weighting, not feasibility.
BPS_PER_FLOW = 5e6


class TrafficMatrix:
    """Demands for a set of ordered PoP pairs.

    The matrix is immutable in spirit: shaping operations return new
    matrices.  Pairs with zero demand are retained (the locality LP may
    redistribute volume onto them) but are dropped by :meth:`aggregates`.
    """

    def __init__(
        self,
        demands_bps: Mapping[Pair, float],
        flow_counts: Optional[Mapping[Pair, int]] = None,
    ) -> None:
        self._demands: Dict[Pair, float] = {}
        for (src, dst), demand in demands_bps.items():
            if src == dst:
                raise ValueError(f"demand with equal endpoints {src!r}")
            if demand < 0:
                raise ValueError(f"negative demand for {src}->{dst}")
            self._demands[(src, dst)] = float(demand)
        if flow_counts is not None:
            self._flows = {pair: int(count) for pair, count in flow_counts.items()}
        else:
            self._flows = {
                pair: max(1, int(round(demand / BPS_PER_FLOW)))
                for pair, demand in self._demands.items()
            }

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def demand(self, src: str, dst: str) -> float:
        return self._demands.get((src, dst), 0.0)

    def flows(self, src: str, dst: str) -> int:
        return self._flows.get((src, dst), 1)

    @property
    def pairs(self) -> List[Pair]:
        return list(self._demands)

    def items(self) -> Iterator[Tuple[Pair, float]]:
        return iter(self._demands.items())

    def aggregates(self, min_demand_bps: float = 1.0) -> List[Aggregate]:
        """Non-trivial aggregates, in deterministic order."""
        return [
            Aggregate(src, dst, demand, self.flows(src, dst))
            for (src, dst), demand in self._demands.items()
            if demand >= min_demand_bps
        ]

    @property
    def total_demand_bps(self) -> float:
        return sum(self._demands.values())

    def ingress_bps(  # analysis: allow[R401] tests check apply_locality's marginals with it
        self, node: str
    ) -> float:
        """Total traffic sourced at ``node``."""
        return sum(d for (src, _), d in self._demands.items() if src == node)

    def egress_bps(  # analysis: allow[R401] tests check apply_locality's marginals with it
        self, node: str
    ) -> float:
        """Total traffic destined to ``node``."""
        return sum(d for (_, dst), d in self._demands.items() if dst == node)

    # ------------------------------------------------------------------
    # Shaping
    # ------------------------------------------------------------------
    def scaled(
        self, factor: float, pairs: Optional[Iterable[Pair]] = None
    ) -> "TrafficMatrix":
        """A copy with demands multiplied by ``factor``.

        With ``pairs=None`` every demand is scaled (the paper's uniform
        load dial).  With an explicit pair collection only those pairs
        surge — the flash-crowd perturbation — while all other demands
        and the overall pair (insertion) order are preserved, so the
        result stays order-stable under :meth:`__eq__` and JSON round
        trips.  Pairs absent from the matrix raise ``KeyError`` rather
        than silently creating demand out of nothing.
        """
        if factor < 0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        if pairs is None:
            return TrafficMatrix(
                {pair: demand * factor for pair, demand in self._demands.items()}
            )
        surged = set()
        for pair in pairs:
            if pair not in self._demands:
                raise KeyError(f"no demand pair {pair[0]} -> {pair[1]}")
            surged.add(pair)
        return TrafficMatrix(
            {
                pair: demand * factor if pair in surged else demand
                for pair, demand in self._demands.items()
            }
        )

    def aggregated(self, node_map: Mapping[str, str]) -> "TrafficMatrix":
        """Collapse endpoints through ``node_map``, summing demands.

        Every endpoint is replaced by ``node_map[endpoint]`` (names absent
        from the map keep themselves); demands and flow counts of pairs
        that collapse onto the same mapped pair are summed.  Pairs whose
        two endpoints collapse together (intra-group traffic) are
        *dropped* — compare :attr:`total_demand_bps` before and after to
        account for the removed volume, as :mod:`repro.tm.regions` does.
        Mapped pairs appear in first-touch order of the original
        (insertion-ordered) pairs, so the result is deterministic.
        """
        demands: Dict[Pair, float] = {}
        flows: Dict[Pair, int] = {}
        for (src, dst), demand in self._demands.items():
            mapped = (node_map.get(src, src), node_map.get(dst, dst))
            if mapped[0] == mapped[1]:
                continue
            demands[mapped] = demands.get(mapped, 0.0) + demand
            flows[mapped] = flows.get(mapped, 0) + self.flows(src, dst)
        return TrafficMatrix(demands, flow_counts=flows)

    def __len__(self) -> int:
        return len(self._demands)

    def __eq__(self, other: object) -> bool:
        """Equal iff demands (including pair order) and flow counts match.

        Pair order matters downstream — :meth:`aggregates` order feeds the
        LP models — so two matrices with identical values but different
        insertion order are *not* equal.
        """
        if not isinstance(other, TrafficMatrix):
            return NotImplemented
        return (
            list(self._demands.items()) == list(other._demands.items())
            and all(
                self.flows(*pair) == other.flows(*pair)
                for pair in self._demands
            )
        )

    __hash__ = None  # mutable mapping inside; never usable as a dict key

    def __repr__(self) -> str:
        return (
            f"TrafficMatrix(pairs={len(self._demands)}, "
            f"total={self.total_demand_bps / 1e9:.2f} Gb/s)"
        )


# ----------------------------------------------------------------------
# Serialization (mirrors :mod:`repro.net.io` for networks)
# ----------------------------------------------------------------------
def to_json(tm: TrafficMatrix) -> str:
    """Serialize a traffic matrix to a JSON string.

    Pairs appear in the matrix's own (insertion) order — the order
    :meth:`TrafficMatrix.aggregates` feeds the LP models — so a round trip
    is faithful, and the output is deterministic for signature hashing.
    Zero-demand pairs are retained, as the matrix itself retains them.
    """
    payload = {
        "format": "repro-tm",
        "version": TM_JSON_FORMAT_VERSION,
        "pairs": [
            {
                "src": src,
                "dst": dst,
                "demand_bps": demand,
                "n_flows": tm.flows(src, dst),
            }
            for (src, dst), demand in tm.items()
        ],
    }
    return json.dumps(payload, indent=2)


def from_json(text: str) -> TrafficMatrix:
    """Reconstruct a traffic matrix from :func:`to_json` output."""
    payload = json.loads(text)
    if payload.get("format") != "repro-tm":
        raise ValueError("not a repro traffic-matrix document")
    if payload.get("version") != TM_JSON_FORMAT_VERSION:
        raise ValueError(f"unsupported version {payload.get('version')!r}")
    demands: Dict[Pair, float] = {}
    flows: Dict[Pair, int] = {}
    for entry in payload["pairs"]:
        pair = (entry["src"], entry["dst"])
        demands[pair] = float(entry["demand_bps"])
        flows[pair] = int(entry["n_flows"])
    return TrafficMatrix(demands, flow_counts=flows)
