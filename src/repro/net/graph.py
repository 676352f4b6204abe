"""Directed-link network model.

A :class:`Network` is a set of named PoPs (:class:`Node`) joined by directed
:class:`Link` objects carrying a propagation delay and a capacity.  Physical
backbone links are full duplex, so the usual way to build a network is
:meth:`Network.add_duplex_link`, which installs one directed link in each
direction.  The distinction matters: the paper's B4 pathology (its Figure 5)
hinges on a link being full eastbound while its westbound twin still has
room.

The model is deliberately small and dependency-free; everything else in the
library (paths, flows, routing LPs) is built on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Node:
    """A point of presence.

    Coordinates are optional; the synthetic zoo always provides them so that
    link delays can be derived from geography.
    """

    name: str
    lat_deg: float = 0.0
    lon_deg: float = 0.0


@dataclass(frozen=True)
class Link:
    """A directed link between two PoPs."""

    src: str
    dst: str
    capacity_bps: float
    delay_s: float

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-loop link at {self.src!r}")
        if self.capacity_bps <= 0:
            raise ValueError(
                f"link {self.src}->{self.dst}: capacity must be positive, "
                f"got {self.capacity_bps}"
            )
        if self.delay_s < 0:
            raise ValueError(
                f"link {self.src}->{self.dst}: delay must be non-negative, "
                f"got {self.delay_s}"
            )

    @property
    def key(self) -> Tuple[str, str]:
        """The (src, dst) pair identifying this directed link."""
        return (self.src, self.dst)

    def reversed(self) -> "Link":
        """The same link in the opposite direction."""
        return replace(self, src=self.dst, dst=self.src)


class Network:
    """A backbone topology: named nodes plus directed capacitated links.

    The class keeps an adjacency index for fast path algorithms and exposes
    links in a stable, deterministic order (insertion order), which keeps
    all downstream LP formulations and random workloads reproducible.
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[str]] = {}
        #: Memoized content hash, maintained for
        #: :func:`repro.net.paths.network_signature`; every topology
        #: mutation resets it.
        self._signature_memo: Optional[str] = None
        #: Compiled sparse view cached by :func:`repro.net.index.graph_index`,
        #: as a ``(signature_token, GraphIndex)`` pair.  The token is checked
        #: by *identity* against ``_signature_memo``, so any mutation (which
        #: nulls the memo) invalidates the index even if a later mutation
        #: restores the same signature value.  Excluded from pickles.
        self._graph_index: Optional[Tuple[str, Any]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add a node; re-adding the same name with new data replaces it."""
        self._nodes[node.name] = node
        self._adjacency.setdefault(node.name, [])
        self._signature_memo = None

    def add_link(self, link: Link) -> None:
        """Add one directed link.  Both endpoints must already exist."""
        for endpoint in (link.src, link.dst):
            if endpoint not in self._nodes:
                raise KeyError(f"unknown node {endpoint!r}")
        if link.key in self._links:
            raise ValueError(f"duplicate link {link.src}->{link.dst}")
        self._links[link.key] = link
        self._adjacency[link.src].append(link.dst)
        self._signature_memo = None

    def add_duplex_link(
        self, src: str, dst: str, capacity_bps: float, delay_s: float
    ) -> None:
        """Add a full-duplex physical link as two directed links."""
        self.add_link(Link(src, dst, capacity_bps, delay_s))
        self.add_link(Link(dst, src, capacity_bps, delay_s))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_names(self) -> List[str]:
        return list(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def node(self, name: str) -> Node:
        return self._nodes[name]

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def has_link(self, src: str, dst: str) -> bool:
        return (src, dst) in self._links

    def link(self, src: str, dst: str) -> Link:
        return self._links[(src, dst)]

    def links(self) -> Iterator[Link]:
        """All directed links, in insertion order."""
        return iter(self._links.values())

    def duplex_pairs(self) -> List[Tuple[str, str]]:
        """Unordered endpoint pairs that have links in both directions."""
        seen = set()
        pairs = []
        for (src, dst) in self._links:
            canonical = (min(src, dst), max(src, dst))
            if canonical in seen:
                continue
            if (dst, src) in self._links:
                seen.add(canonical)
                pairs.append(canonical)
        return pairs

    def successors(self, name: str) -> List[str]:
        """Nodes reachable over one directed link from ``name``."""
        return list(self._adjacency[name])

    def out_links(self, name: str) -> List[Link]:
        return [self._links[(name, nbr)] for nbr in self._adjacency[name]]

    def degree(self, name: str) -> int:
        """Out-degree of a node (equals physical degree in duplex networks)."""
        return len(self._adjacency[name])

    def total_capacity_bps(self) -> float:
        return sum(link.capacity_bps for link in self._links.values())

    # ------------------------------------------------------------------
    # Derived networks
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Network":
        clone = Network(name if name is not None else self.name)
        for node in self._nodes.values():
            clone.add_node(node)
        for link in self._links.values():
            clone.add_link(link)
        return clone

    def with_capacity_factor(self, factor: float) -> "Network":
        """A copy with every link capacity multiplied by ``factor``.

        This implements the paper's headroom dial: reserving headroom ``h``
        is the same as routing on the topology scaled by ``1 - h``.
        """
        if factor <= 0:
            raise ValueError(f"capacity factor must be positive, got {factor}")
        clone = Network(self.name)
        for node in self._nodes.values():
            clone.add_node(node)
        for link in self._links.values():
            clone.add_link(replace(link, capacity_bps=link.capacity_bps * factor))
        return clone

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Pickle without the compiled graph index.

        The index is a pure cache, cheap to rebuild and potentially large
        (CSR arrays for a 10k-node graph); shipping it across a process
        boundary would bloat every payload for nothing.
        """
        state = dict(self.__dict__)
        state["_graph_index"] = None
        return state

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __repr__(self) -> str:
        return (
            f"Network({self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_links})"
        )
