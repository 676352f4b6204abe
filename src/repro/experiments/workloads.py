"""Workload construction for the paper's experiments.

Each evaluation figure runs over (network, traffic-matrix ensemble) pairs:
networks from the (synthetic) topology zoo, and per-network gravity
matrices shaped by locality and scaled to a target load, exactly as §3
describes.  LLPD values are computed once per network and cached on the
workload, since every figure plots against them.

Scale note: the paper uses 116 networks x 100 matrices.  The defaults here
(a few dozen networks x a handful of matrices) keep the full benchmark
suite laptop-sized; every knob is a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.metrics import llpd
from repro.net.graph import Network
from repro.net.io import from_json as network_from_json
from repro.net.io import to_json as network_to_json
from repro.net.paths import KspCache
from repro.net.zoo import generate_zoo
from repro.tm import (
    TrafficMatrix,
    apply_locality,
    gravity_traffic_matrix,
    scale_to_growth_headroom,
)
from repro.tm.matrix import from_json as tm_from_json
from repro.tm.matrix import to_json as tm_to_json


@dataclass
class NetworkWorkload:
    """One network plus its traffic matrices and cached analysis state."""

    network: Network
    llpd: float
    matrices: List[TrafficMatrix]
    cache: KspCache = field(repr=False, default=None)  # type: ignore[assignment]
    #: Scenario label when this item is a perturbed variant produced by
    #: :mod:`repro.scenarios` (``None`` for ordinary zoo items).  Purely
    #: descriptive — telemetry tags task spans with it; results and
    #: signatures derive from the perturbed content itself.
    scenario: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = KspCache(self.network)

    def to_jsonable(self) -> Dict[str, Any]:
        """The item's one JSON form: LLPD plus the network's and every
        matrix's ``to_json`` text.  JSON keeps floats exactly, so
        :meth:`from_jsonable` rebuilds an item that hashes and evaluates
        as this one does."""
        return {
            "llpd": self.llpd,
            "network": network_to_json(self.network),
            "matrices": [tm_to_json(tm) for tm in self.matrices],
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "NetworkWorkload":
        """Rebuild an item from :meth:`to_jsonable`'s form."""
        return cls(
            network=network_from_json(payload["network"]),
            llpd=float(payload["llpd"]),
            matrices=[tm_from_json(text) for text in payload["matrices"]],
        )


@dataclass
class ZooWorkload:
    """The full ensemble for one experiment configuration."""

    networks: List[NetworkWorkload]
    locality: float
    growth_factor: float
    #: RNG seed the ensemble was built from; ``None`` for hand-assembled
    #: workloads.  Recorded so the result store's workload signature covers
    #: it (see :func:`repro.experiments.store.workload_signature`).
    seed: Optional[int] = None


def build_traffic_matrices(
    network: Network,
    n_matrices: int,
    rng: np.random.Generator,
    locality: float = 1.0,
    growth_factor: float = 1.3,
) -> List[TrafficMatrix]:
    """Gravity matrices, locality-shaped and scaled to the target load."""
    matrices = []
    for _ in range(n_matrices):
        tm = gravity_traffic_matrix(network, rng)
        tm = apply_locality(network, tm, locality)
        tm = scale_to_growth_headroom(network, tm, growth_factor)
        matrices.append(tm)
    return matrices


def build_zoo_workload(
    n_networks: int = 24,
    n_matrices: int = 3,
    locality: float = 1.0,
    growth_factor: float = 1.3,
    seed: int = 0,
    include_named: bool = True,
) -> ZooWorkload:
    """Build the standard evaluation ensemble.

    ``growth_factor`` 1.3 gives the paper's default 77% min-cut load (its
    Figures 3, 4, 16); 1.65 gives the lighter 60% load of its Figure 8.
    """
    rng = np.random.default_rng(seed)
    networks = generate_zoo(n_networks, seed=seed, include_named=include_named)
    items: List[NetworkWorkload] = []
    for network in networks:
        if network.num_nodes < 2:
            continue
        value = llpd(network)
        matrices = build_traffic_matrices(
            network, n_matrices, rng, locality, growth_factor
        )
        items.append(NetworkWorkload(network=network, llpd=value, matrices=matrices))
    return ZooWorkload(
        networks=items, locality=locality, growth_factor=growth_factor, seed=seed
    )
