"""Composable perturbation specs.

A :class:`ScenarioSpec` is a small, frozen, picklable description of how
to perturb one base (network, traffic-matrix ensemble) item: which
physical links or nodes fail, which demand pairs surge and by how much,
what locality the demand is reshaped to, and which staged-growth links
are added.  Perturbation kinds compose — a spec may surge a flash crowd
*on top of* a 2-link failure — and :meth:`ScenarioSpec.apply` realizes
the variant as an ordinary
:class:`~repro.experiments.workloads.NetworkWorkload`, so the whole
engine/store/dispatch spine runs unchanged.

Specs are pure data: applying the same spec to the same base item always
yields the same variant, and :meth:`ScenarioSpec.signature` hashes the
canonical JSON form so stores and manifests can identify variants by
content.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.metrics import ApaParameters, llpd
from repro.experiments.workloads import NetworkWorkload
from repro.net.mutate import (
    ScenarioInfeasible,
    demand_pairs,
    drops_every_demand,
    severed_pair,
    with_added_link,
    without_failures,
)
from repro.net.paths import KspCache
from repro.tm import TrafficMatrix, apply_locality

__all__ = ["ScenarioSpec", "ScenarioInfeasible", "BASELINE"]

#: Version tag of the :meth:`ScenarioSpec.to_jsonable` layout; part of
#: every spec signature, so a layout change invalidates stored variants.
SPEC_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ScenarioSpec:
    """One deterministic perturbation of a base workload item.

    All fields are optional and compose; the empty spec is the
    unperturbed baseline.  Tuples keep the spec hashable and picklable.
    """

    #: Physical (duplex) links to fail, as ordered ``(a, b)`` endpoint
    #: pairs matching the base topology's duplex pairs.
    failed_links: Tuple[Tuple[str, str], ...] = ()
    #: Nodes to fail; demands touching a failed node are dropped.
    failed_nodes: Tuple[str, ...] = ()
    #: Demand pairs hit by a flash crowd, scaled by :attr:`surge_factor`.
    surge_pairs: Tuple[Tuple[str, str], ...] = ()
    surge_factor: float = 1.0
    #: Reshape demand to this locality fraction (``None`` = leave as-is).
    locality: Optional[float] = None
    #: Staged-growth links to add (endpoint pairs; zoo-class capacities).
    growth_links: Tuple[Tuple[str, str], ...] = ()

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """A deterministic label of the perturbation kinds composed."""
        kinds: List[str] = []
        if self.growth_links:
            kinds.append("growth")
        if self.failed_links:
            kinds.append("link_failure")
        if self.failed_nodes:
            kinds.append("node_failure")
        if self.surge_pairs:
            kinds.append("flash_crowd")
        if self.locality is not None:
            kinds.append("locality_shift")
        return "+".join(kinds) if kinds else "baseline"

    def label(self) -> str:
        """A short human-readable variant label (used in network names)."""
        parts: List[str] = []
        if self.growth_links:
            parts.append("grow[%s]" % ",".join(
                f"{a}--{b}" for a, b in self.growth_links
            ))
        if self.failed_links:
            parts.append("fail[%s]" % ",".join(
                f"{a}--{b}" for a, b in self.failed_links
            ))
        if self.failed_nodes:
            parts.append("down[%s]" % ",".join(self.failed_nodes))
        if self.surge_pairs:
            parts.append(
                f"surge[x{self.surge_factor:g}:{len(self.surge_pairs)}p]"
            )
        if self.locality is not None:
            parts.append(f"loc[{self.locality:g}]")
        return "+".join(parts) if parts else "baseline"

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "format": "repro-scenario",
            "version": SPEC_FORMAT_VERSION,
            "failed_links": [list(pair) for pair in self.failed_links],
            "failed_nodes": list(self.failed_nodes),
            "surge_pairs": [list(pair) for pair in self.surge_pairs],
            "surge_factor": self.surge_factor,
            "locality": self.locality,
            "growth_links": [list(pair) for pair in self.growth_links],
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "ScenarioSpec":
        if payload.get("format") != "repro-scenario":
            raise ValueError("not a repro scenario document")
        if payload.get("version") != SPEC_FORMAT_VERSION:
            raise ValueError(
                f"unsupported scenario version {payload.get('version')!r}"
            )
        return cls(
            failed_links=tuple(
                (a, b) for a, b in payload["failed_links"]
            ),
            failed_nodes=tuple(payload["failed_nodes"]),
            surge_pairs=tuple((a, b) for a, b in payload["surge_pairs"]),
            surge_factor=float(payload["surge_factor"]),
            locality=payload["locality"],
            growth_links=tuple((a, b) for a, b in payload["growth_links"]),
        )

    def signature(self) -> str:
        """Content hash of the canonical JSON form."""
        canonical = json.dumps(self.to_jsonable(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Realization
    # ------------------------------------------------------------------
    def apply(self, base: NetworkWorkload) -> NetworkWorkload:
        """Realize this spec against a base item.

        Order of operations: growth first (the what-if topology), then the
        failures as one :func:`~repro.net.mutate.without_failures` copy,
        then demand perturbations (node-failure demand drops, flash-crowd
        surge, locality reshape).  Raises :class:`ScenarioInfeasible` when
        the failed nodes drop every demand or a demand pair is severed:
        the rules of the generator's screen,
        :func:`~repro.net.mutate.drops_every_demand` and
        :func:`~repro.net.mutate.severed_pair`.

        LLPD is recomputed only for growth variants (growth *targets*
        LLPD); failure/surge variants keep the base item's LLPD — the
        robustness report compares schemes on one topology family, where
        re-deriving the descriptive metric per variant would only slow
        the fleet down.

        Growth variants are not subgraphs of the base, so they get a plain
        KSP cache.  Every other variant's cache is derived from the base
        item's (see :class:`~repro.net.paths.KspCache`): it serves each
        pair from the base's Yen order wherever that provably equals Yen
        on the variant, so a fleet runs Yen about once per pair, on its
        base.  Forked workers inherit the base item and warm its cache
        lazily, each for the pairs its own variants ask for.
        """
        if self.kind == "baseline":
            return base
        if self.failed_nodes and drops_every_demand(
            demand_pairs(base.matrices), self.failed_nodes
        ):
            raise ScenarioInfeasible(
                f"{base.network.name}: failing {', '.join(self.failed_nodes)}"
                " drops every demand"
            )
        network = base.network
        for a, b in self.growth_links:
            network = with_added_link(network, a, b)
        label = self.label()
        named = without_failures(
            network, self.failed_links, self.failed_nodes,
            name=f"{base.network.name}#{label}",
        )

        down = set(self.failed_nodes)
        matrices: List[TrafficMatrix] = []
        for tm in base.matrices:
            if down:
                live = [pair for pair in tm.pairs if down.isdisjoint(pair)]
                tm = TrafficMatrix(
                    {pair: tm.demand(*pair) for pair in live},
                    flow_counts={pair: tm.flows(*pair) for pair in live},
                )
            if self.surge_pairs:
                tm = tm.scaled(self.surge_factor, pairs=self.surge_pairs)
            matrices.append(tm)

        # Feasibility before any LP touches the variant.  The locality
        # reshape may move volume onto zero-demand pairs, so then every
        # matrix pair needs a path.
        severed = severed_pair(
            named, demand_pairs(matrices, every_pair=self.locality is not None)
        )
        if severed is not None:
            raise ScenarioInfeasible(
                f"{base.network.name}: demand pair {severed[0]} -> "
                f"{severed[1]} disconnected"
            )
        if self.locality is not None:
            matrices = [
                apply_locality(named, tm, self.locality) for tm in matrices
            ]

        cache: Optional[KspCache] = None
        if self.growth_links:
            value = llpd(named, ApaParameters())
        else:
            value = base.llpd
            # A pruned base clamps its lists, so it has none to derive.
            if base.cache.pruner is None:
                cache = KspCache(
                    named, base=base.cache, failed_links=self.failed_links,
                    failed_nodes=self.failed_nodes,
                )
        return NetworkWorkload(
            network=named, llpd=value, matrices=matrices, cache=cache,
            scenario=label,
        )


#: The unperturbed spec; variant 0 of every fleet.
BASELINE = ScenarioSpec()
