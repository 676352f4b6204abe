"""Deterministic, seeded scenario-fleet generation.

:class:`ScenarioGenerator` turns one base workload item into a fleet of
:class:`~repro.scenarios.spec.ScenarioSpec` variants: exhaustive k-link /
k-node failures while the combination count fits a budget (seeded
distinct sampling beyond it), flash-crowd surges on seeded demand-pair
subsets, locality shifts, and staged topology growth.  Everything is a
pure function of ``(base item, seed, parameters)``:

* candidate sets are sorted before any enumeration or sampling, so the
  fleet is independent of hash seeds and hosts;
* every RNG is an explicitly seeded ``np.random.default_rng`` derived
  from the generator seed plus a per-kind tag, so two processes build
  bit-identical fleets;
* variants whose failures sever a demand pair are *skipped and counted*
  (see :class:`ScenarioSet`), never silently dropped — the counts are
  part of the robustness report.

The feasibility screen here is a cheap adjacency BFS (no Network copies,
no LP); :meth:`ScenarioSpec.apply` re-checks authoritatively when the
variant is realized.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.experiments.workloads import NetworkWorkload
from repro.scenarios.spec import BASELINE, ScenarioSpec

__all__ = ["ScenarioGenerator", "ScenarioSet"]

#: Above this many variants per perturbation kind, exhaustive
#: enumeration gives way to seeded distinct sampling.
DEFAULT_BUDGET = 1000


@dataclass
class ScenarioSet:
    """A generated fleet: ordered specs plus skip accounting."""

    specs: List[ScenarioSpec]
    #: Infeasible variants skipped during generation, by perturbation kind.
    skipped: Dict[str, int] = field(default_factory=dict)

    @property
    def n_infeasible(self) -> int:
        return sum(self.skipped.values())

    def kind_counts(self) -> Dict[str, int]:
        """Generated variants per perturbation kind (deterministic order)."""
        counts: Dict[str, int] = {}
        for spec in self.specs:
            counts[spec.kind] = counts.get(spec.kind, 0) + 1
        return counts


class ScenarioGenerator:
    """Seeded perturbation-fleet builder for one base workload item.

    ``seed`` is required (keyword-only): an unseeded fleet would differ
    between the coordinator and its dispatch workers, which the
    determinism contract forbids (a call that omits it raises
    ``TypeError``).
    """

    def __init__(self, base: NetworkWorkload, *, seed: int) -> None:
        self.base = base
        self.seed = int(seed)
        network = base.network
        self._node_order: List[str] = list(network.node_names)
        self._adjacency: Dict[str, List[str]] = {
            name: list(network.successors(name)) for name in self._node_order
        }
        self._duplex: List[Tuple[str, str]] = sorted(network.duplex_pairs())
        pairs: List[Tuple[str, str]] = []
        seen = set()
        for tm in base.matrices:
            for pair, demand in tm.items():
                if demand > 0 and pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
        self._demand_pairs: List[Tuple[str, str]] = pairs

    # ------------------------------------------------------------------
    # Feasibility screen (cheap, Network-copy-free)
    # ------------------------------------------------------------------
    def _component_labels(
        self,
        failed_links: Tuple[Tuple[str, str], ...],
        failed_nodes: Tuple[str, ...],
    ) -> Dict[str, int]:
        removed = {frozenset(pair) for pair in failed_links}
        down = set(failed_nodes)
        labels: Dict[str, int] = {}
        n_components = 0
        for start in self._node_order:
            if start in down or start in labels:
                continue
            labels[start] = n_components
            queue = deque([start])
            while queue:
                node = queue.popleft()
                for neighbor in self._adjacency[node]:
                    if neighbor in down or neighbor in labels:
                        continue
                    if removed and frozenset((node, neighbor)) in removed:
                        continue
                    labels[neighbor] = n_components
                    queue.append(neighbor)
            n_components += 1
        return labels

    def is_feasible(self, spec: ScenarioSpec) -> bool:
        """Whether the spec's failures leave every live demand pair connected."""
        labels = self._component_labels(spec.failed_links, spec.failed_nodes)
        down = set(spec.failed_nodes)
        for src, dst in self._demand_pairs:
            if src in down or dst in down:
                continue
            if labels[src] != labels[dst]:
                return False
        return True

    # ------------------------------------------------------------------
    # Combination enumeration / sampling
    # ------------------------------------------------------------------
    def _combinations(
        self, items: Sequence, k: int, budget: int, kind_tag: int
    ) -> List[Tuple]:
        """Distinct k-subsets of ``items``: exhaustive if they fit ``budget``,
        else a seeded sample of ``budget`` distinct subsets."""
        if k <= 0 or k > len(items):
            return []
        total = math.comb(len(items), k)
        if total <= budget:
            return list(combinations(items, k))
        rng = np.random.default_rng([self.seed, kind_tag, k])
        chosen = set()
        picked: List[Tuple] = []
        attempts = 0
        max_attempts = budget * 50
        while len(picked) < budget and attempts < max_attempts:
            attempts += 1
            indices = tuple(
                sorted(rng.choice(len(items), size=k, replace=False).tolist())
            )
            if indices in chosen:
                continue
            chosen.add(indices)
            picked.append(tuple(items[i] for i in indices))
        return picked

    # ------------------------------------------------------------------
    # Perturbation kinds
    # ------------------------------------------------------------------
    def link_failures(
        self, k: int, budget: int = DEFAULT_BUDGET
    ) -> Tuple[List[ScenarioSpec], int]:
        """All (or a seeded sample of) k-link failure variants.

        Returns ``(feasible specs, skipped count)``; infeasible combos —
        those severing a demand pair — are screened out deterministically.
        """
        specs: List[ScenarioSpec] = []
        skipped = 0
        for combo in self._combinations(self._duplex, k, budget, kind_tag=101):
            spec = ScenarioSpec(failed_links=tuple(combo))
            if self.is_feasible(spec):
                specs.append(spec)
            else:
                skipped += 1
        return specs, skipped

    def node_failures(
        self, k: int, budget: int = DEFAULT_BUDGET
    ) -> Tuple[List[ScenarioSpec], int]:
        """k-node failure variants; demands touching failed nodes drop."""
        specs: List[ScenarioSpec] = []
        skipped = 0
        names = sorted(self._node_order)
        for combo in self._combinations(names, k, budget, kind_tag=102):
            spec = ScenarioSpec(failed_nodes=tuple(combo))
            down = set(combo)
            live = [
                pair
                for pair in self._demand_pairs
                if pair[0] not in down and pair[1] not in down
            ]
            if not live:
                skipped += 1
                continue
            if self.is_feasible(spec):
                specs.append(spec)
            else:
                skipped += 1
        return specs, skipped

    def flash_crowds(
        self, n: int, factor: float = 5.0, n_pairs: int = 2
    ) -> List[ScenarioSpec]:
        """``n`` seeded flash-crowd variants, each surging ``n_pairs`` demands."""
        if not self._demand_pairs or n <= 0:
            return []
        n_pairs = min(n_pairs, len(self._demand_pairs))
        rng = np.random.default_rng([self.seed, 103])
        specs: List[ScenarioSpec] = []
        seen = set()
        attempts = 0
        while len(specs) < n and attempts < n * 50:
            attempts += 1
            indices = tuple(
                sorted(
                    rng.choice(
                        len(self._demand_pairs), size=n_pairs, replace=False
                    ).tolist()
                )
            )
            if indices in seen:
                continue
            seen.add(indices)
            specs.append(
                ScenarioSpec(
                    surge_pairs=tuple(self._demand_pairs[i] for i in indices),
                    surge_factor=float(factor),
                )
            )
        return specs

    def locality_shifts(
        self, localities: Iterable[float]
    ) -> List[ScenarioSpec]:
        """One regional-shift variant per locality value."""
        return [ScenarioSpec(locality=float(value)) for value in localities]

    def growth(self, stages: int) -> List[ScenarioSpec]:
        """Staged topology growth: stage ``s`` adds the first ``s`` links.

        Candidates come from :func:`repro.net.mutate.candidate_links`
        (geographically-shortest first, seeded tie-break), so the staged
        sequence is nested and deterministic.
        """
        if stages <= 0:
            return []
        from repro.net.mutate import candidate_links

        rng = np.random.default_rng([self.seed, 104])
        candidates = candidate_links(
            self.base.network, max_candidates=stages, rng=rng
        )
        return [
            ScenarioSpec(growth_links=tuple(candidates[:stage]))
            for stage in range(1, len(candidates) + 1)
        ]

    # ------------------------------------------------------------------
    # Fleet assembly
    # ------------------------------------------------------------------
    def fleet(
        self,
        *,
        link_failure_k: int = 0,
        node_failure_k: int = 0,
        surges: int = 0,
        surge_factor: float = 5.0,
        surge_pairs: int = 2,
        localities: Iterable[float] = (),
        growth_stages: int = 0,
        budget: int = DEFAULT_BUDGET,
    ) -> ScenarioSet:
        """Assemble the fleet: baseline first, then each requested kind.

        Variant 0 is always the unperturbed baseline, so per-scheme
        degradation is computable within the stream itself.
        """
        specs: List[ScenarioSpec] = [BASELINE]
        skipped: Dict[str, int] = {}
        if link_failure_k > 0:
            kind_specs, n_skipped = self.link_failures(link_failure_k, budget)
            specs.extend(kind_specs)
            if n_skipped:
                skipped["link_failure"] = n_skipped
        if node_failure_k > 0:
            kind_specs, n_skipped = self.node_failures(node_failure_k, budget)
            specs.extend(kind_specs)
            if n_skipped:
                skipped["node_failure"] = n_skipped
        specs.extend(self.flash_crowds(surges, surge_factor, surge_pairs))
        specs.extend(self.locality_shifts(localities))
        specs.extend(self.growth(growth_stages))
        return ScenarioSet(specs=specs, skipped=skipped)
