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

The feasibility screen is :func:`repro.net.mutate.drops_every_demand`
and :func:`repro.net.mutate.severed_pair` on the base topology (one BFS,
no Network copy, no LP); :meth:`ScenarioSpec.apply` applies the same
rules to the realized variant, so a kept spec realizes and a skipped one
would raise :class:`ScenarioInfeasible`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.experiments.workloads import NetworkWorkload
from repro.net.mutate import (
    candidate_links, demand_pairs, drops_every_demand, severed_pair,
)
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

    def kind_counts(self) -> Dict[str, int]:
        """Generated variants per perturbation kind (deterministic order)."""
        counts: Dict[str, int] = {}
        for spec in self.specs:
            counts[spec.kind] = counts.get(spec.kind, 0) + 1
        return counts


def _distinct_subsets(
    rng: np.random.Generator, n: int, k: int, count: int
) -> List[Tuple[int, ...]]:
    """Up to ``count`` distinct sorted k-subsets of ``range(n)``.

    Subsets are drawn from ``rng`` in order, duplicates skipped; the loop
    gives up after ``50 * count`` draws, so a small ``n`` cannot spin.
    """
    picked: Dict[Tuple[int, ...], None] = {}
    for _ in range(50 * count):
        if len(picked) >= count:
            break
        draw = rng.choice(n, size=k, replace=False)
        picked.setdefault(tuple(sorted(draw.tolist())))
    return list(picked)


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
        self._demand_pairs = demand_pairs(base.matrices)

    def _screen(
        self, specs: List[ScenarioSpec]
    ) -> Tuple[List[ScenarioSpec], int]:
        """The specs severing no live demand pair, and how many did."""
        kept = [
            spec for spec in specs
            if severed_pair(
                self.base.network, self._demand_pairs,
                spec.failed_links, spec.failed_nodes,
            ) is None
        ]
        return kept, len(specs) - len(kept)

    def _combinations(
        self, items: Sequence, k: int, budget: int, kind_tag: int
    ) -> List[Tuple]:
        """Distinct k-subsets of ``items``: exhaustive if they fit ``budget``,
        else a seeded sample of ``budget`` distinct subsets."""
        if k <= 0 or k > len(items):
            return []
        if math.comb(len(items), k) <= budget:
            return list(combinations(items, k))
        rng = np.random.default_rng([self.seed, kind_tag, k])
        return [
            tuple(items[i] for i in indices)
            for indices in _distinct_subsets(rng, len(items), k, budget)
        ]

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
        duplex = sorted(self.base.network.duplex_pairs())
        combos = self._combinations(duplex, k, budget, kind_tag=101)
        return self._screen([ScenarioSpec(failed_links=combo) for combo in combos])

    def node_failures(
        self, k: int, budget: int = DEFAULT_BUDGET
    ) -> Tuple[List[ScenarioSpec], int]:
        """k-node failure variants; demands touching failed nodes drop.

        A combination that drops every demand is skipped too.
        """
        names = sorted(self.base.network.node_names)
        combos = self._combinations(names, k, budget, kind_tag=102)
        live = [
            combo for combo in combos
            if not drops_every_demand(self._demand_pairs, combo)
        ]
        kept, severed = self._screen([ScenarioSpec(failed_nodes=c) for c in live])
        return kept, len(combos) - len(live) + severed

    def flash_crowds(
        self, n: int, factor: float = 5.0, n_pairs: int = 2
    ) -> List[ScenarioSpec]:
        """``n`` seeded flash-crowd variants, each surging ``n_pairs`` demands."""
        pairs = self._demand_pairs
        if not pairs or n <= 0:
            return []
        rng = np.random.default_rng([self.seed, 103])
        subsets = _distinct_subsets(rng, len(pairs), min(n_pairs, len(pairs)), n)
        return [
            ScenarioSpec(
                surge_pairs=tuple(pairs[i] for i in indices),
                surge_factor=float(factor),
            )
            for indices in subsets
        ]

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
        for kind, k, screened in (
            ("link_failure", link_failure_k, self.link_failures),
            ("node_failure", node_failure_k, self.node_failures),
        ):
            if k > 0:
                kind_specs, n_skipped = screened(k, budget)
                specs.extend(kind_specs)
                if n_skipped:
                    skipped[kind] = n_skipped
        specs.extend(self.flash_crowds(surges, surge_factor, surge_pairs))
        specs.extend(self.locality_shifts(localities))
        specs.extend(self.growth(growth_stages))
        return ScenarioSet(specs=specs, skipped=skipped)
