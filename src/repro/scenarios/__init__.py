"""Scenario fleets: composable what-if perturbations at 10^5-task scale.

The subsystem answers questions like "which scheme degrades least under
any 2-link failure on this network" by fanning one base workload item
out across a deterministic fleet of perturbed (topology, traffic)
variants and reporting degradation *distributions* per scheme:

* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec`, the picklable,
  content-hashed perturbation description (failures, flash crowds,
  locality shifts, staged growth; kinds compose);
* :mod:`repro.scenarios.generate` — :class:`ScenarioGenerator`, seeded
  fleet enumeration/sampling with deterministic infeasible-variant
  skip-and-count;
* :mod:`repro.scenarios.workload` — :class:`ScenarioWorkload`, the lazy
  ZooWorkload stand-in that materializes variants on demand and plugs
  into the store/dispatch layers via small hooks;
* :mod:`repro.scenarios.report` — the robustness report (per-scheme
  degradation quantiles vs the unperturbed baseline), text or
  byte-stable JSON.

The CLI entry point is ``python -m repro.experiments scenarios``.
"""

from repro.scenarios.generate import ScenarioGenerator, ScenarioSet
from repro.scenarios.spec import BASELINE, ScenarioInfeasible, ScenarioSpec
from repro.scenarios.workload import ScenarioWorkload

__all__ = [
    "BASELINE",
    "ScenarioGenerator",
    "ScenarioInfeasible",
    "ScenarioSet",
    "ScenarioSpec",
    "ScenarioWorkload",
]
