"""Experiment harness: workloads, runners and per-figure entry points.

Shared by the benchmark suite (one bench per paper figure) and the example
scripts.  :mod:`repro.experiments.workloads` builds (network, traffic
matrix ensemble) pairs; :mod:`repro.experiments.runner` holds the
per-matrix outcome record and its per-network reduction;
:mod:`repro.experiments.plan` declares whole-figure evaluation grids
(every scheme and sweep point) as flat batches;
:mod:`repro.experiments.engine` executes plans on one shared fork pool
(or serially) with persistent KSP caches; :mod:`repro.experiments.spec`
names schemes declaratively (picklable, registry-resolved) so
evaluations can cross process and host boundaries;
:mod:`repro.experiments.dispatch` shards a plan into self-contained
manifests, runs them in worker subprocesses and merges their result
stores; :mod:`repro.experiments.figures` defines
each paper figure once, engine-backed ones as a plan builder plus a
reducer of the plan's report into the figure's series;
:mod:`repro.experiments.render` prints them as text.
"""

# The tracer lives at the package root (a stdlib-only leaf that ``net`` and
# ``lp`` import directly); re-bound here because
# ``from repro.experiments import telemetry`` is a public spelling.
from repro import telemetry
from repro.experiments.workloads import ZooWorkload, build_zoo_workload
from repro.experiments.runner import SchemeOutcome
from repro.experiments.plan import EvalPlan, EvalTask, PlanReport
from repro.experiments.engine import ExperimentEngine, NetworkResult
from repro.experiments.spec import SchemeSpec, registered_schemes

__all__ = [
    "ZooWorkload",
    "build_zoo_workload",
    "SchemeOutcome",
    "EvalPlan",
    "EvalTask",
    "PlanReport",
    "ExperimentEngine",
    "NetworkResult",
    "SchemeSpec",
    "registered_schemes",
    "telemetry",
]
