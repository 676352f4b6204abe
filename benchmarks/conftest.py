"""Shared fixtures for the per-figure benchmark suite.

Each ``bench_figNN_*.py`` module regenerates one figure of the paper:
it runs the corresponding experiment, checks the qualitative *shape* the
paper reports, writes the numeric series to ``benchmarks/results/`` and
times the run via pytest-benchmark.

Scale: the paper uses 116 networks x 100 traffic matrices; the defaults
here are laptop-sized.  Set ``REPRO_BENCH_NETWORKS`` / ``REPRO_BENCH_TMS``
to scale the ensembles up.

These modules reproduce figures; performance is measured end to end, per
layer, by ``benchmarks/e2e`` (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.workloads import ZooWorkload, build_zoo_workload

RESULTS_DIR = Path(__file__).parent / "results"

N_NETWORKS = int(os.environ.get("REPRO_BENCH_NETWORKS", "18"))
N_MATRICES = int(os.environ.get("REPRO_BENCH_TMS", "2"))
N_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


def emit(name: str, text: str) -> None:
    """Write a figure's series to the results directory and to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n[{name}] written to {path}\n{text}")


@pytest.fixture(scope="session")
def standard_workload() -> ZooWorkload:
    """The paper's default setting: locality 1, min-cut load 77%."""
    return build_zoo_workload(
        n_networks=N_NETWORKS,
        n_matrices=N_MATRICES,
        locality=1.0,
        growth_factor=1.3,
        seed=0,
    )


@pytest.fixture(scope="session")
def light_workload() -> ZooWorkload:
    """The Figure 8 setting: min-cut load 60% (traffic could grow 1.65x)."""
    return build_zoo_workload(
        n_networks=N_NETWORKS,
        n_matrices=N_MATRICES,
        locality=1.0,
        growth_factor=1.65,
        seed=0,
    )


@pytest.fixture(scope="session")
def high_llpd_items(standard_workload):
    """Networks with LLPD > 0.5 — "the hardest to route" (Figure 15)."""
    items = [w for w in standard_workload.networks if w.llpd > 0.5]
    assert items, "zoo must contain high-LLPD networks"
    return items
