"""Frozen parameters of the benchmark (no heavy imports: the parent reads this).

``BENCHMARK.json`` has no room for workload parameters, so they are
frozen here and echoed in every result's fingerprint.  Each workload has
exactly one documented *size knob*; nothing else may change without
re-measuring the baseline.
"""

from __future__ import annotations

from typing import Any, Dict

#: Minimum repetitions per run, each in a fresh child interpreter.
REPETITIONS = 5
#: A run adds repetitions past the minimum until the summed measured
#: time reaches ``--seconds``, but never more than this many.
MAX_REPETITIONS = 12

#: Environment pinned in every child (recorded in the fingerprint).
PINNED_ENV = {
    "REPRO_LP_BACKEND": "scipy",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: The topology corpus and the base demands are part of the frozen
#: parameters, NOT of the seed.  Run time on a zoo ensemble follows which
#: topology families the zoo seed happens to draw (3.2-5.7 s over seeds
#: 0-3 at one size) and, on fixed topologies, which gravity masses land
#: on which PoP (2.4-5.0 s over ten seeds on ``fleet_k1``) — input
#: variance that would drown any code change.  ``--seed`` therefore
#: drives what can vary without changing the amount of work: every
#: demand is scaled by an independent factor in
#: ``[1 - DEMAND_JITTER, 1 + DEMAND_JITTER]``, and the scenario fleet's
#: sampled variants (which pairs surge) are drawn from it.
ZOO_TOPOLOGY_SEED = 0
INGEST_TOPOLOGY_SEED = 42
BASE_DEMAND_SEED = 0
DEMAND_JITTER = 0.05

WORKLOADS = ("zoo_fig04", "fleet_k1", "dispatch_fig17", "ingest_scale")

PROFILES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        # size knob: n_networks (the three named backbones ride along)
        "zoo_fig04": {
            "n_networks": 7, "n_matrices": 2, "named_backbones": True,
        },
        # size knob: budget (link failures sampled per seed beyond it)
        "fleet_k1": {
            "n_networks": 8, "n_matrices": 1, "surges": 4, "budget": 50,
            "named_backbones": True,
        },
        # size knob: n_networks
        "dispatch_fig17": {
            "n_networks": 3, "n_matrices": 2, "loads": [0.6, 0.9],
            "named_backbones": True,
        },
        # size knob: nodes
        "ingest_scale": {
            "nodes": 3300, "pairs_per_node": 20, "max_pairs": 156,
            "minmax_k": 4,
        },
    },
    "smoke": {
        "zoo_fig04": {
            "n_networks": 2, "n_matrices": 1, "named_backbones": False,
        },
        "fleet_k1": {
            "n_networks": 2, "n_matrices": 1, "surges": 2, "budget": 6,
            "named_backbones": False,
        },
        "dispatch_fig17": {
            "n_networks": 2, "n_matrices": 1, "loads": [0.6],
            "named_backbones": False,
        },
        "ingest_scale": {
            "nodes": 300, "pairs_per_node": 20, "max_pairs": 30,
            "minmax_k": 4,
        },
    },
}

#: Outside KSP/placement probes touch at most this many workload items
#: (evenly strided) so a 170-variant fleet does not re-run in the probe.
PROBE_ITEM_CAP = 16
#: Paths requested per demand pair by the KSP probe.
PROBE_KSP_K = 3
