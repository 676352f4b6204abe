"""Gravity-model traffic synthesis.

The paper synthesizes demand with "a variant of the gravity model [Roughan
2005].  This model generates traffic aggregates between PoP pairs according
to a Zipf distribution, as real-world traffic has been characterized."

We implement that as: each PoP draws a Zipf-ranked mass (rank assigned by a
random permutation), and the aggregate volume between two PoPs is
proportional to the product of their masses.  The product of two Zipf
variables is itself heavy-tailed, giving the few-elephants/many-mice
aggregate size distribution the paper relies on.  Absolute volume is
irrelevant at this stage — :mod:`repro.tm.scale` normalizes matrices to a
target network load.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.net.graph import Network
from repro.tm.matrix import TrafficMatrix

#: Total volume of a freshly synthesized matrix, before any load scaling.
TOTAL_BPS = 1e9

#: Index pairs converted to Python ints at a time by the sparse sampler.
PAIR_SLICE = 4096


def zipf_masses(n: int, rng: np.random.Generator) -> np.ndarray:
    """Zipf masses (``rank ** -1``) for ``n`` PoPs, ranks drawn at random."""
    if n < 1:
        raise ValueError(f"need at least one PoP, got {n}")
    ranks = rng.permutation(n) + 1
    return ranks.astype(float) ** (-1.0)


def gravity_traffic_matrix(
    network: Network,
    rng: np.random.Generator,
) -> TrafficMatrix:
    """A gravity-model traffic matrix over every ordered PoP pair.

    :data:`TOTAL_BPS` is the (arbitrary) pre-scaling total volume; call
    :func:`repro.tm.scale.scale_to_growth_headroom` afterwards to load the
    network as the paper does.
    """
    names = network.node_names
    if len(names) < 2:
        raise ValueError("gravity model needs at least two PoPs")
    masses = zipf_masses(len(names), rng)
    demands: Dict[Tuple[str, str], float] = {}
    weight_total = 0.0
    for i, src in enumerate(names):
        for j, dst in enumerate(names):
            if i == j:
                continue
            weight = masses[i] * masses[j]
            demands[(src, dst)] = weight
            weight_total += weight
    factor = TOTAL_BPS / weight_total
    return TrafficMatrix({pair: w * factor for pair, w in demands.items()})


def sparse_gravity_traffic_matrix(
    network: Network,
    rng: np.random.Generator,
    n_pairs: int,
) -> TrafficMatrix:
    """A gravity matrix over a mass-weighted *sample* of node pairs.

    :func:`gravity_traffic_matrix` materializes every ordered pair —
    10^8 demands on an ingest-scale graph.  Real backbone matrices are
    sparse (most PoP pairs exchange negligible traffic), so this samples
    ``n_pairs`` distinct pairs with endpoint probability proportional to
    the same Zipf masses: heavy PoPs appear in many pairs, light ones in
    few, preserving the few-elephants/many-mice shape at any scale.
    Deterministic for a given generator state.
    """
    names = network.node_names
    n = len(names)
    if n < 2:
        raise ValueError("gravity model needs at least two PoPs")
    if n_pairs < 1:
        raise ValueError(f"need at least one pair, got {n_pairs}")
    n_pairs = min(n_pairs, n * (n - 1))
    masses = zipf_masses(n, rng)
    probabilities = masses / masses.sum()
    demands: Dict[Tuple[str, str], float] = {}
    # Rejection-sample distinct pairs; with heavy skew the tail of distinct
    # pairs thins out, so after a stagnant round fall back to deterministic
    # enumeration in descending-mass order.
    stagnant = 0
    while len(demands) < n_pairs and stagnant < 2:
        batch = max(64, 2 * (n_pairs - len(demands)))
        srcs = rng.choice(n, size=batch, p=probabilities)
        dsts = rng.choice(n, size=batch, p=probabilities)
        before = len(demands)
        for i, j in _index_pairs(srcs, dsts):
            if i == j:
                continue
            pair = (names[i], names[j])
            if pair in demands:
                continue
            # A Python float holds the same double in less memory than a
            # numpy scalar.
            demands[pair] = float(masses[i] * masses[j])
            if len(demands) >= n_pairs:
                break
        # Free this batch before drawing the next; reassignment would free
        # it only after.
        del srcs, dsts
        stagnant = stagnant + 1 if len(demands) == before else 0
    if len(demands) < n_pairs:
        order = sorted(range(n), key=lambda i: (-masses[i], i))
        for i in order:
            for j in order:
                if i == j:
                    continue
                pair = (names[i], names[j])
                if pair not in demands:
                    demands[pair] = float(masses[i] * masses[j])
                    if len(demands) >= n_pairs:
                        break
            if len(demands) >= n_pairs:
                break
    # Summed left to right: the builtin sum() compensates float sums from
    # Python 3.12 on, which can move the total by an ulp.
    weight_total = 0.0
    for weight in demands.values():
        weight_total += weight
    factor = TOTAL_BPS / weight_total
    for pair in demands:
        demands[pair] *= factor
    return TrafficMatrix(demands)


def _index_pairs(srcs: np.ndarray, dsts: np.ndarray) -> Iterator[Tuple[int, int]]:
    """``zip(srcs.tolist(), dsts.tolist())``, one :data:`PAIR_SLICE` of
    Python ints at a time: a whole batch as two lists of ints would
    outweigh the demand dict it feeds."""
    for start in range(0, len(srcs), PAIR_SLICE):
        stop = start + PAIR_SLICE
        yield from zip(srcs[start:stop].tolist(), dsts[start:stop].tolist())
