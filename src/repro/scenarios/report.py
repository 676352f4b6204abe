"""The robustness report: degradation distributions across a fleet.

Following the survivability literature (see PAPERS.md), robustness is
reported as a *distribution* over scenarios, not a mean: for each scheme
the report gives quantiles of per-variant degradation relative to the
unperturbed baseline (variant 0 of every fleet):

* ``stretch_ratio`` — variant latency stretch / baseline latency
  stretch (1.0 = no degradation);
* ``congestion_delta`` — variant congested fraction minus baseline
  congested fraction (0.0 = no new congestion).

Quantiles use the deterministic nearest-rank method on sorted values, so
the report is bit-identical however the fleet was executed; the JSON
form is ``json.dumps(..., indent=2, sort_keys=True)`` for byte-stable
diffing across in-process, 1-worker and 2-worker dispatch runs.

The module is dependency-free on purpose: it consumes plain per-variant
metric dicts, so it never imports the engine/store layers.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Sequence

__all__ = [
    "variant_metrics",
    "robustness_payload",
    "render_text",
    "render_json",
]

ROBUSTNESS_FORMAT = "repro-robustness"
ROBUSTNESS_VERSION = 1

#: Quantiles reported for each degradation distribution.
QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


def variant_metrics(outcomes: Sequence[Any]) -> Dict[str, float]:
    """Mean-over-matrices metrics of one evaluated variant.

    ``outcomes`` are :class:`~repro.experiments.runner.SchemeOutcome`
    records (duck-typed); one variant evaluates one scheme over the base
    item's traffic-matrix ensemble.
    """
    n = max(1, len(outcomes))
    return {
        "latency_stretch": sum(o.latency_stretch for o in outcomes) / n,
        "congested_fraction": sum(o.congested_fraction for o in outcomes) / n,
        "max_utilization": sum(o.max_utilization for o in outcomes) / n,
    }


def _nearest_rank(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank quantile on pre-sorted values (deterministic).

    Integer arithmetic (per-mille) keeps the rank free of float
    rounding: rank = ceil(fraction * n), clamped to [1, n].
    """
    if not sorted_values:
        return 0.0
    per_mille = round(fraction * 1000)
    rank = -(-per_mille * len(sorted_values) // 1000)
    rank = min(max(rank, 1), len(sorted_values))
    return sorted_values[rank - 1]


def _distribution(values: List[float]) -> Dict[str, float]:
    ordered = sorted(values)
    stats = {name: _nearest_rank(ordered, q) for name, q in QUANTILES}
    stats["max"] = ordered[-1] if ordered else 0.0
    stats["mean"] = sum(ordered) / len(ordered) if ordered else 0.0
    return stats


def robustness_payload(
    network_name: str,
    variant_labels: Sequence[str],
    per_scheme: Mapping[str, Mapping[int, Mapping[str, float]]],
    skipped: Mapping[str, int],
    kind_counts: Mapping[str, int],
) -> Dict[str, Any]:
    """Assemble the report payload.

    ``per_scheme`` maps scheme name -> variant index -> metric dict (as
    produced by :func:`variant_metrics`); index 0 must be the baseline.
    ``variant_labels`` gives each variant's human label, index-aligned.
    A scheme's worst variant has the largest stretch ratio (the lowest
    index on ties); only a fleet with no variants names the baseline.
    """
    schemes: Dict[str, Any] = {}
    ranking: List[Any] = []
    for scheme in sorted(per_scheme):
        by_variant = per_scheme[scheme]
        if 0 not in by_variant:
            raise ValueError(f"scheme {scheme!r} has no baseline variant")
        baseline = dict(by_variant[0])
        base_stretch = baseline["latency_stretch"]
        ratios: List[float] = []
        deltas: List[float] = []
        worst_index = 0
        worst_ratio = 1.0
        for index in sorted(by_variant):
            if index == 0:
                continue
            metrics = by_variant[index]
            if base_stretch > 0:
                ratio = metrics["latency_stretch"] / base_stretch
            else:
                ratio = 1.0
            delta = (
                metrics["congested_fraction"] - baseline["congested_fraction"]
            )
            ratios.append(ratio)
            deltas.append(delta)
            if not worst_index or ratio > worst_ratio:
                worst_ratio = ratio
                worst_index = index
        stretch = _distribution(ratios)
        congestion = _distribution(deltas)
        schemes[scheme] = {
            "baseline": baseline,
            "n_variants": len(ratios),
            "stretch_ratio": stretch,
            "congestion_delta": congestion,
            "worst_variant": {
                "index": worst_index,
                "label": (
                    variant_labels[worst_index]
                    if worst_index < len(variant_labels)
                    else ""
                ),
                "stretch_ratio": worst_ratio,
            },
        }
        ranking.append((stretch["p90"], stretch["max"], scheme))
    ranking.sort()
    return {
        "format": ROBUSTNESS_FORMAT,
        "version": ROBUSTNESS_VERSION,
        "network": network_name,
        "n_variants": len(variant_labels),
        "n_infeasible": sum(skipped.values()),
        "skipped": {kind: skipped[kind] for kind in sorted(skipped)},
        "kinds": {kind: kind_counts[kind] for kind in sorted(kind_counts)},
        "schemes": schemes,
        "ranking": [scheme for _, _, scheme in ranking],
    }


def render_json(payload: Mapping[str, Any]) -> str:
    """Byte-stable JSON rendering of the report."""
    return json.dumps(payload, indent=2, sort_keys=True)


def render_text(payload: Mapping[str, Any]) -> str:
    """Human-readable rendering (same data, same determinism)."""
    lines: List[str] = []
    lines.append(
        f"robustness report: {payload['network']} "
        f"({payload['n_variants']} variant(s), "
        f"{payload['n_infeasible']} infeasible skipped)"
    )
    kinds = payload["kinds"]
    if kinds:
        lines.append(
            "variants: "
            + ", ".join(f"{kind}={kinds[kind]}" for kind in sorted(kinds))
        )
    header_cells = (
        "scheme", "p50", "p90", "p99", "max", "worst variant"
    )
    lines.append(
        f"{header_cells[0]:<12} {header_cells[1]:>8} {header_cells[2]:>8} "
        f"{header_cells[3]:>8} {header_cells[4]:>8}  {header_cells[5]}"
    )
    for scheme in payload["ranking"]:
        detail = payload["schemes"][scheme]
        stretch = detail["stretch_ratio"]
        worst = detail["worst_variant"]
        lines.append(
            f"{scheme:<12} {stretch['p50']:>8.4f} {stretch['p90']:>8.4f} "
            f"{stretch['p99']:>8.4f} {stretch['max']:>8.4f}  "
            f"{worst['label']}"
        )
    if payload["ranking"]:
        best = payload["ranking"][0]
        lines.append(
            f"least degradation (p90 stretch ratio): {best}"
        )
    return "\n".join(lines)
