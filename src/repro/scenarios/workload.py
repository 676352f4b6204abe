"""A lazy, store-compatible workload over a scenario fleet.

:class:`ScenarioWorkload` duck-types
:class:`~repro.experiments.workloads.ZooWorkload` — it exposes
``networks`` / ``locality`` / ``growth_factor`` / ``seed`` — but its
``networks`` sequence *materializes variants on demand*: index ``i``
applies ``specs[i]`` to the base item when (and only when) the engine
asks for it, with a small LRU so a window of in-flight tasks shares
work.  A 10^5-variant fleet therefore costs one base item plus the
in-flight window, never 10^5 Network copies.

Two hooks make the rest of the spine treat fleets as first-class
workloads with no special cases:

* :meth:`content_signature` — consumed by
  :func:`repro.experiments.store.workload_signature` so store/dedup/
  resume identity never iterates the fleet;
* :meth:`to_manifest_jsonable` / :meth:`from_manifest_jsonable` — the
  compact fleet description a dispatch manifest's workload entry ships
  (base item + specs, not materialized variants).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional

from repro.experiments.store import digest_item, signature_digest
from repro.experiments.workloads import NetworkWorkload
from repro.scenarios.spec import ScenarioSpec

__all__ = ["ScenarioWorkload"]

#: Variants kept materialized at once; covers the engine's in-flight
#: window (2 x workers) at typical worker counts.
VARIANT_CACHE_SIZE = 32


class _LazyVariants:
    """Sequence view applying specs on demand (bounded LRU)."""

    def __init__(self, base: NetworkWorkload, specs: List[ScenarioSpec]):
        self._base = base
        self._specs = specs
        self._cache: "OrderedDict[int, NetworkWorkload]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._specs)

    def __getitem__(self, index: int) -> NetworkWorkload:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self._specs)
        if not 0 <= index < len(self._specs):
            raise IndexError(index)
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        item = self._specs[index].apply(self._base)
        self._cache[index] = item
        while len(self._cache) > VARIANT_CACHE_SIZE:
            self._cache.popitem(last=False)
        return item

    def __iter__(self):
        for index in range(len(self._specs)):
            yield self[index]


class ScenarioWorkload:
    """One base item fanned out across a scenario fleet.

    Variant 0 is conventionally the unperturbed baseline (the generator
    guarantees it), so per-scheme degradation is computable within one
    result stream.
    """

    def __init__(
        self,
        base: NetworkWorkload,
        specs: List[ScenarioSpec],
        *,
        locality: float = 1.0,
        growth_factor: float = 1.3,
        seed: Optional[int] = None,
    ) -> None:
        if not specs:
            raise ValueError("a scenario workload needs at least one spec")
        self.base = base
        self.specs = list(specs)
        self.networks = _LazyVariants(base, self.specs)
        self.locality = locality
        self.growth_factor = growth_factor
        self.seed = seed

    # ------------------------------------------------------------------
    # Store identity (see store.workload_signature's fast path)
    # ------------------------------------------------------------------
    def content_signature(self) -> str:
        digest = signature_digest(self)
        digest.update(b"|SCN|")
        digest_item(digest, self.base)
        for spec in self.specs:
            digest.update(b"|S|")
            digest.update(spec.signature().encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Dispatch manifests (compact: base + specs, never variants)
    # ------------------------------------------------------------------
    def to_manifest_jsonable(self) -> Dict[str, Any]:
        return {
            "base": self.base.to_jsonable(),
            "locality": self.locality,
            "growth_factor": self.growth_factor,
            "seed": self.seed,
            "specs": [spec.to_jsonable() for spec in self.specs],
        }

    @classmethod
    def from_manifest_jsonable(cls, payload: Dict[str, Any]) -> "ScenarioWorkload":
        return cls(
            base=NetworkWorkload.from_jsonable(payload["base"]),
            specs=[
                ScenarioSpec.from_jsonable(entry) for entry in payload["specs"]
            ],
            locality=float(payload["locality"]),
            growth_factor=float(payload["growth_factor"]),
            seed=payload["seed"],
        )

    def __repr__(self) -> str:
        return (
            f"ScenarioWorkload(base={self.base.network.name!r}, "
            f"variants={len(self.specs)})"
        )
