"""Declarative, picklable scheme specifications.

The engine's factories have historically been closures
(``lambda item: B4Routing(headroom=h, cache=item.cache)``), which a fork
pool inherits but which cannot cross a process or machine boundary.
Everything else the engine consumes already serializes (networks via
:mod:`repro.net.io`, traffic matrices via :mod:`repro.tm.matrix`,
results via :mod:`repro.experiments.store`); this module closes the
last gap.

A :class:`SchemeSpec` is data — a registered scheme name plus a
JSON-native params dict — and resolves to a concrete
:class:`~repro.routing.base.RoutingScheme` only on the worker side, via
the registry below.  Specs are callable with the same
``(item) -> scheme`` signature as the closures they replace, so every
consumer of a ``SchemeFactory`` (engine, runner, figures) accepts either
interchangeably; ad-hoc closures remain supported for experiments the
registry does not cover, at the cost of never being dispatched.

Registry coverage is the paper's full scheme set: SP/ECMP (§3 baseline),
B4 and MPLS-TE (greedy, §3), MinMax (TeXCP-style, with ``k`` for the
"K=10" variant), LDR / latency-optimal (§5, with headroom), and the
link-based LP baseline of Figure 15.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.experiments.workloads import NetworkWorkload
from repro.routing import (
    B4Routing,
    EcmpRouting,
    LatencyOptimalRouting,
    LinkBasedOptimalRouting,
    MinMaxRouting,
    MplsTeRouting,
    ShortestPathRouting,
)
from repro.routing.base import RoutingScheme

#: A builder receives the per-network workload item (for its shared KSP
#: cache) plus the spec's params as keyword arguments.  Explicit keyword
#: signatures mean a typo'd param raises ``TypeError`` at build time
#: instead of being silently dropped.
SchemeBuilder = Callable[..., RoutingScheme]

_REGISTRY: Dict[str, SchemeBuilder] = {}


class UnknownSchemeError(KeyError):
    """A spec names a scheme the registry does not know."""


def register_scheme(name: str, *aliases: str) -> Callable[[SchemeBuilder], SchemeBuilder]:
    """Register a builder under ``name`` (and ``aliases``).

    Re-registering an existing name replaces it — deliberate, so tests and
    downstream code can shadow a scheme with an instrumented variant.

    Caveat: a shard-dispatch worker resolves specs against a *freshly
    imported* registry.  Registrations made at runtime (not at import
    time of a module the worker also imports) are invisible there —
    shadow schemes in a module import, or stick to fork/serial engine
    runs when instrumenting.
    """
    def decorate(builder: SchemeBuilder) -> SchemeBuilder:
        for key in (name, *aliases):
            _REGISTRY[key] = builder
        return builder
    return decorate


def registered_schemes() -> List[str]:
    """All resolvable scheme names (aliases included), sorted."""
    return sorted(_REGISTRY)


@dataclass
class SchemeSpec:
    """A scheme by name + params: picklable, JSON-round-trippable, callable.

    ``params`` must stay JSON-native (numbers, strings, bools, None) so a
    spec survives JSON (shard manifests) unchanged.  Calling a spec with
    a workload item builds the concrete scheme through the registry,
    exactly like the closure it replaces::

        spec = SchemeSpec("LDR", {"headroom": 0.1})
        scheme = spec(item)          # LatencyOptimalRouting(h=0.1, item.cache)
    """

    scheme: str
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Normalize to a plain dict: Mapping views and dataclass asdict()
        # output all pickle/JSON alike afterwards.
        self.params = dict(self.params)

    def __call__(self, item: NetworkWorkload) -> RoutingScheme:
        return build_scheme(self, item)

    def to_jsonable(self) -> Dict[str, object]:
        """A JSON-native dict; inverse of :meth:`from_jsonable`."""
        return {"scheme": self.scheme, "params": dict(self.params)}

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, object]) -> "SchemeSpec":
        if "scheme" not in payload:
            raise ValueError(f"scheme spec payload without 'scheme': {payload!r}")
        scheme = payload["scheme"]
        if not isinstance(scheme, str):
            raise ValueError(f"scheme name must be a string, got {scheme!r}")
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError(f"scheme params must be a mapping, got {params!r}")
        return cls(scheme=scheme, params=dict(params))


def _builder(spec: SchemeSpec) -> SchemeBuilder:
    builder = _REGISTRY.get(spec.scheme)
    if builder is None:
        raise UnknownSchemeError(
            f"unknown scheme {spec.scheme!r}; registered: "
            f"{', '.join(registered_schemes())}"
        )
    return builder


def build_scheme(spec: SchemeSpec, item: NetworkWorkload) -> RoutingScheme:
    """Resolve a spec against the registry and build the scheme."""
    return _builder(spec)(item, **spec.params)


def check_spec(spec: SchemeSpec) -> None:
    """Raise unless ``spec`` would build: registered, params bind.

    :class:`UnknownSchemeError` for an unregistered name, ``TypeError``
    for params the builder's signature does not accept — the errors
    :func:`build_scheme` would raise, found without a workload item.
    """
    inspect.signature(_builder(spec)).bind(None, **spec.params)


# ----------------------------------------------------------------------
# The paper's schemes
# ----------------------------------------------------------------------
@register_scheme("SP", "ShortestPath")
def _build_sp(item: NetworkWorkload) -> RoutingScheme:
    return ShortestPathRouting(cache=item.cache)


@register_scheme("ECMP")
def _build_ecmp(item: NetworkWorkload) -> RoutingScheme:
    return EcmpRouting(cache=item.cache)


@register_scheme("MPLS-TE", "MplsTe")
def _build_mplste(item: NetworkWorkload, headroom: float = 0.0) -> RoutingScheme:
    return MplsTeRouting(headroom=headroom, cache=item.cache)


@register_scheme("B4")
def _build_b4(item: NetworkWorkload, headroom: float = 0.0) -> RoutingScheme:
    return B4Routing(headroom=headroom, cache=item.cache)


@register_scheme("MinMax")
def _build_minmax(
    item: NetworkWorkload,
    k: Optional[int] = None,
    stretch_bound: Optional[float] = None,
) -> RoutingScheme:
    return MinMaxRouting(k=k, stretch_bound=stretch_bound, cache=item.cache)


@register_scheme("MinMaxK10")
def _build_minmax_k10(item: NetworkWorkload) -> RoutingScheme:
    return MinMaxRouting(k=10, cache=item.cache)


@register_scheme("LDR", "LatencyOptimal", "Optimal")
def _build_ldr(item: NetworkWorkload, headroom: float = 0.0) -> RoutingScheme:
    return LatencyOptimalRouting(headroom=headroom, cache=item.cache)


@register_scheme("LinkBased")
def _build_link_based(
    item: NetworkWorkload, headroom: float = 0.0
) -> RoutingScheme:
    return LinkBasedOptimalRouting(headroom=headroom)
