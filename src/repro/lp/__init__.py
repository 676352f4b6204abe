"""Linear programming substrate.

A small modelling layer over the HiGHS solver, called directly through
its Python binding — the one SciPy >= 1.15 bundles or (when installed)
``highspy``'s, selected by ``REPRO_LP_BACKEND``.  Solutions carry the
row and column duals.  The paper's optimizations —
the latency-optimal path LP (its Figure 12), the MinMax two-stage LPs,
the locality redistribution LP and the traffic-matrix scaler — are all
built on this, as one :class:`CompiledLP` each: the immutable
solver-ready form, canonical coordinate (COO) arrays assembled by
:meth:`CompiledLP.from_coo` (one fresh model per solve).  The column-wise
matrix HiGHS takes is built per solve with numpy; no sparse-matrix
package is imported.
"""

from repro.lp.model import (
    BACKEND_ENV,
    CompiledLP,
    InfeasibleError,
    Solution,
    UnboundedError,
    available_backends,
    resolve_backend,
)

__all__ = [
    "BACKEND_ENV",
    "CompiledLP",
    "InfeasibleError",
    "Solution",
    "UnboundedError",
    "available_backends",
    "resolve_backend",
]
