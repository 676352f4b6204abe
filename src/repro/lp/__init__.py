"""Linear programming substrate.

A small modelling layer over the HiGHS solver, called directly through
the Python binding SciPy >= 1.15 bundles.  Solutions carry the row and
column duals.  The paper's optimizations —
the latency-optimal path LP (its Figure 12), the MinMax two-stage LPs,
the locality redistribution LP and the traffic-matrix scaler — are all
built on this, as one :class:`CompiledLP` each: the immutable
solver-ready form, canonical coordinate (COO) arrays assembled by
:meth:`CompiledLP.from_coo` (one fresh model per solve).  The column-wise
matrix HiGHS takes is built per solve with numpy; no sparse-matrix
package is imported.
"""

from repro.lp.model import (
    CompiledLP,
    InfeasibleError,
    Solution,
    UnboundedError,
    resolve_backend,
)

__all__ = [
    "CompiledLP",
    "InfeasibleError",
    "Solution",
    "UnboundedError",
    "resolve_backend",
]
