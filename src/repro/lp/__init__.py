"""Linear programming substrate.

A small modelling layer over the HiGHS solver, called directly through
its Python binding — the one SciPy >= 1.15 bundles or (when installed)
``highspy``'s, selected by ``REPRO_LP_BACKEND``.  Solutions carry the
row and column duals.  The paper's optimizations —
the latency-optimal path LP (its Figure 12), the MinMax two-stage LPs,
the locality redistribution LP and the traffic-matrix scaler — are all
built on this.  :class:`LinearProgram` is the named scalar builder;
:class:`CompiledLP` is the immutable solver-ready form, and
:meth:`CompiledLP.from_coo` is the array entry point for vectorized
assembly (one fresh model per solve).
"""

from repro.lp.model import (
    BACKEND_ENV,
    CompiledLP,
    Constraint,
    InfeasibleError,
    LinearProgram,
    LinExpr,
    Solution,
    UnboundedError,
    Variable,
    available_backends,
    resolve_backend,
)

__all__ = [
    "BACKEND_ENV",
    "CompiledLP",
    "Constraint",
    "InfeasibleError",
    "LinearProgram",
    "LinExpr",
    "Solution",
    "UnboundedError",
    "Variable",
    "available_backends",
    "resolve_backend",
]
