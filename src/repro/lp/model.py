"""The solver-ready LP model and its HiGHS solve.

Design goals, in order: correctness, fast model assembly (numpy arrays
throughout, no per-coefficient Python objects), and a small, explicit
API.  :class:`CompiledLP` is the one model: canonical coordinate (COO)
arrays plus senses, rhs, objective and bounds arrays, built by
:meth:`CompiledLP.from_coo` from vectorized coordinate arrays::

    lp = CompiledLP.from_coo(
        n_variables=2, data=np.array([1.0, 2.0]), rows=np.array([0, 0]),
        cols=np.array([0, 1]), senses=np.array([SENSE_LE], dtype=np.int8),
        rhs=np.array([10.0]), c=np.array([-1.0, -1.0]),
        lower=np.zeros(2), upper=np.full(2, np.inf),
    )
    lp.solve().x  # array([10., 0.])

Only what the routing formulations need is implemented: continuous
variables, <= / >= / == rows and a linear objective (minimization).  A
compiled model is built once and solved once; a different model is a new
``from_coo`` call.  The column-wise matrix HiGHS takes is built per solve
with numpy (:func:`_solver_view`), so no sparse-matrix package is
imported.

Solving
-------
Every solve is one call into the HiGHS Python binding SciPy >= 1.15
bundles as ``scipy.optimize._highspy._core``; without it a solve is a
one-line error.  The model (``>=`` rows negated, ``<=`` rows first,
column-wise matrix), options, status mapping, input check and post-solve
feasibility check are those of SciPy's own ``method="highs"`` LP front
end, replicated without its per-call input cleaning, matrix copies and
marginal bookkeeping, so exact results are bit-identical to it.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from types import ModuleType
from typing import Dict, NamedTuple, Optional, Sequence, Union

import numpy as np
import numpy.typing as npt

from repro.telemetry import recorder

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]


#: SciPy's bundled HiGHS binding: the one solver every LP here calls.
_BINDING = "scipy.optimize._highspy._core"
#: The loaded binding, ``None`` until :func:`_binding` first runs.
_core: Optional[ModuleType] = None


def _binding() -> ModuleType:
    """SciPy's HiGHS binding, loaded once per process; a one-line error,
    never a fallback, when this SciPy does not bundle it."""
    global _core
    if _core is None:
        try:
            _core = _load_extension(_BINDING)
        except ImportError:
            raise RuntimeError(
                "the LP solver needs SciPy >= 1.15, which bundles the HiGHS "
                "binding scipy.optimize._highspy._core; upgrade SciPy"
            ) from None
    return _core


def _load_extension(name: str) -> ModuleType:
    """Import the extension module ``name`` without its parent packages.

    Importing ``scipy.optimize._highspy._core`` the usual way first runs
    the whole ``scipy.optimize`` package ``__init__`` (linprog,
    ``scipy.linalg``, ``scipy.fft``, ...): ~0.3 s per process that nothing
    here uses.  The extension file is loaded directly and registered in
    ``sys.modules`` under its canonical name, so a later
    ``import scipy.optimize`` reuses this very module object.  Without such
    a file (another package layout) this is a plain import.
    """
    if name in sys.modules:
        return sys.modules[name]
    top, *parts = name.split(".")
    spec = importlib.util.find_spec(top)
    roots = (spec.submodule_search_locations if spec else None) or []
    for root in roots:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, *parts[:-1], parts[-1] + suffix)
            if not os.path.isfile(path):
                continue
            module_spec = importlib.util.spec_from_file_location(name, path)
            if module_spec is None or module_spec.loader is None:
                continue
            module = importlib.util.module_from_spec(module_spec)
            sys.modules[name] = module
            try:
                module_spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[name]
                raise
            return module
    return importlib.import_module(name)


def resolve_backend() -> str:
    """The LP backend's name, ``"scipy"``, once its binding has loaded."""
    _binding()
    return "scipy"


class InfeasibleError(Exception):
    """The LP has no feasible point."""


class UnboundedError(Exception):
    """The LP objective is unbounded below."""


@dataclass
class Solution:
    """A solved LP: objective value, the primal point and the duals.

    ``row_dual`` is HiGHS's row dual in the model's row order and sense:
    ``<=`` rows carry values <= 0, ``>=`` rows values >= 0, and the dual
    objective ``row_dual @ rhs`` plus each ``col_dual`` (reduced cost)
    times the bound its column sits at equals ``objective``.
    """

    objective: float
    _values: FloatArray
    row_dual: FloatArray
    col_dual: FloatArray

    @property
    def x(self) -> FloatArray:
        """The full primal point as one float64 array (do not mutate)."""
        return self._values


# Sense codes used by the compiled form (one int8 per row).
SENSE_LE = 0
SENSE_GE = 1
SENSE_EQ = 2

#: The options SciPy's ``method="highs"`` front end sets (presolve on,
#: dual simplex, quiet); everything else stays at HiGHS's defaults.
_HIGHS_OPTIONS = (
    ("presolve", "on"),
    ("highs_debug_level", 0),
    ("log_to_console", False),
    ("output_flag", False),
    ("simplex_strategy", 1),  # kSimplexStrategyDual
)
#: That front end's post-solve feasibility tolerance: sqrt(1e-9) * 10.
_FEASIBILITY_TOL = math.sqrt(1e-9) * 10


def _as_float_array(values: Union[Sequence[float], FloatArray]) -> FloatArray:
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64))


def _as_index_array(values: Union[Sequence[int], IntArray]) -> IntArray:
    return np.ascontiguousarray(np.asarray(values, dtype=np.int64))


class _SolverView(NamedTuple):
    """The arrays one HiGHS run takes, and the row order behind them."""

    start: npt.NDArray[np.int32]
    index: npt.NDArray[np.int32]
    value: FloatArray
    row_lower: FloatArray
    row_upper: FloatArray
    #: Solver row ``i`` is model row ``order[i]``, ...
    order: IntArray
    #: ... negated (``-1.0``) when it is a ``>=`` row.
    sign: FloatArray
    #: How many leading rows are ``<=`` rows (negated ``>=`` included).
    n_ub: int


def _solver_view(
    n_variables: int,
    data: FloatArray,
    rows: IntArray,
    cols: IntArray,
    senses: npt.NDArray[np.int8],
    rhs: FloatArray,
) -> _SolverView:
    """The model SciPy's ``method="highs"`` front end hands HiGHS, from
    canonical coordinates: ``<=`` and ``>=`` rows first (``>=`` negated),
    then ``==`` rows, and the matrix column-wise (``start``, ``index``,
    ``value``) with int32 row indices ascending within each column.

    Each entry moves to its row's solver position with its row's sign;
    one sort by (column, solver row) orders ``index``/``value``, and the
    cumulative per-column counts are ``start``.  The keys are unique
    (:meth:`CompiledLP.from_coo` summed duplicates), so any sort gives the
    same order and the fastest one is used.
    """
    order = np.argsort(senses == SENSE_EQ, kind="stable")
    n_ub = int(np.count_nonzero(senses != SENSE_EQ))
    sign = np.where(senses[order] == SENSE_GE, -1.0, 1.0)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    solver_rows = position[rows]
    by_column = np.argsort(cols * len(order) + solver_rows)
    index = solver_rows[by_column]
    start = np.zeros(n_variables + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n_variables), out=start[1:])
    row_upper = sign * rhs[order]
    row_lower = row_upper.copy()
    row_lower[:n_ub] = -np.inf
    return _SolverView(
        start, index.astype(np.int32), data[by_column] * sign[index],
        row_lower, row_upper, order, sign, n_ub,
    )


class CompiledLP:
    """A solver-ready LP: canonical coordinate arrays plus senses, rhs,
    objective and bounds.

    The coordinates are row-major sorted, with exact zeros dropped and
    duplicates summed; every row keeps its insertion position and its
    *original* sense (no ``>=`` negation baked in).  The solver's view
    (:func:`_solver_view`) is derived at solve time.  Immutable: built
    once (:meth:`from_coo`), and nothing is kept between solves.
    """

    def __init__(
        self,
        n_variables: int,
        data: FloatArray,
        rows: IntArray,
        cols: IntArray,
        senses: npt.NDArray[np.int8],
        rhs: FloatArray,
        c: FloatArray,
        lower: FloatArray,
        upper: FloatArray,
    ) -> None:
        self._data, self._rows, self._cols = data, rows, cols
        self._senses = np.ascontiguousarray(senses, dtype=np.int8)
        self._rhs = _as_float_array(rhs)
        self._c = _as_float_array(c)
        self._lower = _as_float_array(lower)
        self._upper = _as_float_array(upper)
        n_rows = self._rhs.shape[0]
        if self._senses.shape[0] != n_rows:
            raise ValueError("senses length != rhs length")
        if (
            self._c.shape[0] != n_variables
            or self._lower.shape[0] != n_variables
            or self._upper.shape[0] != n_variables
        ):
            raise ValueError("c/bounds length != n_variables")
        bad_sense = (self._senses < SENSE_LE) | (self._senses > SENSE_EQ)
        if bool(bad_sense.any()):
            raise ValueError(
                "sense codes must be SENSE_LE, SENSE_GE or SENSE_EQ"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        n_variables: int,
        data: FloatArray,
        rows: IntArray,
        cols: IntArray,
        senses: npt.NDArray[np.int8],
        rhs: FloatArray,
        c: FloatArray,
        lower: FloatArray,
        upper: FloatArray,
    ) -> "CompiledLP":
        """Build from coordinate arrays: exact zeros are dropped, then
        entries sorted row-major and duplicates summed in input order."""
        data = _as_float_array(data)
        rows = _as_index_array(rows)
        cols = _as_index_array(cols)
        if not len(data) == len(rows) == len(cols):
            raise ValueError("data/rows/cols lengths differ")
        if rows.size and (
            int(rows.min()) < 0 or int(rows.max()) >= len(rhs)
            or int(cols.min()) < 0 or int(cols.max()) >= n_variables
        ):
            raise ValueError("matrix coordinate outside rhs rows x variables")
        keep = data != 0.0
        if not bool(keep.all()):
            data, rows, cols = data[keep], rows[keep], cols[keep]
        key = rows * n_variables + cols
        row_major = np.argsort(key, kind="stable")
        data, rows, cols = data[row_major], rows[row_major], cols[row_major]
        key = key[row_major]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        if not bool(first.all()):
            starts = np.flatnonzero(first)
            data = np.add.reduceat(data, starts)
            rows, cols = rows[starts], cols[starts]
        return cls(n_variables, data, rows, cols, senses, rhs, c, lower, upper)

    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        return int(self._c.shape[0])

    @property
    def n_rows(self) -> int:
        return int(self._rhs.shape[0])

    def _solver_view(self) -> _SolverView:
        return _solver_view(
            self.n_variables, self._data, self._rows, self._cols,
            self._senses, self._rhs,
        )

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self) -> Solution:
        """Solve; raises on infeasible/unbounded models.

        One HiGHS run on the model SciPy's ``method="highs"`` front end
        builds, with its options, status mapping and checks, so the point
        and objective are bit-identical to it (module docstring).
        """
        h = _binding()
        rec = recorder()
        attrs: Optional[Dict[str, object]] = None
        if rec.enabled:
            attrs = {
                "n_variables": self.n_variables,
                "n_constraints": self.n_rows,
            }
        if self.n_variables == 0:
            raise ValueError("LP has no variables")
        for part, values in (
            ("objective", self._c),
            ("matrix", self._data),
            ("right-hand side", self._rhs),
        ):
            if not bool(np.isfinite(values).all()):
                raise ValueError(f"LP {part} must not contain inf or nan")
        with rec.span("lp_assemble", attrs):
            view = self._solver_view()
            lp = h.HighsLp()
            lp.num_col_ = lp.a_matrix_.num_col_ = self.n_variables
            lp.num_row_ = lp.a_matrix_.num_row_ = self.n_rows
            lp.a_matrix_.format_ = h.MatrixFormat.kColwise
            lp.col_cost_ = self._c
            lp.col_lower_ = np.clip(self._lower, -h.kHighsInf, h.kHighsInf)
            lp.col_upper_ = np.clip(self._upper, -h.kHighsInf, h.kHighsInf)
            lp.row_lower_ = view.row_lower
            lp.row_upper_ = view.row_upper
            lp.a_matrix_.start_ = view.start
            lp.a_matrix_.index_ = view.index
            lp.a_matrix_.value_ = view.value
        with rec.span("lp_solve", attrs):
            highs = h._Highs()
            for option, value in _HIGHS_OPTIONS:
                highs.setOptionValue(option, value)
            statuses = h.HighsModelStatus
            if highs.passModel(lp) == h.HighsStatus.kError:
                status = statuses.kModelError
            else:
                highs.run()
                status = highs.getModelStatus()
            if status in (statuses.kInfeasible, statuses.kModelError):
                raise InfeasibleError("LP is infeasible")
            if status == statuses.kUnbounded:
                raise UnboundedError("LP is unbounded")
            if status != statuses.kOptimal:
                raise RuntimeError(
                    f"HiGHS stopped with {highs.modelStatusToString(status)}"
                )
            solution = highs.getSolution()
            x = np.array(solution.col_value)
            objective = float(highs.getInfo().objective_function_value)
            residual = view.row_upper - np.array(solution.row_value)
            tol = _FEASIBILITY_TOL
            if (
                np.isnan(objective)
                or bool(np.isnan(x).any() or np.isnan(residual).any())
                or not bool(
                    np.all((x >= self._lower - tol) & (x <= self._upper + tol))
                )
                or bool((residual[:view.n_ub] < -tol).any())
                or bool((np.abs(residual[view.n_ub:]) > tol).any())
            ):
                raise RuntimeError(
                    "HiGHS solution violates the constraints by more than "
                    f"{tol:.2E}"
                )
            row_dual = np.empty(self.n_rows)
            row_dual[view.order] = view.sign * np.array(solution.row_dual)
            return Solution(
                objective, x, row_dual, np.array(solution.col_dual)
            )

