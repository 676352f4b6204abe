"""A minimal LP modelling layer with reusable compiled models.

Design goals, in order: correctness, fast model assembly (sparse matrices
built from coordinate arrays, no per-coefficient Python object churn
beyond plain tuples), and a small, explicit API::

    lp = LinearProgram()
    x = lp.variable("x", lower=0.0)
    y = lp.variable("y", lower=0.0)
    lp.add_constraint(LinExpr({x: 1.0, y: 2.0}), "<=", 10.0)
    lp.minimize(LinExpr({x: -1.0, y: -1.0}))
    solution = lp.solve()
    solution.value(x)

Only what the routing formulations need is implemented: continuous
variables, <= / >= / == constraints and a linear objective (minimization).

Two front doors onto one immutable model:

* :class:`LinearProgram` is the named scalar builder: variables carry
  names, rows are :class:`LinExpr` expressions, and ``solve()`` compiles
  to —
* :class:`CompiledLP`, the solver-ready form: one canonical CSR matrix
  plus senses, rhs, objective and bounds arrays.
  :meth:`CompiledLP.from_coo` is the array entry point for vectorized
  assembly.  A compiled model is built once and solved once; a different
  model is a new ``from_coo`` call.

Backends
--------
Every solve is one call into a HiGHS Python binding; ``REPRO_LP_BACKEND``
picks which binding: ``auto`` (default — ``highspy`` when importable,
else scipy), ``scipy`` (the binding SciPy >= 1.15 bundles as
``scipy.optimize._highspy._core``), or ``highs`` (the ``highspy``
package).  A missing binding is a one-line error, never a fallback.  Both
get the same model and options, so exact results are bit-identical
between them — and to SciPy's own ``method="highs"`` LP front end, whose
model (``>=`` rows negated, ``<=`` rows first, column-wise matrix),
options, status mapping, input check and post-solve feasibility check
are replicated here without its per-call input cleaning, matrix copies
and marginal bookkeeping.
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
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

import numpy as np
import numpy.typing as npt
from scipy import sparse

from repro.telemetry import Recorder, recorder

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
#: Environment variable selecting the LP backend: auto | scipy | highs.
BACKEND_ENV = "REPRO_LP_BACKEND"

#: The HiGHS binding module behind each backend name.
_BINDING_MODULES = {
    "highs": "highspy._core",
    "scipy": "scipy.optimize._highspy._core",
}
_MISSING_BINDING = {
    "highs": "LP backend 'highs' requested (REPRO_LP_BACKEND or call site) "
             "but the highspy package is not installed; use 'scipy' or "
             "'auto' instead",
    "scipy": "LP backend 'scipy' needs SciPy >= 1.15, which bundles the "
             "HiGHS binding scipy.optimize._highspy._core; upgrade SciPy "
             "or install highspy",
}
_bindings: Dict[str, Optional[ModuleType]] = {}


def _binding(backend: str) -> Optional[ModuleType]:
    """The HiGHS binding of ``backend`` when importable, else ``None``
    (memoized)."""
    if backend not in _bindings:
        try:
            module: Optional[ModuleType] = _load_extension(
                _BINDING_MODULES[backend]
            )
        except ImportError:
            module = None
        _bindings[backend] = module
    return _bindings[backend]


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


def available_backends() -> Tuple[str, ...]:
    """Backends usable in this environment, preferred first."""
    return tuple(name for name in ("highs", "scipy") if _binding(name))


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend request (or ``$REPRO_LP_BACKEND``) to a name.

    Returns ``"scipy"`` or ``"highs"``.  ``auto`` (the default) prefers
    ``highspy`` when installed and otherwise uses SciPy's binding; a
    backend whose binding is missing is an error rather than a silent
    fallback.
    """
    value = name if name is not None else os.environ.get(BACKEND_ENV, "auto")
    value = value.strip().lower()
    if value in ("", "auto"):
        value = "highs" if _binding("highs") is not None else "scipy"
    elif value == "highspy":
        value = "highs"
    elif value not in _BINDING_MODULES:
        raise ValueError(
            f"unknown LP backend {value!r}; choose 'auto', 'scipy' or 'highs'"
        )
    if _binding(value) is None:
        raise RuntimeError(_MISSING_BINDING[value])
    return value


class InfeasibleError(Exception):
    """The LP has no feasible point."""


class UnboundedError(Exception):
    """The LP objective is unbounded below."""


@dataclass(frozen=True)
class Variable:
    """A handle to one LP column."""

    index: int
    name: str

    def __mul__(self, coefficient: float) -> "LinExpr":
        return LinExpr({self: float(coefficient)})

    __rmul__ = __mul__

    def __add__(self, other: Union["Variable", "LinExpr"]) -> "LinExpr":
        return LinExpr({self: 1.0}) + other


class LinExpr:
    """A linear expression: a mapping from variables to coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Variable, float]] = None) -> None:
        self.terms: Dict[Variable, float] = dict(terms) if terms else {}

    def add_term(self, variable: Variable, coefficient: float) -> "LinExpr":
        """Accumulate ``coefficient * variable`` in place (returns self)."""
        self.terms[variable] = self.terms.get(variable, 0.0) + float(coefficient)
        return self

    def __add__(self, other: Union["LinExpr", Variable]) -> "LinExpr":
        result = LinExpr(self.terms)
        if isinstance(other, Variable):
            result.add_term(other, 1.0)
        else:
            for variable, coefficient in other.terms.items():
                result.add_term(variable, coefficient)
        return result

    def __mul__(self, scalar: float) -> "LinExpr":
        return LinExpr(
            {variable: coefficient * scalar for variable, coefficient in self.terms.items()}
        )

    __rmul__ = __mul__

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        parts = [f"{coef:+g}*{var.name}" for var, coef in self.terms.items()]
        return " ".join(parts) if parts else "0"


@dataclass
class Constraint:
    """One row of the LP: ``expr sense rhs``."""

    expr: LinExpr
    sense: str
    rhs: float

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown constraint sense {self.sense!r}")


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

    def value(self, variable: Variable) -> float:
        return float(self._values[variable.index])

    def values(self, variables: Iterable[Variable]) -> List[float]:
        """Primal values for ``variables`` via one fancy index."""
        index = np.fromiter(
            (variable.index for variable in variables), dtype=np.int64
        )
        if index.size == 0:
            return []
        return cast(List[float], self._values[index].tolist())


# Sense codes used by the compiled form (one int8 per row).
SENSE_LE = 0
SENSE_GE = 1
SENSE_EQ = 2

_SENSE_CODE = {"<=": SENSE_LE, ">=": SENSE_GE, "==": SENSE_EQ}

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


class CompiledLP:
    """A solver-ready LP: canonical CSR matrix plus senses, rhs, objective
    and bounds.

    The matrix holds every row in insertion order with its *original*
    sense (no ``>=`` negation baked in); the solver's view (``>=`` rows
    negated, ``<=`` rows before ``==`` rows, column-wise) is derived at
    solve time.  Immutable: built once (:meth:`from_coo`), and nothing is
    kept between solves.
    """

    def __init__(
        self,
        matrix: Any,
        senses: npt.NDArray[np.int8],
        rhs: FloatArray,
        c: FloatArray,
        lower: FloatArray,
        upper: FloatArray,
    ) -> None:
        self._a = matrix.tocsr()
        self._a.sum_duplicates()
        n_rows, n_cols = self._a.shape
        self._senses = np.ascontiguousarray(senses, dtype=np.int8)
        self._rhs = _as_float_array(rhs)
        self._c = _as_float_array(c)
        self._lower = _as_float_array(lower)
        self._upper = _as_float_array(upper)
        if self._senses.shape[0] != n_rows or self._rhs.shape[0] != n_rows:
            raise ValueError("senses/rhs length != matrix row count")
        if (
            self._c.shape[0] != n_cols
            or self._lower.shape[0] != n_cols
            or self._upper.shape[0] != n_cols
        ):
            raise ValueError("c/bounds length != matrix column count")
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
        """Build from coordinate arrays (exact zeros are dropped)."""
        data = _as_float_array(data)
        rows = _as_index_array(rows)
        cols = _as_index_array(cols)
        keep = data != 0.0
        if not bool(keep.all()):
            data, rows, cols = data[keep], rows[keep], cols[keep]
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(rhs), n_variables)
        )
        return cls(matrix, senses, rhs, c, lower, upper)

    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        return int(self._a.shape[1])

    @property
    def n_rows(self) -> int:
        return int(self._a.shape[0])

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, backend: Optional[str] = None) -> Solution:
        """Solve; raises on infeasible/unbounded models.

        The exact optimum is backend-independent; only wall time
        differs.
        """
        resolved = resolve_backend(backend)
        rec = recorder()
        attrs: Optional[Dict[str, object]] = None
        if rec.enabled:
            attrs = {
                "backend": resolved,
                "n_variables": self.n_variables,
                "n_constraints": self.n_rows,
            }
        return self._solve_highs(
            cast(ModuleType, _binding(resolved)), rec, attrs
        )

    def _solve_highs(
        self,
        h: ModuleType,
        rec: Recorder,
        attrs: Optional[Dict[str, object]],
    ) -> Solution:
        """One HiGHS run on the model SciPy's ``method="highs"`` front
        end builds, with its options, status mapping and checks, so the
        point and objective are bit-identical to it (module docstring).
        """
        if self.n_variables == 0:
            raise ValueError("LP has no variables")
        for part, values in (
            ("objective", self._c),
            ("matrix", self._a.data),
            ("right-hand side", self._rhs),
        ):
            if not bool(np.isfinite(values).all()):
                raise ValueError(f"LP {part} must not contain inf or nan")
        with rec.span("lp_assemble", attrs):
            # <= and >= rows first (>= negated), then == rows.
            order = np.argsort(self._senses == SENSE_EQ, kind="stable")
            n_ub = int(np.count_nonzero(self._senses != SENSE_EQ))
            sign = np.where(self._senses[order] == SENSE_GE, -1.0, 1.0)
            rows = self._a[order]
            rows.data *= np.repeat(sign, np.diff(rows.indptr))
            matrix = rows.tocsc()
            row_upper = sign * self._rhs[order]
            row_lower = row_upper.copy()
            row_lower[:n_ub] = -h.kHighsInf
            lp = h.HighsLp()
            lp.num_col_ = lp.a_matrix_.num_col_ = self.n_variables
            lp.num_row_ = lp.a_matrix_.num_row_ = self.n_rows
            lp.a_matrix_.format_ = h.MatrixFormat.kColwise
            lp.col_cost_ = self._c
            lp.col_lower_ = np.clip(self._lower, -h.kHighsInf, h.kHighsInf)
            lp.col_upper_ = np.clip(self._upper, -h.kHighsInf, h.kHighsInf)
            lp.row_lower_ = row_lower
            lp.row_upper_ = row_upper
            lp.a_matrix_.start_ = matrix.indptr
            lp.a_matrix_.index_ = matrix.indices
            lp.a_matrix_.value_ = matrix.data
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
            residual = row_upper - np.array(solution.row_value)
            tol = _FEASIBILITY_TOL
            if (
                np.isnan(objective)
                or bool(np.isnan(x).any() or np.isnan(residual).any())
                or not bool(
                    np.all((x >= self._lower - tol) & (x <= self._upper + tol))
                )
                or bool((residual[:n_ub] < -tol).any())
                or bool((np.abs(residual[n_ub:]) > tol).any())
            ):
                raise RuntimeError(
                    "HiGHS solution violates the constraints by more than "
                    f"{tol:.2E}"
                )
            row_dual = np.empty(self.n_rows)
            row_dual[order] = sign * np.array(solution.row_dual)
            return Solution(
                objective, x, row_dual, np.array(solution.col_dual)
            )


class LinearProgram:
    """An LP under construction.

    Variables default to being non-negative and unbounded above, which is
    the natural domain for flow fractions, loads and overloads.

    ``solve()`` compiles to a fresh :class:`CompiledLP` and solves it.
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._lower: List[float] = []
        self._upper: List[Optional[float]] = []
        self._rows: List[Constraint] = []
        self._objective: Optional[LinExpr] = None

    # ------------------------------------------------------------------
    # Model building
    # ------------------------------------------------------------------
    def variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: Optional[float] = None,
    ) -> Variable:
        """Create a continuous variable with the given bounds."""
        if upper is not None and upper < lower:
            raise ValueError(f"variable {name!r}: upper {upper} < lower {lower}")
        index = len(self._names)
        self._names.append(name)
        self._lower.append(float(lower))
        self._upper.append(None if upper is None else float(upper))
        return Variable(index, name)

    def variables(
        self, prefix: str, count: int, lower: float = 0.0, upper: Optional[float] = None
    ) -> List[Variable]:
        """Create ``count`` variables named ``prefix[i]``."""
        return [self.variable(f"{prefix}[{i}]", lower, upper) for i in range(count)]

    def add_constraint(
        self, expr: Union[LinExpr, Variable], sense: str, rhs: float
    ) -> Constraint:
        if isinstance(expr, Variable):
            expr = LinExpr({expr: 1.0})
        constraint = Constraint(expr, sense, float(rhs))
        self._rows.append(constraint)
        return constraint

    def minimize(self, expr: LinExpr) -> None:
        self._objective = expr

    @property
    def num_variables(self) -> int:
        return len(self._names)

    @property
    def num_constraints(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------
    # Compiling / solving
    # ------------------------------------------------------------------
    def compile(self) -> CompiledLP:
        """Assemble the solver-ready form (one COO entry per term)."""
        if self._objective is None:
            raise ValueError("no objective set; call minimize() first")
        n = self.num_variables
        c = np.zeros(n)
        for variable, coefficient in self._objective.terms.items():
            c[variable.index] += coefficient

        m = len(self._rows)
        sizes = np.fromiter(
            (len(row.expr.terms) for row in self._rows),
            dtype=np.int64, count=m,
        )
        nnz = int(sizes.sum())
        return CompiledLP.from_coo(
            n_variables=n,
            data=np.fromiter(
                (
                    coefficient
                    for row in self._rows
                    for coefficient in row.expr.terms.values()
                ),
                dtype=np.float64, count=nnz,
            ),
            rows=np.repeat(np.arange(m, dtype=np.int64), sizes),
            cols=np.fromiter(
                (
                    variable.index
                    for row in self._rows
                    for variable in row.expr.terms
                ),
                dtype=np.int64, count=nnz,
            ),
            senses=np.fromiter(
                (_SENSE_CODE[row.sense] for row in self._rows),
                dtype=np.int8, count=m,
            ),
            rhs=np.fromiter(
                (row.rhs for row in self._rows), dtype=np.float64, count=m
            ),
            c=c,
            lower=np.asarray(self._lower, dtype=np.float64),
            upper=np.asarray(
                [np.inf if u is None else u for u in self._upper],
                dtype=np.float64,
            ),
        )

    def solve(self, backend: Optional[str] = None) -> Solution:
        """Compile and solve; raises on infeasible/unbounded."""
        with recorder().span("lp_assemble"):
            compiled = self.compile()
        return compiled.solve(backend)
