"""The LP hot path: vectorized assembly and backends.

Two layers:

* **byte-identity properties** — the vectorized assembly in
  :mod:`repro.routing.pathlp` must produce *bit-identical* results to the
  scalar, build-per-solve reference implementation it replaced (ported
  below as ``_legacy_*``), with the structure cache cold, hit, or shared
  across solves, and under every available backend;
* **CompiledLP unit tests** — construction (``from_coo`` and the scalar
  builder's ``compile``), input validation and solver outcomes.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.lp import (
    BACKEND_ENV,
    CompiledLP,
    InfeasibleError,
    LinearProgram,
    LinExpr,
    Solution,
    UnboundedError,
    available_backends,
    resolve_backend,
)
from repro.lp import model as lp_model
from repro.lp.model import SENSE_GE, SENSE_LE
from repro.net.paths import KspCache
from repro.net.units import Gbps
from repro.routing.pathlp import (
    M1_TIEBREAK,
    M2_MAX_OVERLOAD,
    M3_TOTAL_OVERLOAD,
    _PathLpBuilder,
    clear_structure_cache,
    solve_latency_lp,
    solve_minmax_lp,
)
from repro.tm.matrix import Aggregate
from tests.conftest import loaded_gts_tm

REPO = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Legacy reference: the scalar, build-per-solve assembly this PR replaced
# (verbatim port, minus docstrings).  The vectorized path must match it
# bit for bit.
# ----------------------------------------------------------------------
class _LegacyBuilder:
    def __init__(self, network, path_sets):
        self.network = network
        self.path_sets = {agg: list(paths) for agg, paths in path_sets.items()}
        self.aggregates = list(self.path_sets)
        links = list(network.links())
        self.capacity_unit = (
            sum(link.capacity_bps for link in links) / len(links)
        )
        total_flows = sum(agg.n_flows for agg in self.aggregates)
        self.flow_weight = {
            agg: agg.n_flows / total_flows for agg in self.aggregates
        }
        link_delay = {link.key: link.delay_s for link in links}
        self._path_links = {}
        self._path_delay = {}
        for ai, agg in enumerate(self.aggregates):
            for pi, path in enumerate(self.path_sets[agg]):
                keys = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
                self._path_links[(ai, pi)] = keys
                self._path_delay[(ai, pi)] = sum(link_delay[k] for k in keys)
        self.shortest_delay = {
            agg: self._path_delay[(ai, 0)]
            for ai, agg in enumerate(self.aggregates)
        }
        self.delay_unit = sum(
            self.flow_weight[agg] * self.shortest_delay[agg]
            for agg in self.aggregates
        )
        if self.delay_unit <= 0:
            self.delay_unit = 1e-3

        self.lp = LinearProgram()
        self.x = {}
        for ai, agg in enumerate(self.aggregates):
            for pi, _ in enumerate(self.path_sets[agg]):
                self.x[(ai, pi)] = self.lp.variable(f"x[{ai},{pi}]", 0.0, 1.0)
            expr = LinExpr()
            for pi in range(len(self.path_sets[agg])):
                expr.add_term(self.x[(ai, pi)], 1.0)
            self.lp.add_constraint(expr, "==", 1.0)

        self.load_exprs = {}
        for ai, agg in enumerate(self.aggregates):
            demand_units = agg.demand_bps / self.capacity_unit
            for pi in range(len(self.path_sets[agg])):
                x_var = self.x[(ai, pi)]
                for key in self._path_links[(ai, pi)]:
                    expr = self.load_exprs.setdefault(key, LinExpr())
                    expr.add_term(x_var, demand_units)

    def delay_objective(self):
        objective = LinExpr()
        for ai, agg in enumerate(self.aggregates):
            weight = self.flow_weight[agg]
            shortest = max(self.shortest_delay[agg], 1e-9)
            for pi in range(len(self.path_sets[agg])):
                delay = self._path_delay[(ai, pi)] / self.delay_unit
                coefficient = weight * delay
                coefficient += (
                    weight * delay * M1_TIEBREAK * (self.delay_unit / shortest)
                )
                objective.add_term(self.x[(ai, pi)], coefficient)
        return objective

    def extract_fractions(self, solution):
        return {
            agg: [
                (path, solution.value(self.x[(ai, pi)]))
                for pi, path in enumerate(self.path_sets[agg])
            ]
            for ai, agg in enumerate(self.aggregates)
        }


def _legacy_latency(network, path_sets):
    builder = _LegacyBuilder(network, path_sets)
    lp = builder.lp
    omax = lp.variable("Omax", lower=1.0)
    overload = {}
    for key, load_expr in builder.load_exprs.items():
        o_l = lp.variable(f"O[{key[0]}->{key[1]}]", lower=1.0)
        overload[key] = o_l
        capacity_units = network.link(*key).capacity_bps / builder.capacity_unit
        constraint = LinExpr(dict(load_expr.terms))
        constraint.add_term(o_l, -capacity_units)
        lp.add_constraint(constraint, "<=", 0.0)
        bound = LinExpr({o_l: 1.0})
        bound.add_term(omax, -1.0)
        lp.add_constraint(bound, "<=", 0.0)
    objective = builder.delay_objective()
    objective.add_term(omax, M2_MAX_OVERLOAD)
    for o_l in overload.values():
        objective.add_term(o_l, M3_TOTAL_OVERLOAD)
    lp.minimize(objective)
    solution = lp.solve()
    link_overload = {key: solution.value(var) for key, var in overload.items()}
    return (
        builder.extract_fractions(solution),
        link_overload,
        solution.value(omax),
        solution.objective,
    )


def _legacy_minmax(network, path_sets):
    stage1 = _LegacyBuilder(network, path_sets)
    umax = stage1.lp.variable("Umax", lower=0.0)
    for key, load_expr in stage1.load_exprs.items():
        capacity_units = network.link(*key).capacity_bps / stage1.capacity_unit
        constraint = LinExpr(dict(load_expr.terms))
        constraint.add_term(umax, -capacity_units)
        stage1.lp.add_constraint(constraint, "<=", 0.0)
    stage1.lp.minimize(LinExpr({umax: 1.0}))
    utilization_cap = stage1.lp.solve().value(umax)

    stage2 = _LegacyBuilder(network, path_sets)
    cap = utilization_cap * (1.0 + 1e-6) + 1e-9
    for key, load_expr in stage2.load_exprs.items():
        capacity_units = network.link(*key).capacity_bps / stage2.capacity_unit
        stage2.lp.add_constraint(load_expr, "<=", capacity_units * cap)
    stage2.lp.minimize(stage2.delay_objective())
    solution = stage2.lp.solve()
    return stage2.extract_fractions(solution), utilization_cap


def _paper_case(gts):
    """A figs-4/16-style case: K=10 path sets over a paper workload."""
    tm = loaded_gts_tm(gts)
    cache = KspCache(gts)
    return {
        agg: list(cache.get(agg.src, agg.dst, 10)) for agg in tm.aggregates()
    }


@pytest.fixture(autouse=True)
def _fresh_structure_cache():
    clear_structure_cache()
    yield
    clear_structure_cache()


# ----------------------------------------------------------------------
# Byte-identity properties
# ----------------------------------------------------------------------
class TestByteIdentity:
    def test_latency_matches_legacy_exactly(self, gts):
        path_sets = _paper_case(gts)
        ref_fracs, ref_overload, ref_omax, ref_obj = _legacy_latency(
            gts, path_sets
        )
        result = solve_latency_lp(gts, path_sets)
        assert result.fractions == ref_fracs
        assert result.link_overload == ref_overload
        assert result.max_overload == ref_omax
        assert result.objective == ref_obj

    def test_minmax_matches_legacy_exactly(self, gts):
        path_sets = _paper_case(gts)
        ref_fracs, ref_cap = _legacy_minmax(gts, path_sets)
        result, cap = solve_minmax_lp(gts, path_sets)
        assert result.fractions == ref_fracs
        assert cap == ref_cap

    def test_structure_cache_changes_nothing(self, gts):
        path_sets = _paper_case(gts)
        cold = solve_latency_lp(gts, path_sets)  # miss: populates the cache
        hit = solve_latency_lp(gts, path_sets)  # warm structure
        clear_structure_cache()
        again = solve_latency_lp(gts, path_sets)  # cold once more
        for other in (hit, again):
            assert other.fractions == cold.fractions
            assert other.link_overload == cold.link_overload
            assert other.max_overload == cold.max_overload
            assert other.objective == cold.objective

    def test_shared_builder_warm_equals_cold(self, gts):
        path_sets = _paper_case(gts)
        cold = solve_minmax_lp(gts, path_sets)
        warm = solve_minmax_lp(gts, path_sets)
        assert warm[0].fractions == cold[0].fractions
        assert warm[1] == cold[1]

    @pytest.mark.parametrize("backend", available_backends())
    def test_backends_bit_identical(self, gts, backend, monkeypatch):
        path_sets = _paper_case(gts)
        monkeypatch.setenv(BACKEND_ENV, "scipy")
        reference = solve_latency_lp(gts, path_sets)
        clear_structure_cache()
        monkeypatch.setenv(BACKEND_ENV, backend)
        other = solve_latency_lp(gts, path_sets)
        assert other.fractions == reference.fractions
        assert other.objective == reference.objective

    def test_toy_latency_matches_legacy(self, diamond):
        agg = Aggregate("s", "t", Gbps(20))
        path_sets = {agg: [("s", "x", "t"), ("s", "y", "t")]}
        ref_fracs, ref_overload, ref_omax, ref_obj = _legacy_latency(
            diamond, path_sets
        )
        result = solve_latency_lp(diamond, path_sets)
        assert result.fractions == ref_fracs
        assert result.link_overload == ref_overload
        assert result.max_overload == ref_omax
        assert result.objective == ref_obj


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
class TestBackends:
    def test_resolve_defaults_to_auto(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend() in ("scipy", "highs")
        assert resolve_backend("scipy") == "scipy"
        monkeypatch.setenv(BACKEND_ENV, "scipy")
        assert resolve_backend() == "scipy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown LP backend"):
            resolve_backend("gurobi")

    def test_available_backends_always_has_scipy(self):
        assert "scipy" in available_backends()

    @pytest.mark.skipif(
        "highs" in available_backends(), reason="highspy installed"
    )
    def test_explicit_highs_without_package_errors(self):
        with pytest.raises(RuntimeError, match="highspy"):
            resolve_backend("highs")

    def test_missing_scipy_binding_is_an_error_not_a_fallback(
        self, monkeypatch
    ):
        monkeypatch.setattr(lp_model, "_bindings", {"scipy": None, "highs": None})
        for request in ("scipy", "auto"):
            with pytest.raises(RuntimeError, match="SciPy >= 1.15"):
                resolve_backend(request)

    def test_scipy_binding_loads_without_scipy_optimize(self):
        """SciPy's HiGHS extension is loaded on its own: solving never runs
        the ``scipy.optimize`` package init, and a later ``import
        scipy.optimize`` shares the same module object."""
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import repro.experiments\n"
            "from repro.lp.model import CompiledLP, SENSE_GE, _binding,"
            " resolve_backend\n"
            "resolve_backend('scipy')\n"
            "solution = CompiledLP.from_coo(\n"
            "    n_variables=2, data=np.array([1.0, 1.0]),\n"
            "    rows=np.array([0, 0]), cols=np.array([0, 1]),\n"
            "    senses=np.array([SENSE_GE], dtype=np.int8),\n"
            "    rhs=np.array([2.0]), c=np.array([1.0, 2.0]),\n"
            "    lower=np.zeros(2), upper=np.full(2, np.inf),\n"
            ").solve('scipy')\n"
            "assert solution.objective == 2.0, solution.objective\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "core = sys.modules['scipy.optimize._highspy._core']\n"
            "assert _binding('scipy') is core\n"
            "import scipy.optimize\n"
            "from scipy.optimize import linprog\n"
            "assert linprog([1, 1], A_ub=[[-1, -1]], b_ub=[-1]).status == 0\n"
            "assert sys.modules['scipy.optimize._highspy._core'] is core\n"
        )
        env = dict(os.environ, PYTHONPATH=os.fspath(REPO / "src"))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr


# ----------------------------------------------------------------------
# CompiledLP
# ----------------------------------------------------------------------
def _small_lp():
    """min x + 2y  s.t.  x + y >= 2,  y <= 4,  0 <= x,y."""
    lp = LinearProgram()
    x = lp.variable("x")
    y = lp.variable("y")
    lp.add_constraint(LinExpr({x: 1.0, y: 1.0}), ">=", 2.0)
    lp.add_constraint(LinExpr({y: 1.0}), "<=", 4.0)
    lp.minimize(LinExpr({x: 1.0, y: 2.0}))
    return lp, x, y


class TestCompiledLP:
    def test_compile_once_solve_many(self):
        lp, x, y = _small_lp()
        compiled = lp.compile()
        first = compiled.solve()
        assert first.value(x) == pytest.approx(2.0)
        # Solving derives the solver's view (sign-flipped >= rows) from
        # copies; the model itself is untouched, so a repeat is identical.
        again = compiled.solve()
        assert again.x.tolist() == first.x.tolist()
        assert again.objective == first.objective

    def test_bulk_builder_matches_scalar(self):
        scalar, x, y = _small_lp()
        bulk = CompiledLP.from_coo(
            n_variables=2,
            data=np.array([1.0, 1.0, 1.0]),
            rows=np.array([0, 0, 1]),
            cols=np.array([0, 1, 1]),
            senses=np.array([SENSE_GE, SENSE_LE], dtype=np.int8),
            rhs=np.array([2.0, 4.0]),
            c=np.array([1.0, 2.0]),
            lower=np.zeros(2),
            upper=np.full(2, np.inf),
        )
        a, b = scalar.solve(), bulk.solve()
        assert a.x.tolist() == b.x.tolist()
        assert a.objective == b.objective

    def test_sense_codes_validated(self):
        with pytest.raises(ValueError, match="sense codes"):
            CompiledLP.from_coo(
                n_variables=1, data=np.array([1.0]),
                rows=np.array([0]), cols=np.array([0]),
                senses=np.array([3], dtype=np.int8), rhs=np.array([1.0]),
                c=np.array([1.0]), lower=np.zeros(1), upper=np.ones(1),
            )

    def test_infeasible_and_unbounded(self):
        lp = LinearProgram()
        x = lp.variable("x", upper=1.0)
        lp.add_constraint(LinExpr({x: 1.0}), ">=", 2.0)
        lp.minimize(LinExpr({x: 1.0}))
        with pytest.raises(InfeasibleError):
            lp.solve()
        free = LinearProgram()
        x = free.variable("x")
        free.minimize(LinExpr({x: -1.0}))
        with pytest.raises(UnboundedError):
            free.solve()

    @pytest.mark.parametrize("part", ["c", "data", "rhs"])
    def test_non_finite_input_rejected(self, part):
        arrays = dict(
            data=np.array([1.0, 1.0]), rhs=np.array([2.0]),
            c=np.array([1.0, 2.0]),
        )
        arrays[part] = arrays[part].copy()
        arrays[part][0] = np.inf if part != "rhs" else np.nan
        model = CompiledLP.from_coo(
            n_variables=2, rows=np.array([0, 0]), cols=np.array([0, 1]),
            senses=np.array([SENSE_GE], dtype=np.int8),
            lower=np.zeros(2), upper=np.full(2, np.inf), **arrays,
        )
        with pytest.raises(ValueError, match="inf or nan"):
            model.solve()

    def test_objective_required(self):
        lp = LinearProgram()
        lp.variable("x")
        with pytest.raises(ValueError, match="no objective"):
            lp.solve()

    def test_solution_values_vectorized(self):
        lp, x, y = _small_lp()
        solution = lp.solve()
        assert solution.values([y, x]) == [
            solution.value(y), solution.value(x),
        ]
        assert solution.values([]) == []

    @pytest.mark.parametrize("case", ["small", "gts_latency"])
    def test_duals_close_the_gap(self, case, gts):
        if case == "small":
            model = _small_lp()[0].compile()
        else:
            model = _PathLpBuilder(gts, _paper_case(gts)).latency_model()
        solution = model.solve()
        y, d = solution.row_dual, solution.col_dual
        assert y.shape == (model.n_rows,)
        assert d.shape == (model.n_variables,)
        # Rows in the model's own order and sense: <= duals are <= 0,
        # >= duals >= 0 (the solver saw >= rows negated).
        assert (y[model._senses == SENSE_LE] <= 1e-12).all()
        assert (y[model._senses == SENSE_GE] >= -1e-12).all()
        # Each reduced cost prices the bound its column sits at.
        bound = np.where(d > 0, model._lower, np.where(d < 0, model._upper, 0.0))
        dual_objective = float(y @ model._rhs + d @ bound)
        assert dual_objective == pytest.approx(solution.objective, rel=1e-9)

    def test_from_coo_drops_exact_zeros(self):
        compiled = CompiledLP.from_coo(
            2,
            np.array([1.0, 0.0, 1.0]),
            np.array([0, 0, 1]),
            np.array([0, 1, 1]),
            np.full(2, 0, dtype=np.int8),
            np.array([1.0, 1.0]),
            np.array([-1.0, -1.0]),
            np.zeros(2),
            np.full(2, np.inf),
        )
        assert compiled._a.nnz == 2
