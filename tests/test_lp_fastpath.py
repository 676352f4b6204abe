"""The LP hot path: vectorized assembly and the HiGHS binding.

Three layers:

* **byte-identity properties** — the vectorized assembly in
  :mod:`repro.routing.pathlp` must produce *bit-identical* results to the
  scalar, build-per-solve reference implementation it replaced (ported
  below as ``_legacy_*``), on a fresh or a placement-shared path memo,
  and on repeat solves;
* **the binding** — SciPy's bundled HiGHS binding is the one solver,
  loaded without the ``scipy.optimize`` package, and no environment
  variable picks another;
* **CompiledLP unit tests** — construction (``from_coo``), input
  validation and solver outcomes.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.lp import CompiledLP, InfeasibleError, UnboundedError, resolve_backend
from repro.lp import model as lp_model
from repro.lp.model import SENSE_EQ, SENSE_GE, SENSE_LE
from repro.net.paths import KspCache
from repro.net.units import Gbps
from repro.routing.pathlp import (
    M1_TIEBREAK,
    M2_MAX_OVERLOAD,
    M3_TOTAL_OVERLOAD,
    _PathLpBuilder,
    solve_latency_lp,
    solve_minmax_lp,
)
from repro.tm.matrix import Aggregate
from tests.conftest import loaded_gts_tm
from tests.oracles import ScalarLP, add_term

REPO = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Legacy reference: the scalar, build-per-solve assembly this PR replaced
# (a port onto the row-at-a-time ScalarLP oracle, minus docstrings).  The
# vectorized path must match it bit for bit.
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

        self.lp = ScalarLP()
        self.x = {}
        for ai, agg in enumerate(self.aggregates):
            for pi, _ in enumerate(self.path_sets[agg]):
                self.x[(ai, pi)] = self.lp.variable(0.0, 1.0)
            expr = {}
            for pi in range(len(self.path_sets[agg])):
                add_term(expr, self.x[(ai, pi)], 1.0)
            self.lp.add_row(expr, SENSE_EQ, 1.0)

        self.load_exprs = {}
        for ai, agg in enumerate(self.aggregates):
            demand_units = agg.demand_bps / self.capacity_unit
            for pi in range(len(self.path_sets[agg])):
                x_var = self.x[(ai, pi)]
                for key in self._path_links[(ai, pi)]:
                    expr = self.load_exprs.setdefault(key, {})
                    add_term(expr, x_var, demand_units)

    def delay_objective(self):
        objective = {}
        for ai, agg in enumerate(self.aggregates):
            weight = self.flow_weight[agg]
            shortest = max(self.shortest_delay[agg], 1e-9)
            for pi in range(len(self.path_sets[agg])):
                delay = self._path_delay[(ai, pi)] / self.delay_unit
                coefficient = weight * delay
                coefficient += (
                    weight * delay * M1_TIEBREAK * (self.delay_unit / shortest)
                )
                add_term(objective, self.x[(ai, pi)], coefficient)
        return objective

    def extract_fractions(self, solution):
        return {
            agg: [
                (path, float(solution.x[self.x[(ai, pi)]]))
                for pi, path in enumerate(self.path_sets[agg])
            ]
            for ai, agg in enumerate(self.aggregates)
        }


def _legacy_latency(network, path_sets):
    builder = _LegacyBuilder(network, path_sets)
    lp = builder.lp
    omax = lp.variable(lower=1.0)
    overload = {}
    for key, load_expr in builder.load_exprs.items():
        o_l = lp.variable(lower=1.0)
        overload[key] = o_l
        capacity_units = network.link(*key).capacity_bps / builder.capacity_unit
        constraint = add_term(dict(load_expr), o_l, -capacity_units)
        lp.add_row(constraint, SENSE_LE, 0.0)
        lp.add_row(add_term({o_l: 1.0}, omax, -1.0), SENSE_LE, 0.0)
    objective = builder.delay_objective()
    add_term(objective, omax, M2_MAX_OVERLOAD)
    for o_l in overload.values():
        add_term(objective, o_l, M3_TOTAL_OVERLOAD)
    solution = lp.compile(objective).solve()
    link_overload = {
        key: float(solution.x[var]) for key, var in overload.items()
    }
    return (
        builder.extract_fractions(solution),
        link_overload,
        float(solution.x[omax]),
        solution.objective,
    )


def _legacy_minmax(network, path_sets):
    stage1 = _LegacyBuilder(network, path_sets)
    umax = stage1.lp.variable(lower=0.0)
    for key, load_expr in stage1.load_exprs.items():
        capacity_units = network.link(*key).capacity_bps / stage1.capacity_unit
        constraint = add_term(dict(load_expr), umax, -capacity_units)
        stage1.lp.add_row(constraint, SENSE_LE, 0.0)
    stage1_umax = float(stage1.lp.compile({umax: 1.0}).solve().x[umax])

    stage2 = _LegacyBuilder(network, path_sets)
    cap = stage1_umax * (1.0 + 1e-6) + 1e-9
    for key, load_expr in stage2.load_exprs.items():
        capacity_units = network.link(*key).capacity_bps / stage2.capacity_unit
        stage2.lp.add_row(load_expr, SENSE_LE, capacity_units * cap)
    solution = stage2.lp.compile(stage2.delay_objective()).solve()
    return stage2.extract_fractions(solution), stage1_umax


def _paper_case(gts):
    """A figs-4/16-style case: K=10 path sets over a paper workload."""
    tm = loaded_gts_tm(gts)
    cache = KspCache(gts)
    return {
        agg: list(cache.get(agg.src, agg.dst, 10)) for agg in tm.aggregates()
    }


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
        fractions, cap = solve_minmax_lp(gts, path_sets)
        assert fractions == ref_fracs
        assert cap == ref_cap

    def test_path_memo_changes_nothing(self, gts):
        path_sets = _paper_case(gts)
        fresh = solve_latency_lp(gts, path_sets)
        memo = {}
        filled = solve_latency_lp(gts, path_sets, path_memo=memo)
        assert len(memo) == sum(len(paths) for paths in path_sets.values())
        shared = solve_latency_lp(gts, path_sets, path_memo=memo)
        for other in (filled, shared):
            assert other.fractions == fresh.fractions
            assert other.link_overload == fresh.link_overload
            assert other.max_overload == fresh.max_overload
            assert other.objective == fresh.objective

    def test_shared_builder_warm_equals_cold(self, gts):
        path_sets = _paper_case(gts)
        cold = solve_minmax_lp(gts, path_sets)
        warm = solve_minmax_lp(gts, path_sets)
        assert warm == cold

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
# The binding
# ----------------------------------------------------------------------
class TestBackends:
    def test_missing_scipy_binding_is_an_error_not_a_fallback(
        self, monkeypatch
    ):
        def missing(name):
            raise ImportError(name)

        monkeypatch.setattr(lp_model, "_core", None)
        monkeypatch.setattr(lp_model, "_load_extension", missing)
        with pytest.raises(RuntimeError, match="SciPy >= 1.15"):
            resolve_backend()
        with pytest.raises(RuntimeError, match="SciPy >= 1.15"):
            _small_lp().solve()

    def test_scipy_binding_loads_without_scipy_optimize(self):
        """SciPy's HiGHS extension is loaded on its own: solving never runs
        the ``scipy.optimize`` package init, and a later ``import
        scipy.optimize`` shares the same module object.  The child runs
        with ``REPRO_LP_BACKEND=highs``: no variable picks the solver, so
        the setting is ignored."""
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import repro.experiments\n"
            "from repro.lp.model import CompiledLP, SENSE_GE, _binding,"
            " resolve_backend\n"
            "assert resolve_backend() == 'scipy'\n"
            "solution = CompiledLP.from_coo(\n"
            "    n_variables=2, data=np.array([1.0, 1.0]),\n"
            "    rows=np.array([0, 0]), cols=np.array([0, 1]),\n"
            "    senses=np.array([SENSE_GE], dtype=np.int8),\n"
            "    rhs=np.array([2.0]), c=np.array([1.0, 2.0]),\n"
            "    lower=np.zeros(2), upper=np.full(2, np.inf),\n"
            ").solve()\n"
            "assert solution.objective == 2.0, solution.objective\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "core = sys.modules['scipy.optimize._highspy._core']\n"
            "assert _binding() is core\n"
            "import scipy.optimize\n"
            "from scipy.optimize import linprog\n"
            "assert linprog([1, 1], A_ub=[[-1, -1]], b_ub=[-1]).status == 0\n"
            "assert sys.modules['scipy.optimize._highspy._core'] is core\n"
        )
        env = dict(
            os.environ, PYTHONPATH=os.fspath(REPO / "src"),
            REPRO_LP_BACKEND="highs",
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_cli_and_solve_load_no_scipy_sparse(self):
        """The CLI's imports plus one solve load no sparse-matrix package:
        ``CompiledLP`` builds HiGHS's column-wise arrays with numpy, and
        ``scipy.sparse`` (with ``scipy._lib._util`` under it) would cost
        every process ~0.2 s and ~17 MB."""
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import repro.experiments.__main__\n"
            "from repro.lp.model import CompiledLP, SENSE_GE\n"
            "solution = CompiledLP.from_coo(\n"
            "    n_variables=2, data=np.array([1.0, 1.0]),\n"
            "    rows=np.array([0, 0]), cols=np.array([0, 1]),\n"
            "    senses=np.array([SENSE_GE], dtype=np.int8),\n"
            "    rhs=np.array([2.0]), c=np.array([1.0, 2.0]),\n"
            "    lower=np.zeros(2), upper=np.full(2, np.inf),\n"
            ").solve()\n"
            "assert solution.objective == 2.0, solution.objective\n"
            "loaded = [name for name in ('scipy.sparse', 'scipy._lib._util')\n"
            "          if name in sys.modules]\n"
            "assert not loaded, loaded\n"
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
    return CompiledLP.from_coo(
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


class TestCompiledLP:
    def test_compile_once_solve_many(self):
        compiled = _small_lp()
        first = compiled.solve()
        assert first.x[0] == pytest.approx(2.0)
        # Solving derives the solver's view (sign-flipped >= rows) from
        # copies; the model itself is untouched, so a repeat is identical.
        again = compiled.solve()
        assert again.x.tolist() == first.x.tolist()
        assert again.objective == first.objective

    def test_bulk_builder_matches_scalar(self):
        scalar = ScalarLP()
        x, y = scalar.variable(), scalar.variable()
        scalar.add_row({x: 1.0, y: 1.0}, SENSE_GE, 2.0)
        scalar.add_row({y: 1.0}, SENSE_LE, 4.0)
        a = scalar.compile({x: 1.0, y: 2.0}).solve()
        b = _small_lp().solve()
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
        one_row = dict(
            n_variables=1, data=np.array([1.0]), rows=np.array([0]),
            cols=np.array([0]), senses=np.array([SENSE_GE], dtype=np.int8),
            rhs=np.array([2.0]), lower=np.zeros(1),
        )
        infeasible = CompiledLP.from_coo(
            c=np.array([1.0]), upper=np.ones(1), **one_row
        )
        with pytest.raises(InfeasibleError):
            infeasible.solve()
        unbounded = CompiledLP.from_coo(
            c=np.array([-1.0]), upper=np.full(1, np.inf), **one_row
        )
        with pytest.raises(UnboundedError):
            unbounded.solve()

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
        # One objective coefficient per column, or no model at all.
        with pytest.raises(ValueError, match="c/bounds length"):
            CompiledLP.from_coo(
                n_variables=2, data=np.array([1.0]), rows=np.array([0]),
                cols=np.array([0]), senses=np.array([SENSE_GE], dtype=np.int8),
                rhs=np.array([1.0]), c=np.array([1.0]), lower=np.zeros(2),
                upper=np.full(2, np.inf),
            )

    @pytest.mark.parametrize("rows,cols,match", [
        ([1], [0], "outside"),     # row 1 of a one-row model
        ([0], [2], "outside"),     # would alias (1, 0) in a row-major key
        ([0], [-1], "outside"),
        ([0, 0], [0], "lengths differ"),
    ])
    def test_bad_coordinates_rejected(self, rows, cols, match):
        with pytest.raises(ValueError, match=match):
            CompiledLP.from_coo(
                n_variables=2, data=np.ones(len(rows)), rows=np.array(rows),
                cols=np.array(cols), senses=np.array([SENSE_LE], np.int8),
                rhs=np.array([1.0]), c=np.ones(2), lower=np.zeros(2),
                upper=np.ones(2),
            )

    @pytest.mark.parametrize("case", ["small", "gts_latency"])
    def test_duals_close_the_gap(self, case, gts):
        if case == "small":
            model = _small_lp()
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
        view = compiled._solver_view()
        assert view.start[-1] == 2
        assert view.index.tolist() == [0, 1]
        assert view.value.tolist() == [1.0, 1.0]
