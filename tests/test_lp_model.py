"""Unit tests for the LP model: ``CompiledLP`` built from dense rows."""

import numpy as np
import pytest

from repro.lp import CompiledLP, InfeasibleError, UnboundedError
from repro.lp.model import SENSE_EQ, SENSE_GE, SENSE_LE


def _lp(c, rows=(), lower=None, upper=None):
    """``min c.x`` over dense ``(coefficients, sense, rhs)`` rows."""
    n = len(c)
    dense = np.array([row for row, _, _ in rows], dtype=float)
    dense = dense.reshape(len(rows), n)
    row_index, col_index = np.nonzero(dense)
    return CompiledLP.from_coo(
        n_variables=n,
        data=dense[row_index, col_index],
        rows=row_index,
        cols=col_index,
        senses=np.array([sense for _, sense, _ in rows], dtype=np.int8),
        rhs=np.array([rhs for _, _, rhs in rows], dtype=float),
        c=np.array(c, dtype=float),
        lower=np.zeros(n) if lower is None else np.array(lower, dtype=float),
        upper=np.full(n, np.inf) if upper is None else np.array(upper, float),
    )


class TestFromCoo:
    def test_duplicate_entries_accumulate(self):
        # Two COO entries for one (row, column) are one coefficient.
        model = CompiledLP.from_coo(
            n_variables=1, data=np.array([1.0, 2.0]), rows=np.array([0, 0]),
            cols=np.array([0, 0]), senses=np.array([SENSE_GE], dtype=np.int8),
            rhs=np.array([6.0]), c=np.array([1.0]), lower=np.zeros(1),
            upper=np.full(1, np.inf),
        )
        view = model._solver_view()
        # One stored entry, 1 + 2, on the solver's negated >= row.
        assert view.start.tolist() == [0, 1]
        assert view.value.tolist() == [-3.0]
        assert model.solve().x[0] == pytest.approx(2.0)


class TestSolve:
    def test_simple_minimization(self):
        solution = _lp([1.0, 2.0], [([1.0, 1.0], SENSE_GE, 1.0)]).solve()
        assert solution.objective == pytest.approx(1.0)
        assert solution.x[0] == pytest.approx(1.0)
        assert solution.x[1] == pytest.approx(0.0)

    def test_equality_constraint(self):
        solution = _lp([3.0, 1.0], [([1.0, 1.0], SENSE_EQ, 5.0)]).solve()
        assert solution.x[1] == pytest.approx(5.0)

    def test_upper_bounds_respected(self):
        solution = _lp(
            [1.0, 10.0], [([1.0, 1.0], SENSE_GE, 5.0)], upper=[2.0, np.inf]
        ).solve()
        assert solution.x[0] == pytest.approx(2.0)
        assert solution.x[1] == pytest.approx(3.0)

    def test_lower_bounds(self):
        assert _lp([1.0], lower=[1.5]).solve().x[0] == pytest.approx(1.5)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            _lp([1.0], [([1.0], SENSE_GE, 2.0)], upper=[1.0]).solve()

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedError):
            _lp([-1.0]).solve()

    def test_no_objective_raises(self):
        # A model without columns has nothing to minimize.
        with pytest.raises(ValueError, match="no variables"):
            _lp([]).solve()

    def test_constraint_on_bare_variable(self):
        solution = _lp([1.0], [([1.0], SENSE_GE, 3.0)]).solve()
        assert solution.x[0] == pytest.approx(3.0)

    def test_invalid_sense_rejected(self):
        with pytest.raises(ValueError, match="sense"):
            _lp([1.0], [([1.0], 3, 1.0)])

    def test_invalid_bounds_rejected(self):
        with pytest.raises(InfeasibleError):
            _lp([1.0], lower=[2.0], upper=[1.0]).solve()

    def test_counts(self):
        model = _lp([1.0], [([1.0], SENSE_GE, 0.0), ([1.0], SENSE_LE, 5.0)])
        assert model.n_rows == 2
        assert model.n_variables == 1

    def test_values_batch(self):
        solution = _lp([1.0, 1.0], lower=[1.0, 2.0]).solve()
        assert solution.x.tolist() == pytest.approx([1.0, 2.0])

    def test_degenerate_transport_problem(self):
        # Classic 2x2 transportation LP with a known optimum; columns are
        # x11, x12, x21, x22.
        solution = _lp(
            [1.0, 4.0, 2.0, 1.0],
            [
                ([1.0, 1.0, 0.0, 0.0], SENSE_EQ, 10.0),
                ([0.0, 0.0, 1.0, 1.0], SENSE_EQ, 20.0),
                ([1.0, 0.0, 1.0, 0.0], SENSE_EQ, 15.0),
                ([0.0, 1.0, 0.0, 1.0], SENSE_EQ, 15.0),
            ],
        ).solve()
        # Ship as much as possible on the cheap arcs: x11=10, x21=5, x22=15.
        assert solution.objective == pytest.approx(10 + 10 + 15)
