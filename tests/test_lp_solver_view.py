"""The column-wise matrix HiGHS receives, against the sparse-matrix recipe
it replaced.

``CompiledLP`` once kept a ``scipy.sparse`` CSR matrix and handed HiGHS
``csr_matrix((data, (rows, cols)))[order].tocsc()`` with its ``>=`` rows
negated.  It now derives the same arrays with numpy
(:func:`repro.lp.model._solver_view`).  Every solver input must equal the
old recipe's element for element, dtype included, so every LP, placement
and digest stays bit-identical.  Only this file imports ``scipy.sparse``.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.experiments.engine import ExperimentEngine
from repro.experiments.figures import fig04_plan
from repro.experiments.workloads import build_zoo_workload
from repro.lp import CompiledLP
from repro.lp.model import SENSE_EQ, SENSE_GE, SENSE_LE
from repro.net.zoo import gts_like
from repro.routing import LinkBasedOptimalRouting
from tests.conftest import loaded_gts_tm


def _scipy_view(n_variables, data, rows, cols, senses, rhs):
    """The old recipe, from the raw ``from_coo`` arguments."""
    data = np.asarray(data, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    keep = data != 0.0
    matrix = sparse.csr_matrix(
        (data[keep], (rows[keep], cols[keep])),
        shape=(len(rhs), n_variables),
    )
    matrix.sum_duplicates()
    order = np.argsort(senses == SENSE_EQ, kind="stable")
    n_ub = int(np.count_nonzero(senses != SENSE_EQ))
    sign = np.where(senses[order] == SENSE_GE, -1.0, 1.0)
    permuted = matrix[order]
    permuted.data *= np.repeat(sign, np.diff(permuted.indptr))
    colwise = permuted.tocsc()
    row_upper = sign * np.asarray(rhs, dtype=np.float64)[order]
    row_lower = row_upper.copy()
    row_lower[:n_ub] = -np.inf
    return (colwise.indptr, colwise.indices, colwise.data, row_lower,
            row_upper)


def _assert_same_view(args):
    model = CompiledLP.from_coo(*args)
    view = model._solver_view()
    ours = (view.start, view.index, view.value, view.row_lower,
            view.row_upper)
    theirs = _scipy_view(*args[:6])
    for name, mine, reference in zip(
        ("start", "index", "value", "row_lower", "row_upper"), ours, theirs
    ):
        assert mine.dtype == reference.dtype, name
        assert mine.shape == reference.shape, name
        # Bitwise: -0.0 vs 0.0 or a reordered sum would show.
        assert mine.tobytes() == reference.tobytes(), name


@pytest.fixture
def recorded_lps(monkeypatch):
    """Every ``from_coo`` argument tuple built while the fixture is live."""
    calls = []
    build = CompiledLP.from_coo.__func__

    def recording(cls, *args, **kwargs):
        names = ("n_variables", "data", "rows", "cols", "senses", "rhs",
                 "c", "lower", "upper")
        bound = dict(zip(names, args), **kwargs)
        calls.append(tuple(bound[name] for name in names))
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(CompiledLP, "from_coo", classmethod(recording))
    return calls


class TestProductionLps:
    def test_fig04_plan_and_link_based(self, recorded_lps):
        workload = build_zoo_workload(3, 1, seed=0)
        ExperimentEngine().run_plan(fig04_plan(workload))
        network = gts_like()
        LinkBasedOptimalRouting().place(
            network, loaded_gts_tm(network, seed=0)
        )
        built = list(recorded_lps)  # the checks below build more
        assert len(built) > 20
        for args in built:
            _assert_same_view(args)


def _args(n_variables, entries, senses, rhs):
    data, rows, cols = (np.array(column) for column in zip(*entries))
    return (
        n_variables, data.astype(float), rows.astype(np.int64),
        cols.astype(np.int64), np.array(senses, dtype=np.int8),
        np.array(rhs, dtype=float), np.ones(n_variables),
        np.zeros(n_variables), np.full(n_variables, np.inf),
    )


class TestHandBuilt:
    def test_ge_rows_are_negated_and_moved(self):
        _assert_same_view(_args(
            3,
            [(1.0, 0, 0), (2.0, 0, 2), (-1.5, 1, 1), (4.0, 2, 0),
             (1.0, 2, 1), (3.0, 3, 2)],
            [SENSE_EQ, SENSE_GE, SENSE_LE, SENSE_GE], [1.0, 2.0, 3.0, 4.0],
        ))

    def test_empty_column(self):
        _assert_same_view(_args(
            4, [(1.0, 0, 0), (1.0, 1, 3), (2.0, 1, 0)],
            [SENSE_LE, SENSE_GE], [1.0, 2.0],
        ))

    def test_all_equality_rows(self):
        _assert_same_view(_args(
            2, [(1.0, 1, 1), (1.0, 0, 0), (1.0, 0, 1)],
            [SENSE_EQ, SENSE_EQ], [1.0, 0.5],
        ))

    def test_two_way_duplicate(self):
        args = _args(
            2, [(0.1, 1, 0), (1.0, 0, 1), (0.2, 1, 0), (0.0, 0, 0)],
            [SENSE_LE, SENSE_GE], [1.0, 2.0],
        )
        _assert_same_view(args)
        view = CompiledLP.from_coo(*args)._solver_view()
        assert view.value.tolist() == [-(0.1 + 0.2), 1.0]

    def test_duplicates_that_cancel_stay_stored(self):
        _assert_same_view(_args(
            2, [(1.0, 0, 0), (-1.0, 0, 0), (1.0, 0, 1)],
            [SENSE_GE], [1.0],
        ))
