"""Path-based LP formulations shared by the routing schemes.

This module implements the paper's Figure 12 linear program:

    min   sum_a n_a sum_{p in P_a} x_ap (d_p + d_p M1 / S_a)
            + M2 * Omax + sum_l O_l
    s.t.  sum_a sum_{p in P_a} x_ap B_a <= C_l O_l      for all links l
          1 <= O_l <= Omax                              for all links l
          sum_{p in P_a} x_ap = 1                       for all aggregates a

with the paper's priority layering: avoiding congestion dominates (M2
large), total overload is spread if congestion is unavoidable, latency is
the secondary goal, and a small M1 term tie-breaks between equal-delay
placements by preferring to move aggregates whose shortest-path RTT is
already large.

It also implements the MinMax two-stage LP (minimize maximum utilization,
then minimize latency subject to that maximum), which the paper uses as the
TeXCP/MATE-style baseline; it returns its splits and the stage-1 maximum
utilization, nothing more.

All quantities are normalized before hitting the solver: rates in units of
the mean link capacity and delays in units of the flow-weighted mean
shortest-path delay.  This keeps coefficient magnitudes near 1 and
HiGHS numerically happy (raw bits/s coefficients provoke spurious
unbounded results).

Assembly is vectorized: one :class:`_PathLpBuilder` per solve computes
the per-path link incidence, per-path delays, link order and normalized
capacities of its (network, path sets, demands), and emits a handful of
numpy arrays into one fresh :meth:`repro.lp.CompiledLP.from_coo` model,
solved once.  Nothing is cached across placements: the paper's loop
"runs very quickly because the number of variables (paths) in each run
is small", and reusing the arrays of a repeated (network, path sets)
pair saved no measurable time (README, "LP solver").  The two MinMax
stages share one builder, and within one LDR placement (its
:data:`PathMemo`) every path's delay and link ids are computed once
across all rounds.  The produced models are bit-identical to the
historical per-coefficient construction.
:func:`latency_certificate` bounds how far a solved Figure 12 LP's
latency is from the best over *all* paths, from its duals alone.
A scheme's normalized splits are its placement
(:func:`repro.routing.base.normalize_allocations`), judged on the real
network like every other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.lp import CompiledLP, Solution
from repro.lp.model import SENSE_EQ, SENSE_LE
from repro.net.graph import Network
from repro.net.index import FloatArray, IntArray, graph_index
from repro.net.paths import Path
from repro.routing.base import OVERLOAD_TOLERANCE, LinkKey, Splits
from repro.telemetry import recorder
from repro.tm.matrix import Aggregate

# Priority layers of the Figure 12 objective (normalized units).
M1_TIEBREAK = 1e-3
M2_MAX_OVERLOAD = 1e4
M3_TOTAL_OVERLOAD = 1e2


@dataclass
class PathLpResult:
    """Outcome of one Figure 12 solve (:func:`solve_latency_lp`)."""

    fractions: Dict[Aggregate, List[Tuple[Path, float]]]
    #: Each model link's ``O_l`` (>= 1) and their maximum ``Omax``.
    link_overload: Dict[LinkKey, float]
    max_overload: float
    objective: float
    #: Each model link's capacity-row dual (<= 0).
    capacity_dual: Dict[LinkKey, float]

    @property
    def fits(self) -> bool:
        return self.max_overload <= 1.0 + OVERLOAD_TOLERANCE

    def overloaded_links(self, only_maximal: bool = True) -> List[Tuple[str, str]]:
        """Links with overload > 1; optionally only the maximally loaded.

        The paper's Figure 13 iteration grows paths for aggregates crossing
        links "that are maximally overloaded — i.e., such that
        Ol = Omax > 1".
        """
        if self.fits:
            return []
        if only_maximal:
            threshold = self.max_overload * (1.0 - 1e-6)
        else:
            threshold = 1.0 + OVERLOAD_TOLERANCE
        return [
            key for key, value in self.link_overload.items() if value >= threshold
        ]


#: Each path's ``(delay, link ids)`` over one network.  One LDR placement
#: creates one and passes it to every LP it solves: it solves over one
#: network only, and its growing path sets repeat most paths round after
#: round.  It dies with the placement — kept for the process, it would
#: grow with every path ever solved over.
PathMemo = Dict[Path, Tuple[float, List[int]]]


class _PathLpBuilder:
    """Common scaffolding for the latency and MinMax path LPs.

    One builder = one (network, path sets, demands) triple.  The
    constructor computes the vectorized incidence arrays once; the
    latency model and both MinMax stage models are emitted from them as
    :class:`CompiledLP` models, so the two MinMax stages share a single
    builder.
    """

    def __init__(
        self,
        network: Network,
        path_sets: Mapping[Aggregate, Sequence[Path]],
        path_memo: Optional[PathMemo] = None,
    ) -> None:
        if not path_sets:
            raise ValueError("no aggregates to place")
        for agg, paths in path_sets.items():
            if not paths:
                raise ValueError(f"aggregate {agg.src}->{agg.dst} has no paths")
        self.path_sets = {agg: list(paths) for agg, paths in path_sets.items()}
        self.aggregates = list(self.path_sets)
        memo: PathMemo = {} if path_memo is None else path_memo

        links = list(network.links())
        self.capacity_unit = (
            sum(link.capacity_bps for link in links) / len(links)
        )
        link_delay = {link.key: link.delay_s for link in links}
        link_index = {link.key: i for i, link in enumerate(links)}
        capacity_bps = np.fromiter(
            (link.capacity_bps for link in links),
            dtype=np.float64, count=len(links),
        )

        self.n_aggs = len(self.aggregates)
        counts = np.fromiter(
            (len(self.path_sets[agg]) for agg in self.aggregates),
            dtype=np.int64, count=self.n_aggs,
        )
        path_offsets = np.zeros(self.n_aggs, dtype=np.int64)
        np.cumsum(counts[:-1], out=path_offsets[1:])
        self.n_paths = int(counts.sum())
        self.agg_of_path = np.repeat(
            np.arange(self.n_aggs, dtype=np.int64), counts
        )

        # Per-path delay and link entries, computed once per path and
        # network (``memo``): this loop dominates the builder's cost, so
        # it reads link attributes directly instead of going through path
        # helpers.  Delays are summed sequentially in link order
        # (bit-compatible with the historical per-path Python sum).
        delays: List[float] = []
        entry_path: List[int] = []
        entry_global: List[int] = []
        pi = 0
        for agg in self.aggregates:
            for path in self.path_sets[agg]:
                known = memo.get(path)
                if known is None:
                    keys = [
                        (path[i], path[i + 1]) for i in range(len(path) - 1)
                    ]
                    known = memo[path] = (
                        sum(link_delay[k] for k in keys),
                        [link_index[k] for k in keys],
                    )
                delay, ids = known
                delays.append(delay)
                entry_path.extend([pi] * len(ids))
                entry_global.extend(ids)
                pi += 1
        self.path_delay = np.asarray(delays, dtype=np.float64)
        self.shortest_delay = self.path_delay[path_offsets]
        entry_path_arr = np.asarray(entry_path, dtype=np.int64)
        entry_global_arr = np.asarray(entry_global, dtype=np.int64)

        # Model link order = first-touch order of the (aggregate, path,
        # link-in-path) traversal, matching the historical
        # ``load_exprs.setdefault`` insertion order.
        unique, first_pos = np.unique(entry_global_arr, return_index=True)
        touch_order = np.argsort(first_pos, kind="stable")
        model_global = unique[touch_order]
        remap = np.full(len(links), -1, dtype=np.int64)
        remap[model_global] = np.arange(model_global.shape[0], dtype=np.int64)

        self.entry_path = entry_path_arr
        self.entry_link = remap[entry_global_arr]
        self.entry_agg = self.agg_of_path[entry_path_arr]
        self.n_links = int(model_global.shape[0])
        self.link_keys = [links[g].key for g in model_global.tolist()]
        self.capacity_units = capacity_bps[model_global] / self.capacity_unit

        flows = np.fromiter(
            (agg.n_flows for agg in self.aggregates),
            dtype=np.int64, count=self.n_aggs,
        )
        total_flows = int(flows.sum())
        self.flow_weight = flows / total_flows
        demand = np.fromiter(
            (agg.demand_bps for agg in self.aggregates),
            dtype=np.float64, count=self.n_aggs,
        )
        self.demand_units = demand / self.capacity_unit

        # Flow-weighted mean shortest delay, summed sequentially in
        # aggregate order (bit-compatible with the historical Python sum).
        self.delay_unit = sum((self.flow_weight * self.shortest_delay).tolist())
        if self.delay_unit <= 0:
            self.delay_unit = 1e-3  # degenerate all-zero-delay network

    # ------------------------------------------------------------------
    def delay_cost(self) -> FloatArray:
        """Figure 12's flow-weighted delay coefficient per x column."""
        delay = self.path_delay / self.delay_unit
        weight = self.flow_weight[self.agg_of_path]
        cost = weight * delay
        # d_p * M1 / S_a: cheaper to detour aggregates whose shortest
        # delay is already large.
        ratio = self.delay_unit / np.maximum(self.shortest_delay, 1e-9)
        return cost + cost * M1_TIEBREAK * ratio[self.agg_of_path]

    def _assignment_coo(self) -> Tuple[FloatArray, IntArray, IntArray]:
        """(data, rows, cols) of the sum_p x_ap = 1 rows (rows 0..A-1)."""
        return (
            np.ones(self.n_paths),
            self.agg_of_path,
            np.arange(self.n_paths, dtype=np.int64),
        )

    def latency_model(self) -> CompiledLP:
        """The Figure 12 LP; columns = x | Omax | O_l per used link."""
        p, a, l = self.n_paths, self.n_aggs, self.n_links
        omax_col = p
        o_cols = p + 1 + np.arange(l, dtype=np.int64)
        link_rows = a + 2 * np.arange(l, dtype=np.int64)
        assign = self._assignment_coo()
        data = np.concatenate([
            assign[0],
            self.demand_units[self.entry_agg],   # load terms
            -self.capacity_units,                # -C_l O_l
            np.ones(l),                          # O_l ...
            np.full(l, -1.0),                    # ... <= Omax
        ])
        rows = np.concatenate([
            assign[1],
            a + 2 * self.entry_link,
            link_rows,
            link_rows + 1,
            link_rows + 1,
        ])
        cols = np.concatenate([
            assign[2], self.entry_path, o_cols, o_cols,
            np.full(l, omax_col, dtype=np.int64),
        ])
        senses = np.concatenate([
            np.full(a, SENSE_EQ, dtype=np.int8),
            np.full(2 * l, SENSE_LE, dtype=np.int8),
        ])
        rhs = np.concatenate([np.ones(a), np.zeros(2 * l)])
        c = np.concatenate([
            self.delay_cost(),
            np.array([M2_MAX_OVERLOAD]),
            np.full(l, M3_TOTAL_OVERLOAD),
        ])
        lower = np.concatenate([np.zeros(p), np.ones(1 + l)])
        upper = np.concatenate([np.ones(p), np.full(1 + l, np.inf)])
        return CompiledLP.from_coo(
            n_variables=p + 1 + l, data=data, rows=rows, cols=cols,
            senses=senses, rhs=rhs, c=c, lower=lower, upper=upper,
        )

    def minmax_stage1_model(self) -> CompiledLP:
        """Stage 1: minimize Umax; columns = x | Umax."""
        p, a, l = self.n_paths, self.n_aggs, self.n_links
        umax_col = p
        assign = self._assignment_coo()
        data = np.concatenate([
            assign[0],
            self.demand_units[self.entry_agg],
            -self.capacity_units,                # -C_l Umax
        ])
        rows = np.concatenate([
            assign[1],
            a + self.entry_link,
            a + np.arange(l, dtype=np.int64),
        ])
        cols = np.concatenate([
            assign[2], self.entry_path,
            np.full(l, umax_col, dtype=np.int64),
        ])
        senses = np.concatenate([
            np.full(a, SENSE_EQ, dtype=np.int8),
            np.full(l, SENSE_LE, dtype=np.int8),
        ])
        rhs = np.concatenate([np.ones(a), np.zeros(l)])
        c = np.zeros(p + 1)
        c[umax_col] = 1.0
        lower = np.zeros(p + 1)
        upper = np.concatenate([np.ones(p), np.array([np.inf])])
        return CompiledLP.from_coo(
            n_variables=p + 1, data=data, rows=rows, cols=cols,
            senses=senses, rhs=rhs, c=c, lower=lower, upper=upper,
        )

    def minmax_stage2_model(self, cap: float) -> CompiledLP:
        """Stage 2: minimize delay with loads capped at ``cap``."""
        p, a = self.n_paths, self.n_aggs
        assign = self._assignment_coo()
        data = np.concatenate([assign[0], self.demand_units[self.entry_agg]])
        rows = np.concatenate([assign[1], a + self.entry_link])
        cols = np.concatenate([assign[2], self.entry_path])
        senses = np.concatenate([
            np.full(a, SENSE_EQ, dtype=np.int8),
            np.full(self.n_links, SENSE_LE, dtype=np.int8),
        ])
        rhs = np.concatenate([np.ones(a), self.capacity_units * cap])
        return CompiledLP.from_coo(
            n_variables=p, data=data, rows=rows, cols=cols,
            senses=senses, rhs=rhs, c=self.delay_cost(),
            lower=np.zeros(p), upper=np.ones(p),
        )

    def extract_fractions(
        self, solution: Solution
    ) -> Dict[Aggregate, List[Tuple[Path, float]]]:
        """Per-aggregate (path, fraction) splits via one vectorized slice."""
        values = solution.x[: self.n_paths].tolist()
        fractions: Dict[Aggregate, List[Tuple[Path, float]]] = {}
        position = 0
        for agg in self.aggregates:
            paths = self.path_sets[agg]
            fractions[agg] = list(zip(paths, values[position:position + len(paths)]))
            position += len(paths)
        return fractions

    def _assemble_attrs(self) -> Optional[Dict[str, object]]:
        if not recorder().enabled:
            return None
        return {"n_paths": self.n_paths, "n_links": self.n_links}


def solve_latency_lp(
    network: Network,
    path_sets: Mapping[Aggregate, Sequence[Path]],
    path_memo: Optional[PathMemo] = None,
) -> PathLpResult:
    """One solve of the Figure 12 latency-optimization LP.

    ``path_memo`` is the enclosing placement's :data:`PathMemo`.
    """
    builder = _PathLpBuilder(network, path_sets, path_memo)
    with recorder().span("lp_assemble", builder._assemble_attrs()):
        model = builder.latency_model()
    solution = model.solve()

    overload_values = solution.x[builder.n_paths + 1:].tolist()
    capacity_rows = solution.row_dual[builder.n_aggs::2].tolist()
    return PathLpResult(
        fractions=builder.extract_fractions(solution),
        link_overload=dict(zip(builder.link_keys, overload_values)),
        max_overload=float(solution.x[builder.n_paths]),
        objective=solution.objective,
        capacity_dual=dict(zip(builder.link_keys, capacity_rows)),
    )


def latency_certificate(
    network: Network, result: PathLpResult
) -> Tuple[float, float]:
    """A Lagrangian lower bound on the delay term of any fitting placement
    over *all* paths, and the relative gap of ``result``'s delay term to it.

    ``result`` is a :func:`solve_latency_lp` solve over ``network``.  Its
    delay term is Figure 12's ``sum_a sum_p c_a(p) x_ap``; the overload
    terms are left out, since they add ``M2 + M3 * (links in the model)``
    to every objective and so differ between path sets that place alike.
    Relaxing the capacity rows with ``lam_l = -y_l >= 0`` (the solve's
    duals; the assignment-row duals are not used) leaves one choice per
    aggregate, so every fitting placement's delay term is at least

        sum_a min_p [c_a(p) + b_a sum_{l in p} lam_l] - sum_l lam_l C_l

    with ``p`` over every path of ``a``.  ``c_a(p)`` sums
    ``w_a (1 + M1 D / S_a) d_l / D`` over the path's links, so the inner
    minimum is one Dijkstra per aggregate over non-negative link weights.
    A gap above solver noise means some path outside the LP's sets would
    lower its latency; an LP that does not fit prices its overloaded
    links at ``lam_l >= M3 / C_l`` and shows a large gap.
    """
    builder = _PathLpBuilder(
        network,
        {
            agg: [path for path, _ in splits]
            for agg, splits in result.fractions.items()
        },
    )
    x = np.fromiter(
        (fraction for splits in result.fractions.values()
         for _, fraction in splits),
        dtype=np.float64, count=builder.n_paths,
    )
    delay = float(builder.delay_cost() @ x)

    lam_model = np.maximum(
        -np.array([result.capacity_dual[key] for key in builder.link_keys]),
        0.0,
    )
    index = graph_index(network)
    lam = np.zeros(index.num_edges)
    lam[index.edge_positions(builder.link_keys)] = lam_model
    bound = -float(lam_model @ builder.capacity_units)
    per_delay = (builder.flow_weight / builder.delay_unit) * (
        1.0 + M1_TIEBREAK * builder.delay_unit
        / np.maximum(builder.shortest_delay, 1e-9)
    )
    delays = index.delay_array
    for a, agg in enumerate(builder.aggregates):
        weights = per_delay[a] * delays + builder.demand_units[a] * lam
        dst = index.node_id(agg.dst)
        dist, _, _ = index.dijkstra_ids(
            index.node_id(agg.src), dst, weights=weights.tolist()
        )
        bound += dist[dst]
    return bound, (delay - bound) / delay


def solve_minmax_lp(
    network: Network,
    path_sets: Mapping[Aggregate, Sequence[Path]],
) -> Tuple[Splits, float]:
    """The MinMax two-stage LP over the given path sets.

    Stage 1 minimizes the maximum link utilization Umax (no lower bound at
    1: MinMax by definition drives utilization as low as it can).  Stage 2
    re-optimizes latency subject to every link staying within the stage-1
    utilization.  Returns the stage-2 splits and the stage-1 Umax.

    Both stages share one builder — and therefore one set of incidence
    arrays — so stage 2 costs only its own numpy assembly and solve.
    """
    builder = _PathLpBuilder(network, path_sets)
    with recorder().span("lp_assemble", builder._assemble_attrs()):
        stage1 = builder.minmax_stage1_model()
    utilization = float(stage1.solve().x[builder.n_paths])

    cap = utilization * (1.0 + 1e-6) + 1e-9
    with recorder().span("lp_assemble", builder._assemble_attrs()):
        stage2 = builder.minmax_stage2_model(cap)
    return builder.extract_fractions(stage2.solve()), utilization
