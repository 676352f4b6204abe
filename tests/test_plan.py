"""Tests for the evaluation-plan layer: whole-figure batches.

The contract under test is the tentpole one: executing a figure's whole
(scheme x sweep-point x network) grid as ONE engine pass over a single
shared pool is **bit-identical** to one one-stream plan run per
(scheme, sweep point) — for any worker count, fork pool or serial, fresh
or resumed mid-plan.
"""

import argparse

import numpy as np
import pytest

from repro.experiments.engine import ExperimentEngine
from repro.experiments.figures import (
    fig04_plan,
    fig17_plan,
    fig18_plan,
    fig20_plan,
    scheme_factories,
)
from repro.experiments.plan import EvalPlan, EvalTask
from repro.experiments.spec import SchemeSpec
from repro.experiments.workloads import (
    NetworkWorkload,
    ZooWorkload,
    build_traffic_matrices,
    build_zoo_workload,
)
from repro.net.zoo import grid_network, ring_network
from repro.routing import ShortestPathRouting
from repro.tm import scale_to_growth_headroom
from tests.plans import one_stream


@pytest.fixture(scope="module")
def workload():
    return build_zoo_workload(
        n_networks=4, n_matrices=1, seed=7, include_named=False
    )


@pytest.fixture(scope="module")
def sweep_items():
    rng = np.random.default_rng(3)
    items = []
    for network, llpd_value in (
        (ring_network(6, np.random.default_rng(1)), 0.2),
        (grid_network(2, 3, np.random.default_rng(2), name="plan-grid"), 0.5),
    ):
        items.append(
            NetworkWorkload(
                network=network,
                llpd=llpd_value,
                matrices=build_traffic_matrices(
                    network, 1, rng, locality=1.0, growth_factor=1.3
                ),
            )
        )
    return items


def per_call_reference(plan):
    """The per-stream oracle: one serial one-stream plan per stream."""
    return {
        key: ExperimentEngine().run_plan(
            one_stream(stream.factory, stream.workload)
        ).outcomes("SP")
        for key, stream in plan.streams.items()
    }


@pytest.fixture(scope="module")
def figure_plans(workload, sweep_items):
    return {
        "fig04": fig04_plan(workload),
        "fig17": fig17_plan(sweep_items, loads=(0.6, 0.9)),
        "fig18": fig18_plan(
            [item.network for item in sweep_items],
            localities=(0.0, 1.0),
            n_matrices=1,
        ),
    }


@pytest.fixture(scope="module")
def figure_references(figure_plans):
    return {
        name: per_call_reference(plan)
        for name, plan in figure_plans.items()
    }


class TestPlanMatchesPerCall:
    """Property: plan execution == per-call loop, bit for bit."""

    @pytest.mark.parametrize("fig", ["fig04", "fig17", "fig18"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fork_pool(self, figure_plans, figure_references, fig, workers):
        engine = ExperimentEngine(n_workers=workers)
        report = engine.run_plan(figure_plans[fig])
        assert report.all_outcomes() == figure_references[fig]

    def test_report_results_in_workload_order(self, figure_plans):
        report = ExperimentEngine(n_workers=4).run_plan(figure_plans["fig04"])
        for key, results in report.results.items():
            total = figure_plans["fig04"].streams[key].n_networks
            assert [r.index for r in results] == list(range(total))


class TestFig17Rescaling:
    def test_one_lp_per_base_matrix_same_matrices(self, sweep_items):
        # The plan reuses one max-scale LP per base matrix across loads;
        # every rescaled matrix is still exactly the per-load helper's.
        loads = (0.6, 0.75, 0.9)
        plan = fig17_plan(sweep_items, loads=loads)
        for load in loads:
            for name in scheme_factories():
                items = plan.streams[(name, load)].workload.networks
                for item, base in zip(items, sweep_items):
                    assert item.matrices == [
                        scale_to_growth_headroom(item.network, tm, 1.0 / load)
                        for tm in base.matrices
                    ]

    def test_load_above_one_still_rejected(self, sweep_items):
        with pytest.raises(ValueError, match="growth factor below 1"):
            fig17_plan(sweep_items, loads=(1.2,))


class TestEvalPlanApi:
    def test_duplicate_key_rejected(self, workload):
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        with pytest.raises(ValueError, match="duplicate"):
            plan.add("SP", SchemeSpec("SP"), workload)

    def test_non_string_key_needs_scheme_name(self, workload):
        plan = EvalPlan()
        with pytest.raises(ValueError, match="explicit"):
            plan.add(("SP", 0.6), SchemeSpec("SP"), workload)
        plan.add(("SP", 0.6), SchemeSpec("SP"), workload, scheme="SP@0.6")
        assert plan.streams[("SP", 0.6)].scheme == "SP@0.6"

    def test_tasks_interleave_round_robin(self, workload):
        plan = EvalPlan()
        plan.add("A", SchemeSpec("SP"), workload)
        plan.add("B", SchemeSpec("MinMaxK10"), workload)
        tasks = list(plan.iter_tasks())
        assert tasks[:4] == [
            EvalTask("A", 0),
            EvalTask("B", 0),
            EvalTask("A", 1),
            EvalTask("B", 1),
        ]
        assert len(tasks) == plan.n_tasks == 2 * len(workload.networks)

    def test_default_order_is_pinned(self, workload, tmp_path):
        # The one task order, written out by hand for an uneven 3-stream
        # plan (3, 1 and 2 networks): position i of every live stream
        # before position i + 1 of any; dispatch shards are contiguous
        # equal-count chunks of exactly that sequence.
        from repro.experiments.dispatch import (
            load_manifest,
            write_plan_manifests,
        )

        def first(n):
            return ZooWorkload(
                networks=workload.networks[:n],
                locality=workload.locality,
                growth_factor=workload.growth_factor,
            )

        plan = EvalPlan()
        plan.add("A", SchemeSpec("SP"), first(3))
        plan.add("B", SchemeSpec("SP"), first(1), scheme="B")
        plan.add("C", SchemeSpec("SP"), first(2), scheme="C")
        round_robin = [
            EvalTask("A", 0), EvalTask("B", 0), EvalTask("C", 0),
            EvalTask("A", 1), EvalTask("C", 1),
            EvalTask("A", 2),
        ]
        assert list(plan.iter_tasks()) == round_robin

        keys = list(plan.streams)
        shards = [
            {
                EvalTask(keys[task["stream"]], index)
                for task in load_manifest(path)["tasks"]
                for index in range(task["start"], task["start"] + task["count"])
            }
            for path in write_plan_manifests(plan, 2, tmp_path)
        ]
        assert shards == [set(round_robin[:3]), set(round_robin[3:])]

    def test_tasks_restricted_to_missing_indices(self, workload):
        plan = EvalPlan()
        plan.add("A", SchemeSpec("SP"), workload)
        plan.add("B", SchemeSpec("SP"), workload, scheme="B")
        tasks = list(plan.iter_tasks(indices={"A": [2], "B": []}))
        assert tasks == [EvalTask("A", 2)]

    def test_closure_plan_still_runs_on_fork_pools(self, workload):
        plan = EvalPlan()
        plan.add(
            "closure",
            lambda item: ShortestPathRouting(item.cache),
            workload,
        )
        report = ExperimentEngine(n_workers=2).run_plan(plan)
        assert report.all_outcomes() == per_call_reference(plan)


def _shuffled(tasks, seed=1234):
    rng = np.random.default_rng(seed)
    return [tasks[i] for i in rng.permutation(len(tasks))]


# The orders any permutation must survive: the round-robin default and
# two adversarial permutations of it.
ORDERS = {
    "interleave": list,
    "reversed": lambda tasks: list(reversed(tasks)),
    "shuffled": _shuffled,
}


def permute_task_order(monkeypatch, order):
    """Make every plan flatten in ``order``.

    ``EvalPlan.iter_tasks`` is the single place task order is decided
    (the engine and manifest writing both read it), so
    patching it there permutes every execution path at once.
    """
    round_robin = EvalPlan.iter_tasks

    def permuted(self, indices=None):
        return iter(ORDERS[order](list(round_robin(self, indices=indices))))

    monkeypatch.setattr(EvalPlan, "iter_tasks", permuted)


class TestOrderInvariance:
    """Property: ANY task permutation yields bit-identical keyed results.

    Tasks commute — order sequences work, it never re-shards it — so
    round-robin, reversed and shuffled orders all produce the same keyed
    :class:`PlanReport` contents at any worker count, fork pool or
    serial.
    """

    @pytest.fixture(scope="class")
    def invariance_plan(self, workload):
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        plan.add("ECMP", SchemeSpec("ECMP"), workload)
        return plan

    @pytest.fixture(scope="class")
    def invariance_reference(self, invariance_plan):
        return per_call_reference(invariance_plan)

    def test_every_scheduler_permutes_the_same_task_set(
        self, invariance_plan
    ):
        baseline = list(invariance_plan.iter_tasks())
        for name in ("reversed", "shuffled"):
            with pytest.MonkeyPatch.context() as patch:
                permute_task_order(patch, name)
                tasks = list(invariance_plan.iter_tasks())
            assert tasks != baseline, name
            assert sorted(
                tasks, key=lambda t: (t.stream, t.index)
            ) == sorted(baseline, key=lambda t: (t.stream, t.index)), name

    @pytest.mark.parametrize("sched", ["interleave", "reversed", "shuffled"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fork_pool(
        self,
        invariance_plan,
        invariance_reference,
        sched,
        workers,
        monkeypatch,
    ):
        permute_task_order(monkeypatch, sched)
        report = ExperimentEngine(n_workers=workers).run_plan(invariance_plan)
        assert report.all_outcomes() == invariance_reference

    @pytest.mark.parametrize("sched", ["reversed", "shuffled"])
    def test_store_resume_under_permuted_order(
        self,
        invariance_plan,
        invariance_reference,
        sched,
        tmp_path,
        monkeypatch,
    ):
        # Kill a permuted run mid-plan, resume under the same permuted
        # order: stored-first serving + per-stream resume must still
        # reassemble the exact keyed results.
        permute_task_order(monkeypatch, sched)
        engine = ExperimentEngine(n_workers=1, store_dir=tmp_path)
        stream = engine.stream_plan(invariance_plan)
        for _ in range(3):
            next(stream)
        stream.close()

        engine = ExperimentEngine(store_dir=tmp_path)
        resumed = engine.run_plan(invariance_plan)
        assert resumed.all_outcomes() == invariance_reference


class CountingFactory:
    """A factory that counts scheme constructions (serial runs only)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, item):
        self.calls += 1
        return ShortestPathRouting(item.cache)


class TestPlanStore:
    def test_resume_after_kill_mid_plan(self, figure_plans, tmp_path):
        plan = figure_plans["fig17"]
        reference = per_call_reference(plan)

        engine = ExperimentEngine(n_workers=1, store_dir=tmp_path)
        stream = engine.stream_plan(plan)
        for _ in range(5):  # "kill" the plan run after five tasks
            next(stream)
        stream.close()

        resumed = ExperimentEngine(store_dir=tmp_path).run_plan(plan)
        assert resumed.all_outcomes() == reference

    def test_resume_evaluates_only_missing_tasks(self, workload, tmp_path):
        plan = EvalPlan()
        first_a, first_b = CountingFactory(), CountingFactory()
        plan.add("A", first_a, workload)
        plan.add("B", first_b, workload, scheme="B")
        total = len(workload.networks)

        engine = ExperimentEngine(n_workers=1, store_dir=tmp_path)
        stream = engine.stream_plan(plan)
        for _ in range(3):
            next(stream)
        stream.close()
        assert first_a.calls + first_b.calls == 3

        resume_plan = EvalPlan()
        second_a, second_b = CountingFactory(), CountingFactory()
        resume_plan.add("A", second_a, workload)
        resume_plan.add("B", second_b, workload, scheme="B")
        report = ExperimentEngine(store_dir=tmp_path).run_plan(resume_plan)
        assert second_a.calls + second_b.calls == 2 * total - 3
        assert {key: len(results) for key, results in report.results.items()} \
            == {"A": total, "B": total}

    def test_fully_stored_plan_builds_no_scheme(self, workload, tmp_path):
        plan = EvalPlan()
        plan.add("A", CountingFactory(), workload)
        ExperimentEngine(store_dir=tmp_path).run_plan(plan)

        served_factory = CountingFactory()
        served_plan = EvalPlan()
        served_plan.add("A", served_factory, workload)
        report = ExperimentEngine(
            store_dir=tmp_path, store_only=True
        ).run_plan(served_plan)
        assert served_factory.calls == 0
        direct = ExperimentEngine().run_plan(plan)
        assert report.all_outcomes() == direct.all_outcomes()

    def test_store_streams_shared_with_per_call_path(
        self, workload, tmp_path
    ):
        # A store populated by a one-stream plan must serve a plan run
        # without any re-evaluation, and vice versa: stream names and
        # signatures depend on neither the plan nor its stream key.
        ExperimentEngine(store_dir=tmp_path).run_plan(
            one_stream(SchemeSpec("SP"), workload)
        )
        plan = EvalPlan()
        factory = CountingFactory()
        plan.add("served", factory, workload, scheme="SP")
        report = ExperimentEngine(
            store_dir=tmp_path, store_only=True
        ).run_plan(plan)
        assert factory.calls == 0
        direct = ExperimentEngine().run_plan(
            one_stream(SchemeSpec("SP"), workload)
        )
        assert report.outcomes("served") == direct.outcomes("SP")

    def test_duplicate_store_streams_rejected(self, workload, tmp_path):
        from repro.experiments.store import StoreError

        plan = EvalPlan()
        plan.add("A", SchemeSpec("SP"), workload, scheme="same")
        plan.add("B", SchemeSpec("SP"), workload, scheme="same")
        with pytest.raises(StoreError, match="unique"):
            ExperimentEngine(store_dir=tmp_path).run_plan(plan)


class TestFig20TopologyCache:
    def test_grown_topologies_cached_and_exact(self, sweep_items, tmp_path):
        from repro.net import mutate
        from repro.net.io import to_json

        uncached = fig20_plan(
            sweep_items, growth_fraction=0.2, max_candidates=4
        )
        cold = fig20_plan(
            sweep_items,
            growth_fraction=0.2,
            max_candidates=4,
            cache_dir=tmp_path,
        )
        assert list(tmp_path.glob("grown-*.json"))

        calls = []
        original = mutate.grow_by_llpd

        def counting_grow(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        mutate.grow_by_llpd = counting_grow
        try:
            warm = fig20_plan(
                sweep_items,
                growth_fraction=0.2,
                max_candidates=4,
                cache_dir=tmp_path,
            )
        finally:
            mutate.grow_by_llpd = original
        assert not calls  # zero grow_by_llpd recomputation on re-render

        # The cached topologies are byte-exact: same JSON, hence the same
        # store signatures and the same evaluation results.
        for key in uncached.streams:
            for fresh, cached, hot in zip(
                uncached.streams[key].workload.networks,
                cold.streams[key].workload.networks,
                warm.streams[key].workload.networks,
            ):
                assert to_json(cached.network) == to_json(fresh.network)
                assert to_json(hot.network) == to_json(fresh.network)

    def test_corrupt_cache_file_regrows(self, sweep_items, tmp_path):
        from repro.net.io import to_json

        reference = fig20_plan(
            sweep_items, growth_fraction=0.2, max_candidates=4,
            cache_dir=tmp_path,
        )
        for path in tmp_path.glob("grown-*.json"):
            path.write_text("{broken")
        regrown = fig20_plan(
            sweep_items, growth_fraction=0.2, max_candidates=4,
            cache_dir=tmp_path,
        )
        for key in reference.streams:
            for a, b in zip(
                reference.streams[key].workload.networks,
                regrown.streams[key].workload.networks,
            ):
                assert to_json(a.network) == to_json(b.network)


class TestPlanDispatch:
    def test_dispatch_plan_two_workers_conflict_free(
        self, workload, tmp_path
    ):
        from repro.experiments.dispatch import dispatch_plan

        plan = EvalPlan()
        for name in ("SP", "MinMaxK10"):
            plan.add(name, SchemeSpec(name), workload)
        report = dispatch_plan(
            plan,
            n_shards=2,
            store_dir=tmp_path / "store",
            work_dir=tmp_path / "work",
        )
        direct = ExperimentEngine(n_workers=1).run_plan(plan)
        assert report.all_outcomes() == direct.all_outcomes()
        assert set(report.results) == {"SP", "MinMaxK10"}
        manifests = sorted((tmp_path / "work" / "manifests").glob("*.json"))
        assert len(manifests) == 2

        # Re-dispatching against the complete merged store ships nothing:
        # no manifest, no worker, the report served from the store.
        again = dispatch_plan(
            plan,
            n_shards=2,
            store_dir=tmp_path / "store",
            work_dir=tmp_path / "work2",
        )
        assert again.all_outcomes() == report.all_outcomes()
        assert not list((tmp_path / "work2").glob("worker-*"))
        assert not list((tmp_path / "work2").glob("manifests/*.json"))

    def test_plan_manifests_balance_all_streams(self, workload, tmp_path):
        from repro.experiments.dispatch import (
            load_manifest,
            write_plan_manifests,
        )

        plan = fig04_plan(workload)  # four schemes, one workload
        paths = write_plan_manifests(plan, 2, tmp_path)
        assert len(paths) == 2
        for path in paths:
            manifest = load_manifest(path)
            # Round-robin striping puts tasks from every scheme into
            # every shard — no worker drains one scheme alone.
            streams_hit = {task["stream"] for task in manifest["tasks"]}
            assert streams_hit == set(range(len(plan.streams)))
            # The workload table is deduplicated: four schemes share one
            # workload, so each network serializes once, not four times.
            (entry,) = manifest["workloads"]
            named = {
                str(index)
                for task in manifest["tasks"]
                for index in range(task["start"], task["start"] + task["count"])
            }
            assert set(entry["items"]) == named
            n_tasks = sum(task["count"] for task in manifest["tasks"])
            assert len(entry["items"]) < n_tasks

    def test_closure_plan_rejected(self, workload, tmp_path):
        from repro.experiments.dispatch import (
            DispatchError,
            write_plan_manifests,
        )

        plan = EvalPlan()
        plan.add(
            "closure", lambda item: ShortestPathRouting(item.cache), workload
        )
        with pytest.raises(DispatchError, match="non-SchemeSpec"):
            write_plan_manifests(plan, 2, tmp_path)

    def test_every_cli_figure_plan_is_dispatchable(
        self, workload, monkeypatch, tmp_path
    ):
        from repro.experiments import __main__ as cli
        from repro.experiments import figures
        from repro.experiments.dispatch import write_plan_manifests

        # Dispatchability is a property of the factories a plan
        # registers, not of its networks: serve every figure the small
        # module workload and skip Figure 20's topology growth.
        monkeypatch.setattr(cli, "build_workload", lambda args, **_: workload)
        monkeypatch.setattr(
            figures, "_grow_network_cached", lambda network, **_: network
        )
        args = argparse.Namespace(networks=3, tms=1, seed=0, cache_dir=None)
        plans = {
            name: figure.plan(args)
            for name, figure in cli.FIGURES.items()
            if figure.plan is not None
        }
        assert "fig03" in plans
        for name, plan in plans.items():
            assert write_plan_manifests(plan, 2, tmp_path / name), name
