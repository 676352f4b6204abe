"""Tests for the telemetry layer: recorder, shards, merge, analysis, feeds.

Five layers mirror the module's contract:

* recorder mechanics — span nesting, metrics aggregation, shard rolling,
  the no-op path's zero-allocation guarantee;
* durability — torn trailing lines and unknown record kinds are
  tolerated exactly like the result store's reader tolerates them;
* cross-process merge — fork pools, fresh interpreters joining through
  the environment, and dispatch worker subprocesses all land in ONE
  trace keyed by the workload;
* attribution — one table folded by every reader: re-runs that reuse a
  pid stay apart, task spans break down into per-stream phases, and the
  CLI's ``trace`` views render;
* feeds — tracing never changes results.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro import telemetry
from repro.experiments.engine import ExperimentEngine
from repro.experiments.plan import EvalPlan
from repro.experiments.spec import SchemeSpec
from repro.experiments.workloads import build_zoo_workload
from tests.plans import all_outcomes, one_stream

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def reset_recorder():
    """Every test starts and ends with tracing off and no env leakage."""
    telemetry.disable()
    yield
    telemetry.disable()


@pytest.fixture(scope="module")
def workload():
    # Built once at module scope so per-test configure() calls never see
    # the LP solves of workload construction as ad-hoc spans.
    return build_zoo_workload(
        n_networks=4, n_matrices=1, seed=3, include_named=False
    )


# ----------------------------------------------------------------------
# Recorder mechanics
# ----------------------------------------------------------------------
class TestNoopPath:
    def test_default_recorder_is_disabled_noop(self):
        recorder = telemetry.recorder()
        assert recorder is telemetry.NOOP
        assert recorder.enabled is False
        assert recorder.trace_dir is None

    def test_span_returns_shared_singleton(self):
        recorder = telemetry.recorder()
        first = recorder.span("a", {"k": 1})
        second = recorder.span("b")
        assert first is second is telemetry._NOOP_SPAN

    def test_disabled_hot_path_allocates_nothing(self):
        recorder = telemetry.recorder()
        # Warm up so no lazy first-call state is charged to the loop.
        with recorder.span("warm"):
            recorder.counter("warm")
            recorder.gauge("warm", 1.0)
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(200):
            with recorder.span("hot"):
                recorder.counter("hits")
                recorder.gauge("depth", 3.0)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        grew = [
            stat
            for stat in after.compare_to(before, "filename")
            if stat.size_diff > 0
            and stat.traceback[0].filename == telemetry.__file__
        ]
        assert grew == []


class TestTraceRecorder:
    def test_spans_nest_and_round_trip(self, tmp_path):
        recorder = telemetry.configure(tmp_path)
        with recorder.span("outer", {"k": "v"}):
            with recorder.span("inner"):
                pass
        recorder.counter("hits", 3)
        recorder.gauge("depth", 2.0)
        recorder.flush()
        trace = telemetry.load_trace(tmp_path)
        assert trace.trace_id == telemetry.ADHOC_TRACE
        (outer,) = trace.by_name("outer")
        (inner,) = trace.by_name("inner")
        assert outer.parent is None
        assert inner.parent == outer.span_id
        assert outer.attrs == {"k": "v"}
        assert outer.t0 <= inner.t0 <= inner.t1 <= outer.t1
        assert trace.counters["hits"] == 3
        assert trace.gauges["depth"] == 2.0
        assert trace.wall_start > 0

    def test_configure_exports_env_and_disable_clears_it(self, tmp_path):
        telemetry.configure(tmp_path, trace="abc")
        assert os.environ[telemetry.TRACE_DIR_ENV] == os.fspath(tmp_path)
        assert os.environ[telemetry.TRACE_ID_ENV] == "abc"
        telemetry.disable()
        assert telemetry.TRACE_DIR_ENV not in os.environ
        assert telemetry.TRACE_ID_ENV not in os.environ
        assert telemetry.recorder() is telemetry.NOOP

    def test_begin_trace_rolls_to_a_new_shard(self, tmp_path):
        recorder = telemetry.configure(tmp_path)
        with recorder.span("before"):
            pass
        recorder.begin_trace("feed0")
        with recorder.span("after"):
            pass
        recorder.flush()
        assert telemetry.list_traces(tmp_path) == [
            telemetry.ADHOC_TRACE, "feed0"
        ]
        adhoc = telemetry.load_trace(tmp_path, telemetry.ADHOC_TRACE)
        named = telemetry.load_trace(tmp_path, "feed0")
        assert [s.name for s in adhoc.spans] == ["before"]
        assert [s.name for s in named.spans] == ["after"]

    def test_begin_trace_same_id_keeps_the_shard(self, tmp_path):
        recorder = telemetry.configure(tmp_path, trace="t1")
        with recorder.span("a"):
            pass
        recorder.begin_trace("t1")
        with recorder.span("b"):
            pass
        recorder.flush()
        trace = telemetry.load_trace(tmp_path, "t1")
        assert trace.n_shards == 1
        assert sorted(s.name for s in trace.spans) == ["a", "b"]

    def test_gauge_keeps_high_water_mark(self, tmp_path):
        recorder = telemetry.configure(tmp_path)
        recorder.gauge("queue", 5.0)
        recorder.gauge("queue", 2.0)
        recorder.flush()
        trace = telemetry.load_trace(tmp_path)
        assert trace.gauges["queue"] == 2.0
        assert trace.gauges["queue.max"] == 5.0

    def test_counters_are_cumulative_last_record_wins(self, tmp_path):
        recorder = telemetry.configure(tmp_path)
        recorder.counter("n", 2)
        recorder.flush()  # first metrics record: n=2
        recorder.counter("n", 3)
        recorder.flush()  # second metrics record: n=5 (cumulative)
        trace = telemetry.load_trace(tmp_path)
        assert trace.counters["n"] == 5

    def test_counters_are_kept_per_trace(self, tmp_path):
        """A trace counts only the work done under it; going back to an
        earlier trace continues that trace's totals."""
        recorder = telemetry.configure(tmp_path)
        recorder.counter("before", 2)
        recorder.begin_trace("x")
        recorder.counter("inside", 3)
        recorder.gauge("depth", 4.0)
        recorder.begin_trace(telemetry.ADHOC_TRACE)
        recorder.counter("before", 1)
        recorder.counter("after")
        recorder.flush()
        x = telemetry.load_trace(tmp_path, "x")
        adhoc = telemetry.load_trace(tmp_path, telemetry.ADHOC_TRACE)
        assert x.counters == {"inside": 3}
        assert x.gauges == {"depth": 4.0, "depth.max": 4.0}
        assert adhoc.counters == {"before": 3, "after": 1}
        assert adhoc.gauges == {}


# ----------------------------------------------------------------------
# Durability: torn tails and unknown kinds
# ----------------------------------------------------------------------
class TestShardReader:
    def shard_path(self, trace_dir):
        (shard,) = Path(trace_dir).glob("*/spans-*.jsonl")
        return shard

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        recorder = telemetry.configure(tmp_path)
        with recorder.span("kept"):
            pass
        recorder.flush()
        telemetry.disable()
        shard = self.shard_path(tmp_path)
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "span", "trace": "adh')  # torn write
        trace = telemetry.load_trace(tmp_path)
        assert [s.name for s in trace.spans] == ["kept"]

    def test_torn_line_ends_the_shard_not_the_trace(self, tmp_path):
        recorder = telemetry.configure(tmp_path)
        with recorder.span("kept"):
            pass
        recorder.flush()
        telemetry.disable()
        shard = self.shard_path(tmp_path)
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write("NOT JSON AT ALL\n")
            handle.write(
                json.dumps(
                    {
                        "kind": "span",
                        "trace": "adhoc",
                        "run": "x",
                        "pid": 1,
                        "id": "1:9",
                        "parent": None,
                        "name": "after_torn",
                        "t0": 0.0,
                        "t1": 1.0,
                    }
                )
                + "\n"
            )
        trace = telemetry.load_trace(tmp_path)
        # Everything after the first unparseable line is dropped: with an
        # append-only writer that can only be a torn tail.
        assert [s.name for s in trace.spans] == ["kept"]

    def test_unknown_record_kind_is_skipped_not_fatal(self, tmp_path):
        recorder = telemetry.configure(tmp_path)
        with recorder.span("first"):
            pass
        recorder.flush()
        telemetry.disable()
        shard = self.shard_path(tmp_path)
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write(
                '{"kind": "annotation", "note": "from a newer writer"}\n'
            )
            handle.write(
                json.dumps(
                    {
                        "kind": "span",
                        "trace": "adhoc",
                        "run": "x",
                        "pid": 1,
                        "id": "1:9",
                        "parent": None,
                        "name": "second",
                        "t0": 0.0,
                        "t1": 1.0,
                    }
                )
                + "\n"
            )
        trace = telemetry.load_trace(tmp_path)
        assert sorted(s.name for s in trace.spans) == ["first", "second"]

    def test_resolve_trace_id_prefix_and_ambiguity(self, tmp_path):
        recorder = telemetry.configure(tmp_path, trace="feed00aa")
        with recorder.span("a"):
            pass
        recorder.begin_trace("feed11bb")
        with recorder.span("b"):
            pass
        recorder.flush()
        telemetry.disable()
        assert telemetry.resolve_trace_id(tmp_path, "feed00") == "feed00aa"
        with pytest.raises(telemetry.TraceError):
            telemetry.resolve_trace_id(tmp_path)  # two candidates
        with pytest.raises(telemetry.TraceError):
            telemetry.resolve_trace_id(tmp_path, "feed")  # ambiguous prefix
        with pytest.raises(telemetry.TraceError):
            telemetry.resolve_trace_id(tmp_path / "missing")


# ----------------------------------------------------------------------
# Trace identity
# ----------------------------------------------------------------------
class TestTraceIdentity:
    def test_id_is_order_independent_and_deterministic(self):
        pairs = [("B4", "sig1"), ("LDR", "sig2")]
        assert telemetry.trace_id_for_streams(
            pairs
        ) == telemetry.trace_id_for_streams(reversed(pairs))
        assert telemetry.trace_id_for_streams(
            pairs
        ) != telemetry.trace_id_for_streams([("B4", "sig1")])

    def test_plan_trace_id_matches_manual_pairs(self, workload):
        from repro.experiments.store import workload_signature

        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        plan.add("ECMP", SchemeSpec("ECMP"), workload)
        expected = telemetry.trace_id_for_streams(
            [
                ("SP", workload_signature(workload)),
                ("ECMP", workload_signature(workload)),
            ]
        )
        assert telemetry.plan_trace_id(plan) == expected


# ----------------------------------------------------------------------
# Cross-process merge
# ----------------------------------------------------------------------
class TestProcessMerge:
    def test_fork_pool_children_merge_into_one_trace(self, tmp_path, workload):
        telemetry.configure(tmp_path)
        report = ExperimentEngine(n_workers=2).run_plan(
            one_stream(SchemeSpec("SP"), workload)
        )
        telemetry.disable()
        (trace_id,) = telemetry.list_traces(tmp_path)
        trace = telemetry.load_trace(tmp_path, trace_id)
        # One shard per process that wrote spans; pool children write
        # their own shards and the parent its own.
        assert trace.n_shards == len(trace.pids) >= 2
        tasks = trace.by_name("task")
        assert len(tasks) == len(workload.networks)
        assert all(t.attrs.get("network_signature") for t in tasks)
        assert trace.counters.get("ksp.cache_miss", 0) > 0
        # The pool loop reports its in-flight submission window.
        assert "pool.pending.max" in trace.gauges
        assert len(report.results["SP"]) == len(workload.networks)

    def test_fresh_interpreter_joins_through_environment(self, tmp_path):
        env = dict(os.environ)
        env[telemetry.TRACE_DIR_ENV] = os.fspath(tmp_path)
        env[telemetry.TRACE_ID_ENV] = "envtrace"
        env["PYTHONPATH"] = os.fspath(REPO / "src")
        subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro import telemetry\n"
                "recorder = telemetry.recorder()\n"
                "assert recorder.enabled\n"
                "with recorder.span('child_work'):\n"
                "    pass\n",
            ],
            check=True,
            env=env,
        )
        trace = telemetry.load_trace(tmp_path, "envtrace")
        assert [s.name for s in trace.spans] == ["child_work"]

    def test_dispatched_plan_converges_on_one_trace(self, tmp_path, workload):
        from repro.experiments.dispatch import dispatch_plan

        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        plan.add("ECMP", SchemeSpec("ECMP"), workload)
        trace_dir = tmp_path / "traces"
        telemetry.configure(trace_dir)
        report = dispatch_plan(plan, 2, tmp_path / "store")
        telemetry.disable()
        (trace_id,) = telemetry.list_traces(trace_dir)
        assert trace_id == telemetry.plan_trace_id(plan)
        trace = telemetry.load_trace(trace_dir, trace_id)
        workers = trace.by_name("worker")
        assert len(workers) == 2
        assert sorted(w.attrs["shard_index"] for w in workers) == [0, 1]
        assert len(trace.by_name("manifest_write")) == 2
        assert len(trace.by_name("merge")) == 2
        tasks = trace.by_name("task")
        assert len(tasks) == 2 * len(workload.networks)
        assert {t.attrs["scheme"] for t in tasks} == {"SP", "ECMP"}
        # Dispatched results equal an untraced in-process run.
        direct = ExperimentEngine().run_plan(plan)
        assert all_outcomes(report) == all_outcomes(direct)

    def test_critical_path_attributes_worker_time(self, tmp_path, workload):
        from repro.experiments.dispatch import dispatch_plan

        plan = EvalPlan()
        plan.add("LDR", SchemeSpec("LDR", {"headroom": 0.1}), workload)
        trace_dir = tmp_path / "traces"
        telemetry.configure(trace_dir)
        dispatch_plan(plan, 2, tmp_path / "store")
        telemetry.disable()
        trace = telemetry.load_trace(trace_dir)
        data = telemetry.critical_path(trace)
        assert len(data["workers"]) >= 3  # coordinator + 2 workers
        for worker in data["workers"]:
            assert worker["window_s"] >= worker["busy_s"] >= 0.0
            assert worker["idle_s"] == pytest.approx(
                worker["window_s"] - worker["busy_s"], abs=1e-9
            )
            assert set(worker["phases"]) == set(
                telemetry.PHASE_NAMES
            ) | {"other"}
            busy = sum(worker["phases"].values())
            assert busy == pytest.approx(worker["busy_s"], rel=1e-6, abs=1e-9)
        # The LP-backed scheme must show lp_solve time somewhere.
        total_lp = sum(
            worker["phases"]["lp_solve"] for worker in data["workers"]
        )
        assert total_lp > 0.0
        rendered = telemetry.render_critical_path(trace)
        assert "lp_solve" in rendered and "idle" in rendered
        # Both views fold one table: per-name and per-process exclusive
        # seconds are the same seconds.
        named = sum(
            entry["exclusive_s"]
            for entry in telemetry.summary(trace)["spans"].values()
        )
        phased = sum(
            sum(worker["phases"].values()) for worker in data["workers"]
        )
        assert phased == pytest.approx(named, rel=1e-9)


# ----------------------------------------------------------------------
# Attribution: one table, re-runs that reuse a pid
# ----------------------------------------------------------------------
class TestAttribution:
    def test_rerun_reusing_a_pid_reads_as_its_own_run(
        self, tmp_path, workload
    ):
        telemetry.configure(tmp_path / "recorded")
        ExperimentEngine().run_plan(one_stream(SchemeSpec("SP"), workload))
        telemetry.disable()
        (shard,) = (tmp_path / "recorded").glob("*/spans-*.jsonl")
        rows = [json.loads(line) for line in shard.read_text().splitlines()]
        base = min(row["t0"] for row in rows if row["kind"] == "span")

        def write(path, run, shift):
            # Rebased into [2048, 4096) s, where adding 1000 s keeps every
            # stamp, and so every duration, bit-exact.
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                for row in rows:
                    row = dict(row, run=run)
                    if row["kind"] == "span":
                        row["t0"] = row["t0"] - base + 2048.0 + shift
                        row["t1"] = row["t1"] - base + 2048.0 + shift
                    handle.write(json.dumps(row) + "\n")

        run = rows[0]["run"]
        write(tmp_path / "once" / shard.parent.name / shard.name, run, 0.0)
        # Same pid, so the re-run's span ids repeat the first run's.
        rerun_dir = tmp_path / "twice" / shard.parent.name
        for shift, token in ((0.0, run), (1000.0, f"{run}-rerun")):
            write(rerun_dir / f"spans-{token}.jsonl", token, shift)
        once = telemetry.load_trace(tmp_path / "once")
        twice = telemetry.load_trace(tmp_path / "twice")
        assert twice.n_shards == 2 and len(twice.pids) == 1

        single = telemetry.summary(once)["spans"]
        double = telemetry.summary(twice)["spans"]
        assert set(double) == set(single)
        for name, entry in single.items():
            assert double[name]["count"] == 2 * entry["count"]
            assert double[name]["exclusive_s"] == pytest.approx(
                2 * entry["exclusive_s"], rel=1e-9
            )
        workers = telemetry.critical_path(twice)["workers"]
        assert len(workers) == 2
        assert all(worker["window_s"] < 1000.0 for worker in workers)
        lines = telemetry.tree_lines(once, max_lines=10**6)
        assert telemetry.tree_lines(twice, max_lines=10**6) == lines + lines

    def test_parent_cycle_in_a_corrupt_shard_ends(self, tmp_path):
        shard = tmp_path / "corrupt" / "spans-x.jsonl"
        shard.parent.mkdir()
        rows = [
            {
                "kind": "span", "trace": "corrupt", "run": "x", "pid": 1,
                "id": span_id, "parent": parent, "name": "loop",
                "t0": 0.0, "t1": 1.0,
            }
            for span_id, parent in (("1:0", "1:1"), ("1:1", "1:0"))
        ]
        shard.write_text("".join(json.dumps(row) + "\n" for row in rows))
        trace = telemetry.load_trace(tmp_path)
        assert telemetry.summary(trace)["spans"]["loop"]["count"] == 2
        assert telemetry.tree_lines(trace) == []


# ----------------------------------------------------------------------
# Feeds: results untouched, per-stream phases, rendered views
# ----------------------------------------------------------------------
class TestFeeds:
    def test_tracing_never_changes_results(self, tmp_path, workload):
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        plan.add("B4", SchemeSpec("B4", {"headroom": 0.1}), workload)
        baseline = ExperimentEngine().run_plan(plan)
        telemetry.configure(tmp_path)
        traced = ExperimentEngine().run_plan(plan)
        telemetry.disable()
        assert all_outcomes(traced) == all_outcomes(baseline)

    def test_timings_fold_groups_by_stream(self, tmp_path, workload):
        from repro.experiments.__main__ import _traced_stream_phases
        from repro.experiments.store import workload_signature

        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        telemetry.configure(tmp_path)
        ExperimentEngine().run_plan(plan)
        telemetry.disable()
        phases = _traced_stream_phases(tmp_path)
        stream = (workload_signature(workload), "SP")
        assert set(phases) == {stream}
        folded = phases[stream]
        # ksp may be absent when earlier tests warmed the shared
        # workload's path caches; place always runs.
        assert folded.get("place", 0.0) > 0.0
        assert set(folded) <= set(telemetry.PHASE_NAMES) | {"other"}
        # Everything inside the stream's task spans, and nothing else.
        tasks = telemetry.summary(telemetry.load_trace(tmp_path))["spans"]
        assert sum(folded.values()) == pytest.approx(
            tasks["task"]["total_s"], rel=1e-9
        )
        assert "place=" in telemetry.format_phases(folded)

    def test_summary_and_tree_render(self, tmp_path, workload):
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        telemetry.configure(tmp_path)
        ExperimentEngine().run_plan(plan)
        telemetry.disable()
        trace = telemetry.load_trace(tmp_path)
        data = telemetry.summary(trace)
        assert data["spans"]["task"]["count"] == len(workload.networks)
        assert data["spans"]["run_plan"]["count"] == 1
        text = telemetry.render_summary(trace)
        assert "task" in text and "counter" in text
        lines = telemetry.tree_lines(trace, max_lines=50)
        assert any(line.startswith("process ") for line in lines)
        assert any("run_plan" in line for line in lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestTraceCli:
    def run_cli(self, argv, capsys):
        from repro.experiments.__main__ import main

        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_trace_cli_views(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        store_dir = tmp_path / "store"
        code, out, err = self.run_cli(
            [
                "fig03",
                "--networks", "3",
                "--tms", "1",
                "--store-dir", os.fspath(store_dir),
                "--trace-dir", os.fspath(trace_dir),
            ],
            capsys,
        )
        telemetry.disable()
        assert code == 0, err
        figure_text = out

        code, out, _ = self.run_cli(
            ["trace", "ls", "--trace-dir", os.fspath(trace_dir)], capsys
        )
        assert code == 0
        assert "span(s)" in out

        # The run may leave an "adhoc" trace (pre-plan workload spans)
        # next to the workload-keyed one; analyze the run trace.
        code, out, _ = self.run_cli(
            [
                "trace", "ls",
                "--trace-dir", os.fspath(trace_dir),
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        trace_ids = json.loads(out)
        (run_id,) = [t for t in trace_ids if t != telemetry.ADHOC_TRACE]

        code, out, _ = self.run_cli(
            [
                "trace", "summary",
                "--trace-dir", os.fspath(trace_dir),
                "--trace", run_id,
            ],
            capsys,
        )
        assert code == 0
        assert "task" in out

        code, out, _ = self.run_cli(
            [
                "trace", "critical-path",
                "--trace-dir", os.fspath(trace_dir),
                "--trace", run_id,
            ],
            capsys,
        )
        assert code == 0
        assert "idle" in out

        code, out, _ = self.run_cli(
            [
                "trace", "summary",
                "--trace-dir", os.fspath(trace_dir),
                "--trace", run_id,
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_spans"] > 0

        code, out, _ = self.run_cli(
            [
                "trace", "tree",
                "--trace-dir", os.fspath(trace_dir),
                "--trace", run_id,
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["spans"]

        # store ls --timings gains the span-derived phase column.
        code, out, _ = self.run_cli(
            [
                "store", "ls",
                "--store-dir", os.fspath(store_dir),
                "--timings",
                "--trace-dir", os.fspath(trace_dir),
            ],
            capsys,
        )
        assert code == 0
        assert "ksp=" in out

        # A traced run rendered the same figure text as an untraced one.
        code, out, err = self.run_cli(
            [
                "render", "fig03",
                "--networks", "3",
                "--tms", "1",
                "--store-dir", os.fspath(store_dir),
            ],
            capsys,
        )
        assert code == 0, err
        assert out == figure_text

    def test_store_timings_are_per_stream(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        store_dir = tmp_path / "store"
        # Two workloads, one store and one trace dir: two SP streams.
        for networks in ("3", "5"):
            code, _, err = self.run_cli(
                [
                    "fig03",
                    "--networks", networks,
                    "--tms", "1",
                    "--store-dir", os.fspath(store_dir),
                    "--trace-dir", os.fspath(trace_dir),
                ],
                capsys,
            )
            telemetry.disable()
            assert code == 0, err
        code, out, _ = self.run_cli(
            [
                "store", "ls",
                "--store-dir", os.fspath(store_dir),
                "--timings",
                "--trace-dir", os.fspath(trace_dir),
            ],
            capsys,
        )
        assert code == 0
        brackets = [
            line[line.index("["):]
            for line in out.splitlines()
            if line.split()[1] == "SP"
        ]
        assert len(brackets) == 2
        assert brackets[0] != brackets[1]
        # Each stream's phases add up to its own stored seconds.
        from repro.experiments.__main__ import _traced_stream_phases
        from repro.experiments.store import ResultStore

        phases = _traced_stream_phases(trace_dir)
        for record in ResultStore(store_dir).list_streams():
            total = record["seconds_total"]
            stream = phases[record["signature"], record["scheme"]]
            traced = sum(stream.values())
            assert abs(traced - total) <= max(0.05 * total, 0.002)

    def test_trace_cli_errors(self, tmp_path, capsys):
        code, _, err = self.run_cli(
            ["trace", "summary", "--trace-dir", os.fspath(tmp_path)], capsys
        )
        assert code == 1
        assert "no traces" in err
        for argv, message in (
            (["trace", "summary"],
             "the following arguments are required: --trace-dir"),
            (["trace", "explode", "--trace-dir", os.fspath(tmp_path)],
             "argument action: invalid choice: 'explode'"),
        ):
            with pytest.raises(SystemExit) as exit_info:
                self.run_cli(argv, capsys)
            assert exit_info.value.code == 2
            assert message in capsys.readouterr().err
