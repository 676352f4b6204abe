"""Tests for the durable result store: signatures, resume, rejection,
torn-line recovery and stored-vs-recomputed equality."""

import dataclasses
import json

import pytest

from repro.experiments.engine import ExperimentEngine, NetworkResult
from repro.experiments.store import (
    ResultStore,
    StoreMismatchError,
    StoreMissError,
    scheme_file_name,
    workload_signature,
)
from repro.experiments.workloads import ZooWorkload, build_zoo_workload
from repro.routing import ShortestPathRouting
from tests.plans import one_stream

N_NETWORKS = 6
N_MATRICES = 2


@pytest.fixture(scope="module")
def workload():
    return build_zoo_workload(
        n_networks=N_NETWORKS, n_matrices=N_MATRICES, seed=7, include_named=False
    )


@pytest.fixture(scope="module")
def reference_outcomes(workload):
    """Outcomes of a plain storeless run, the ground truth for equality."""
    return ExperimentEngine().run_plan(
        one_stream(lambda item: ShortestPathRouting(item.cache), workload)
    ).outcomes("SP")


class CountingFactory:
    """Scheme factory that counts how many networks were actually built."""

    def __init__(self):
        self.calls = 0

    def __call__(self, item):
        self.calls += 1
        return ShortestPathRouting(item.cache)


class TestWorkloadSignature:
    def test_deterministic_across_rebuilds(self, workload):
        rebuilt = build_zoo_workload(
            n_networks=N_NETWORKS,
            n_matrices=N_MATRICES,
            seed=7,
            include_named=False,
        )
        assert workload_signature(workload) == workload_signature(rebuilt)

    def test_demand_perturbation_changes_signature(self, workload):
        item = workload.networks[0]
        perturbed = dataclasses.replace(
            item, matrices=[item.matrices[0].scaled(1.01)] + item.matrices[1:]
        )
        other = ZooWorkload(
            networks=[perturbed] + workload.networks[1:],
            locality=workload.locality,
            growth_factor=workload.growth_factor,
            seed=workload.seed,
        )
        assert workload_signature(workload) != workload_signature(other)

    def test_truncation_and_shaping_params_keyed(self, workload):
        base = workload_signature(workload)
        truncated = ZooWorkload(
            networks=[
                dataclasses.replace(item, matrices=item.matrices[:1])
                for item in workload.networks
            ],
            locality=workload.locality,
            growth_factor=workload.growth_factor,
            seed=workload.seed,
        )
        assert workload_signature(truncated) != base
        reseeded = ZooWorkload(
            networks=workload.networks,
            locality=workload.locality,
            growth_factor=workload.growth_factor,
            seed=999,
        )
        assert workload_signature(reseeded) != base

    def test_scheme_file_name_sanitized(self):
        assert scheme_file_name("LDR@h=0.11") == "LDR@h=0.11.jsonl"
        assert scheme_file_name("a/b c").startswith("a_b_c-")
        with pytest.raises(ValueError):
            scheme_file_name("")

    def test_sanitization_collisions_get_distinct_streams(
        self, workload, tmp_path
    ):
        # "a/b" sanitizes to "a_b"; without disambiguation the two keys
        # would clobber each other's streams on every alternating run.
        assert scheme_file_name("a/b") != scheme_file_name("a_b")
        for scheme in ("a/b", "a_b"):
            ExperimentEngine(store_dir=tmp_path).run_plan(
                one_stream(CountingFactory(), workload, scheme)
            )
        served = CountingFactory()
        ExperimentEngine(store_dir=tmp_path).run_plan(
            one_stream(served, workload, "a/b")
        )
        assert served.calls == 0  # still fully stored, not clobbered


class TestResume:
    def test_restart_after_kill_evaluates_only_missing(
        self, workload, tmp_path, reference_outcomes
    ):
        engine = ExperimentEngine(n_workers=1, store_dir=tmp_path)
        first = CountingFactory()
        stream = engine.stream_plan(one_stream(first, workload))
        for _ in range(2):  # "kill" the run after two networks
            next(stream)
        stream.close()
        assert first.calls == 2

        second = CountingFactory()
        report = ExperimentEngine(n_workers=1, store_dir=tmp_path).run_plan(
            one_stream(second, workload)
        )
        assert second.calls == N_NETWORKS - 2
        assert report.outcomes("SP") == reference_outcomes

    def test_fully_stored_run_builds_no_scheme(
        self, workload, tmp_path, reference_outcomes
    ):
        ExperimentEngine(n_workers=1, store_dir=tmp_path).run_plan(
            one_stream(CountingFactory(), workload)
        )
        served = CountingFactory()
        report = ExperimentEngine(n_workers=1, store_dir=tmp_path).run_plan(
            one_stream(served, workload)
        )
        assert served.calls == 0
        assert report.outcomes("SP") == reference_outcomes

    def test_no_resume_discards_and_recomputes(self, workload, tmp_path):
        ExperimentEngine(n_workers=1, store_dir=tmp_path).run_plan(
            one_stream(CountingFactory(), workload)
        )
        factory = CountingFactory()
        ExperimentEngine(
            n_workers=1, store_dir=tmp_path, resume=False
        ).run_plan(one_stream(factory, workload))
        assert factory.calls == N_NETWORKS

    def test_store_run_requires_scheme_name(self, workload):
        # The scheme name becomes the stream's file name.
        with pytest.raises(ValueError, match="non-empty"):
            one_stream(CountingFactory(), workload, scheme="")

    def test_schemes_stored_in_separate_streams(self, workload, tmp_path):
        store = ResultStore(tmp_path)
        signature = workload_signature(workload)
        ExperimentEngine(store_dir=tmp_path).run_plan(
            one_stream(CountingFactory(), workload, "A")
        )
        ExperimentEngine(store_dir=tmp_path).run_plan(
            one_stream(CountingFactory(), workload, "B")
        )
        assert store.stream_path(signature, "A").exists()
        assert store.stream_path(signature, "B").exists()


class TestRejection:
    def tampered_stream(self, workload, tmp_path, mutate):
        """Run once, apply ``mutate`` to the stream file, return its path."""
        ExperimentEngine(n_workers=1, store_dir=tmp_path).run_plan(
            one_stream(CountingFactory(), workload)
        )
        signature = workload_signature(workload)
        path = ResultStore(tmp_path).stream_path(signature, "SP")
        mutate(path)
        return signature, path

    def test_mismatched_header_signature_rejected(self, workload, tmp_path):
        def swap_signature(path):
            lines = path.read_text().splitlines()
            header = json.loads(lines[0])
            header["signature"] = "0" * 64
            path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")

        signature, _ = self.tampered_stream(workload, tmp_path, swap_signature)
        with pytest.raises(StoreMismatchError):
            ResultStore(tmp_path).load_results(signature, "SP")

    def test_headerless_stream_rejected(self, workload, tmp_path):
        def drop_header(path):
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[1:]) + "\n")

        signature, _ = self.tampered_stream(workload, tmp_path, drop_header)
        with pytest.raises(StoreMismatchError):
            ResultStore(tmp_path).load_results(signature, "SP")

    def test_engine_never_trusts_mismatched_stream(self, workload, tmp_path):
        def swap_signature(path):
            lines = path.read_text().splitlines()
            header = json.loads(lines[0])
            header["signature"] = "0" * 64
            path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")

        self.tampered_stream(workload, tmp_path, swap_signature)
        factory = CountingFactory()
        ExperimentEngine(n_workers=1, store_dir=tmp_path).run_plan(
            one_stream(factory, workload)
        )
        # The tampered stream is discarded wholesale and rebuilt.
        assert factory.calls == N_NETWORKS

    def test_changed_workload_misses_by_key(self, workload, tmp_path):
        ExperimentEngine(n_workers=1, store_dir=tmp_path).run_plan(
            one_stream(CountingFactory(), workload)
        )
        other = build_zoo_workload(
            n_networks=N_NETWORKS,
            n_matrices=N_MATRICES,
            seed=8,  # different ensemble, different signature
            include_named=False,
        )
        factory = CountingFactory()
        ExperimentEngine(n_workers=1, store_dir=tmp_path).run_plan(
            one_stream(factory, other)
        )
        assert factory.calls == N_NETWORKS


class TestTornLineRecovery:
    def stream_path(self, workload, tmp_path):
        return ResultStore(tmp_path).stream_path(
            workload_signature(workload), "SP"
        )

    def test_truncated_trailing_record_recomputed(
        self, workload, tmp_path, reference_outcomes
    ):
        ExperimentEngine(n_workers=1, store_dir=tmp_path).run_plan(
            one_stream(CountingFactory(), workload)
        )
        path = self.stream_path(workload, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-20])  # tear the last record mid-write

        factory = CountingFactory()
        report = ExperimentEngine(n_workers=1, store_dir=tmp_path).run_plan(
            one_stream(factory, workload)
        )
        assert factory.calls == 1  # only the torn network
        assert report.outcomes("SP") == reference_outcomes
        # The repaired stream is fully valid again.
        assert all(
            json.loads(line) for line in path.read_text().splitlines()
        )

    def test_garbage_tail_truncated_before_appending(
        self, workload, tmp_path, reference_outcomes
    ):
        ExperimentEngine(n_workers=1, store_dir=tmp_path).run_plan(
            one_stream(CountingFactory(), workload)
        )
        path = self.stream_path(workload, tmp_path)
        with open(path, "a") as handle:
            handle.write('{"kind": "result", "index"')  # torn, no newline

        factory = CountingFactory()
        report = ExperimentEngine(n_workers=1, store_dir=tmp_path).run_plan(
            one_stream(factory, workload)
        )
        assert factory.calls == 0  # every whole record survived
        assert report.outcomes("SP") == reference_outcomes


class TestStoredEqualsRecomputed:
    def test_across_worker_counts(self, workload, tmp_path, reference_outcomes):
        plan = one_stream(
            lambda item: ShortestPathRouting(item.cache), workload
        )
        stored_parallel = ExperimentEngine(
            n_workers=4, store_dir=tmp_path
        ).run_plan(plan)
        assert stored_parallel.outcomes("SP") == reference_outcomes
        served_serial = ExperimentEngine(
            n_workers=1, store_dir=tmp_path
        ).run_plan(plan)
        assert served_serial.outcomes("SP") == reference_outcomes

    def test_store_only_serves_without_evaluating(
        self, workload, tmp_path, reference_outcomes
    ):
        with pytest.raises(StoreMissError):
            ExperimentEngine(store_dir=tmp_path, store_only=True).run_plan(
                one_stream(CountingFactory(), workload)
            )
        ExperimentEngine(n_workers=1, store_dir=tmp_path).run_plan(
            one_stream(CountingFactory(), workload)
        )
        factory = CountingFactory()
        report = ExperimentEngine(
            store_dir=tmp_path, store_only=True
        ).run_plan(one_stream(factory, workload))
        assert factory.calls == 0
        assert report.outcomes("SP") == reference_outcomes

    def test_store_only_requires_store_dir(self):
        with pytest.raises(ValueError):
            ExperimentEngine(store_only=True)


class TestCli:
    def run_cli(self, argv):
        from repro.experiments.__main__ import main

        return main(argv)

    def test_run_then_render_round_trip(self, tmp_path, capsys):
        argv = ["fig03", "--networks", "3", "--tms", "1",
                "--store-dir", str(tmp_path)]
        assert self.run_cli(argv) == 0
        first = capsys.readouterr().out
        assert self.run_cli(["render"] + argv) == 0
        rendered = capsys.readouterr().out
        assert rendered == first

    def test_render_missing_results_fails(self, tmp_path, capsys):
        code = self.run_cli(
            ["render", "fig03", "--networks", "3", "--tms", "1",
             "--store-dir", str(tmp_path)]
        )
        assert code == 1
        assert "result store" in capsys.readouterr().err

    def usage_error(self, argv, capsys):
        """The last stderr line of an argparse usage error (exit 2)."""
        with pytest.raises(SystemExit) as exit_info:
            self.run_cli(argv)
        assert exit_info.value.code == 2
        return capsys.readouterr().err.strip().splitlines()[-1]

    def test_render_requires_store_dir(self, capsys):
        error = self.usage_error(["render", "fig03"], capsys)
        assert "the following arguments are required: --store-dir" in error

    def test_render_rejects_non_store_figure(self, tmp_path, capsys):
        error = self.usage_error(
            ["render", "fig09", "--store-dir", str(tmp_path)], capsys
        )
        assert "argument figure: invalid choice: 'fig09'" in error


class TestLifecycleTooling:
    """`store ls` / `store gc`: stream listing and signature-dir pruning."""

    def populate(self, store_dir, workload, schemes=("SP",)):
        for scheme in schemes:
            ExperimentEngine(store_dir=store_dir).run_plan(
                one_stream(
                    lambda item: ShortestPathRouting(item.cache),
                    workload,
                    scheme,
                )
            )
        return workload_signature(workload)

    def test_list_streams_reports_counts(self, workload, tmp_path):
        signature = self.populate(tmp_path, workload, schemes=("SP", "SP2"))
        records = ResultStore(tmp_path).list_streams()
        assert len(records) == 2
        assert {r["scheme"] for r in records} == {"SP", "SP2"}
        for record in records:
            assert record["signature"] == signature
            assert record["n_results"] == N_NETWORKS
            assert record["n_networks"] == N_NETWORKS
            assert record["bytes"] > 0
            stored = ResultStore(tmp_path).load_results(
                signature, record["scheme"]
            )
            assert record["seconds_total"] == sum(
                stored[i].seconds for i in sorted(stored)
            )
            assert record["seconds_mean"] == (
                record["seconds_total"] / N_NETWORKS
            )

    def test_list_streams_flags_headerless_files(self, workload, tmp_path):
        self.populate(tmp_path, workload)
        stream = next(tmp_path.glob("*/*.jsonl"))
        stream.write_text("{not json\n")
        record = ResultStore(tmp_path).list_streams()[0]
        assert record["scheme"] is None
        assert record["n_results"] == 0

    def test_list_streams_empty_store(self, tmp_path):
        assert ResultStore(tmp_path / "nothing").list_streams() == []

    def test_gc_without_criteria_removes_nothing(self, workload, tmp_path):
        self.populate(tmp_path, workload)
        assert ResultStore(tmp_path).gc() == []
        assert list(tmp_path.glob("*/*.jsonl"))

    def test_gc_by_age(self, workload, tmp_path):
        import os
        import time

        signature = self.populate(tmp_path, workload)
        store = ResultStore(tmp_path)
        now = time.time()
        # A young stream survives any positive age bound...
        assert store.gc(max_age_s=3600.0, now=now) == []
        # ...and an old one is pruned together with its directory.
        for path in (tmp_path / signature).glob("*"):
            os.utime(path, (now - 7200.0, now - 7200.0))
        removed = store.gc(max_age_s=3600.0, now=now)
        assert removed == [str(tmp_path / signature)]
        assert not (tmp_path / signature).exists()

    def test_gc_keep_protects_from_age_bound(self, workload, tmp_path):
        import os
        import time

        signature = self.populate(tmp_path, workload)
        now = time.time()
        for path in (tmp_path / signature).glob("*"):
            os.utime(path, (now - 7200.0, now - 7200.0))
        # An explicitly kept signature survives even past the age bound:
        # the allow-list is absolute protection, not one more filter.
        removed = ResultStore(tmp_path).gc(
            max_age_s=3600.0, keep_signatures={signature}, now=now
        )
        assert removed == []
        assert (tmp_path / signature).is_dir()

    def test_gc_keep_signatures(self, workload, tmp_path):
        signature = self.populate(tmp_path, workload)
        other = tmp_path / ("0" * 8)
        other.mkdir()
        (other / "SP.jsonl").write_text("{}\n")
        store = ResultStore(tmp_path)
        removed = store.gc(keep_signatures={signature})
        assert removed == [str(other)]
        assert (tmp_path / signature).is_dir()

    def test_cli_ls_and_gc(self, workload, tmp_path, capsys):
        from repro.experiments.__main__ import main

        signature = self.populate(tmp_path, workload)
        stale = tmp_path / "deadbeef"
        stale.mkdir()
        (stale / "SP.jsonl").write_text("{}\n")

        assert main(["store", "ls", "--store-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert signature[:16] in out and "SP" in out

        assert main(
            ["store", "gc", "--store-dir", str(tmp_path),
             "--keep", signature]
        ) == 0
        assert "pruned" in capsys.readouterr().out
        assert not stale.exists()
        assert (tmp_path / signature).is_dir()

    def test_cli_gc_requires_a_criterion(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["store", "gc", "--store-dir", str(tmp_path)]) == 2
        assert "refusing" in capsys.readouterr().err

    @pytest.mark.parametrize("age", ["-1", "nan"])
    def test_cli_gc_rejects_bad_age(self, workload, tmp_path, capsys, age):
        # A negative age used to prune every signature dir, a store
        # written seconds earlier included, and exit 0.
        from repro.experiments.__main__ import main

        signature = self.populate(tmp_path, workload)
        with pytest.raises(SystemExit) as exit_info:
            main(["store", "gc", "--store-dir", str(tmp_path),
                  "--max-age-days", age])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert "argument --max-age-days: must be at least 0" in error
        assert list((tmp_path / signature).glob("*.jsonl"))

    def test_cli_ls_timings_column(self, workload, tmp_path, capsys):
        from repro.experiments.__main__ import main

        signature = self.populate(tmp_path, workload)
        assert main(
            ["store", "ls", "--store-dir", str(tmp_path), "--timings"]
        ) == 0
        out = capsys.readouterr().out
        assert signature[:16] in out
        assert "s total" in out and "s mean" in out

    def test_cli_ls_timings_tolerates_headerless_stream(
        self, tmp_path, capsys
    ):
        from repro.experiments.__main__ import main

        broken = tmp_path / "deadbeef"
        broken.mkdir()
        (broken / "SP.jsonl").write_text("{}\n")
        assert main(
            ["store", "ls", "--store-dir", str(tmp_path), "--timings"]
        ) == 0
        assert "<no timings>" in capsys.readouterr().out


class TestTimingReplay:
    """The per-record timing facet: stored ``seconds``."""

    def test_every_result_field_round_trips(self, tmp_path):
        result = NetworkResult(
            index=3, network_id="3:net", outcomes=[], seconds=0.25
        )
        store = ResultStore(tmp_path)
        with store.open_writer("sig", "SP", n_networks=5) as writer:
            writer.append(result)
        assert store.load_results("sig", "SP") == {3: result}


class TestOlderLayouts:
    """Result records that carry ``network_name``, ``paths_preloaded`` and
    ``network_signature``, and trace metrics records that carry
    ``gauges``, as older writers left them, still read."""

    def test_older_store_and_trace_records_still_read(self, tmp_path, capsys):
        from repro import telemetry
        from repro.experiments.__main__ import main

        store_dir, trace_dir = tmp_path / "store", tmp_path / "traces"
        argv = ["fig03", "--networks", "3", "--tms", "1",
                "--store-dir", str(store_dir)]
        assert main(argv) == 0
        figure_text = capsys.readouterr().out

        n_results = 0
        for path in store_dir.glob("*/*.jsonl"):
            lines = []
            for line in path.read_text().splitlines():
                record = json.loads(line)
                if record["kind"] == "result":
                    n_results += 1
                    record["network_name"] = record["network_id"].split(":")[1]
                    record["paths_preloaded"] = 0
                    record["network_signature"] = "0" * 64
                lines.append(json.dumps(record, separators=(",", ":")))
            path.write_text("\n".join(lines) + "\n")
        assert n_results > 0

        assert main(["render"] + argv) == 0
        assert capsys.readouterr().out == figure_text

        # Resuming evaluates nothing: every task is served from the store.
        try:
            assert main(argv + ["--trace-dir", str(trace_dir)]) == 0
        finally:
            telemetry.disable()
        assert capsys.readouterr().out == figure_text
        (trace_id,) = [
            trace for trace in telemetry.list_traces(trace_dir)
            if trace != telemetry.ADHOC_TRACE
        ]
        trace = telemetry.load_trace(trace_dir, trace_id)
        assert trace.by_name("task") == []
        assert trace.counters["engine.resume_skipped"] == n_results

        # A shard whose metrics record carries gauges loads and summarizes.
        old_shard = trace_dir / trace_id / "spans-old.jsonl"
        old_shard.write_text("".join(
            json.dumps(record) + "\n" for record in (
                {"kind": "trace", "trace": trace_id, "run": "old",
                 "pid": 1, "wall": 1.0},
                {"kind": "span", "trace": trace_id, "run": "old", "pid": 1,
                 "id": "1:0", "parent": None, "name": "run_plan",
                 "t0": 0.0, "t1": 1.0},
                {"kind": "metrics", "trace": trace_id, "run": "old",
                 "pid": 1, "counters": {"engine.resume_skipped": 2},
                 "gauges": {"pool.pending": 1, "pool.pending.max": 3}},
            )
        ))
        merged = telemetry.load_trace(trace_dir, trace_id)
        assert merged.n_shards == trace.n_shards + 1
        assert merged.counters["engine.resume_skipped"] == n_results + 2
        assert main(["trace", "summary", "--trace-dir", str(trace_dir),
                     "--trace", trace_id]) == 0
        summary = capsys.readouterr().out
        assert "engine.resume_skipped" in summary
        assert "pool.pending" not in summary
