"""Tests for shard manifests, subprocess workers, and store merge."""

import json
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.dispatch import (
    MANIFEST_FORMAT,
    DispatchError,
    _shard_plan,
    dispatch_plan,
    load_manifest,
    merge_worker_store,
    run_worker,
    write_plan_manifests,
)
from repro.experiments.engine import ExperimentEngine
from repro.experiments.figures import fig17_plan
from repro.experiments.plan import EvalPlan
from repro.experiments.spec import SchemeSpec
from repro.experiments.store import (
    ResultStore,
    StoreMismatchError,
    workload_signature,
)
from repro.experiments.workloads import (
    NetworkWorkload,
    ZooWorkload,
    build_zoo_workload,
)
from repro.net.io import to_json as network_to_json
from tests.plans import all_outcomes, one_stream, traced_counters


@pytest.fixture(scope="module")
def workload():
    return build_zoo_workload(
        n_networks=4, n_matrices=1, seed=3, include_named=False
    )


class TestSharding:
    def test_more_shards_than_networks(self, tmp_path):
        workload = build_zoo_workload(
            n_networks=2, n_matrices=1, seed=1, include_named=False
        )
        paths = write_plan_manifests(
            one_stream(SchemeSpec("SP"), workload), 5, tmp_path
        )
        assert [
            [index for _, index in _task_indices(load_manifest(path))]
            for path in paths
        ] == [[0], [1]]

    def test_zero_shards_rejected(self, workload, tmp_path):
        with pytest.raises(ValueError):
            write_plan_manifests(
                one_stream(SchemeSpec("SP"), workload), 0, tmp_path
            )


def _task_indices(manifest):
    """Every ``(stream, index)`` pair a manifest's task ranges name."""
    return [
        (task["stream"], index)
        for task in manifest["tasks"]
        for index in range(task["start"], task["start"] + task["count"])
    ]


def _dangling(task=None, stream=None, workload0=None, drop=(), **tables):
    """A version-3 manifest text with an items workload (0, shipping
    items 1 and 2) and a fleet workload (1), one stream over each, and
    one task range naming items 1 and 2.  ``task`` and ``stream``
    override fields of the range and of stream 0, ``workload0`` and
    ``drop`` override and remove fields of workload 0, and ``tables``
    replaces whole top-level fields; the defaults all resolve.
    Reference checks run before any item or fleet is rebuilt, so both
    hold placeholders."""
    workload = {"signature": "0" * 64, "n_networks": 4}
    spec = SchemeSpec("SP").to_jsonable()
    return json.dumps(
        {
            "format": MANIFEST_FORMAT,
            "version": 3,
            "shard_index": 0,
            "n_shards": 1,
            "workloads": [
                {
                    name: value
                    for name, value in {
                        **workload,
                        "items": {"1": {}, "2": {}},
                        **(workload0 or {}),
                    }.items()
                    if name not in drop
                },
                {**workload, "fleet": {}},
            ],
            "streams": [
                {"scheme": "SP", "spec": spec, "workload": 0, **(stream or {})},
                {"scheme": "ECMP", "spec": spec, "workload": 1},
            ],
            "tasks": [{"stream": 0, "start": 1, "count": 2, **(task or {})}],
            **tables,
        }
    )


class TestManifests:
    def test_manifest_round_trips_items(self, workload, tmp_path):
        spec = SchemeSpec("SP")
        paths = write_plan_manifests(
            one_stream(SchemeSpec("SP"), workload), 2, tmp_path
        )
        assert len(paths) == 2
        seen = {}
        for path in paths:
            manifest = load_manifest(path)
            (stream,) = manifest["streams"]
            (entry,) = manifest["workloads"]
            assert stream["scheme"] == "SP"
            assert stream["workload"] == 0
            assert SchemeSpec.from_jsonable(stream["spec"]) == spec
            assert entry["signature"] == workload_signature(workload)
            assert entry["n_networks"] == len(workload.networks)
            for _, index in _task_indices(manifest):
                seen[index] = NetworkWorkload.from_jsonable(
                    entry["items"][str(index)]
                )
        assert sorted(seen) == list(range(len(workload.networks)))
        for index, item in seen.items():
            original = workload.networks[index]
            assert network_to_json(item.network) == network_to_json(
                original.network
            )
            # floats survive JSON exactly
            assert item.llpd == original.llpd
            assert item.matrices == original.matrices

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-manifest.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(DispatchError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"format": "repro-shard-manifest", "vers', "not valid JSON"),
            (json.dumps([1, 2, 3]), "not a repro-shard-manifest"),
            (
                json.dumps({"format": MANIFEST_FORMAT, "version": 3}),
                "missing shard_index, n_shards, workloads, streams, tasks",
            ),
            (
                json.dumps(
                    {
                        "format": MANIFEST_FORMAT,
                        "version": 1,
                        "scheme": "SP",
                        "networks": [],
                    }
                ),
                "unsupported manifest version 1",
            ),
            (
                _dangling(task={"count": 3}),
                "a task names index 3 of workload 0, which ships no item",
            ),
            *[
                (_dangling(**{kind: {field: value}}),
                 f"{kind} {field} {value} is out of range, expected 0 to {top}")
                for kind, field, value, top in [
                    ("task", "stream", 5, 1),
                    ("task", "start", 4, 3),
                    ("task", "start", -1, 3),
                    ("stream", "workload", 5, 1),
                ]
            ],
            (
                _dangling(task={"stream": 1, "start": 4}),
                "task start 4 is out of range, expected 0 to 3",
            ),
            (
                _dangling(task={"stream": 1, "count": 4}),
                "task count 4 is out of range, expected 0 to 3",
            ),
            (
                _dangling(workload0={"fleet": {}}),
                "workload 0 needs one items or fleet object",
            ),
            (
                _dangling(drop=("n_networks",)),
                "workload 0 n_networks None is not a count",
            ),
            (
                _dangling(workload0={"n_networks": "4"}),
                "workload 0 n_networks '4' is not a count",
            ),
            (
                _dangling(workload0={"n_networks": -1}),
                "workload 0 n_networks -1 is not a count",
            ),
            (b"\xff\xfe{}", "not valid JSON"),
            (None, "unreadable: No such file or directory"),
            (_dangling(streams=5), "streams is not a list of objects"),
            (_dangling(tasks=[7]), "tasks is not a list of objects"),
            (
                _dangling(workload0={"signature": "../outside"}),
                "workload 0 signature is not a sha256 digest",
            ),
        ],
        ids=[
            "truncated", "non-object", "missing-tables", "version-1",
            "task-item", "task-stream", "task-index-high", "task-index-low",
            "chunk-stream", "chunk-start", "chunk-count", "chunk-item-stream",
            "stream-n-networks-missing", "stream-n-networks-str", "stream-n-networks-neg",
            "non-utf8", "missing-file", "streams-not-list", "task-not-object",
            "signature-path",
        ],
    )
    def test_malformed_manifest_is_one_line_cli_error(
        self, tmp_path, capsys, text, message
    ):
        """Manifests cross hosts: a bad copy is an error, not a traceback."""
        from repro.experiments.__main__ import main

        path = tmp_path / "shard-000.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:  # None: the copy never arrived
            path.write_text(text)
        with pytest.raises(DispatchError, match=message):
            load_manifest(path)
        assert main(
            ["worker", str(path), "--store-dir", str(tmp_path / "store")]
        ) == 1
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not (tmp_path / "store").exists()


@pytest.fixture(scope="module")
def mixed_plan(workload):
    """Two streams sharing one zoo workload, one over a second zoo
    workload, and one over a link-failure fleet."""
    from repro.scenarios import ScenarioGenerator, ScenarioWorkload

    other = build_zoo_workload(
        n_networks=3, n_matrices=1, seed=5, include_named=False
    )
    base = workload.networks[0]
    fleet = ScenarioGenerator(base, seed=2).fleet(link_failure_k=1, budget=5)
    plan = EvalPlan()
    plan.add("SP", SchemeSpec("SP"), workload)
    plan.add("ECMP", SchemeSpec("ECMP"), workload)
    plan.add("SP-other", SchemeSpec("SP"), other)
    plan.add(
        "SP-fleet",
        SchemeSpec("SP"),
        ScenarioWorkload(base, fleet.specs, seed=2),
    )
    return plan


class TestManifestPartition:
    @given(n_shards=st.integers(1, 5), data=st.data())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_shards_partition_the_plan(self, mixed_plan, n_shards, data):
        """Across shards the worker-side indices partition exactly the
        shipped ``(stream, index)`` set, and each shard ships exactly
        the items its ranges name, each rebuilding the plan's own."""
        plan = mixed_plan
        keys = list(plan.streams)
        indices = data.draw(
            st.one_of(
                st.none(),
                st.fixed_dictionaries(
                    {
                        key: st.sets(
                            st.integers(0, stream.n_networks - 1)
                        ).map(sorted)
                        for key, stream in plan.streams.items()
                    }
                ),
            )
        )
        expected = {
            (key, index)
            for key, stream in plan.streams.items()
            for index in (
                range(stream.n_networks) if indices is None
                else indices[key]
            )
        }
        with tempfile.TemporaryDirectory() as out:
            manifests = [
                load_manifest(path)
                for path in write_plan_manifests(
                    plan, n_shards, out, indices=indices
                )
            ]
        shipped = []
        for manifest in manifests:
            shard, shard_indices = _shard_plan(manifest)
            pairs = [
                (sid, index)
                for sid, wanted in shard_indices.items()
                for index in wanted
            ]
            shipped += [(keys[sid], index) for sid, index in pairs]
            for wid, entry in enumerate(manifest["workloads"]):
                if "items" in entry:
                    assert set(entry["items"]) == {
                        str(index)
                        for sid, index in pairs
                        if manifest["streams"][sid]["workload"] == wid
                    }
            for sid, index in pairs:
                rebuilt = shard.streams[sid].workload.networks[index]
                original = plan.streams[keys[sid]].workload.networks[index]
                assert network_to_json(rebuilt.network) == network_to_json(
                    original.network
                )
                assert rebuilt.matrices == original.matrices
        assert len(shipped) == len(set(shipped)) and set(shipped) == expected


class TestWorkerAndMerge:
    def test_workers_plus_merge_match_in_process(self, workload, tmp_path):
        """The acceptance path: shard -> worker x2 -> merge -> compare."""
        spec = SchemeSpec("SP")
        manifests = write_plan_manifests(
            one_stream(SchemeSpec("SP"), workload), 2, tmp_path / "manifests"
        )
        for i, manifest in enumerate(manifests):
            run_worker(manifest, tmp_path / f"worker-{i}")
        main_store = tmp_path / "main"
        for i in range(len(manifests)):
            merge_worker_store(main_store, tmp_path / f"worker-{i}")
        plan = one_stream(spec, workload)
        served = ExperimentEngine(
            store_dir=main_store, store_only=True
        ).run_plan(plan)
        direct = ExperimentEngine(n_workers=1).run_plan(plan)
        assert served.outcomes("SP") == direct.outcomes("SP")

    def test_merge_is_idempotent(self, workload, tmp_path):
        manifests = write_plan_manifests(
            one_stream(SchemeSpec("SP"), workload), 2, tmp_path / "manifests"
        )
        for i, manifest in enumerate(manifests):
            run_worker(manifest, tmp_path / f"worker-{i}")
        main_store = tmp_path / "main"
        first = merge_worker_store(main_store, tmp_path / "worker-0")
        assert sum(first.values()) == 2
        again = merge_worker_store(main_store, tmp_path / "worker-0")
        assert sum(again.values()) == 0  # re-merging is a no-op
        stream = next((tmp_path / "main").glob("*/*.jsonl"))
        size_before = stream.stat().st_size
        merge_worker_store(main_store, tmp_path / "worker-0")
        assert stream.stat().st_size == size_before

    def test_worker_resumes_stored_indices(self, workload, tmp_path):
        manifest = write_plan_manifests(
            one_stream(SchemeSpec("SP"), workload), 1, tmp_path / "manifests"
        )[0]
        first = run_worker(manifest, tmp_path / "store")
        assert first["evaluated"] == len(workload.networks)
        second = run_worker(manifest, tmp_path / "store")
        assert second["evaluated"] == 0
        assert second["skipped"] == len(workload.networks)

    def test_worker_evaluates_exactly_its_shard(self, workload, tmp_path):
        plan = EvalPlan()
        plan.add("SP", SchemeSpec("SP"), workload)
        plan.add("ECMP", SchemeSpec("ECMP"), workload)
        manifests = write_plan_manifests(plan, 2, tmp_path / "manifests")
        assert len(manifests) == 2
        for i, path in enumerate(manifests):
            manifest = load_manifest(path)
            pairs = _task_indices(manifest)
            summary = run_worker(path, tmp_path / f"worker-{i}")
            assert summary["evaluated"] == len(pairs)
            store = ResultStore(tmp_path / f"worker-{i}")
            for sid, stream in enumerate(manifest["streams"]):
                entry = manifest["workloads"][stream["workload"]]
                stored = store.load_results(
                    entry["signature"], stream["scheme"]
                )
                assert sorted(stored) == sorted(
                    index for stream_id, index in pairs if stream_id == sid
                )

    def test_merge_rejects_conflicting_network_ids(self, workload, tmp_path):
        manifest = write_plan_manifests(
            one_stream(SchemeSpec("SP"), workload), 1, tmp_path / "manifests"
        )[0]
        run_worker(manifest, tmp_path / "worker")
        merge_worker_store(tmp_path / "main", tmp_path / "worker")
        # Forge a worker store whose index 0 names a different network.
        stream = next((tmp_path / "worker").glob("*/*.jsonl"))
        lines = stream.read_text().splitlines()
        record = json.loads(lines[1])
        record["network_id"] = "0:forged"
        lines[1] = json.dumps(record, separators=(",", ":"))
        stream.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreMismatchError):
            merge_worker_store(tmp_path / "main", tmp_path / "worker")

    def test_merge_keeps_workload_size_of_partial_shard(
        self, workload, tmp_path
    ):
        manifests = write_plan_manifests(
            one_stream(SchemeSpec("SP"), workload), 2, tmp_path / "manifests"
        )
        run_worker(manifests[0], tmp_path / "worker-0")
        merge_worker_store(tmp_path / "main", tmp_path / "worker-0")
        (stream,) = ResultStore(tmp_path / "main").list_streams()
        assert stream["n_results"] < len(workload.networks)
        assert stream["n_networks"] == len(workload.networks)

    def test_merge_missing_worker_dir_is_empty(self, tmp_path):
        assert merge_worker_store(tmp_path / "main", tmp_path / "ghost") == {}


def _fig17_loads(items):
    """Figure 17 at two loads: two workload entries over one network
    list, whose items share each network and its KSP cache in process."""
    return fig17_plan(items, loads=(0.6, 0.9))


def _doubled_capacity(items):
    """Two entries whose items at each index carry different networks:
    the same topology and name, every capacity doubled in the second."""
    doubled = [
        NetworkWorkload(
            network=item.network.with_capacity_factor(2.0),
            llpd=item.llpd,
            matrices=item.matrices,
        )
        for item in items
    ]
    plan = EvalPlan()
    for key, entry in (("base", items), ("doubled", doubled)):
        workload = ZooWorkload(
            networks=list(entry), locality=0.0, growth_factor=0.0
        )
        plan.add(key, SchemeSpec("SP"), workload, scheme=f"SP@{key}")
    return plan


class TestShardSharing:
    """A shard holds each distinct network once, as an in-process run."""

    def test_shards_search_as_often_as_in_process(self, tmp_path):
        # Fresh items: the in-process run must start from cold caches.
        items = build_zoo_workload(
            n_networks=4, n_matrices=1, seed=3, include_named=False
        ).networks
        plan = _fig17_loads(items)
        manifests = write_plan_manifests(plan, 2, tmp_path / "manifests")
        assert len(manifests) == 2
        _, shard_counters = traced_counters(
            tmp_path / "shard-traces",
            lambda: [
                run_worker(path, tmp_path / f"worker-{i}")
                for i, path in enumerate(manifests)
            ],
        )
        direct, direct_counters = traced_counters(
            tmp_path / "direct-traces",
            lambda: ExperimentEngine(n_workers=1).run_plan(plan),
        )
        assert direct_counters["ksp.searches"] > 0
        assert shard_counters["ksp.searches"] == direct_counters["ksp.searches"]
        for i in range(len(manifests)):
            merge_worker_store(tmp_path / "main", tmp_path / f"worker-{i}")
        served = ExperimentEngine(
            store_dir=tmp_path / "main", store_only=True
        ).run_plan(plan)
        assert all_outcomes(served) == all_outcomes(direct)

    @pytest.mark.parametrize(
        "build, shared",
        [(_fig17_loads, True), (_doubled_capacity, False)],
        ids=["same-network-shares", "distinct-networks-do-not"],
    )
    def test_items_share_networks_not_matrices(
        self, workload, tmp_path, build, shared
    ):
        (path,) = write_plan_manifests(build(workload.networks), 1, tmp_path)
        manifest = load_manifest(path)
        assert len(manifest["workloads"]) == 2
        plan, _ = _shard_plan(manifest)
        first, second = {
            id(stream.workload): stream.workload
            for stream in plan.streams.values()
        }.values()
        for index in range(len(workload.networks)):
            a, b = first.networks[index], second.networks[index]
            assert (a.network is b.network) is shared
            assert (a.cache is b.cache) is shared
            assert a.cache.network is a.network
            assert not any(x is y for x, y in zip(a.matrices, b.matrices))


class TestDispatchRun:
    """The coordinator cycle for one scheme: a one-stream dispatch_plan."""

    @pytest.mark.parametrize("scheme", ["SP", "MinMaxK10"])
    def test_dispatched_equals_in_process(self, workload, tmp_path, scheme):
        """Acceptance: 2 subprocess workers == serial in-process engine."""
        report = dispatch_plan(
            one_stream(SchemeSpec(scheme), workload, scheme),
            n_shards=2,
            store_dir=tmp_path / "store",
            work_dir=tmp_path / "work",
        )
        direct = ExperimentEngine(n_workers=1).run_plan(
            one_stream(SchemeSpec(scheme), workload, scheme)
        )
        assert report.outcomes(scheme) == direct.outcomes(scheme)

    def test_dispatch_populates_renderable_store(self, workload, tmp_path):
        dispatch_plan(
            one_stream(SchemeSpec("SP"), workload),
            n_shards=2,
            store_dir=tmp_path / "store",
        )
        # A store-only engine serves the dispatched results without
        # constructing a single scheme.
        served = ExperimentEngine(
            store_dir=tmp_path / "store", store_only=True
        ).run_plan(one_stream(SchemeSpec("SP"), workload))
        assert len(served.outcomes("SP")) == len(workload.networks)

    def test_no_resume_replaces_stale_store_results(self, workload, tmp_path):
        plan = one_stream(SchemeSpec("SP"), workload)
        dispatch_plan(plan, n_shards=2, store_dir=tmp_path / "store")
        # Corrupt one stored outcome in place: with resume (the default) a
        # re-dispatch loses to it, with resume=False it is replaced.
        stream = next((tmp_path / "store").glob("*/*.jsonl"))
        lines = stream.read_text().splitlines()
        record = json.loads(lines[1])
        record["outcomes"][0]["max_utilization"] = 123.0
        lines[1] = json.dumps(record, separators=(",", ":"))
        stream.write_text("\n".join(lines) + "\n")

        kept = dispatch_plan(
            plan, n_shards=2, store_dir=tmp_path / "store"
        ).outcomes("SP")
        assert any(o.max_utilization == 123.0 for o in kept)
        replaced = dispatch_plan(
            plan, n_shards=2, store_dir=tmp_path / "store", resume=False
        ).outcomes("SP")
        assert not any(o.max_utilization == 123.0 for o in replaced)
        direct = ExperimentEngine(n_workers=1).run_plan(plan)
        assert replaced == direct.outcomes("SP")

    @pytest.mark.parametrize("damage", ["drop-two", "headerless"])
    def test_resumed_dispatch_ships_only_missing_tasks(
        self, workload, tmp_path, damage
    ):
        """A resumed dispatch skips what the main store holds, by the
        rule a resuming engine applies: a headerless stream is empty."""
        plan = one_stream(SchemeSpec("SP"), workload)
        dispatch_plan(plan, n_shards=2, store_dir=tmp_path / "store")
        stream = next((tmp_path / "store").glob("*/*.jsonl"))
        lines = stream.read_text().splitlines()
        if damage == "drop-two":
            kept, missing = [lines[0], lines[2], lines[4]], 2
        else:
            kept, missing = lines[1:], len(workload.networks)
        stream.write_text("\n".join(kept) + "\n")

        work = tmp_path / "work"
        report = dispatch_plan(
            plan, n_shards=2, store_dir=tmp_path / "store", work_dir=work
        )
        shipped = [
            pair
            for path in work.glob("manifests/*.json")
            for pair in _task_indices(load_manifest(path))
        ]
        assert len(shipped) == missing
        evaluated = sum(
            entry["n_results"]
            for worker in work.glob("worker-*")
            for entry in ResultStore(worker).list_streams()
        )
        assert evaluated == missing
        assert report.n_stored == len(workload.networks) - missing
        direct = ExperimentEngine(n_workers=1).run_plan(plan)
        assert report.outcomes("SP") == direct.outcomes("SP")

    def test_work_dir_keeps_manifests_and_worker_stores(
        self, workload, tmp_path
    ):
        dispatch_plan(
            one_stream(SchemeSpec("SP"), workload),
            n_shards=2,
            store_dir=tmp_path / "store",
            work_dir=tmp_path / "work",
        )
        assert len(list((tmp_path / "work" / "manifests").glob("*.json"))) == 2
        assert (tmp_path / "work" / "worker-000").is_dir()

    def test_failing_worker_surfaces_stderr(self, workload, tmp_path):
        # A scheme registered at runtime passes the coordinator's spec
        # check but is unknown to the worker's freshly imported registry,
        # so the worker subprocess fails; the coordinator must report the
        # failure (with the worker's stderr) instead of serving a partial
        # store.
        from repro.experiments import spec as spec_module

        spec_module.register_scheme("RuntimeOnlySP")(
            spec_module._REGISTRY["SP"]
        )
        try:
            with pytest.raises(DispatchError, match="exited"):
                dispatch_plan(
                    one_stream(
                        SchemeSpec("RuntimeOnlySP"), workload, "RuntimeOnlySP"
                    ),
                    n_shards=1,
                    store_dir=tmp_path / "store",
                    work_dir=tmp_path / "work",
                )
        finally:
            spec_module._REGISTRY.pop("RuntimeOnlySP", None)
        # ... and a failed dispatch never touches the main store.
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dispatch", "NOPE"], "unknown scheme 'NOPE'"),
            (["dispatch", "SP", "--params", '{"bogus":1}'],
             "unexpected keyword argument 'bogus'"),
            (["dispatch", "SP", "--params", "{bad"], "not valid JSON"),
            (["dispatch", "SP", "--params", "[1]"], "must be a JSON object"),
        ],
        ids=["unknown-scheme", "unknown-param", "bad-json", "non-object"],
    )
    def test_cli_bad_spec_is_one_line_exit_2(
        self, tmp_path, capsys, argv, message
    ):
        """No shard worker starts for a spec none of them could build."""
        from repro.experiments.__main__ import main

        work = tmp_path / "work"
        code = main(
            [*argv, "--networks", "2", "--tms", "1",
             "--store-dir", str(tmp_path / "store"), "--work-dir", str(work)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not list(work.glob("manifests/*.json"))
        assert not list(work.glob("worker-*"))
        assert not (tmp_path / "store").exists()

    def test_cli_scheme_dispatch_renders_fig03(self, tmp_path, capsys):
        """`dispatch SP` then `render fig03` == a direct `fig03` run."""
        from repro.experiments.__main__ import main

        size = ["--networks", "4", "--tms", "1"]
        assert main(["fig03", *size]) == 0
        direct = capsys.readouterr().out
        store = str(tmp_path / "store")
        work = tmp_path / "work"
        assert main(
            ["dispatch", "SP", "--shards", "2", *size,
             "--store-dir", store, "--work-dir", str(work)]
        ) == 0
        capsys.readouterr()
        assert len(list((work / "manifests").glob("shard-*.json"))) == 2
        assert main(["render", "fig03", *size, "--store-dir", store]) == 0
        assert capsys.readouterr().out == direct

    def test_cli_resumed_dispatch_reports_what_shipped(self, tmp_path, capsys):
        """The summary line counts the tasks a resumed dispatch shipped."""
        from repro.experiments.__main__ import main

        argv = ["dispatch", "SP", "--shards", "2", "--networks", "4",
                "--tms", "1", "--store-dir", str(tmp_path / "store")]
        counts = "scheme 'SP' (1 stream(s), 7 task(s))"
        assert main(argv) == 0
        assert f"2 shard worker(s) evaluated {counts}; merged" in (
            capsys.readouterr().out
        )
        stream = next((tmp_path / "store").glob("*/*.jsonl"))
        lines = stream.read_text().splitlines()
        stream.write_text("\n".join(lines[:-1]) + "\n")
        assert main(argv) == 0
        assert (
            f"1 shard worker(s) evaluated the 1 missing task(s) of {counts}"
        ) in capsys.readouterr().out
        assert main(argv) == 0
        assert (
            f"0 shard worker(s) evaluated the 0 missing task(s) of {counts}"
        ) in capsys.readouterr().out

    def test_cli_reports_the_workers_that_ran(self, tmp_path, capsys):
        """More shards than tasks: the summary counts one worker per
        manifest written, not ``--shards``."""
        from repro.experiments.__main__ import main

        work = tmp_path / "work"
        assert main(
            ["dispatch", "SP", "--shards", "9", "--networks", "1",
             "--tms", "1", "--store-dir", str(tmp_path / "store"),
             "--work-dir", str(work)]
        ) == 0
        manifests = list((work / "manifests").glob("shard-*.json"))
        assert len(manifests) < 9
        assert capsys.readouterr().out.startswith(
            f"dispatch: {len(manifests)} shard worker(s) evaluated "
        )
