"""Tests for the static analyzer (``repro.analysis``).

Three layers:

* fixture snippets with seeded violations, one per rule — each pass must
  demonstrably catch what it claims to catch, and must stay quiet on the
  corresponding clean spelling;
* the baseline and CLI machinery (fingerprints, count budgets, exit
  codes, JSON output, pragmas);
* the no-false-positive sweep: the committed tree must analyze clean,
  which is exactly the CI gate.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import all_passes, analyze_paths, collect_modules, rule_table
from repro.analysis.base import Finding, Severity, fingerprint
from repro.analysis.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.determinism import DeterminismPass
from repro.analysis.schema import SchemaDriftPass
from repro.analysis.spawnsafe import SpawnSafetyPass
from repro.analysis.__main__ import main as analysis_main

REPO = Path(__file__).resolve().parents[1]


def rules_in(tmp_path, source, passes, name="snippet.py"):
    """Analyze one dedented snippet; return the list of rule ids found."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    findings = analyze_paths([str(path)], passes=passes, root=str(tmp_path))
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# Determinism pass
# ----------------------------------------------------------------------
def test_d101_unseeded_stdlib_random(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        import random

        def jitter():
            return random.random() + random.uniform(0, 1)
        """,
        [DeterminismPass()],
    )
    assert rules == ["D101", "D101"]


def test_d101_seeded_random_instance_is_clean(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        import random

        def jitter(seed):
            rng = random.Random(seed)
            return rng.random()
        """,
        [DeterminismPass()],
    )
    assert rules == []


def test_d101_numpy_default_rng_and_legacy(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        import numpy as np

        def noise(n):
            rng = np.random.default_rng()
            legacy = np.random.rand(n)
            seeded = np.random.default_rng(42)
            return rng, legacy, seeded
        """,
        [DeterminismPass()],
    )
    assert rules == ["D101", "D101"]


def test_d102_wall_clock_and_pragma(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        import time
        import datetime

        def stamp():
            t0 = time.time()
            t1 = time.perf_counter()
            t2 = datetime.datetime.now()
            t3 = time.time()  # analysis: allow[D102]
            return t0, t1, t2, t3
        """,
        [DeterminismPass()],
    )
    assert rules == ["D102", "D102"]


def test_d102_module_allowlist_pragma(tmp_path):
    rules = rules_in(
        tmp_path,
        '''
        """A module whose whole purpose is sanctioned instrumentation."""

        # analysis: allow-module[D102]

        import time

        def stamp():
            return time.time()

        def stamp_again():
            return time.time()
        ''',
        [DeterminismPass()],
    )
    assert rules == []


def test_module_allowlist_covers_only_named_rules(tmp_path):
    rules = rules_in(
        tmp_path,
        '''
        """Module pragma for D102 must not blanket other rules."""

        # analysis: allow-module[D102]

        import random
        import time

        def jitter():
            return random.random() + time.time()
        ''',
        [DeterminismPass()],
    )
    assert rules == ["D101"]


def test_module_allowlist_only_counts_in_header(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        import time

        # analysis: allow-module[D102]

        def stamp():
            return time.time()
        """,
        [DeterminismPass()],
    )
    # The pragma sits after the first statement, so it is not a header
    # declaration and suppresses nothing.
    assert rules == ["D102"]


def test_allow_module_pragma_does_not_loosen_line_pragma(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()  # analysis: allow-module[D102]
        """,
        [DeterminismPass()],
    )
    # allow-module on a single line must NOT act as a line pragma: the
    # `allow` regex deliberately refuses the `-module` suffix.
    assert rules == ["D102"]


def test_d103_fresh_set_iteration(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        def spellings(items):
            for key in set(items):
                print(key)
            flat = list({1, 2, 3})
            comp = [x for x in frozenset(items)]
            ok = sorted(set(items))
            unordered = {x for x in set(items)}
            return flat, comp, ok, unordered
        """,
        [DeterminismPass()],
    )
    assert rules == ["D103", "D103", "D103"]


def test_d104_set_annotated_loop_feeding_output(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        from typing import Dict, List, Set

        def walk(adjacency: Dict[str, Set[str]], start: str) -> List[str]:
            out: List[str] = []
            for nbr in adjacency[start]:
                out.append(nbr)
            return out

        def drain(seen: Set[str]) -> List[str]:
            return [item for item in seen]
        """,
        [DeterminismPass()],
    )
    assert rules == ["D104", "D104"]


def test_d104_membership_only_loop_is_clean(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        from typing import Set

        def count_truthy(seen: Set[str]) -> int:
            count = 0
            for item in seen:
                if item:
                    count += 1
            return count
        """,
        [DeterminismPass()],
    )
    assert rules == []


def test_d105_assert_and_pragma(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        def check(value):
            assert value is not None
            assert value > 0  # analysis: allow
            return value
        """,
        [DeterminismPass()],
    )
    assert rules == ["D105"]


def test_d106_seedless_scenario_sampling(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        from repro.scenarios import ScenarioGenerator, generate_scenarios

        def fleets(base):
            bad = ScenarioGenerator(base)
            also_bad = generate_scenarios(base, link_failure_k=2)
            return bad, also_bad
        """,
        [DeterminismPass()],
    )
    assert rules == ["D106", "D106"]


def test_d106_quiet_with_seed_splat_or_pragma(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        from repro.scenarios import ScenarioGenerator, generate_scenarios

        def fleets(base, options):
            seeded = ScenarioGenerator(base, seed=3)
            splat = generate_scenarios(base, **options)
            waived = ScenarioGenerator(base)  # analysis: allow[D106]
            return seeded, splat, waived
        """,
        [DeterminismPass()],
    )
    assert rules == []


def test_d108_dense_pair_materialization(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        from repro.net.paths import all_pairs_shortest_paths

        def sweep(network):
            paths = all_pairs_shortest_paths(network)
            grid = network.node_pairs()
            return paths, grid
        """,
        [DeterminismPass()],
    )
    assert rules == ["D108", "D108"]


def test_d108_quiet_on_sparse_spellings_or_pragma(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        from repro.net.paths import shortest_path_delays

        def sweep(network, cache, sources):
            delays = [shortest_path_delays(network, src) for src in sources]
            total = cache.total_cached()
            waived = all_pairs_shortest_paths(network)  # analysis: allow[D108]
            return delays, total, waived
        """,
        [DeterminismPass()],
    )
    assert rules == []


# ----------------------------------------------------------------------
# Spawn-safety pass
# ----------------------------------------------------------------------
def test_s201_lambda_at_pool_boundary(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        def figure(engine, plan, workload):
            plan.add("B4", lambda item: object(), workload)
            return engine.run_plan(plan)
        """,
        [SpawnSafetyPass()],
    )
    assert rules == ["S201"]


def test_s202_local_def_at_pool_boundary(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        def figure(engine, plan):
            def make(item):
                return item
            return engine.run_plan(plan, make)
        """,
        [SpawnSafetyPass()],
    )
    assert rules == ["S202"]


def test_module_level_factory_is_clean(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        def make(item):
            return item

        def figure(engine, plan):
            return engine.run_plan(plan, make)
        """,
        [SpawnSafetyPass()],
    )
    assert rules == []


def spec_registry_modules():
    spec_path = REPO / "src" / "repro" / "experiments" / "spec.py"
    modules, failures = collect_modules([str(spec_path)], root=str(REPO))
    assert not failures
    return modules


def test_s203_registry_round_trips():
    findings = list(SpawnSafetyPass().check_tree(spec_registry_modules()))
    assert findings == []


def test_s203_flags_non_json_native_builder_default():
    import repro.experiments.spec as spec

    @spec.register_scheme("BadDefaultScheme")
    def _bad(item, knob=object()):  # noqa: B008 - the violation under test
        return None

    try:
        findings = list(SpawnSafetyPass().check_tree(spec_registry_modules()))
    finally:
        del spec._REGISTRY["BadDefaultScheme"]
    bad = [f for f in findings if "BadDefaultScheme" in f.message]
    assert len(bad) == 1
    assert bad[0].rule == "S203"
    assert "knob" in bad[0].message


def test_s203_skipped_on_foreign_trees(tmp_path):
    # Fixture trees without the registry module never import repro.
    rules = rules_in(tmp_path, "x = 1\n", [SpawnSafetyPass()])
    assert rules == []


# ----------------------------------------------------------------------
# Schema-drift pass
# ----------------------------------------------------------------------
def test_c301_reader_of_unwritten_field(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        def _result_to_record(result):
            return {"kind": "result", "seconds": result.seconds}

        def enrich(record):
            record["seconds_total"] = record["seconds"] * 2

        def show(record):
            return record["seconds_total"], record["missing"]
        """,
        [SchemaDriftPass()],
        name="mystore.py",
    )
    assert rules == ["C301"]


def test_c301_cross_module_reader(tmp_path):
    (tmp_path / "mystore.py").write_text(
        textwrap.dedent(
            """
            def _result_to_record(result):
                return {"kind": "result", "seconds": result.seconds}
            """
        ),
        encoding="utf-8",
    )
    (tmp_path / "view.py").write_text(
        textwrap.dedent(
            """
            from mystore import _result_to_record

            def show(record):
                return record.get("nope")
            """
        ),
        encoding="utf-8",
    )
    findings = analyze_paths(
        [str(tmp_path)], passes=[SchemaDriftPass()], root=str(tmp_path)
    )
    assert [(f.rule, f.path) for f in findings] == [("C301", "view.py")]


def test_c302_manifest_version_drift(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        FORMAT_V1 = 1
        FORMAT_V2 = 2

        def build_plan_manifest(tasks):
            return {"version": FORMAT_V2, "tasks": tasks}

        def load_manifest(payload):
            manifest = payload
            if manifest.get("version") != FORMAT_V1:
                raise ValueError("unsupported manifest version")
            return manifest
        """,
        [SchemaDriftPass()],
    )
    assert rules == ["C302"]


def test_c302_matching_version_is_clean(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        FORMAT_V1 = 1

        def build_plan_manifest(tasks):
            return {"version": FORMAT_V1, "tasks": tasks}

        def load_manifest(payload):
            manifest = payload
            if manifest.get("version") != FORMAT_V1:
                raise ValueError("unsupported manifest version")
            return manifest
        """,
        [SchemaDriftPass()],
    )
    assert rules == []


def test_c303_argparse_dest_drift(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        import argparse

        def main(argv=None):
            parser = argparse.ArgumentParser()
            parser.add_argument("--n-workers", type=int)
            parser.add_argument("figure")
            args = parser.parse_args(argv)
            args.extra = 1
            return args.n_workers, args.figure, args.extra, args.missing
        """,
        [SchemaDriftPass()],
    )
    assert rules == ["C303"]


# ----------------------------------------------------------------------
# Parse failures, baseline machinery
# ----------------------------------------------------------------------
def test_e001_unparseable_file(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
    findings = analyze_paths([str(tmp_path)], root=str(tmp_path))
    assert [f.rule for f in findings] == ["E001"]
    assert findings[0].severity is Severity.ERROR


def _finding(line, rule="D105", path="a.py", context="assert x"):
    return Finding(
        rule=rule,
        severity=Severity.ERROR,
        path=path,
        line=line,
        message="m",
        context=context,
    )


def test_fingerprint_ignores_line_numbers():
    assert fingerprint(_finding(3)) == fingerprint(_finding(40))
    assert fingerprint(_finding(3)) != fingerprint(_finding(3, rule="D103"))


def test_baseline_round_trip_and_count_budget(tmp_path):
    base = tmp_path / "base.json"
    write_baseline(str(base), [_finding(1), _finding(5)])
    loaded = load_baseline(str(base))
    assert loaded == {"D105|a.py|assert x": 2}
    # Two occurrences absorbed, the third (new duplicate) stays live.
    fresh, suppressed = apply_baseline(
        [_finding(1), _finding(5), _finding(9)], loaded
    )
    assert suppressed == 2
    assert [f.line for f in fresh] == [9]


def test_baseline_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    with pytest.raises(BaselineError):
        load_baseline(str(bad))
    bad.write_text(
        json.dumps({"format": 1, "findings": {"k": 0}}), encoding="utf-8"
    )
    with pytest.raises(BaselineError):
        load_baseline(str(bad))
    with pytest.raises(BaselineError):
        load_baseline(str(tmp_path / "does-not-exist.json"))


def test_rule_table_covers_every_pass():
    table = rule_table()
    for rule in (
        "E001", "D101", "D102", "D103", "D104", "D105", "D106",
        "D108",
        "S201", "S202", "S203", "C301", "C302", "C303",
    ):
        assert rule in table


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
VIOLATION = "def check(value):\n    assert value\n    return value\n"


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    assert analysis_main([str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_violation_gates_and_renders(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(VIOLATION, encoding="utf-8")
    assert analysis_main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "[D105]" in out


def test_cli_json_report(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(VIOLATION, encoding="utf-8")
    assert analysis_main([str(tmp_path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["total"] == 1
    assert report["counts"]["gating"] == 1
    assert report["counts"]["by_rule"] == {"D105": 1}
    (finding,) = report["findings"]
    assert finding["rule"] == "D105"
    assert finding["severity"] == "error"


def test_cli_baseline_workflow(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION, encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    assert analysis_main(
        [str(tmp_path), "--write-baseline", str(baseline)]
    ) == 0
    # Baselined legacy finding no longer gates ...
    assert analysis_main([str(tmp_path), "--baseline", str(baseline)]) == 0
    # ... but one *more* occurrence of the same violation does.
    bad.write_text(VIOLATION + "\n\nassert True\n", encoding="utf-8")
    assert analysis_main([str(tmp_path), "--baseline", str(baseline)]) == 1
    capsys.readouterr()


def test_cli_error_paths(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    assert analysis_main([str(tmp_path), "--min-severity", "bogus"]) == 2
    assert analysis_main(
        [str(tmp_path), "--baseline", str(tmp_path / "missing.json")]
    ) == 2
    assert analysis_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "D105" in out


# ----------------------------------------------------------------------
# The committed tree must be clean (the CI gate)
# ----------------------------------------------------------------------
def test_repo_tree_has_no_findings():
    findings = analyze_paths(
        [str(REPO / "src" / "repro")], passes=all_passes(), root=str(REPO)
    )
    assert [f.render() for f in findings] == []


def test_committed_baseline_is_empty():
    baseline = load_baseline(str(REPO / "analysis-baseline.json"))
    assert baseline == {}


# ----------------------------------------------------------------------
# mypy strict surface (runs only where mypy is installed, e.g. CI)
# ----------------------------------------------------------------------
def test_mypy_strict_plan_spec_and_lp_model():
    pytest.importorskip("mypy")
    result = subprocess.run(
        [
            sys.executable, "-m", "mypy", "--strict",
            "src/repro/experiments/plan.py",
            "src/repro/experiments/spec.py",
            "src/repro/lp/model.py",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
