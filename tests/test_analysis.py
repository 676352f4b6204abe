"""Tests for the static analyzer (``repro.analysis``).

Three layers:

* fixture snippets with seeded violations, one per rule — each pass must
  demonstrably catch what it claims to catch, and must stay quiet on the
  corresponding clean spelling;
* the CLI (exit codes, rendering, path errors) and pragmas;
* the no-false-positive sweep: the committed tree must analyze clean,
  which is exactly the CI gate.
"""

import ast
import io
import re
import subprocess
import sys
import textwrap
import tokenize
from pathlib import Path

import pytest

from repro.analysis import all_passes, analyze_paths, rule_table
from repro.analysis.determinism import DeterminismPass
from repro.analysis.reach import ReachabilityPass
from repro.analysis.schema import SchemaDriftPass
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
            assert value > 0  # analysis: allow[D105]
            assert value < 9  # analysis: allow
            return value
        """,
        [DeterminismPass()],
    )
    # A pragma must name its rule: the rule-less form suppresses nothing.
    assert rules == ["D105", "D105"]


# ----------------------------------------------------------------------
# Schema-drift pass
# ----------------------------------------------------------------------
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


def test_c303_subparsers_dest_is_a_dest(tmp_path):
    rules = rules_in(
        tmp_path,
        """
        import argparse

        def main(argv=None):
            parser = argparse.ArgumentParser()
            parser.add_subparsers(dest="command", required=True)
            args = parser.parse_args(argv)
            return args.command, args.missing
        """,
        [SchemaDriftPass()],
    )
    assert rules == ["C303"]


# ----------------------------------------------------------------------
# Reachability pass
# ----------------------------------------------------------------------
def reach_findings(tmp_path, files):
    """Plant ``files`` (relative path -> source) in a project tree with
    empty ``benchmarks/`` and ``examples/``, analyze its ``src/repro``
    and return the findings as ``(path, line)`` pairs."""
    for name in ("benchmarks", "examples"):
        (tmp_path / name).mkdir()
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    findings = analyze_paths(
        [str(tmp_path / "src" / "repro")],
        passes=[ReachabilityPass()],
        root=str(tmp_path),
    )
    return [(f.path, f.line) for f in findings]


LIB = "src/repro/lib.py"


def test_r401_dead_def_reported_at_its_line(tmp_path):
    found = reach_findings(
        tmp_path,
        {
            LIB: """
            def live():
                return 1


            def dead():
                return 2
            """,
            "examples/use.py": "from repro.lib import live\nlive()\n",
        },
    )
    assert found == [(LIB, 6)]


def test_r401_dead_member_reported_at_its_def_line(tmp_path):
    # A reached class's unreached method is reported as ``Class.member``;
    # an unreached class is one finding, not one per member.
    found = reach_findings(
        tmp_path,
        {
            LIB: """
            class Box:
                def used(self):
                    return 1

                def dead(self):
                    return 2


            class Gone:
                def method(self):
                    return 3
            """,
            "examples/use.py": "from repro.lib import Box\nBox().used()\n",
        },
    )
    assert found == [(LIB, 6), (LIB, 10)]
    messages = [
        f.message
        for f in analyze_paths(
            [str(tmp_path / LIB)], passes=[ReachabilityPass()], root=str(tmp_path)
        )
    ]
    assert messages[0].startswith("`Box.dead` is reached by no")
    assert messages[1].startswith("`Gone` is reached by no")
    assert "method" in rule_table([ReachabilityPass()])["R401"]


def test_r401_tests_are_not_roots(tmp_path):
    found = reach_findings(
        tmp_path,
        {
            LIB: "class OnlyTested:\n    pass\n",
            "tests/test_lib.py": (
                "from repro.lib import OnlyTested\n\n"
                "def test_it():\n    OnlyTested()\n"
            ),
        },
    )
    assert found == [(LIB, 1)]


def test_r401_missing_roots_directory_is_a_finding(tmp_path):
    (tmp_path / "examples").mkdir()
    lib = tmp_path / "src" / "repro" / "lib.py"
    lib.parent.mkdir(parents=True)
    lib.write_text("def dead():\n    pass\n", encoding="utf-8")
    findings = analyze_paths(
        [str(lib)], passes=[ReachabilityPass()], root=str(tmp_path)
    )
    assert [(f.rule, f.line) for f in findings] == [("R401", 1)]
    assert "benchmarks" in findings[0].message


@pytest.mark.parametrize(
    "lib, example",
    [
        pytest.param(
            """
            _REGISTRY = {}

            def register(name):
                def wrap(builder):
                    _REGISTRY[name] = builder
                    return builder
                return wrap

            @register("x")
            def _build_x():
                return 1

            def build(name):
                return _REGISTRY[name]()
            """,
            "from repro.lib import build\nbuild('x')\n",
            id="registry-decorator",
        ),
        pytest.param(
            """
            def content_signature():
                return "sig"

            def signature(workload):
                return getattr(workload, "content_signature", None)
            """,
            "from repro.lib import signature\nsignature(None)\n",
            id="getattr-string",
        ),
        pytest.param(
            """
            def _default():
                return 1

            DEFAULT = _default()
            """,
            "",
            id="module-level-statement",
        ),
        pytest.param(
            """
            class Shown:
                pass
            """,
            "import repro.lib\nrepro.lib.Shown()\n",
            id="example",
        ),
        pytest.param(
            """
            def leaf():
                return 1

            def middle():
                return leaf()

            def top():
                return middle()
            """,
            "from repro.lib import top\ntop()\n",
            id="chain-of-defs",
        ),
        pytest.param(
            """
            def kept():  # analysis: allow[R401] a reason
                return 1
            """,
            "",
            id="pragma",
        ),
        pytest.param(
            """
            class Box:
                def hook(self):
                    return 1

            def call(box):
                return getattr(box, "hook")()
            """,
            "from repro.lib import Box, call\ncall(Box())\n",
            id="member-getattr-string",
        ),
        pytest.param(
            """
            class Base:
                def run(self):
                    return self.step()

                def step(self):
                    return 0

            class Child(Base):
                def step(self):
                    return 1
            """,
            "from repro.lib import Child\nChild().run()\n",
            id="override-reached-through-base",
        ),
        pytest.param(
            """
            class Box:
                @property
                def size(self):
                    return 1
            """,
            "from repro.lib import Box\nprint(Box().size)\n",
            id="property-read",
        ),
        pytest.param(
            """
            class Box:
                def __len__(self):
                    return _count()

            def _count():
                return 1
            """,
            "from repro.lib import Box\nlen(Box())\n",
            id="dunder",
        ),
        pytest.param(
            """
            class Box:
                def used(self):
                    return 1

                def helper(self):
                    return _leaf()

            def _leaf():
                return 2

            def kept(box):  # analysis: allow[R401] a reason
                return box.helper()
            """,
            "from repro.lib import Box\nBox().used()\n",
            id="member-called-from-pragma-kept-def",
        ),
        pytest.param(
            """
            class Box:
                def spare(self):  # analysis: allow[R401] a reason
                    return _leaf()

            def _leaf():
                return 1
            """,
            "from repro.lib import Box\nBox()\n",
            id="member-pragma",
        ),
    ],
)
def test_r401_reached_defs_are_clean(tmp_path, lib, example):
    files = {LIB: lib, "examples/use.py": example}
    assert reach_findings(tmp_path, files) == []


def test_r401_pragmas_in_src_carry_reasons():
    """Every R401 pragma comment in ``src`` sits on a top-level or member
    ``def``/``class`` line, where the pass reads it, and says why."""
    pragma = re.compile(r"#\s*analysis:\s*allow\[[^\]]*\bR401\b[^\]]*\](.*)")
    reasons = {}
    defs = {}
    for path in sorted((REPO / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        rel = path.relative_to(REPO)
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            match = pragma.search(token.string)
            if token.type == tokenize.COMMENT and match:
                reasons[f"{rel}:{token.start[0]}"] = match.group(1).strip()
        for stmt in ast.parse(text).body:
            members = stmt.body if isinstance(stmt, ast.ClassDef) else []
            for node in [stmt, *members]:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defs[f"{rel}:{node.lineno}"] = node is not stmt
    assert [where for where in reasons if where not in defs] == []
    assert [where for where, reason in reasons.items() if not reason] == []
    # Top-level defs and members both carry them.
    assert {defs[where] for where in reasons} == {False, True}


# ----------------------------------------------------------------------
# Parse failures, rule table
# ----------------------------------------------------------------------
def test_e001_unparseable_file(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
    findings = analyze_paths([str(tmp_path)], root=str(tmp_path))
    assert [f.rule for f in findings] == ["E001"]


def test_rule_table_covers_every_pass():
    assert sorted(rule_table()) == [
        "C303", "D101", "D102", "D103", "D104", "D105", "E001", "R401",
    ]


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
    assert "bad.py:2: [D105] assert" in out


def test_cli_error_paths(tmp_path, capsys):
    # A path with nothing to analyze is a usage error, not a clean pass:
    # a mistyped path must not turn the gate off.
    empty = tmp_path / "empty"
    empty.mkdir()
    for path in (empty, tmp_path / "missing"):
        with pytest.raises(SystemExit) as exit_info:
            analysis_main([str(path)])
        assert exit_info.value.code == 2
        assert str(path) in capsys.readouterr().err
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


# ----------------------------------------------------------------------
# mypy strict surface (runs only where mypy is installed, e.g. CI)
# ----------------------------------------------------------------------
def test_mypy_strict_surface():
    """CI's command: the strict surface is the `files` list in mypy.ini."""
    pytest.importorskip("mypy")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--strict"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
