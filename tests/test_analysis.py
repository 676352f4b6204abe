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
from repro.analysis.reach import ReachabilityPass, UnusedImportPass
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
def planted_findings(tmp_path, files):
    """Plant ``files`` (relative path -> source) in a project tree with
    empty ``benchmarks/`` and ``examples/``, analyze its ``src/repro``
    and return the findings."""
    for name in ("benchmarks", "examples"):
        (tmp_path / name).mkdir()
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return analyze_paths(
        [str(tmp_path / "src" / "repro")],
        passes=[ReachabilityPass()],
        root=str(tmp_path),
    )


def reach_findings(tmp_path, files):
    """:func:`planted_findings` as ``(path, line)`` pairs."""
    return [(f.path, f.line) for f in planted_findings(tmp_path, files)]


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


def reach_rules(tmp_path, lib, example):
    """The ``(rule, line)`` findings of ``lib`` beside one example."""
    files = {LIB: lib, "examples/use.py": example}
    return [(f.rule, f.line) for f in planted_findings(tmp_path, files)]


def test_r402_parameter_no_root_sets(tmp_path):
    # ``g``'s parameter ``f`` is a local name, not ``f`` loaded as a value.
    lib = """
        def f(x, knob=3, *, other=4):
            return x * knob * other

        def g(f):
            return print(f)
        """
    example = "from repro.lib import f, g\nf(1, other=2)\ng(0)\n"
    [finding] = planted_findings(tmp_path, {LIB: lib, "examples/use.py": example})
    assert (finding.rule, finding.line) == ("R402", 2)
    assert finding.message.startswith("`f(knob)` is set by no call")


def test_r402_dataclass_field_no_caller_passes(tmp_path):
    found = reach_rules(
        tmp_path,
        """
        from dataclasses import dataclass, field

        @dataclass
        class Job:
            name: str
            retries: int = 3
            timeout: float = 1.0
            done: int = field(default=0, init=False)
        """,
        # A class loaded as a value (here a type) sets none of its fields.
        "from repro.lib import Job\nJob('a', timeout=2.0)\nJob('b')\n"
        "isinstance(None, Job)\n",
    )
    assert found == [("R402", 7)]


@pytest.mark.parametrize(
    "lib, example",
    [
        pytest.param(
            """
            class Base:
                def __init__(self, headroom=0.0, cache=None):
                    self.headroom = headroom
                    self.cache = cache

            class Child(Base):
                def __init__(self, h):
                    super().__init__(h, cache={})
            """,
            "from repro.lib import Child\nChild(0.1)\n",
            id="super-init",
        ),
        pytest.param(
            """
            _REGISTRY = {}

            def register(name):
                def wrap(builder):
                    _REGISTRY[name] = builder
                    return builder
                return wrap

            @register("x")
            def _build_x(item, headroom=0.0):
                return item + headroom

            def build(name, item, **params):
                return _REGISTRY[name](item, **params)
            """,
            "from repro.lib import build\nbuild('x', 1)\n",
            id="decorated-builder",
        ),
        pytest.param(
            """
            class Generator:
                def link_failures(self, budget=None):
                    return budget

                def node_failures(self, budget=None):
                    return budget

                def fleet(self, budget):
                    out = []
                    for kind, generate in (
                        ("link", self.link_failures),
                        ("node", self.node_failures),
                    ):
                        out.append(generate(budget))
                    return out
            """,
            "from repro.lib import Generator\nGenerator().fleet(3)\n",
            id="bound-method-through-tuple-unpacked-name",
        ),
        pytest.param(
            """
            def f(x, knob=3):
                return x * knob

            def g(x, knob=3):
                return x * knob

            def call(*args, **kwargs):
                return f(*args) + g(**kwargs)
            """,
            "from repro.lib import call\ncall(1, x=1)\n",
            id="star-args",
        ),
        pytest.param(
            """
            from dataclasses import dataclass, replace

            @dataclass
            class Box:
                size: int = 1
                tag: str = ""

                @classmethod
                def make(cls):
                    return cls(2)

            def retag(box):
                return replace(box, tag="x")
            """,
            "from repro.lib import Box, retag\nretag(Box.make())\n",
            id="cls-and-replace",
        ),
    ],
)
def test_r402_settings_some_call_may_set_are_clean(tmp_path, lib, example):
    assert reach_rules(tmp_path, lib, example) == []


def test_r404_unused_import(tmp_path):
    source = """
        import json
        import os
        import numpy.typing as npt
        from typing import List

        __all__ = ["List"]


        def path(where: "os.PathLike[str]") -> "npt.NDArray":
            return where
        """
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    [finding] = analyze_paths([str(path)], passes=[UnusedImportPass()])
    assert (finding.rule, finding.line) == ("R404", 2)
    assert "`json`" in finding.message


def test_reach_pragmas_in_src_carry_reasons():
    """Every R401 pragma comment in ``src`` sits on a top-level or member
    ``def``/``class`` line, and every R402 pragma on a defaulted
    parameter's or a dataclass field's line: where the pass reads it.
    Each says why."""
    reasons = {"R401": {}, "R402": {}}
    lines = {"R401": {}, "R402": {}}
    for path in sorted((REPO / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        rel = path.relative_to(REPO)
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            for rule, found in reasons.items():
                match = re.search(
                    rf"#\s*analysis:\s*allow\[[^\]]*\b{rule}\b[^\]]*\](.*)",
                    token.string,
                )
                if token.type == tokenize.COMMENT and match:
                    found[f"{rel}:{token.start[0]}"] = match.group(1).strip()
        for stmt in ast.parse(text).body:
            members = stmt.body if isinstance(stmt, ast.ClassDef) else []
            for node in [stmt, *members]:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    lines["R401"][f"{rel}:{node.lineno}"] = node is not stmt
                if isinstance(node, ast.FunctionDef):
                    for arg in [*node.args.args, *node.args.kwonlyargs]:
                        lines["R402"][f"{rel}:{arg.lineno}"] = "parameter"
                elif isinstance(node, ast.AnnAssign) and node.value:
                    lines["R402"][f"{rel}:{node.lineno}"] = "field"
    for rule, found in reasons.items():
        assert [where for where in found if where not in lines[rule]] == []
        assert [where for where, reason in found.items() if not reason] == []
    # Top-level defs and members carry R401 pragmas; parameters and
    # fields carry R402 pragmas.
    assert {lines["R401"][where] for where in reasons["R401"]} == {False, True}
    assert {lines["R402"][where] for where in reasons["R402"]} == {
        "parameter", "field",
    }


def test_r404_tests_benchmarks_and_examples_import_only_what_they_use():
    paths = [str(REPO / name) for name in ("tests", "benchmarks", "examples")]
    findings = analyze_paths(paths, passes=[UnusedImportPass()], root=str(REPO))
    assert [f.render() for f in findings] == []


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
        "R402", "R404",
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
