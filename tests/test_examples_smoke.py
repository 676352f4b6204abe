"""Smoke tests: the example scripts run to completion.

Only the fast examples run here; nothing else runs the others, so check
them by hand after changing what they use.  Each is executed in-process
with its module namespace so failures surface as ordinary assertion
errors.
"""

import runpy
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    sys.path.insert(0, str(EXAMPLES.parent))
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.path.pop(0)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "LLPD" in out
        assert "LatencyOptimal" in out

    def test_b4_pathologies(self, capsys):
        out = run_example("b4_pathologies.py", capsys)
        assert "Figure 5" in out and "Figure 6" in out
        assert "stranded" in out

    def test_growth_planning(self, capsys):
        out = run_example("growth_planning.py", capsys)
        assert "delay saved" in out

    def test_topology_study(self, capsys):
        # APA over 20 networks; the printed figures are deterministic.
        out = run_example("topology_study.py", capsys)
        assert "zoo-014-grid    24  10.6ms  0.616  [+        @]" in out
        assert "gts-like    24  10.7ms  0.583  [+        @]" in out
        assert "google-like    24 123.6ms  0.841  [.        @]" in out
