"""End-to-end benchmark of the whole evaluation stack (see README.md).

Four long workloads, each repeated in fresh child interpreters and
reported as medians; a separate traced run attributes the time to
layers.  ``python3 benchmarks/e2e/run.py --help`` is the entry point;
``BENCHMARK.json`` at the repo root names the metrics and their bounds.
"""
