"""Traffic dynamics substrate: synthetic traces and their statistics.

The paper grounds its headroom analysis in CAIDA passive traces (four
10 Gb/s Tier-1 backbone links, 40 one-hour traces each).  Those traces are
not redistributable, so :mod:`repro.traces.synth` generates traces with the
two statistical properties the paper's Figures 9 and 10 actually test:
minute-to-minute mean predictability and minute-to-minute stability of the
sub-second rate variability.  :mod:`repro.traces.stats` extracts the
quantities the paper measures from any trace, synthetic or otherwise.
"""

from repro.traces.synth import SyntheticTraceConfig, synthesize_trace, trace_ensemble
from repro.traces.stats import (
    minute_means,
    minute_sigma_pairs,
    per_minute_sigma,
)

__all__ = [
    "SyntheticTraceConfig",
    "synthesize_trace",
    "trace_ensemble",
    "minute_means",
    "minute_sigma_pairs",
    "per_minute_sigma",
]
