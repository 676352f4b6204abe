"""The paper's primary contributions.

* :mod:`repro.core.metrics` — APA and LLPD, the routing-agnostic measures
  of a topology's low-latency path diversity (§2);
* :mod:`repro.core.prediction` — Algorithm 1, the conservative next-minute
  mean-rate predictor (§4);
* :mod:`repro.core.multiplexing` — the temporal-correlation and
  FFT-convolution statistical-multiplexing checks (§5);
* :mod:`repro.core.headroom` — the headroom dial (§4);
* :mod:`repro.core.ldr` — Low Delay Routing: the iterative latency-optimal
  LP combined with automatic headroom tuning (§5).
"""

from repro.core.metrics import ApaParameters, apa_all_pairs, llpd
from repro.core.prediction import MeanRatePredictor, predict_series
from repro.core.multiplexing import (
    LinkCheck,
    check_link_multiplexing,
    exceedance_probability,
    transient_queue_delay_s,
)
from repro.core.headroom import minmax_equivalent_headroom
from repro.core.ldr import LdrConfig, LdrController, LdrResult

__all__ = [
    "ApaParameters",
    "apa_all_pairs",
    "llpd",
    "MeanRatePredictor",
    "predict_series",
    "LinkCheck",
    "check_link_multiplexing",
    "exceedance_probability",
    "transient_queue_delay_s",
    "minmax_equivalent_headroom",
    "LdrConfig",
    "LdrController",
    "LdrResult",
]
