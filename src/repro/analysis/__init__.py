"""Analysis metrics used by the paper's trace-driven studies.

* :mod:`repro.analysis.cdf` — shared cumulative-distribution helpers.
* :mod:`repro.analysis.l1pass` — the one L1 replay the trace studies share.
* :mod:`repro.analysis.deadtime` — cache-block dead-time distribution (Figure 2).
* :mod:`repro.analysis.temporal` — temporal correlation distance and
  correlated-sequence lengths (Figure 6).
* :mod:`repro.analysis.order_disparity` — last-touch versus cache-miss
  order correlation (Figure 7).
* :mod:`repro.analysis.bandwidth` — bus-utilisation breakdown (Figure 12).
"""

from repro.analysis.cdf import CumulativeDistribution, power_of_two_buckets
from repro.analysis.deadtime import DeadTimeResult, measure_dead_times
from repro.analysis.temporal import TemporalCorrelationResult
from repro.analysis.order_disparity import OrderDisparityResult, measure_order_disparity
from repro.analysis.bandwidth import BandwidthBreakdown, bandwidth_breakdown

__all__ = [
    "BandwidthBreakdown",
    "CumulativeDistribution",
    "DeadTimeResult",
    "OrderDisparityResult",
    "TemporalCorrelationResult",
    "bandwidth_breakdown",
    "measure_dead_times",
    "measure_order_disparity",
    "power_of_two_buckets",
]
