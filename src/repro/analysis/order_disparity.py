"""Last-touch versus cache-miss order disparity (Section 5.2, Figure 7).

LT-cords records signatures in cache-miss (eviction) order but consumes
them in last-touch order.  This module measures, for every pair of
consecutive last touches, how far apart the corresponding evictions are
in the miss order.  A distance of +1 means eviction order matches
last-touch order exactly; the paper finds only ~21% of misses are
perfectly ordered but over 98% fall within ±1K, which sets the required
signature-cache reorder tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.config import CacheConfig, L1D_CONFIG
from repro.analysis.cdf import CumulativeDistribution
from repro.analysis.l1pass import l1_outcomes
from repro.trace.stream import TraceStream


@dataclass
class OrderDisparityResult:
    """Distribution of last-touch-to-miss correlation distances."""

    benchmark: str
    num_evictions: int
    distances: CumulativeDistribution
    perfectly_ordered: int

    @property
    def perfect_fraction(self) -> float:
        """Fraction of evictions whose miss order matches last-touch order exactly."""
        if self.num_evictions == 0:
            return 0.0
        return self.perfectly_ordered / self.num_evictions

    def fraction_within(self, distance: int) -> float:
        """Fraction of evictions with |distance| <= ``distance``."""
        return self.distances.fraction_at_or_below(distance)

    def reorder_tolerance_for(self, target_fraction: float) -> float:
        """Smallest reorder window covering ``target_fraction`` of evictions.

        This is the quantity the paper uses to size the signature cache
        (Section 5.2: ~1K signatures cover 98% of misses).
        """
        return self.distances.percentile(target_fraction)


def measure_order_disparity(
    trace: TraceStream,
    cache_config: Optional[CacheConfig] = None,
) -> OrderDisparityResult:
    """Replay ``trace`` and compare last-touch order with eviction order."""
    config = cache_config or L1D_CONFIG
    columns = trace.as_arrays()

    # Per resident block: the serial number (in accesses) of its last touch.
    last_touch_serial: Dict[int, int] = {}
    # For each eviction, in eviction order: the last-touch serial of the victim.
    eviction_last_touch: List[int] = []

    for serial, (address, evicted) in enumerate(zip(columns.address, l1_outcomes(columns, config)), 1):
        if evicted >= 0:
            eviction_last_touch.append(last_touch_serial.pop(evicted))
        last_touch_serial[config.block_address(address)] = serial

    # Sort evictions by the time of their victim's last touch: consecutive
    # entries are consecutive last touches; their positions in eviction
    # order give the correlation distance.
    order = sorted(range(len(eviction_last_touch)), key=lambda i: eviction_last_touch[i])
    distances: List[float] = []
    perfect = 0
    for k in range(1, len(order)):
        distance = order[k] - order[k - 1]
        distances.append(abs(distance))
        if distance == 1:
            perfect += 1

    return OrderDisparityResult(
        benchmark=trace.name,
        num_evictions=max(0, len(order) - 1),
        distances=CumulativeDistribution(distances),
        perfectly_ordered=perfect,
    )
