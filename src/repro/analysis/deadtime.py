"""Cache-block dead-time measurement (Figure 2).

A block's *dead time* is the interval between the last access to the
block (its last touch) and its eventual eviction.  The paper reports the
cumulative distribution of dead times in cycles and shows that over 85%
exceed the memory access latency, which is why prefetching at the last
touch can hide the entire miss.  The functional simulator measures dead
times in dynamic instructions and converts to cycles with a configurable
cycles-per-instruction factor (1.0 by default, i.e. the core's nominal
throughput; any constant factor only shifts the CDF's x-axis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.config import CacheConfig, L1D_CONFIG
from repro.analysis.cdf import CumulativeDistribution
from repro.analysis.l1pass import l1_outcomes
from repro.trace.stream import TraceStream


@dataclass
class DeadTimeResult:
    """Dead-time distribution for one benchmark trace."""

    benchmark: str
    distribution: CumulativeDistribution
    cycles_per_instruction: float
    memory_latency_cycles: int

    @property
    def fraction_longer_than_memory_latency(self) -> float:
        """Fraction of dead times longer than the memory access latency.

        This is the headline number of Figure 2 (over 85% in the paper).
        """
        if len(self.distribution) == 0:
            return 0.0
        return 1.0 - self.distribution.fraction_at_or_below(self.memory_latency_cycles)

    @property
    def mean_dead_time_cycles(self) -> float:
        """Average dead time in cycles."""
        return self.distribution.mean


def measure_dead_times(
    trace: TraceStream,
    cache_config: Optional[CacheConfig] = None,
    cycles_per_instruction: float = 1.0,
    memory_latency_cycles: int = 200,
) -> DeadTimeResult:
    """Replay ``trace`` through an L1D and collect the dead time of every eviction."""
    if cycles_per_instruction <= 0:
        raise ValueError("cycles_per_instruction must be positive")
    config = cache_config or L1D_CONFIG
    columns = trace.as_arrays()
    last_touch_icount: Dict[int, int] = {}
    dead_times: List[float] = []

    for address, icount, evicted in zip(columns.address, columns.icount, l1_outcomes(columns, config)):
        if evicted >= 0:
            dead_times.append(max(0, icount - last_touch_icount.pop(evicted)) * cycles_per_instruction)
        last_touch_icount[config.block_address(address)] = icount

    return DeadTimeResult(
        benchmark=trace.name,
        distribution=CumulativeDistribution(dead_times),
        cycles_per_instruction=cycles_per_instruction,
        memory_latency_cycles=memory_latency_cycles,
    )
