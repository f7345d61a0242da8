"""Cumulative-distribution helpers shared by the figure-reproduction code."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


def power_of_two_buckets(max_exponent: int, start_exponent: int = 0) -> List[int]:
    """Bucket edges ``2**start_exponent .. 2**max_exponent`` (the paper's x-axes)."""
    if max_exponent < start_exponent:
        raise ValueError("max_exponent must be >= start_exponent")
    return [1 << e for e in range(start_exponent, max_exponent + 1)]


@dataclass
class CumulativeDistribution:
    """An empirical CDF over non-negative sample values."""

    samples: List[float]

    def __post_init__(self) -> None:
        self.samples = sorted(self.samples)

    def __len__(self) -> int:
        return len(self.samples)

    def fraction_at_or_below(self, threshold: float) -> float:
        """Fraction of samples ``<= threshold`` (0 when there are no samples)."""
        if not self.samples:
            return 0.0
        return bisect_right(self.samples, threshold) / len(self.samples)

    def percentile(self, fraction: float) -> float:
        """Smallest sample ``v`` with ``fraction_at_or_below(v) >= fraction``."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        n = len(self.samples)
        if not n:
            return 0.0
        # samples[k - 1] for the first count k with k / n >= fraction, compared as
        # fraction_at_or_below computes it (ceil(0.07 * 100) is 8, yet 7 / 100 >= 0.07).
        index = bisect_left([count / n for count in range(1, n + 1)], fraction)
        return self.samples[index]

    def series(self, thresholds: Sequence[float]) -> List[Tuple[float, float]]:
        """``(threshold, CDF)`` pairs, the format the figure benches print."""
        return [(t, self.fraction_at_or_below(t)) for t in thresholds]

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        return sum(self.samples) / len(self.samples) if self.samples else 0.0


def merge_distributions(distributions: Iterable[CumulativeDistribution]) -> CumulativeDistribution:
    """Pool the samples of several distributions into one."""
    pooled: List[float] = []
    for distribution in distributions:
        pooled.extend(distribution.samples)
    return CumulativeDistribution(pooled)
