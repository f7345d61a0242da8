"""Temporal correlation of cache misses (Section 5.1, Figure 6).

Following the paper, a cache miss is labelled by the tuple ``(miss PC,
miss block address, evicted block address)``.  The *temporal correlation
distance* between two consecutive misses is the distance between the
previous occurrences of the same two misses in the global miss sequence:
a distance of +1 means the pair recurred in exactly the same order, -1
means the pair recurred reversed, and larger magnitudes mean the pair was
separated by intervening misses when it last occurred.

The module also measures the lengths of maximal runs of correlated misses
(Figure 6 right): long runs are what allow LT-cords to stream long
signature sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from repro.cache.config import CacheConfig, L1D_CONFIG
from repro.analysis.cdf import CumulativeDistribution
from repro.analysis.l1pass import HIT, l1_outcomes
from repro.trace.stream import TraceStream


@dataclass
class TemporalCorrelationResult:
    """Temporal-correlation statistics for one benchmark."""

    benchmark: str
    num_misses: int
    distances: CumulativeDistribution  # absolute correlation distances
    uncorrelated_misses: int
    perfectly_correlated_misses: int

    @property
    def perfect_correlation_fraction(self) -> float:
        """Fraction of misses with correlation distance exactly +1."""
        if self.num_misses == 0:
            return 0.0
        return self.perfectly_correlated_misses / self.num_misses

    @property
    def uncorrelated_fraction(self) -> float:
        """Fraction of misses whose pair had no previous occurrence."""
        if self.num_misses == 0:
            return 0.0
        return self.uncorrelated_misses / self.num_misses

    def fraction_within(self, distance: int) -> float:
        """Fraction of all misses with |correlation distance| <= ``distance``."""
        if self.num_misses == 0:
            return 0.0
        return len(self.distances) * self.distances.fraction_at_or_below(distance) / self.num_misses


@dataclass
class SequenceLengthResult:
    """Correlated-miss sequence lengths (Figure 6 right)."""

    benchmark: str
    lengths: List[int] = field(default_factory=list)

    @property
    def distribution(self) -> CumulativeDistribution:
        """CDF of correlated misses weighted by the length of their run.

        Figure 6 (right) plots the cumulative fraction of *correlated
        misses* that belong to runs of at most a given length, so each run
        contributes ``length`` samples of value ``length``.
        """
        weighted: List[float] = []
        for length in self.lengths:
            weighted.extend([float(length)] * length)
        return CumulativeDistribution(weighted)

    @property
    def longest_sequence(self) -> int:
        """Length of the longest correlated run."""
        return max(self.lengths) if self.lengths else 0


def _correlation_distances(trace: TraceStream, config: CacheConfig) -> List[Optional[int]]:
    """Signed correlation distance of each consecutive pair of L1D misses.

    A miss is labelled ``(pc, block, evicted block or -1)``; the distance
    of a pair is the gap between the previous occurrences of its two
    labels, ``None`` when either label has not occurred before.  Both
    Figure 6 measurements derive from this one L1 replay.
    """
    columns = trace.as_arrays()
    # previous[i]: index of the nearest earlier miss labelled like miss i, or None.
    previous: List[Optional[int]] = []
    last_seen: Dict[Tuple[int, int, int], int] = {}
    for pc, address, outcome in zip(columns.pc, columns.address, l1_outcomes(columns, config)):
        if outcome != HIT:
            label = (pc, config.block_address(address), outcome)  # NO_EVICTION is the label's -1
            previous.append(last_seen.get(label))
            last_seen[label] = len(previous) - 1
    return [
        None if prev_a is None or prev_b is None else prev_b - prev_a
        for prev_a, prev_b in zip(previous, previous[1:])
    ]


def measure_figure6(
    trace: TraceStream,
    cache_config: Optional[CacheConfig] = None,
    max_distance: int = 16,
) -> Tuple[TemporalCorrelationResult, SequenceLengthResult]:
    """Both Figure 6 measurements of ``trace`` from one L1 replay.

    A correlated run is a maximal stretch of consecutive miss pairs whose
    correlation distance is within ``max_distance``.
    """
    distances = _correlation_distances(trace, cache_config or L1D_CONFIG)
    correlated = [distance for distance in distances if distance is not None]
    runs = groupby(distances, key=lambda d: d is not None and abs(d) <= max_distance)
    lengths = [sum(1 for _ in run) for in_run, run in runs if in_run]
    correlation = TemporalCorrelationResult(
        benchmark=trace.name,
        num_misses=len(distances),
        distances=CumulativeDistribution([abs(distance) for distance in correlated]),
        uncorrelated_misses=len(distances) - len(correlated),
        perfectly_correlated_misses=correlated.count(1),
    )
    return correlation, SequenceLengthResult(benchmark=trace.name, lengths=lengths)


def measure_temporal_correlation(
    trace: TraceStream,
    cache_config: Optional[CacheConfig] = None,
) -> TemporalCorrelationResult:
    """Compute the temporal correlation distance distribution for ``trace``."""
    return measure_figure6(trace, cache_config)[0]


def correlated_sequence_lengths(
    trace: TraceStream,
    cache_config: Optional[CacheConfig] = None,
    max_distance: int = 16,
) -> SequenceLengthResult:
    """Measure maximal runs of misses whose correlation distance is within ``max_distance``."""
    return measure_figure6(trace, cache_config, max_distance)[1]
