"""Tests for the analysis metrics (dead time, temporal correlation, order disparity, bandwidth)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import LegacySetAssociativeCache

from repro.analysis import l1pass, temporal
from repro.analysis.bandwidth import bandwidth_breakdown
from repro.analysis.cdf import CumulativeDistribution, merge_distributions, power_of_two_buckets
from repro.analysis.deadtime import measure_dead_times
from repro.analysis.l1pass import HIT, NO_EVICTION, l1_outcomes
from repro.analysis.order_disparity import measure_order_disparity
from repro.cache.config import CacheConfig, L1D_CONFIG
from repro.core.ltcords import LTCordsPrefetcher
from repro.experiments import fig6_temporal
from repro.sim.trace_driven import TraceDrivenSimulator
from repro.trace.store import load_or_generate_trace
from repro.trace.stream import TraceColumns
from repro.workloads.base import WorkloadConfig

from conftest import looping_trace, make_trace


class TestCumulativeDistribution:
    def test_fraction_at_or_below(self):
        cdf = CumulativeDistribution([1, 2, 2, 5, 10])
        assert cdf.fraction_at_or_below(0) == 0.0
        assert cdf.fraction_at_or_below(2) == pytest.approx(0.6)
        assert cdf.fraction_at_or_below(10) == 1.0

    def test_percentile_and_mean(self):
        cdf = CumulativeDistribution([4, 1, 3, 2])
        assert cdf.percentile(0.5) == 2
        assert cdf.mean == pytest.approx(2.5)
        # The smallest sample whose CDF reaches the fraction: 9's CDF is 0.9.
        assert CumulativeDistribution(range(1, 11)).percentile(0.98) == 10
        assert CumulativeDistribution([1, 2, 3]).percentile(0.5) == 2
        # 0.07 * 100 is 7.000000000000001 in floats, yet 7 / 100 >= 0.07.
        assert CumulativeDistribution(range(1, 101)).percentile(0.07) == 7
        assert CumulativeDistribution([5, 6]).percentile(0.0) == 5
        assert CumulativeDistribution([5, 6]).percentile(1.0) == 6

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(st.integers(0, 50), min_size=1, max_size=60),
        fraction=st.floats(0.0, 1.0),
    )
    def test_percentile_is_the_smallest_sample_reaching_the_fraction(self, samples, fraction):
        cdf = CumulativeDistribution(samples)
        value = cdf.percentile(fraction)
        assert value in samples
        assert cdf.fraction_at_or_below(value) >= fraction
        assert all(cdf.fraction_at_or_below(s) < fraction for s in samples if s < value)

    def test_empty_distribution(self):
        cdf = CumulativeDistribution([])
        assert cdf.fraction_at_or_below(10) == 0.0
        assert cdf.mean == 0.0

    def test_series_and_buckets(self):
        cdf = CumulativeDistribution([1, 2, 4, 8])
        series = cdf.series(power_of_two_buckets(3))
        assert series[0] == (1, 0.25)
        assert series[-1] == (8, 1.0)

    def test_merge(self):
        merged = merge_distributions([CumulativeDistribution([1]), CumulativeDistribution([3])])
        assert len(merged) == 2

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            CumulativeDistribution([1]).percentile(1.5)


#: Geometries of the differential below, four sets each: the two-way body
#: the L1D takes and the n-way one.
_L1_GEOMETRIES = [CacheConfig("l1-2way", 512, 64, 2), CacheConfig("l1-4way", 1024, 64, 4)]
_TOP = (1 << 63) - 1


class TestL1Outcomes:
    """The shared L1 pass against the oracle's object-per-block cache."""

    @staticmethod
    def _oracle_outcomes(columns, config):
        cache = LegacySetAssociativeCache(config)
        outcomes = []
        for address, is_write in zip(columns.address, columns.is_write):
            result = cache.access(address, bool(is_write))
            if result.hit:
                outcomes.append(HIT)
            else:
                evicted = result.evicted_address
                outcomes.append(NO_EVICTION if evicted is None else evicted)
        return outcomes

    @settings(max_examples=60, deadline=None)
    @given(
        geometry=st.sampled_from(_L1_GEOMETRIES),
        # 64 blocks (16 per set) at the bottom or the top of the address domain.
        base=st.sampled_from([0, _TOP + 1 - 64 * 64]),
        accesses=st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 63), st.booleans()), max_size=300
        ),
    )
    def test_matches_the_oracle(self, geometry, base, accesses):
        columns = TraceColumns(
            [0] * len(accesses),
            [base + 64 * block + offset for block, offset, _ in accesses],
            [int(is_write) for _, _, is_write in accesses],
            list(range(len(accesses))),
        )
        assert l1_outcomes(columns, geometry) == self._oracle_outcomes(columns, geometry)

    @pytest.mark.parametrize("geometry", _L1_GEOMETRIES, ids=lambda c: c.name)
    def test_empty_and_one_access_traces(self, geometry):
        assert l1_outcomes(make_trace([]).as_arrays(), geometry) == []
        assert l1_outcomes(make_trace([_TOP]).as_arrays(), geometry) == [NO_EVICTION]


class TestDeadTime:
    def test_repetitive_loop_has_long_dead_times(self):
        # Footprint exceeds the L1, so blocks die long before eviction.
        trace = looping_trace(num_blocks=4096, iterations=2)
        result = measure_dead_times(trace, memory_latency_cycles=200)
        assert len(result.distribution) > 0
        assert result.fraction_longer_than_memory_latency > 0.5

    def test_no_evictions_no_samples(self):
        trace = make_trace([0x1000, 0x1040, 0x1080])
        result = measure_dead_times(trace)
        assert len(result.distribution) == 0
        assert result.fraction_longer_than_memory_latency == 0.0

    def test_invalid_cpi_rejected(self):
        with pytest.raises(ValueError):
            measure_dead_times(make_trace([0]), cycles_per_instruction=0)


class TestTemporalCorrelation:
    def test_repetitive_misses_highly_correlated(self):
        trace = looping_trace(num_blocks=3000, iterations=4)
        result, _ = temporal.measure_figure6(trace)
        assert result.perfect_correlation_fraction > 0.5
        assert result.uncorrelated_fraction < 0.5

    def test_random_misses_uncorrelated(self):
        import random
        rng = random.Random(3)
        trace = make_trace([rng.randrange(1 << 24) * 64 for _ in range(6000)])
        result, _ = temporal.measure_figure6(trace)
        assert result.perfect_correlation_fraction < 0.2

    def test_figure6_replays_each_benchmark_once(self, monkeypatch):
        calls = []

        def counting(columns, config):
            calls.append(len(columns))
            return l1pass.l1_outcomes(columns, config)

        monkeypatch.setattr(temporal, "l1_outcomes", counting)
        rows = fig6_temporal.run(benchmarks=["mcf", "gzip"], num_accesses=3000)
        assert len(rows) == 2
        assert calls == [3000, 3000]

    def test_sequence_lengths_grow_with_repetition(self):
        trace = looping_trace(num_blocks=3000, iterations=4)
        _, sequences = temporal.measure_figure6(trace)
        assert sequences.longest_sequence > 100

    @staticmethod
    def _oracle_figure6(trace, config, max_distance=16):
        """Figure 6 by the record-view loops: (|distances|, uncorrelated, perfect, run lengths)."""
        cache = LegacySetAssociativeCache(config)
        misses = []
        for access in trace:
            result = cache.access(access.address, access.is_write)
            if result.miss:
                evicted = -1 if result.evicted_address is None else result.evicted_address
                misses.append((access.pc, result.block_address, evicted))
        previous, last_seen = [], {}
        for index, label in enumerate(misses):
            previous.append(last_seen.get(label))
            last_seen[label] = index
        distances, uncorrelated, perfect, lengths, run = [], 0, 0, [], 0
        for prev_a, prev_b in zip(previous, previous[1:]):
            if prev_a is None or prev_b is None:
                uncorrelated += 1
            else:
                distances.append(abs(prev_b - prev_a))
                perfect += prev_b - prev_a == 1
            if prev_a is not None and prev_b is not None and abs(prev_b - prev_a) <= max_distance:
                run += 1
            elif run:
                lengths.append(run)
                run = 0
        if run:
            lengths.append(run)
        return sorted(distances), uncorrelated, perfect, lengths

    def _assert_matches_oracle(self, trace, config, max_distance=16):
        correlation, sequences = temporal.measure_figure6(trace, config, max_distance)
        distances, uncorrelated, perfect, lengths = self._oracle_figure6(trace, config, max_distance)
        assert correlation.distances.samples == distances
        assert correlation.uncorrelated_misses == uncorrelated
        assert correlation.perfectly_correlated_misses == perfect
        assert correlation.num_misses == uncorrelated + len(distances)
        assert sequences.lengths == lengths

    @settings(max_examples=60, deadline=None)
    @given(
        geometry=st.sampled_from(_L1_GEOMETRIES),
        # Few PCs and 32 blocks over a small L1: labels repeat, in and out of order.
        accesses=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 31)), max_size=400),
        max_distance=st.integers(0, 4),
    )
    def test_figure6_matches_the_record_view_loops(self, geometry, accesses, max_distance):
        trace = make_trace([64 * block for _, block in accesses], pcs=[4 * pc for pc, _ in accesses])
        self._assert_matches_oracle(trace, geometry, max_distance)

    def test_figure6_matches_the_record_view_loops_on_gcc(self):
        # gcc's miss pairs spread over signed distances, -1 and beyond 16 included.
        trace = load_or_generate_trace("gcc", WorkloadConfig(num_accesses=60_000, seed=42))
        self._assert_matches_oracle(trace, L1D_CONFIG)


class TestOrderDisparity:
    def test_single_stream_is_mostly_in_order(self):
        trace = looping_trace(num_blocks=3000, iterations=3)
        result = measure_order_disparity(trace)
        assert result.perfect_fraction > 0.8
        assert result.fraction_within(16) > 0.95

    def test_interleaved_streams_measured_without_error(self):
        # Two interleaved scans with different strides create local
        # last-touch/miss reordering (Section 3.2's {A1,B1,B2,A2} example).
        addresses = []
        for i in range(3000):
            addresses.append(0x100_0000 + i * 64)
            if i % 2 == 0:
                addresses.append(0x900_0000 + i * 128)
        trace = make_trace(addresses)
        result = measure_order_disparity(trace)
        # Interleaving produces real reordering: not everything is perfectly
        # ordered, but a bounded window (the paper sizes it at ~1K-2K
        # signatures) covers nearly all evictions.
        assert result.perfect_fraction < 1.0
        assert result.fraction_within(2048) > 0.9
        assert result.reorder_tolerance_for(0.98) >= 1

    def test_empty_trace(self):
        result = measure_order_disparity(make_trace([]))
        assert result.num_evictions == 0
        assert result.perfect_fraction == 0.0


class TestBandwidthBreakdown:
    def test_ltcords_run_produces_all_categories(self):
        trace = looping_trace(num_blocks=3000, iterations=3)
        result = TraceDrivenSimulator(prefetcher=LTCordsPrefetcher()).run(trace)
        breakdown = bandwidth_breakdown(result)
        assert breakdown.base_data > 0
        assert breakdown.sequence_creation > 0
        assert breakdown.sequence_fetch > 0
        assert breakdown.total == pytest.approx(
            breakdown.base_data + breakdown.incorrect_predictions
            + breakdown.sequence_creation + breakdown.sequence_fetch
        )
        assert breakdown.predictor_overhead >= 0
