"""Process-local metrics registry: counters, gauges, and quantile histograms.

Every instrument lives in a :class:`MetricsRegistry` under a dotted name
(``cache.hits``, ``phase.replay``, ...).  The module-level
:data:`REGISTRY` is the process-local default that the simulators, the
result cache, and the trace store record into; ``Session.info()`` and
``python -m repro info --obs`` read it back, and every ``run_end`` event
carries a snapshot of it.

Design constraints, in order:

* **Cheap on the hot path.**  Instruments are plain attribute bumps —
  callers hoist the instrument object once (``_HITS = REGISTRY.counter(
  "cache.hits")``) and pay one method call per observation.  Nothing
  here allocates per simulated access; instruments are recorded at run /
  phase / point granularity only.
* **Stable handles.**  :meth:`MetricsRegistry.reset` zeroes instruments
  *in place* and never discards them, so handles hoisted at import time
  stay live across resets (the tests rely on this).
* **Process-local.**  Pool workers accumulate into their own registry;
  the campaign runner ships the numbers that matter (per-point durations
  and phase splits) back over the worker payload instead of trying to
  merge registries.

Quantiles use the linear-interpolation definition (the default of NumPy
and most stats packages): for ``n`` sorted samples the ``q``-quantile
sits at rank ``h = (n - 1) * q`` and interpolates linearly between the
neighbouring samples when ``h`` is fractional.  This makes the math
exact and unit-testable on known inputs: the p50 of ``[1, 2, 3, 4, 5]``
is ``3.0``, the p95 of ``0..100`` is ``95.0``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

#: The percentiles reported everywhere (bench, summaries, info --obs).
REPORTED_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``values`` by linear interpolation.

    ``q`` is a fraction in [0, 1].  Raises ``ValueError`` on an empty
    sequence (there is no quantile of nothing; callers that want a soft
    default should check first, as :meth:`Histogram.percentiles` does).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q!r}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("cannot take a quantile of an empty sequence")
    h = (len(ordered) - 1) * q
    low = int(h)
    frac = h - low
    if frac == 0.0:
        return float(ordered[low])
    return float(ordered[low]) + (float(ordered[low + 1]) - float(ordered[low])) * frac


def percentiles(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """The standard p50/p95/p99 dict for ``values`` (``None``s when empty)."""
    if not values:
        return {label: None for label, _ in REPORTED_QUANTILES}
    ordered = sorted(values)
    return {label: quantile(ordered, q) for label, q in REPORTED_QUANTILES}


class Counter:
    """A monotonically increasing count (resettable to zero)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the count."""
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """A sample set with count/sum/min/max and p50/p95/p99 quantiles.

    Samples are kept exactly (one float each); instruments here record at
    run/phase/point granularity, so even a large campaign stores a few
    thousand floats per histogram.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[float] = []

    def record(self, value: float) -> None:
        """Add one sample."""
        self.values.append(value)

    def record_many(self, values: Iterable[float]) -> None:
        """Add several samples at once."""
        self.values.extend(values)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile of the recorded samples (see :func:`quantile`)."""
        return quantile(self.values, q)

    def percentiles(self) -> Dict[str, Optional[float]]:
        """The p50/p95/p99 dict (``None``s when no samples were recorded)."""
        return percentiles(self.values)

    def summary(self) -> Dict[str, Any]:
        """JSON-safe roll-up: count, total, min/max/mean, percentiles."""
        out: Dict[str, Any] = {"count": self.count, "total": self.total}
        if self.values:
            out["min"] = min(self.values)
            out["max"] = max(self.values)
            out["mean"] = self.total / self.count
        out.update(self.percentiles())
        return out

    def reset(self) -> None:
        self.values.clear()


class MetricsRegistry:
    """Named instruments, created on first use and stable thereafter."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def counter_values(self) -> Dict[str, int]:
        """Every counter's current value, by name."""
        return {name: counter.value for name, counter in self._counters.items()}

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every instrument (counters, gauges, histograms)."""
        return {
            "counters": dict(sorted(self.counter_values().items())),
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
        }

    def hit_rate(self, hits_name: str, misses_name: str) -> Optional[float]:
        """``hits / (hits + misses)`` for two counters, ``None`` when untouched."""
        hits = self.counter(hits_name).value
        misses = self.counter(misses_name).value
        total = hits + misses
        return hits / total if total else None

    def reset(self) -> None:
        """Zero every instrument *in place* (hoisted handles stay valid)."""
        for counter in self._counters.values():
            counter.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        for histogram in self._histograms.values():
            histogram.reset()


#: The process-local default registry everything in-tree records into.
REGISTRY = MetricsRegistry()
