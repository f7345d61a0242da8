"""Host-speed calibration for the benchmark's timings.

On a shared machine the same pass can take 1.5x longer a few minutes
later, because other tenants slow the host down.  Medians over one run
cannot remove a drift that outlasts the run, so every timed pass runs a
short fixed chunk of pure-Python work between its points and measures
how fast the host runs it.  The chunk does not touch the package, so a
change to the package never changes it.  A pass's time is then rescaled
to a host that runs one chunk in ``REFERENCE_CHUNK_S``: the end-to-end
timings are seconds at that reference speed.
"""

from __future__ import annotations

import random
import time

#: The chunk's time on the reference host (a 2-vCPU VM under light load).
REFERENCE_CHUNK_S = 0.025
#: Least host time between two samples taken inside a campaign.
SAMPLE_INTERVAL_S = 0.15
#: Iterations of each of the chunk's three loops.
CHUNK_ITERATIONS = 12_000

#: A shuffled permutation, larger than the L2 cache once boxed, for the chunk's memory loop.
_TABLE = list(range(1 << 16))
random.Random(1).shuffle(_TABLE)


def chunk() -> int:
    """Fixed interpreter work in the simulator's mix, about ``REFERENCE_CHUNK_S`` long.

    Three loops, each of which tracked the workloads' drift on its own,
    but none as closely as the three together: integer arithmetic, a
    small dict read and written per step, and random reads of a table
    that does not fit the cache.
    """
    x, acc = 12345, 0
    for _ in range(CHUNK_ITERATIONS):
        x = (x * 48271) % 2147483647
        acc += x & 255
    recent: dict = {}
    for i in range(CHUNK_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = (x >> 9) & 1023
        last = recent.get(key)
        if last is not None and i - last < 512:
            acc += 1
        recent[key] = i
    table, mask = _TABLE, len(_TABLE) - 1
    for _ in range(CHUNK_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        acc += table[(x >> 5) & mask]
    return acc


class HostClock:
    """Samples host speed with :func:`chunk` between a pass's points."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.chunks = 0
        self._last = time.perf_counter()

    def sample(self, chunks: int = 1) -> None:
        started = time.perf_counter()
        for _ in range(chunks):
            chunk()
        self._last = time.perf_counter()
        self.seconds += self._last - started
        self.chunks += chunks

    def sample_if_due(self) -> None:
        """Sample once if ``SAMPLE_INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= SAMPLE_INTERVAL_S:
            self.sample()

    @property
    def speed(self) -> float:
        """Host speed relative to the reference: above 1 when the host runs faster."""
        if not self.chunks:
            return 1.0
        return REFERENCE_CHUNK_S / (self.seconds / self.chunks)
