"""Shared fixtures and trace builders for the test suite."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, List

import pytest

from repro.cache.config import CacheConfig
from repro.core.signatures import SignatureConfig, fold_hash, hash_combine


def pytest_addoption(parser):
    """``--update-goldens`` rewrites the committed golden-figure JSON.

    ``pytest tests/test_goldens.py --update-goldens`` refreshes
    ``tests/goldens/`` after an intentional behaviour change; a normal
    run (and CI) fails on any drift instead.
    """
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="rewrite tests/goldens/*.json from the current simulator output",
    )
from repro.trace.record import AccessType, MemoryAccess
from repro.trace.stream import TraceStream


def make_trace(addresses: Iterable[int], pcs: Iterable[int] = None, name: str = "test") -> TraceStream:
    """Build a trace from raw addresses (one load per address, 3 instructions apart)."""
    addresses = list(addresses)
    pcs = list(pcs) if pcs is not None else [0x400000 + 4 * (i % 16) for i in range(len(addresses))]
    accesses = [
        MemoryAccess(pc=pcs[i], address=addr, access_type=AccessType.LOAD, icount=3 * i)
        for i, addr in enumerate(addresses)
    ]
    return TraceStream(accesses, name=name)


def looping_trace(num_blocks: int, iterations: int, block_size: int = 64, pc_period: int = 7,
                  base: int = 0x10000000, name: str = "loop") -> TraceStream:
    """A trace that scans ``num_blocks`` blocks ``iterations`` times (repetitive misses)."""
    accesses: List[MemoryAccess] = []
    icount = 0
    for _ in range(iterations):
        for b in range(num_blocks):
            accesses.append(
                MemoryAccess(pc=0x400000 + 4 * (b % pc_period), address=base + b * block_size, icount=icount)
            )
            icount += 3
    return TraceStream(accesses, name=name)


@pytest.fixture(autouse=True)
def _isolated_repro_cache(tmp_path, monkeypatch):
    """Keep every test hermetic: campaign results cache and trace store
    under temp dirs.

    Without this, any test that touches a campaign-backed experiment
    driver or a store-backed simulation would read/write
    ``.repro_cache/`` / ``.repro_traces/`` in the developer's working
    directory, letting one test run's on-disk state leak into the next.
    ``REPRO_JOBS=1`` keeps those tiny sweeps in-process instead of
    forking a worker pool per test; tests that exercise the pool path
    pass ``jobs=`` explicitly.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "repro_traces"))
    monkeypatch.setenv("REPRO_JOBS", "1")


@pytest.fixture
def small_l1_config() -> CacheConfig:
    """A small 2-way L1-like cache (4KB) for fast unit tests."""
    return CacheConfig(name="testL1", size_bytes=4096, block_size=64, associativity=2, hit_latency=2)


@pytest.fixture
def tiny_cache_config() -> CacheConfig:
    """A tiny 2-set cache for exhaustive behavioural tests."""
    return CacheConfig(name="tiny", size_bytes=256, block_size=64, associativity=2, hit_latency=1)


@contextmanager
def kernel_disabled():
    """Replay on the interpreted tier, as under ``REPRO_NO_VECTOR_KERNEL=1``.

    Sets the kernel loader's process-wide failure memo exactly as the
    kill switch does, and restores it afterwards.
    """
    import repro.cache.vector as vector

    saved = (vector._KERNEL, vector._KERNEL_FAILED)
    vector._KERNEL, vector._KERNEL_FAILED = None, "kill-switch"
    try:
        yield
    finally:
        vector._KERNEL, vector._KERNEL_FAILED = saved


class PerSetHistoryModel:
    """Reference model of the history table as Figure 1 draws it.

    Per L1D set, resident tag -> ``[pc trace hash, previous block]``, with
    every key built by :func:`~repro.core.signatures.hash_combine` and the
    loop :func:`~repro.core.signatures.fold_hash`.
    :class:`~repro.core.history.HistoryTable` keys one flat map by block
    address and folds 32-63-bit keys in two terms; both must produce the
    same keys and counts.
    """

    def __init__(self, cache_config, signature_config=None) -> None:
        self.cache_config = cache_config
        self.bits = (signature_config or SignatureConfig()).trace_hash_bits
        self.sets = [dict() for _ in range(cache_config.num_sets)]
        self.evictions = 0
        self.cold_evictions = 0

    def _bucket(self, address: int):
        return self.sets[self.cache_config.set_index(address)]

    def _key(self, trace_hash: int, previous: int, address: int) -> int:
        block = self.cache_config.block_address(address)
        return fold_hash(hash_combine(hash_combine(trace_hash, previous), block), self.bits)

    def observe_access(self, pc: int, address: int) -> int:
        entry = self._bucket(address).setdefault(self.cache_config.tag(address), [0, 0])
        entry[0] = hash_combine(entry[0], pc)
        return self._key(entry[0], entry[1], address)

    def peek_key(self, address: int) -> int:
        trace_hash, previous = self._bucket(address).get(self.cache_config.tag(address), (0, 0))
        return self._key(trace_hash, previous, address)

    def observe_eviction(self, evicted_address: int, replacement_address: int):
        self.evictions += 1
        entry = self._bucket(evicted_address).pop(self.cache_config.tag(evicted_address), None)
        if entry is None:
            self.cold_evictions += 1
            entry = (0, 0)
        key = self._key(entry[0], entry[1], evicted_address)
        evicted_block = self.cache_config.block_address(evicted_address)
        self._bucket(replacement_address)[self.cache_config.tag(replacement_address)] = [
            0, evicted_block,
        ]
        return key, self.cache_config.block_address(replacement_address)

    def tracked_blocks(self) -> int:
        return sum(len(bucket) for bucket in self.sets)
