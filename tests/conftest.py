"""Shared fixtures and trace builders for the test suite."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, List

import pytest

from repro.cache.config import CacheConfig


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
