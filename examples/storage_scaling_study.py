#!/usr/bin/env python3
"""Storage-scaling study: why DBCP is impractical and LT-cords is not.

Reproduces the argument of Sections 2.1 and 5.4 on a scaled workload:

1. sweep the DBCP on-chip correlation table and show coverage collapsing
   at practical sizes (Figure 4),
2. sweep the LT-cords signature cache and show coverage saturating at a
   few tens of kilobytes (Figure 9),
3. print the on-chip storage LT-cords actually needs next to what an
   equally-covering DBCP table would require.

The sweeps run through the :class:`repro.Session` facade, each point a
plain :class:`repro.RunSpec` carrying its predictor configuration — so
every point is cached and a re-run of the script is near-instant.

Usage::

    python examples/storage_scaling_study.py [benchmark] [num_accesses]
"""

from __future__ import annotations

import sys
from typing import List, Optional

import repro
from repro.core.ltcords import LTCordsConfig
from repro.core.signature_cache import SignatureCacheConfig
from repro.prefetchers.dbcp import DBCPConfig, DBCPPrefetcher
from repro.sim.trace_driven import TraceDrivenSimulator
from repro.trace import load_or_generate_trace
from repro.workloads.base import WorkloadConfig


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    benchmark = args[0] if args else "mcf"
    num_accesses = int(args[1]) if len(args) > 1 else 120_000
    session = repro.Session()
    signature_bytes = DBCPConfig().signature_config.stored_bytes

    print(f"Workload: {benchmark} ({num_accesses} references)\n")

    oracle = session.run(benchmark, predictor="dbcp-unlimited", num_accesses=num_accesses)
    print(f"DBCP with unlimited on-chip storage: coverage {100 * oracle.coverage:.1f}%\n")

    print("1) DBCP coverage vs on-chip correlation-table size (Figure 4)")
    for entries in (1024, 4096, 16384, 65536):
        result = session.run(
            benchmark, predictor="dbcp",
            predictor_config=DBCPConfig(table_entries=entries),
            num_accesses=num_accesses,
        )
        size_kb = entries * signature_bytes / 1024
        relative = 100 * result.coverage / oracle.coverage if oracle.coverage else 0.0
        print(f"   table {size_kb:8.0f} KB : coverage {100 * result.coverage:5.1f}%  "
              f"({relative:5.1f}% of achievable)")

    print("\n2) LT-cords coverage vs signature-cache size (Figure 9)")
    for entries in (1024, 4096, 16384, 32768):
        config = LTCordsConfig(signature_cache_config=SignatureCacheConfig(num_entries=entries, associativity=2))
        result = session.run(
            benchmark, predictor="ltcords", predictor_config=config, num_accesses=num_accesses
        )
        print(f"   signature cache {entries:6d} entries "
              f"({config.signature_cache_config.storage_bytes(config.signature_config) / 1024:5.0f} KB on chip): "
              f"coverage {100 * result.coverage:5.1f}%")

    print("\n3) Storage comparison")
    ltcords_config = LTCordsConfig()
    print(f"   LT-cords total on-chip state : {ltcords_config.on_chip_storage_bytes() / 1024:.0f} KB "
          f"(+ {ltcords_config.storage_config.storage_bytes / (1 << 20):.0f} MB of ordinary off-chip DRAM)")
    # Replay the oracle with a concrete predictor instance to measure how
    # much correlation state it accumulated.  A compiled-kernel run keeps
    # the table in C, so this one replay takes the interpreted tier,
    # which builds the Python-side table.
    unlimited = DBCPPrefetcher(DBCPConfig.unlimited())
    trace = load_or_generate_trace(benchmark, WorkloadConfig(num_accesses=num_accesses))
    run_chunk, settle = TraceDrivenSimulator(prefetcher=unlimited).replay_chunks(trace)
    run_chunk(0, len(trace))
    settle()
    dbcp_bytes = unlimited.table_utilization_bytes()
    print(f"   Equivalent DBCP on-chip table: {dbcp_bytes / 1024:.0f} KB of correlation data for this scaled "
          f"trace alone (grows with footprint; 80-160 MB for the paper's full-size workloads)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
