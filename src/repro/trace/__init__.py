"""Memory-reference trace infrastructure.

The paper's predictors consume a stream of committed memory references
(program counter, data address, read/write).  This package defines the
:class:`~repro.trace.record.MemoryAccess` record, helpers for building,
transforming, storing and summarising such streams, and the interleaving
utilities used by the multi-programmed experiments (Figure 11).

Streams carry two interchangeable views of the same references: the
record view (``MemoryAccess`` objects, materialised lazily) and the
compact columnar view (:class:`~repro.trace.stream.TraceColumns`,
parallel ``array`` columns via :meth:`TraceStream.as_arrays`) that the
workload generators emit directly and the replay loops iterate — see :mod:`repro.trace.stream` for the details.
"""

from repro.trace.record import MemoryAccess, AccessType
from repro.trace.stream import (
    TraceColumns,
    TraceStream,
    concat_traces,
    interleave_quantum,
    limit_trace,
    shift_addresses,
)
from repro.trace.stats import TraceStatistics, compute_trace_statistics
from repro.trace.store import (
    TRACE_FORMAT_VERSION,
    TraceStore,
    TraceStoreError,
    load_or_generate_trace,
    read_trace_file,
    write_trace_file,
)

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TraceStore",
    "TraceStoreError",
    "load_or_generate_trace",
    "read_trace_file",
    "write_trace_file",
    "AccessType",
    "MemoryAccess",
    "TraceColumns",
    "TraceStream",
    "TraceStatistics",
    "compute_trace_statistics",
    "concat_traces",
    "interleave_quantum",
    "limit_trace",
    "shift_addresses",
]
