"""Trace streams, columnar storage and transformations.

A :class:`TraceStream` is a named sequence of
:class:`~repro.trace.record.MemoryAccess` records plus optional metadata.
Internally a stream is backed by either

* a materialised list of :class:`MemoryAccess` objects (the classic
  representation, produced when a stream is built from records), or
* a :class:`TraceColumns` struct of parallel ``array`` columns
  (``pc`` / ``address`` / ``is_write`` / ``icount``), the compact
  representation the synthetic workload generators emit directly and the
  replay loops iterate.

Both views are always available: :meth:`TraceStream.as_arrays` returns
(and caches) the columns, while iteration / indexing / ``.accesses``
materialise :class:`MemoryAccess` objects lazily.  A multi-million-access
trace held columnar costs ~8 bytes per field per reference instead of
one Python object per reference, and the simulator's hot loop reads the
columns without constructing any record objects.

Transformations (address shifting, truncation, interleaving for
multi-programmed runs) return new streams and never mutate the records
of the source stream.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.trace.record import AccessType, MemoryAccess


class TraceColumns:
    """Parallel columns of one trace: ``pc``/``address``/``is_write``/``icount``.

    ``pc``, ``address`` and ``icount`` are signed 64-bit ``array('q')``
    columns (plain lists when a value does not fit 64 bits); ``is_write``
    is an ``array('b')`` of 0/1 flags.  Columns are position-aligned:
    element ``i`` of every column describes reference ``i``.

    Addresses are non-negative (the address domain every replay tier shares):
    the caches mark empty ways with tag ``-1``, which a negative address
    would alias, so negative addresses are rejected here, once.
    """

    __slots__ = ("pc", "address", "is_write", "icount")

    def __init__(self, pc, address, is_write, icount) -> None:
        if not (len(pc) == len(address) == len(is_write) == len(icount)):
            raise ValueError("trace columns must have equal lengths")
        if len(address) and min(address) < 0:
            index = next(i for i, value in enumerate(address) if value < 0)
            raise ValueError(
                f"trace address {index} is negative ({address[index]}); addresses must be >= 0"
            )
        self.pc = pc
        self.address = address
        self.is_write = is_write
        self.icount = icount

    def __len__(self) -> int:
        return len(self.address)

    def slice(self, index: slice) -> "TraceColumns":
        """Columns restricted to ``index`` (a ``slice`` object)."""
        return TraceColumns(
            self.pc[index], self.address[index], self.is_write[index], self.icount[index]
        )

    @classmethod
    def from_records(cls, accesses: Sequence[MemoryAccess]) -> "TraceColumns":
        """Build columns from materialised records.

        Falls back to plain-list columns when a value overflows a signed
        64-bit ``array`` element (externally supplied traces only).
        """
        try:
            pc = array("q", (a.pc for a in accesses))
            address = array("q", (a.address for a in accesses))
            icount = array("q", (a.icount for a in accesses))
        except OverflowError:
            pc = [a.pc for a in accesses]
            address = [a.address for a in accesses]
            icount = [a.icount for a in accesses]
        is_write = array("b", (1 if a.is_write else 0 for a in accesses))
        return cls(pc, address, is_write, icount)


def _records_from_columns(columns: TraceColumns) -> Iterator[MemoryAccess]:
    """Lazily construct :class:`MemoryAccess` views of columnar data.

    Column values were validated when the columns were built, so record
    construction bypasses ``MemoryAccess.__init__``'s range checks.
    """
    new = MemoryAccess.__new__
    load = AccessType.LOAD
    store = AccessType.STORE
    for pc, address, is_write, icount in zip(
        columns.pc, columns.address, columns.is_write, columns.icount
    ):
        access = new(MemoryAccess)
        access.pc = pc
        access.address = address
        access.access_type = store if is_write else load
        access.icount = icount
        yield access


class TraceStream:
    """A named sequence of memory references.

    The stream is fully materialised on construction (either as records
    or as columns) so it can be iterated multiple times — the
    trace-driven experiments replay the same trace under several
    predictor configurations.
    """

    def __init__(
        self,
        accesses: Iterable[MemoryAccess] = (),
        name: str = "trace",
        metadata: Optional[Dict[str, object]] = None,
        *,
        columns: Optional[TraceColumns] = None,
    ) -> None:
        self.name = name
        self.metadata: Dict[str, object] = dict(metadata or {})
        self._columns: Optional[TraceColumns] = columns
        self._accesses: Optional[List[MemoryAccess]] = None if columns is not None else list(accesses)

    @classmethod
    def from_columns(
        cls,
        columns: TraceColumns,
        name: str = "trace",
        metadata: Optional[Dict[str, object]] = None,
    ) -> "TraceStream":
        """Build a stream directly over columnar data (no record objects)."""
        return cls(name=name, metadata=metadata, columns=columns)

    # ------------------------------------------------------------------ views
    @property
    def accesses(self) -> List[MemoryAccess]:
        """The records as a list, materialised (and cached) on first use."""
        if self._accesses is None:
            self._accesses = list(_records_from_columns(self._columns))
        return self._accesses

    def as_arrays(self) -> TraceColumns:
        """The columnar view, built (and cached) from records on first use."""
        if self._columns is None:
            self._columns = TraceColumns.from_records(self._accesses)
        return self._columns

    def __iter__(self) -> Iterator[MemoryAccess]:
        if self._accesses is not None:
            return iter(self._accesses)
        return _records_from_columns(self._columns)

    def __len__(self) -> int:
        if self._accesses is not None:
            return len(self._accesses)
        return len(self._columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            if self._accesses is None:
                return TraceStream(
                    name=self.name, metadata=self.metadata, columns=self._columns.slice(index)
                )
            return TraceStream(self._accesses[index], name=self.name, metadata=self.metadata)
        if self._accesses is not None:
            return self._accesses[index]
        columns = self._columns
        access = MemoryAccess.__new__(MemoryAccess)
        access.pc = columns.pc[index]
        access.address = columns.address[index]
        access.access_type = AccessType.STORE if columns.is_write[index] else AccessType.LOAD
        access.icount = columns.icount[index]
        return access

    @property
    def instruction_count(self) -> int:
        """Total dynamic instruction count covered by the trace."""
        if self._accesses is not None:
            if not self._accesses:
                return 0
            return self._accesses[-1].icount + 1
        icount = self._columns.icount
        return icount[-1] + 1 if len(icount) else 0

    def map(self, fn: Callable[[MemoryAccess], MemoryAccess], name: Optional[str] = None) -> "TraceStream":
        """Return a new stream with ``fn`` applied to every access."""
        return TraceStream(
            (fn(a) for a in self),
            name=name or self.name,
            metadata=self.metadata,
        )

    def filter(self, predicate: Callable[[MemoryAccess], bool], name: Optional[str] = None) -> "TraceStream":
        """Return a new stream keeping only accesses where ``predicate`` holds."""
        return TraceStream(
            (a for a in self if predicate(a)),
            name=name or self.name,
            metadata=self.metadata,
        )

    def unique_blocks(self, block_size: int) -> int:
        """Number of distinct cache blocks touched by the trace."""
        mask = ~(block_size - 1)
        return len({a & mask for a in self.as_arrays().address})

    def __repr__(self) -> str:
        return f"TraceStream(name={self.name!r}, accesses={len(self)})"


def limit_trace(trace: TraceStream, max_accesses: int) -> TraceStream:
    """Return a prefix of ``trace`` containing at most ``max_accesses`` references."""
    if max_accesses < 0:
        raise ValueError("max_accesses must be non-negative")
    if max_accesses >= len(trace):
        return trace
    return trace[:max_accesses]


def shift_addresses(trace: TraceStream, offset: int, name: Optional[str] = None) -> TraceStream:
    """Shift every data address in ``trace`` by ``offset`` bytes.

    Used by the multi-programmed experiments (Section 5.5) to simulate
    non-overlapping physical address ranges for co-scheduled applications.
    """
    if offset < 0:
        raise ValueError("offset must be non-negative")
    shifted_name = name or f"{trace.name}+0x{offset:x}"
    columns = trace.as_arrays()
    try:
        shifted = array("q", (a + offset for a in columns.address))
    except OverflowError:
        shifted = [a + offset for a in columns.address]
    return TraceStream.from_columns(
        TraceColumns(columns.pc, shifted, columns.is_write, columns.icount),
        name=shifted_name,
        metadata=trace.metadata,
    )


def concat_traces(traces: Sequence[TraceStream], name: str = "concat") -> TraceStream:
    """Concatenate several traces, renumbering instruction counts to be monotonic.

    Each trace's icounts are shifted past the last icount of the traces
    before it; an empty trace leaves the base where it was.
    """
    runs: List[tuple] = []
    icount_base = 0
    for trace in traces:
        columns = trace.as_arrays()
        if len(columns):
            runs.append((columns, 0, len(columns), icount_base))
            icount_base += columns.icount[-1] + 1
    return TraceStream.from_columns(_columns_from_runs(runs), name=name)


def interleave_quantum(
    traces: Sequence[TraceStream],
    quanta: Sequence[int],
    max_switches: Optional[int] = None,
    name: str = "multiprogrammed",
) -> TraceStream:
    """Interleave traces in round-robin quanta of dynamic instructions.

    This mimics context switching between co-scheduled applications as in
    Section 5.5 of the paper: each application runs for ``quanta[i]``
    dynamic instructions, then the next application runs, and so on, for
    ``max_switches`` context switches (or until every trace is exhausted).

    Instruction counts in the result are renumbered globally so the
    interleaved trace remains monotonically non-decreasing in ``icount``.
    The result is columnar: each quantum is a slice of its trace's
    columns, so no per-reference record is built.
    """
    if len(traces) != len(quanta):
        raise ValueError("traces and quanta must have the same length")
    if any(q <= 0 for q in quanta):
        raise ValueError("quanta must be positive")

    columns = [trace.as_arrays() for trace in traces]
    positions = [0] * len(traces)
    # One (columns, start, end, icount delta) entry per quantum run.
    runs: List[tuple] = []
    icount_base = 0
    switches = 0
    active = [len(c) > 0 for c in columns]

    while any(active):
        if max_switches is not None and switches >= max_switches:
            break
        progressed = False
        for idx, trace_columns in enumerate(columns):
            if not active[idx]:
                continue
            if max_switches is not None and switches >= max_switches:
                break
            start = positions[idx]
            icount = trace_columns.icount
            if start >= len(icount):
                active[idx] = False
                continue
            icount_start = icount[start]
            end = _quantum_end(icount, start, icount_start + quanta[idx])
            runs.append((trace_columns, start, end, icount_base - icount_start))
            positions[idx] = end
            if end >= len(icount):
                active[idx] = False
            icount_base += max(icount[end - 1] - icount_start + 1, 1)
            switches += 1
            progressed = True
        if not progressed:
            break
    return TraceStream.from_columns(_columns_from_runs(runs), name=name)


def _quantum_end(icount, start: int, limit: int) -> int:
    """The first position from ``start`` whose icount reaches ``limit``."""
    end = bisect_left(icount, limit, start)
    if end > start and max(icount[start:end]) >= limit:
        # Out-of-order icounts defeat the bisection: scan instead.
        end = next((i for i in range(start, len(icount)) if icount[i] >= limit), len(icount))
    return end


def _columns_from_runs(runs) -> TraceColumns:
    """One trace's columns from ``(columns, start, end, icount delta)`` runs."""
    return TraceColumns(
        _gather(runs, "pc", "q"),
        _gather(runs, "address", "q"),
        _gather(runs, "is_write", "b"),
        _renumbered_icounts(runs),
    )


def _gather(runs, field: str, typecode: str):
    """Concatenate one column over the runs (buffer copies, no records)."""
    out = array(typecode)
    try:
        for columns, start, end, _ in runs:
            out.frombytes(getattr(columns, field)[start:end])
    except TypeError:  # plain-list columns hold values beyond 64 bits
        return [
            value for columns, start, end, _ in runs for value in getattr(columns, field)[start:end]
        ]
    return out


def _renumbered_icounts(runs):
    """The runs' icounts, each shifted by its run's delta."""
    try:
        out = array("q")
        for columns, start, end, delta in runs:
            out.extend(map(delta.__add__, columns.icount[start:end]))
        return out
    except OverflowError:
        return [
            value + delta
            for columns, start, end, delta in runs
            for value in columns.icount[start:end]
        ]
