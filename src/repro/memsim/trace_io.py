"""Reference-trace file I/O.

Tango-era memory traces were files consumed by downstream cache
simulators (dinero and friends).  This module gives the in-memory
:class:`~repro.memsim.trace.ReferenceTrace` the same workflow:

- :func:`save_trace_stream` / :func:`load_trace_stream` /
  :func:`open_trace_stream` / :func:`iter_trace_chunks` — the one on-disk
  format, a flat binary container laid out for *streaming*: records are
  pre-sorted into global replay order at save time and each column lives
  at a fixed file offset, so a reader seeks and loads any record-aligned
  window without materializing the rest.  :func:`iter_trace_chunks` also
  accepts an in-memory :class:`~repro.memsim.trace.ReferenceTrace`,
  chunking it the same way, so replay code is source-agnostic;
- :func:`export_dinero` — a classic three-column text trace (``label
  address`` per reference, label 0 = read, 1 = write), one line per
  *individual* cell reference, for feeding external cache simulators.

The stream round trip preserves burst structure exactly (the coherence
simulators depend on burst-level deduplication); the dinero export
flattens bursts into per-reference records and is one-way.  Chunk
boundaries always fall on record boundaries — the coherence engines
deduplicate lines *within* a record, so splitting one would change
results — and chunking is invisible in the replayed statistics (the
hypothesis tests fuzz this with random chunk sizes).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from ..errors import CoherenceError
from .addressing import WORD_BYTES
from .trace import ReferenceTrace

__all__ = [
    "TraceChunk",
    "export_dinero",
    "iter_trace_chunks",
    "load_trace_stream",
    "open_trace_stream",
    "save_trace_stream",
]

PathLike = Union[str, Path]

#: Stream container magic ("LocusRoute Trace Stream").
STREAM_MAGIC = b"LRTS"
_STREAM_VERSION = 1
_STREAM_HEADER_BYTES = 4 + 4 + 8 + 8  # magic, version, n_records, n_refs

#: Default chunk budget: individual cell references per yielded chunk.
#: ~256k references keeps the working set a few MB regardless of trace
#: length while amortizing per-chunk numpy overhead.
DEFAULT_CHUNK_REFS = 1 << 18

#: Record-table probe window for the file reader (records per seek).
_PROBE_RECORDS = 1 << 16


@dataclass(frozen=True)
class TraceChunk:
    """A record-aligned slice of a trace, in global replay order.

    ``offsets`` are chunk-local burst offsets (``offsets[0] == 0``;
    burst ``i`` owns ``cells[offsets[i]:offsets[i + 1]]``), so a chunk
    is self-contained: replaying the sequence of chunks visits exactly
    the records of the whole trace, in the same order, with the same
    burst structure.
    """

    times: np.ndarray  #: float64, per record
    procs: np.ndarray  #: int32, per record
    writes: np.ndarray  #: bool, per record
    offsets: np.ndarray  #: int64, per record + 1 (chunk-local)
    cells: np.ndarray  #: int64, concatenated burst cells

    @property
    def n_records(self) -> int:
        return int(self.procs.size)

    @property
    def n_references(self) -> int:
        return int(self.cells.size)


def save_trace_stream(trace: ReferenceTrace, path: PathLike) -> int:
    """Write *trace* as a flat streaming container; returns bytes written.

    Records are stored in global ``(time, append sequence)`` replay
    order — the sort is paid once here so readers can consume the file
    strictly sequentially.  Layout (all little-endian, after a 24-byte
    header)::

        times    float64[n]
        procs    int32[n]
        writes   uint8[n]
        offsets  int64[n + 1]   cumulative reference counts
        cells    int64[offsets[n]]
    """
    cols = trace.columns()
    n = cols.procs.size
    with open(Path(path), "wb") as fh:
        fh.write(STREAM_MAGIC)
        fh.write(np.uint32(_STREAM_VERSION).tobytes())
        fh.write(np.int64(n).tobytes())
        fh.write(np.int64(cols.cells.size).tobytes())
        fh.write(cols.times.astype("<f8").tobytes())
        fh.write(cols.procs.astype("<i4").tobytes())
        fh.write(cols.writes.astype(np.uint8).tobytes())
        fh.write(cols.offsets.astype("<i8").tobytes())
        fh.write(cols.cells.astype("<i8").tobytes())
        return fh.tell()


def open_trace_stream(
    path: PathLike, *, chunk_refs: int = DEFAULT_CHUNK_REFS
) -> Iterator[TraceChunk]:
    """Stream a :func:`save_trace_stream` file as :class:`TraceChunk`\\ s.

    Peak memory is bounded by ``chunk_refs`` (plus a fixed record-table
    probe window), independent of the trace length: each column is read
    by seeking to its offset window, never whole.
    """
    if chunk_refs < 1:
        raise CoherenceError("chunk_refs must be positive")
    with open(Path(path), "rb") as fh:
        magic = fh.read(4)
        if magic != STREAM_MAGIC:
            raise CoherenceError(f"not a trace stream (bad magic {magic!r})")
        version = int(np.frombuffer(fh.read(4), dtype="<u4")[0])
        if version != _STREAM_VERSION:
            raise CoherenceError(f"unsupported trace stream version {version}")
        n, n_refs = (int(v) for v in np.frombuffer(fh.read(16), dtype="<i8"))
        times_base = _STREAM_HEADER_BYTES
        procs_base = times_base + 8 * n
        writes_base = procs_base + 4 * n
        offsets_base = writes_base + n
        cells_base = offsets_base + 8 * (n + 1)

        def read(base: int, dtype: str, itemsize: int, start: int, count: int):
            fh.seek(base + itemsize * start)
            data = np.frombuffer(fh.read(itemsize * count), dtype=dtype)
            if data.size != count:
                raise CoherenceError("truncated trace stream")
            return data

        pos = 0
        while pos < n:
            probe = min(n - pos, _PROBE_RECORDS)
            off = read(offsets_base, "<i8", 8, pos, probe + 1)
            rel = off - off[0]
            k = int(np.searchsorted(rel, chunk_refs, side="right")) - 1
            k = max(1, min(k, probe))
            chunk = TraceChunk(
                times=read(times_base, "<f8", 8, pos, k),
                procs=read(procs_base, "<i4", 4, pos, k).astype(np.int32),
                writes=read(writes_base, "u1", 1, pos, k).astype(bool),
                offsets=rel[: k + 1].astype(np.int64),
                cells=read(cells_base, "<i8", 8, int(off[0]), int(rel[k])).astype(
                    np.int64
                ),
            )
            if int(off[0]) + chunk.n_references > n_refs:
                raise CoherenceError("trace stream offsets exceed reference count")
            yield chunk
            pos += k


def iter_trace_chunks(
    source: Union[ReferenceTrace, PathLike],
    *,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
) -> Iterator[TraceChunk]:
    """Record-aligned chunks of *source*, in global replay order.

    *source* is either an in-memory
    :class:`~repro.memsim.trace.ReferenceTrace` or the path of a
    :func:`save_trace_stream` file.  Both produce the same chunk
    semantics; replayed statistics do not depend on chunk boundaries.
    """
    if not isinstance(source, ReferenceTrace):
        yield from open_trace_stream(source, chunk_refs=chunk_refs)
        return
    if chunk_refs < 1:
        raise CoherenceError("chunk_refs must be positive")
    cols = source.columns()
    n = cols.procs.size
    pos = 0
    while pos < n:
        # The chunk closes with the first burst that fills it.
        target = cols.offsets[pos] + chunk_refs
        end = min(n, int(np.searchsorted(cols.offsets, target, side="left")))
        lo, hi = cols.offsets[pos], cols.offsets[end]
        yield TraceChunk(
            times=cols.times[pos:end],
            procs=cols.procs[pos:end],
            writes=cols.writes[pos:end],
            offsets=cols.offsets[pos : end + 1] - lo,
            cells=cols.cells[lo:hi],
        )
        pos = end


def load_trace_stream(path: PathLike) -> ReferenceTrace:
    """Read a :func:`save_trace_stream` file back into memory.

    Records come back in global replay order (the container's order),
    which leaves every replay result identical; the original append
    order is not preserved.
    """
    trace = ReferenceTrace()
    for chunk in open_trace_stream(path):
        for i in range(chunk.n_records):
            trace.add(
                float(chunk.times[i]),
                int(chunk.procs[i]),
                bool(chunk.writes[i]),
                chunk.cells[chunk.offsets[i] : chunk.offsets[i + 1]].copy(),
            )
    return trace


def export_dinero(trace: ReferenceTrace, path: PathLike) -> int:
    """Write a dinero-style ``label address`` text trace; returns the
    number of reference lines written.

    References appear in global time order; byte addresses are the cell's
    word address (4 bytes per cost-array entry).
    """
    n = 0
    with open(Path(path), "w") as handle:
        for record in trace.sorted_records():
            label = 1 if record.is_write else 0
            for cell in record.flat_cells:
                handle.write(f"{label} {int(cell) * WORD_BYTES:x}\n")
                n += 1
    return n
