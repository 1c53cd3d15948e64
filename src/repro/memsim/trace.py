"""Shared-data reference traces (the Tango methodology, paper §2.2).

"These traces contain all shared data references made by the program
during execution.  For each reference, the time, address, and referencing
processor are recorded."

References are recorded at *access-burst* granularity: one burst carries
all cells a processor touches in one logical operation (a segment
evaluation's read rectangle, a path commit's write set) at one virtual
time.  The coherence simulator only needs the per-line access order
between processors, which this representation preserves while keeping
traces compact enough to hold millions of references in memory.

A :class:`ReferenceTrace` stores bursts as **columns** — parallel lists of
times, processors and write flags plus the list of cell arrays — because
the collector appends tens of thousands of bursts per run and the
columnar replay (:mod:`repro.memsim.columnar`) wants arrays, not objects.
:class:`TraceRecord` is the per-burst *view* of those columns, built on
demand for the scalar oracles and tests.  A trace lives only in memory:
its one producer, :class:`~repro.memsim.tango.TangoCollector`, holds the
whole trace, and nothing writes one to disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, NamedTuple

import numpy as np

from ..errors import CoherenceError

__all__ = ["TraceRecord", "TraceColumns", "ReferenceTrace"]


@dataclass(frozen=True)
class TraceRecord:
    """One access burst: (time, processor, read/write, flat cell indices)."""

    time: float
    proc: int
    is_write: bool
    flat_cells: np.ndarray

    @property
    def n_refs(self) -> int:
        """Number of individual cell references in the burst."""
        return int(self.flat_cells.size)


class TraceColumns(NamedTuple):
    """A whole trace flattened into arrays, in global replay order.

    Burst ``i`` owns ``cells[offsets[i]:offsets[i + 1]]``.
    """

    times: np.ndarray  #: float64, per burst
    procs: np.ndarray  #: int32, per burst
    writes: np.ndarray  #: bool, per burst
    offsets: np.ndarray  #: int64, per burst + 1
    cells: np.ndarray  #: int64, concatenated burst cells


class ReferenceTrace:
    """An append-only trace of access bursts.

    Bursts may be appended out of global time order (each virtual
    processor appends in its own time order); :meth:`columns` and
    :meth:`sorted_records` produce the interleaved global order the
    coherence simulators consume, breaking time ties by append sequence
    for determinism.
    """

    def __init__(self, records: Iterable[TraceRecord] = ()) -> None:
        self._times: List[float] = []
        self._procs: List[int] = []
        self._writes: List[bool] = []
        self._bursts: List[np.ndarray] = []
        self._n_refs = 0
        for r in records:
            self.add(r.time, r.proc, r.is_write, r.flat_cells)

    def add(self, time: float, proc: int, is_write: bool, flat_cells: np.ndarray) -> None:
        """Append one burst (empty bursts are dropped)."""
        if not time >= 0:
            raise CoherenceError(f"negative trace time {time}")
        size = flat_cells.size
        if size == 0:
            return
        self._times.append(time)
        self._procs.append(proc)
        self._writes.append(is_write)
        self._bursts.append(flat_cells)
        self._n_refs += size

    @property
    def n_records(self) -> int:
        """Number of bursts."""
        return len(self._times)

    @property
    def n_references(self) -> int:
        """Total individual cell references (a running count)."""
        return self._n_refs

    def _record(self, i: int) -> TraceRecord:
        return TraceRecord(
            self._times[i],
            self._procs[i],
            self._writes[i],
            np.asarray(self._bursts[i], dtype=np.int64),
        )

    @property
    def records(self) -> List[TraceRecord]:
        """The bursts in append order, as freshly built records."""
        return [self._record(i) for i in range(len(self._times))]

    def _sorted(self):
        """``(times, order)``: the time column, and the append indices in
        global ``(time, append sequence)`` order."""
        times = np.array(self._times, dtype=np.float64)
        return times, np.argsort(times, kind="stable")

    def sorted_records(self) -> Iterator[TraceRecord]:
        """Records in global ``(time, append sequence)`` order."""
        for i in self._sorted()[1].tolist():
            yield self._record(i)

    def columns(self) -> TraceColumns:
        """The whole trace as arrays in global replay order.

        One stable ``argsort`` of the times, then NumPy's own walks over
        the burst list; no per-burst objects.
        """
        times, order = self._sorted()
        bursts = [self._bursts[i] for i in order.tolist()]
        offsets = np.zeros(len(bursts) + 1, dtype=np.int64)
        np.cumsum(np.array([b.size for b in bursts], dtype=np.int64), out=offsets[1:])
        cells = np.concatenate(bursts) if bursts else np.empty(0)
        return TraceColumns(
            times=times[order],
            procs=np.array(self._procs, dtype=np.int32)[order],
            writes=np.array(self._writes, dtype=bool)[order],
            offsets=offsets,
            cells=cells.astype(np.int64, copy=False),
        )
