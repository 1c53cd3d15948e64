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
times, processors and write flags plus the list of cell arrays — and
every reader goes through one burst table in append order (each burst a
slice of one cell pool) and one stable sort of its times, so the
columnar replay (:mod:`repro.memsim.columnar`) gets arrays, not objects.
:class:`TraceRecord` is the per-burst *view* of that table, built on
demand for the scalar oracles and tests.  The simulator's trace is the
:class:`~repro.memsim.tango.TangoCollector`'s, which keeps one row per
router operation instead and expands the same table from them.  A trace
lives only in memory; nothing writes one to disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..errors import CoherenceError
from ..route.wavefront import _pointers, _ranges

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


class BurstTable(NamedTuple):
    """A trace's bursts in append order, each a slice of one cell pool.

    Burst ``i`` owns ``pool[starts[i]:starts[i] + counts[i]]``.
    """

    times: np.ndarray  #: float64
    procs: np.ndarray  #: int32
    writes: np.ndarray  #: bool
    starts: np.ndarray  #: int64
    counts: np.ndarray  #: int64
    pool: np.ndarray  #: int64, or int32 where every cell fits one


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
        self._n_bursts = 0
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
        self._n_bursts += 1
        self._n_refs += size

    @property
    def n_records(self) -> int:
        """Number of bursts (a running count)."""
        return self._n_bursts

    @property
    def n_references(self) -> int:
        """Total individual cell references (a running count)."""
        return self._n_refs

    def _table(self) -> BurstTable:
        """The bursts in append order; how a trace stores them is its own."""
        counts = np.array([b.size for b in self._bursts], dtype=np.int64)
        pool = np.concatenate(self._bursts) if self._bursts else np.empty(0)
        return BurstTable(
            times=np.array(self._times, dtype=np.float64),
            procs=np.array(self._procs, dtype=np.int32),
            writes=np.array(self._writes, dtype=bool),
            starts=_pointers(counts)[:-1],
            counts=counts,
            pool=pool.astype(np.int64, copy=False),
        )

    def _ordered(self) -> Tuple[BurstTable, np.ndarray]:
        """The burst table, and its rows in global ``(time, append
        sequence)`` order: the one stable sort every reader shares."""
        table = self._table()
        return table, np.argsort(table.times, kind="stable")

    @property
    def records(self) -> List[TraceRecord]:
        """The bursts in append order, as freshly built records."""
        table = self._table()
        return list(_records(table, range(table.times.size)))

    def sorted_records(self) -> Iterator[TraceRecord]:
        """Records in global ``(time, append sequence)`` order."""
        table, order = self._ordered()
        return _records(table, order.tolist())

    def bursts(self) -> BurstTable:
        """The burst table with its rows in global replay order.

        One stable ``argsort`` of the times reorders the per-burst
        columns; the pool is not copied, and no cell is gathered.
        """
        table, order = self._ordered()
        return BurstTable(
            times=table.times[order],
            procs=table.procs[order],
            writes=table.writes[order],
            starts=table.starts[order],
            counts=table.counts[order],
            pool=table.pool,
        )

    def columns(self) -> TraceColumns:
        """The whole trace as arrays in global replay order: the ordered
        bursts' slices of the pool gathered into one cell stream."""
        bursts = self.bursts()
        return TraceColumns(
            times=bursts.times,
            procs=bursts.procs,
            writes=bursts.writes,
            offsets=_pointers(bursts.counts),
            cells=bursts.pool[_ranges(bursts.starts, bursts.counts)].astype(np.int64, copy=False),
        )


def _records(table: BurstTable, rows: Sequence[int]) -> Iterator[TraceRecord]:
    """*table*'s bursts *rows* as records (cells are views of the pool)."""
    times, procs, writes = table.times.tolist(), table.procs.tolist(), table.writes.tolist()
    starts, ends = table.starts.tolist(), (table.starts + table.counts).tolist()
    pool = table.pool.astype(np.int64, copy=False)
    for i in rows:
        yield TraceRecord(times[i], procs[i], writes[i], pool[starts[i] : ends[i]])
