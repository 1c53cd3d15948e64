"""Tango-style trace collection helpers.

Tango (paper §2.2) generates multiprocessor traces "on a uniprocessor by
spawning the specified number of processes and multiplexing their
execution ... controlled to closely model a run on a multiprocessor", and
the traces "contain all shared data references made by the program".

In this reproduction the multiplexing itself lives in
:mod:`repro.parallel.sm_sim` (the virtual-time shared memory run);
:class:`TangoCollector` is the recording side: it knows how the router's
logical operations map to shared-data reference bursts, and it feeds a
:class:`~repro.memsim.trace.ReferenceTrace`.

Reference footprints (DESIGN.md §5):

- *evaluating* a wire reads, per segment, the two pin-channel rows
  contiguously plus the interior channels at the sampled candidate
  columns (a strided pattern — see
  :meth:`~repro.route.twobend.SegmentRoute.read_cells`).  Because the
  candidate loop sweeps the same cells repeatedly, the evaluation is
  recorded as ``chunks`` sweeps spread across its time interval; foreign
  writes landing between sweeps invalidate lines the evaluation then
  refetches — the fine-grained interference that makes shared memory
  traffic grow with cache line size (Table 3);
- *committing* a route writes each path cell once (the increment), a
  *rip-up* writes each old path cell once (the decrement), and both also
  touch the wire's shared descriptor record (the stored path every
  processor can rip up under dynamic assignment);
- the *distributed loop* and barrier live in a handful of hot shared
  scalars that every wire grab reads and writes.

The auxiliary structures (wire records, scheduler scalars) sit in the
shared address space after the cost array; see :class:`SharedLayout`.

What is recorded is the operation, not its bursts: one row per
evaluation, commit, rip-up and loop grab.  A segment's read cells depend
on its pins and candidate columns only, so they are a column of the
circuit's :class:`~repro.route.wavefront.WireTables`, and the bursts are
expanded from the rows by array code when the trace is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..circuits.model import Wire
from ..errors import CoherenceError
from ..route.path import RoutePath
from ..route.wavefront import WireTables, _pointers, _ranges, wire_geometry
from .trace import BurstTable, ReferenceTrace

__all__ = ["TangoCollector", "SharedLayout"]


@dataclass(frozen=True)
class SharedLayout:
    """Word layout of LocusRoute's shared address space.

    ``[0, array_words)`` is the cost array; then ``SCHEDULER_WORDS`` hot
    scheduler scalars (distributed loop index, barrier count, quality
    accumulators); then one ``RECORD_WORDS``-word descriptor per wire
    (pins pointer, stored path pointer, cost, flags).
    """

    n_channels: int
    n_grids: int
    n_wires: int

    SCHEDULER_WORDS = 8
    RECORD_WORDS = 4

    @property
    def array_words(self) -> int:
        """Words occupied by the cost array."""
        return self.n_channels * self.n_grids

    @property
    def scheduler_base(self) -> int:
        """First word of the scheduler scalars."""
        return self.array_words

    @property
    def records_base(self) -> int:
        """First word of the wire descriptor records."""
        return self.array_words + self.SCHEDULER_WORDS

    @property
    def total_words(self) -> int:
        """Total shared words (cost array + scalars + wire records)."""
        return self.records_base + self.RECORD_WORDS * self.n_wires

    def scheduler_cells(self) -> np.ndarray:
        """Word indices of the distributed-loop / barrier scalars."""
        return np.arange(
            self.scheduler_base, self.scheduler_base + 2, dtype=np.int64
        )

    def wire_record_cells(self, wire_idx: int) -> np.ndarray:
        """Word indices of one wire's shared descriptor record."""
        base = self.records_base + self.RECORD_WORDS * wire_idx
        return np.arange(base, base + self.RECORD_WORDS, dtype=np.int64)


# Row kinds, and the bursts each expands to, in order:
_READ, _WRITE = 0, 1  # an added burst: its own cells
_COMMIT = 2  # write the path; write the wire's record
_RIPUP = 3  # read the wire's record; write the path
_GRAB = 4  # read both scheduler scalars; write the first
_EVAL = 5  # ``chunks`` sweeps of every segment's read cells
#: Whether the first burst of a row of each non-evaluation kind writes
#: (a second burst always does).
_FIRST_WRITES = np.array([False, True, True, False, False])


class _OperationTrace(ReferenceTrace):
    """The collector's trace: one row per router operation.

    Rows are ``(kind, t0, t1, proc, wire)`` in parallel lists, plus the
    cells of the rows that carry their own (an added burst, a committed
    or ripped-up path).  An evaluation row's wire is its row in the
    adopted :class:`WireTables`, numbered across every adopted table;
    a commit or rip-up row's is the wire's index in the layout.  The
    burst counts are running sums read from per-wire tables.
    """

    def __init__(self, layout: SharedLayout, chunks: int) -> None:
        super().__init__()
        self.layout, self.chunks = layout, chunks
        self._kind: List[int] = []
        self._t0: List[float] = []
        self._t1: List[float] = []
        self._proc: List[int] = []
        self._wire: List[int] = []
        self._cells: List[np.ndarray] = []
        # Every geometry table an evaluated wire reads (by identity), with
        # the adopted-wire number of its first wire; per adopted wire, the
        # bursts and references of one sweep.
        self._base_of: Dict[WireTables, int] = {}
        self._sweep_bursts: List[int] = []
        self._sweep_refs: List[int] = []
        self._last: Optional[WireTables] = None
        self._base = 0

    def _row(self, kind: int, t0: float, t1: float, proc: int, wire: int) -> None:
        if not t0 >= 0:
            raise CoherenceError(f"negative trace time {t0}")
        self._kind.append(kind)
        self._t0.append(t0)
        self._t1.append(t1)
        self._proc.append(proc)
        self._wire.append(wire)

    def add(self, time: float, proc: int, is_write: bool, flat_cells: np.ndarray) -> None:
        if not time >= 0:
            raise CoherenceError(f"negative trace time {time}")
        size = flat_cells.size
        if size == 0:
            return
        self._row(_WRITE if is_write else _READ, time, time, proc, -1)
        self._cells.append(flat_cells)
        self._n_bursts += 1
        self._n_refs += size

    def evaluation(self, t0: float, t1: float, proc: int, wire: Wire) -> None:
        tables, w = wire_geometry(wire, self.layout.n_grids)
        if tables is not self._last:
            self._adopt(tables)
        w += self._base
        self._row(_EVAL, t0, t1, proc, w)
        self._n_bursts += self.chunks * self._sweep_bursts[w]
        self._n_refs += self.chunks * self._sweep_refs[w]

    def path_row(self, kind: int, time: float, proc: int, wire_idx: int, path: RoutePath) -> None:
        self._row(kind, time, time, proc, wire_idx)
        self._cells.append(path.flat_cells)
        self._n_bursts += 2
        self._n_refs += path.flat_cells.size + SharedLayout.RECORD_WORDS

    def loop_grab(self, time: float, proc: int) -> None:
        self._row(_GRAB, time, time, proc, -1)
        self._n_bursts += 2
        self._n_refs += 3

    def _adopt(self, tables: WireTables) -> None:
        base = self._base_of.get(tables)
        if base is None:
            base = self._base_of[tables] = len(self._sweep_bursts)
            ptr, seg_ptr = tables.read_column()[1], tables.seg_ptr
            self._sweep_bursts += np.diff(seg_ptr).tolist()
            self._sweep_refs += (ptr[seg_ptr[1:]] - ptr[seg_ptr[:-1]]).tolist()
        self._last, self._base = tables, base

    def _table(self) -> BurstTable:
        """Expand every row into its bursts, as slices of one pool: the
        adopted tables' read columns, the rows' own cells, then the shared
        words from the scheduler scalars to the last wire record."""
        layout, chunks = self.layout, self.chunks
        kind = np.array(self._kind, dtype=np.int64)
        t0 = np.array(self._t0, dtype=np.float64)
        wire = np.array(self._wire, dtype=np.int64)

        # Every adopted segment's slice of the pool, and every adopted
        # wire's first segment and segment count.
        columns: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
        seg_start, seg_len, wire_seg0, wire_nseg = ([np.empty(0, dtype=np.int64)] for _ in range(4))
        at = n_segs = 0
        for tables in self._base_of:
            cells, ptr = tables.read_column()
            columns.append(cells)
            seg_start.append(ptr[:-1] + at)
            seg_len.append(np.diff(ptr))
            wire_seg0.append(tables.seg_ptr[:-1] + n_segs)
            wire_nseg.append(np.diff(tables.seg_ptr))
            at += cells.size
            n_segs += ptr.size - 1
        seg_start, seg_len, wire_seg0, wire_nseg = map(
            np.concatenate, (seg_start, seg_len, wire_seg0, wire_nseg)
        )

        owns = kind <= _RIPUP
        own_len = np.zeros(kind.size, dtype=np.int64)
        own_len[owns] = [cells.size for cells in self._cells]
        own_at = at + _pointers(own_len)[:-1]
        words_at = at + int(own_len.sum())
        words = np.arange(layout.scheduler_base, layout.total_words, dtype=np.int64)
        # Every cell is a shared word, and the run's cost array holds every
        # one of those: an int32 pool is half the bytes of the trace's
        # largest array.
        pool = np.concatenate([*columns, *self._cells, words], dtype=np.int32)

        evals = np.flatnonzero(kind == _EVAL)
        n = np.where(kind <= _WRITE, 1, 2)
        n[evals] = chunks * wire_nseg[wire[evals]]
        ptr = _pointers(n)
        times = np.repeat(t0, n)
        writes = np.zeros(int(ptr[-1]), dtype=bool)
        starts = np.empty(int(ptr[-1]), dtype=np.int64)
        counts = np.empty_like(starts)

        # Evaluation burst j of a row is sweep j // n_seg of the wire's
        # segment j % n_seg, timed exactly as t0 + span * sweep / chunks.
        # (Each step frees what the next does not read: these columns are
        # the largest the trace builds.)
        n_e = n[evals]
        pos = _ranges(ptr[evals], n_e)
        w = np.repeat(wire[evals], n_e)
        sweep, seg = np.divmod(pos - np.repeat(ptr[evals], n_e), wire_nseg[w])
        seg += wire_seg0[w]
        del w
        starts[pos] = seg_start[seg]
        counts[pos] = seg_len[seg]
        del seg
        span = np.maximum(np.array(self._t1, dtype=np.float64)[evals] - t0[evals], 0.0)
        when = np.repeat(span, n_e) * sweep
        del sweep
        when /= chunks
        when += np.repeat(t0[evals], n_e)
        times[pos] = when
        del when, pos

        # Every other row's first burst, then the second of the paired kinds.
        rows = np.flatnonzero(kind != _EVAL)
        k = kind[rows]
        own, own_n = own_at[rows], own_len[rows]
        record = words_at + layout.SCHEDULER_WORDS + layout.RECORD_WORDS * wire[rows]
        first = ptr[rows]
        starts[first] = np.choose(k, (own, own, own, record, words_at))
        counts[first] = np.choose(k, (own_n, own_n, own_n, layout.RECORD_WORDS, 2))
        writes[first] = _FIRST_WRITES[k]
        paired = k >= _COMMIT
        second, k = first[paired] + 1, k[paired] - _COMMIT
        starts[second] = np.choose(k, (record[paired], own[paired], words_at))
        counts[second] = np.choose(k, (layout.RECORD_WORDS, own_n[paired], 1))
        writes[second] = True

        return BurstTable(
            times=times,
            procs=np.repeat(np.array(self._proc, dtype=np.int32), n),
            writes=writes,
            starts=starts,
            counts=counts,
            pool=pool,
        )


class TangoCollector:
    """Records router operations, one row each, for shared-data reference bursts.

    ``chunks`` controls how many repeated sweeps of each evaluation
    footprint are recorded (see module docstring); 1 disables the
    fine-grained interference model.
    """

    def __init__(self, layout: SharedLayout, enabled: bool = True, chunks: int = 4) -> None:
        if chunks < 1:
            raise ValueError(f"chunks must be >= 1, got {chunks}")
        self.layout = layout
        self.enabled = enabled
        self.chunks = chunks
        self.trace = _OperationTrace(layout, chunks)

    def record_evaluation(self, start_time: float, end_time: float, proc: int, wire: Wire) -> None:
        """Record one evaluation of *wire* spanning ``[start_time, end_time]``.

        Each segment's read footprint is swept ``chunks`` times, at
        timestamps spread uniformly across the interval, so commits by
        other processors interleave with the evaluation exactly as under
        fine-grained multiplexing.
        """
        if self.enabled:
            self.trace.evaluation(start_time, end_time, proc, wire)

    def record_commit(self, time: float, proc: int, wire_idx: int, path: RoutePath) -> None:
        """Record committing a routed path plus its wire-record update."""
        if self.enabled:
            self.trace.path_row(_COMMIT, time, proc, wire_idx, path)

    def record_ripup(self, time: float, proc: int, wire_idx: int, path: RoutePath) -> None:
        """Record ripping up an old path (reads the record, rewrites cells)."""
        if self.enabled:
            self.trace.path_row(_RIPUP, time, proc, wire_idx, path)

    def record_loop_grab(self, time: float, proc: int) -> None:
        """Record one distributed-loop fetch (read + write of hot scalars)."""
        if self.enabled:
            self.trace.loop_grab(time, proc)
