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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..route.path import RoutePath
from ..route.twobend import SegmentRoute
from .trace import ReferenceTrace

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


class TangoCollector:
    """Records router operations as shared-data reference bursts.

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
        self.trace = ReferenceTrace()

    def record_evaluation(
        self,
        start_time: float,
        end_time: float,
        proc: int,
        segments: Iterable[SegmentRoute],
    ) -> None:
        """Record one wire evaluation spanning ``[start_time, end_time]``.

        Each segment's read footprint is swept ``chunks`` times, at
        timestamps spread uniformly across the interval, so commits by
        other processors interleave with the evaluation exactly as under
        fine-grained multiplexing.
        """
        if not self.enabled:
            return
        footprints = [s.footprint(self.layout.n_grids) for s in segments]
        if not footprints:
            return
        span = max(0.0, end_time - start_time)
        for k in range(self.chunks):
            t = start_time + span * k / self.chunks
            for cells in footprints:
                self.trace.add(t, proc, False, cells)

    def record_commit(self, time: float, proc: int, wire_idx: int, path: RoutePath) -> None:
        """Record committing a routed path plus its wire-record update."""
        if not self.enabled:
            return
        self.trace.add(time, proc, True, path.flat_cells)
        self.trace.add(time, proc, True, self.layout.wire_record_cells(wire_idx))

    def record_ripup(self, time: float, proc: int, wire_idx: int, path: RoutePath) -> None:
        """Record ripping up an old path (reads the record, rewrites cells)."""
        if not self.enabled:
            return
        self.trace.add(time, proc, False, self.layout.wire_record_cells(wire_idx))
        self.trace.add(time, proc, True, path.flat_cells)

    def record_loop_grab(self, time: float, proc: int) -> None:
        """Record one distributed-loop fetch (read + write of hot scalars)."""
        if not self.enabled:
            return
        cells = self.layout.scheduler_cells()
        self.trace.add(time, proc, False, cells)
        self.trace.add(time, proc, True, cells[:1])
