"""Columnar (vectorised) replay of coherence traces.

:func:`~repro.memsim.coherence.simulate_trace` walks the trace one access
burst at a time — a Python-level loop whose per-record overhead dominates
the Table 3 cache-line sweep, which replays the *same* trace once per line
size.  This module computes the identical statistics with no per-record
loop at all, from sorts, gathers and segmented prefix sums:

1. the burst trace is flattened **once** into parallel arrays — the
   concatenated cell stream plus per-record ``(proc, is_write)`` columns
   in global ``(time, append sequence)`` order (:class:`ColumnarTrace`,
   built from :meth:`ReferenceTrace.columns
   <repro.memsim.trace.ReferenceTrace.columns>` with no per-burst objects);
2. each replay maps cells to cache lines for its line size and dedupes to
   one *event* per ``(record, line)`` pair — exactly the burst-level
   deduplication the scalar engines perform via
   :meth:`~repro.memsim.addressing.AddressMap.cells_to_lines` — grouped by
   line, with each event's predecessor by the same ``(line, proc)``
   (:func:`_line_events`, the one event-extraction step every replay
   here shares — at Tango's per-reference granularity too, through
   :meth:`ColumnarTrace.per_reference`);
3. lines evolve independently under the infinite-cache protocols, so
   every per-event outcome is derived from order statistics over the
   line's group: the position of the previous write, run-length-encoded
   same-processor runs (is the line still exclusive-dirty?), the
   previous access by the same ``(line, proc)`` (miss / cold / refetch
   classification), and segmented prefix sums of read misses (how many
   sharers does a word write invalidate?).

The derivation mirrors the protocols' state machines exactly, so the
returned :class:`~repro.memsim.stats.CoherenceStats` is **bit-identical**
to the scalar engines' — those stay as the differential oracles
(``locusroute verify`` cross-checks them on every run, and the hypothesis
tests in ``tests/test_memsim_columnar.py`` fuzz the equivalence on random
traces).

Key order statistics for Write-Back-with-Invalidate (per line group,
events indexed ``0..k-1`` in global order; ``j`` is the position of the
last write strictly before event ``i``, or −1):

- ``p ∈ sharers`` before ``i``  ⟺  p's previous event on the line is at
  position ≥ max(j, 0) — a write resets the sharer set to the writer,
  and every read since (each necessarily a miss on first touch) re-adds
  its processor;
- the line is *dirty* before ``i``  ⟺  ``j ≥ 0`` and events ``j..i-1``
  form one same-processor run (the first foreign access after a write is
  always a miss, and every miss on a dirty line flushes it);
- ``|sharers|`` before ``i`` = ``1 + (read misses in (j, i))`` when
  ``j ≥ 0``, else the number of read misses since the group start.

Write-update (:meth:`ColumnarTrace.replay_write_update`) never removes a
copy, so it needs only two:

- event ``i`` *misses*  ⟺  it is its processor's first touch of the line;
- the line is *shared* at a write  ⟺  the number of first touches
  strictly before ``i`` in the group, minus one if the writer's own is
  among them, is positive; the write then broadcasts one word per cell
  the burst wrote in that line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ..errors import CoherenceError
from ..obs import telemetry as obs
from .addressing import WORD_BYTES, AddressMap
from .coherence import WriteBackInvalidate
from .stats import CoherenceStats
from .trace import ReferenceTrace

__all__ = ["ColumnarTrace"]

MAX_PROCS = WriteBackInvalidate.MAX_PROCS


def _cells_int32(cells: np.ndarray) -> np.ndarray:
    """*cells* as the ``int32`` column every replay sorts and gathers."""
    if cells.size and int(cells.max()) >= np.iinfo(np.int32).max:
        raise CoherenceError("flat cell index overflows the int32 columns")
    return cells.astype(np.int32)


class _LineEvents(NamedTuple):
    """One event per ``(record, line)``, grouped by line, global record
    order within each group; all index columns ``int32``."""

    line: np.ndarray  #: cache line of each event
    proc: np.ndarray  #: referencing processor
    write: np.ndarray  #: read/write flag
    new_line: np.ndarray  #: does the event open its line's group?
    seg_start: np.ndarray  #: index of the first event of the group
    prev_lp: np.ndarray  #: previous event by the same (line, proc), or -1
    n_cells: Optional[np.ndarray]  #: stream cells folded into the event


def _line_events(
    cells: np.ndarray,
    rec_ids: np.ndarray,
    procs: np.ndarray,
    writes: np.ndarray,
    words_per_line: int,
    count_cells: bool = False,
) -> _LineEvents:
    """Extract the line events of a non-empty flattened cell stream.

    *cells* / *rec_ids* are the per-reference ``int32`` columns
    (``rec_ids`` non-decreasing), *procs* / *writes* the per-record ones.
    ``n_cells`` (how many references each event stands for, repeats
    included) is computed only when *count_cells* is set.

    De-duplication runs twice.  A burst's cells that share a line mostly
    sit next to each other in the stream (a row run, a path segment), so
    a neighbour comparison *before* the sort drops them and the sort sees
    events rather than references — a third fewer keys at 8-byte lines,
    an eighth as many at 64.  That pass assumes nothing: cells of one
    line that are *not* adjacent (an unsorted or repeating burst) survive
    it and fall to the exact ``(line, record)`` mask after the sort.
    """
    lines = cells if words_per_line == 1 else cells // np.int32(words_per_line)
    recs = rec_ids
    n = lines.size
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(lines[1:], lines[:-1], out=first[1:])
    first[1:] |= recs[1:] != recs[:-1]
    if count_cells:  # references per surviving cell: its run length
        run = np.diff(np.flatnonzero(first), append=n).astype(np.int32)
    if not first.all():
        lines = lines[first]
        recs = recs[first]

    # A stable sort by line alone gives (line, record) order because
    # rec_ids is non-decreasing in the stream; ties then break by stream
    # position, which is record order.  NumPy radix-sorts keys of at most
    # 16 bits in linear time, and the lines of a real grid fit.
    narrow = int(lines.max()) < (1 << 16)
    order = np.argsort(lines.astype(np.uint16) if narrow else lines, kind="stable")
    ev_line = lines[order]
    ev_rec = recs[order]
    keep = np.empty(ev_line.size, dtype=bool)
    keep[0] = True
    np.logical_or(
        ev_line[1:] != ev_line[:-1], ev_rec[1:] != ev_rec[:-1], out=keep[1:]
    )
    n_cells = run[order] if count_cells else None
    if not keep.all():
        # Skipped when the stream pass was already exact (the common
        # case): two large boolean-index copies saved.
        if count_cells:
            n_cells = np.add.reduceat(n_cells, np.flatnonzero(keep))
        ev_line = ev_line[keep]
        ev_rec = ev_rec[keep]
    ev_proc = procs[ev_rec]
    ev_write = writes[ev_rec]
    m = ev_line.size
    idx = np.arange(m, dtype=np.int32)
    obs.incr("sim.coherence.columnar_events", m)

    new_line = np.empty(m, dtype=bool)
    new_line[0] = True
    np.not_equal(ev_line[1:], ev_line[:-1], out=new_line[1:])
    seg_start = np.where(new_line, idx, np.int32(0))
    np.maximum.accumulate(seg_start, out=seg_start)

    # Previous event by the same (line, proc), or -1.  A stable sort by
    # processor alone — one byte per key, so NumPy radix-sorts it in
    # linear time — leaves each processor's events in line-group order,
    # where its touches of one line are neighbours.
    by_lp = np.argsort(ev_proc.astype(np.uint8), kind="stable")
    lp_line = ev_line[by_lp]
    lp_proc = ev_proc[by_lp]
    prev_sorted = np.empty(m, dtype=np.int32)
    prev_sorted[0] = -1
    prev_sorted[1:] = by_lp[:-1]
    same_lp = lp_line[1:] == lp_line[:-1]
    same_lp &= lp_proc[1:] == lp_proc[:-1]
    np.copyto(prev_sorted[1:], np.int32(-1), where=~same_lp)
    prev_lp = np.empty(m, dtype=np.int32)
    prev_lp[by_lp] = prev_sorted
    return _LineEvents(ev_line, ev_proc, ev_write, new_line, seg_start, prev_lp, n_cells)


def _last_write_before(ev: _LineEvents) -> np.ndarray:
    """Position of the last write strictly before each event within its
    line group (−1 if none).  A running max of write positions never
    leaks across groups: earlier groups' indices fall below the group
    start."""
    m = ev.line.size
    ff = np.where(ev.write, np.arange(m, dtype=np.int32), np.int32(-1))
    np.maximum.accumulate(ff, out=ff)
    j = np.empty(m, dtype=np.int32)
    j[0] = -1
    j[1:] = ff[:-1]
    np.copyto(j, np.int32(-1), where=j < ev.seg_start)
    return j


def _proc_runs(ev: _LineEvents):
    """``(run_start_prev, prev_proc)``: the start of the same-processor
    run (within its line group) that the previous event belongs to, and
    the previous event's processor."""
    m = ev.line.size
    run_break = ev.new_line.copy()
    run_break[1:] |= ev.proc[1:] != ev.proc[:-1]
    run_start = np.where(run_break, np.arange(m, dtype=np.int32), np.int32(0))
    np.maximum.accumulate(run_start, out=run_start)
    run_start_prev = np.empty(m, dtype=np.int32)
    run_start_prev[0] = 0
    run_start_prev[1:] = run_start[:-1]
    prev_proc = np.empty(m, dtype=np.int32)
    prev_proc[0] = -1
    prev_proc[1:] = ev.proc[:-1]
    return run_start_prev, prev_proc


def _exclusive_cumsum(flags: np.ndarray) -> np.ndarray:
    as_int = flags.astype(np.int32)
    cum = np.cumsum(as_int, dtype=np.int32)
    cum -= as_int
    return cum


@dataclass(frozen=True)
class ColumnarTrace:
    """A burst trace flattened into parallel arrays, in global order.

    Build once with :meth:`from_trace` and replay at any number of cache
    line sizes, through either protocol, with :meth:`replay` and
    :meth:`replay_write_update` — the flattening is paid a single time
    per trace, not once per line size.
    """

    #: Concatenated flat cell indices of every burst, global order.
    #: ``int32`` — a flat cell index fits easily (grid cells number in the
    #: thousands), and 4-byte columns halve the memory traffic of every
    #: sort and gather in the replays.
    cells: np.ndarray
    #: Record id (position in global order) of each cell (``int32``).
    rec_ids: np.ndarray
    #: Per-record referencing processor (``int32``).
    rec_proc: np.ndarray
    #: Per-record read/write flag.
    rec_is_write: np.ndarray
    #: Individual cell references by reads / writes (scalar-engine counts).
    n_read_refs: int
    n_write_refs: int

    @staticmethod
    def from_trace(trace: ReferenceTrace) -> "ColumnarTrace":
        """Flatten *trace* in global ``(time, append sequence)`` order."""
        cols = trace.columns()
        sizes = np.diff(cols.offsets)
        n_write_refs = int(sizes[cols.writes].sum())
        return ColumnarTrace(
            cells=_cells_int32(cols.cells),
            rec_ids=np.repeat(np.arange(sizes.size, dtype=np.int32), sizes),
            rec_proc=cols.procs,
            rec_is_write=cols.writes,
            n_read_refs=int(cols.cells.size) - n_write_refs,
            n_write_refs=n_write_refs,
        )

    def per_reference(self) -> "ColumnarTrace":
        """The same references, each its own record (Tango's granularity).

        Record order is the cell stream's, so a burst's cells become
        consecutive references in their recorded order; :meth:`replay` of
        the view is the per-reference protocol outcome.
        """
        return ColumnarTrace(
            cells=self.cells,
            rec_ids=np.arange(self.cells.size, dtype=np.int32),
            rec_proc=self.rec_proc[self.rec_ids],
            rec_is_write=self.rec_is_write[self.rec_ids],
            n_read_refs=self.n_read_refs,
            n_write_refs=self.n_write_refs,
        )

    def _begin(self, n_procs: int, address_map: AddressMap) -> CoherenceStats:
        if not (1 <= n_procs <= MAX_PROCS):
            raise CoherenceError(f"n_procs must be in [1, {MAX_PROCS}]")
        procs = self.rec_proc
        if procs.size and (int(procs.min()) < 0 or int(procs.max()) >= n_procs):
            raise CoherenceError("trace references a processor out of range")
        stats = CoherenceStats(line_size=address_map.line_size)
        stats.n_read_refs = self.n_read_refs
        stats.n_write_refs = self.n_write_refs
        return stats

    def _events(self, address_map: AddressMap, count_cells: bool = False) -> _LineEvents:
        return _line_events(
            self.cells,
            self.rec_ids,
            self.rec_proc,
            self.rec_is_write,
            address_map.words_per_line,
            count_cells,
        )

    # ------------------------------------------------------------------
    def replay(self, n_procs: int, address_map: AddressMap) -> CoherenceStats:
        """Replay through Write-Back-with-Invalidate; return traffic totals.

        Bit-identical to
        :func:`repro.memsim.coherence.simulate_trace` on the trace this
        was built from (the scalar engine is the differential oracle).
        """
        stats = self._begin(n_procs, address_map)
        if self.cells.size == 0:
            return stats
        ev = self._events(address_map)
        j = _last_write_before(ev)

        # Sharer membership: a write resets the sharer set to the writer;
        # reads since re-add their processor.  So p holds the line iff its
        # previous access is at or after the last write.
        jpos = j >= np.int32(0)
        sharers_has_p = ev.prev_lp >= np.maximum(j, np.int32(0))
        miss = ~sharers_has_p

        # Dirty-line tracking: the line written at j is still dirty at i
        # iff events j..i-1 are one run by the writer (the first foreign
        # access after a write misses and flushes).
        run_start_prev, prev_proc = _proc_runs(ev)
        dirty_alive = jpos & (run_start_prev <= j)
        dirty_by_me = dirty_alive & (ev.proc == prev_proc)

        read_miss = miss & ~ev.write
        cold = read_miss & (ev.prev_lp < 0)
        writeback = miss & dirty_alive
        word_write = ev.write & ~dirty_by_me

        # Sharer counts before each event, from segmented prefix sums of
        # read misses (each read miss adds exactly one sharer; a write
        # resets the count to one).
        cum_excl = _exclusive_cumsum(read_miss)
        base = cum_excl[np.where(jpos, j, ev.seg_start)]
        n_sharers = jpos.astype(np.int32) + cum_excl - base
        others = n_sharers - sharers_has_p.astype(np.int32)
        inval = word_write & (others > 0)

        ls = address_map.line_size
        n_cold = int(np.count_nonzero(cold))
        n_read_miss = int(np.count_nonzero(read_miss))
        stats.cold_fetch_bytes = n_cold * ls
        stats.refetch_bytes = (n_read_miss - n_cold) * ls
        stats.write_miss_fetch_bytes = int(np.count_nonzero(ev.write & miss)) * ls
        stats.writeback_bytes = int(np.count_nonzero(writeback)) * ls
        stats.word_write_bytes = int(np.count_nonzero(word_write)) * WORD_BYTES
        stats.n_invalidation_events = int(np.count_nonzero(inval))
        stats.n_copies_invalidated = int(others[inval].sum())
        return stats

    def replay_write_update(self, n_procs: int, address_map: AddressMap) -> CoherenceStats:
        """Replay through the write-update protocol; return traffic totals.

        Bit-identical to the scalar
        :class:`~repro.memsim.update_protocol.WriteUpdate` (the
        differential oracle) on the trace this was built from.
        """
        stats = self._begin(n_procs, address_map)
        if self.cells.size == 0:
            return stats
        ev = self._events(address_map, count_cells=True)
        # Copies are never dropped, so a processor misses exactly once per
        # line, and the holders before an event are the first touches so
        # far in its group.
        first_touch = ev.prev_lp < 0
        holders = _exclusive_cumsum(first_touch)
        holders -= holders[ev.seg_start]
        holders -= ~first_touch  # the writer's own copy does not make it shared
        shared_write = ev.write & (holders > 0)

        ls = address_map.line_size
        n_first = int(np.count_nonzero(first_touch))
        n_write_first = int(np.count_nonzero(first_touch & ev.write))
        stats.cold_fetch_bytes = (n_first - n_write_first) * ls
        stats.write_miss_fetch_bytes = n_write_first * ls
        stats.word_write_bytes = int(ev.n_cells[shared_write].sum()) * WORD_BYTES
        return stats
