"""Columnar (vectorised) replay of coherence traces.

:func:`~repro.memsim.coherence.simulate_trace` walks the trace one access
burst at a time — a Python-level loop whose per-record overhead dominates
the Table 3 cache-line sweep, which replays the *same* trace once per line
size.  This module computes the identical statistics with no per-record
loop at all, from one sort, gathers and per-epoch bit masks:

1. the burst trace is flattened **once** into parallel arrays — the
   concatenated cell stream plus per-record ``(proc, is_write)`` columns
   in global ``(time, append sequence)`` order (:class:`ColumnarTrace`,
   built from :meth:`ReferenceTrace.columns
   <repro.memsim.trace.ReferenceTrace.columns>` with no per-burst objects);
2. each replay maps cells to cache lines for its line size and dedupes to
   one *event* per ``(record, line)`` pair — exactly the burst-level
   deduplication the scalar engines perform via
   :meth:`~repro.memsim.addressing.AddressMap.cells_to_lines` — grouped by
   line in record order (:func:`_line_events`, the one event-extraction
   step every replay here shares — at Tango's per-reference granularity
   too, through :meth:`ColumnarTrace.per_reference`);
3. lines evolve independently under the infinite-cache protocols, and with
   at most 63 processors the set of processors that touched a line
   between two of its writes is one machine word (:func:`_epochs`), so
   every statistic is a popcount or a comparison over those words.

The derivation mirrors the protocols' state machines exactly, so the
returned :class:`~repro.memsim.stats.CoherenceStats` is **bit-identical**
to the scalar engines' — those stay as the differential oracles
(``locusroute verify`` cross-checks them on every run, and the hypothesis
tests in ``tests/test_memsim_columnar.py`` fuzz the equivalence on random
traces).

Key order statistics.  An *epoch* is the run of a line's events from one
write, or from the line's first event, up to the line's next write; its
mask ``M`` is the OR of ``1 << proc`` over its events, ``W`` the writer's
bit (0 for a first epoch that opens with a read), ``C`` the mask of the
epoch it closes (0 if it opens the line) and ``S`` the OR of the line's
earlier masks.  For Write-Back-with-Invalidate:

- a write resets the sharer set to the writer and every read since adds
  its processor, so ``M`` *is* the sharer set at the epoch's end and each
  reader outside ``W`` misses exactly once: read misses are
  Σ popcount(M & ~W), and cold misses the part of it outside ``S``;
- a write misses iff its bit is not in ``C``, and invalidates the
  popcount(C & ~W) other copies;
- a write is silent iff the line is still dirty-by-p — the epoch it
  closes was opened by p's write and touched by p alone (``C == W`` and
  that epoch's writer is ``W``) — so the word writes are the writes less
  the silent ones, one per same-processor run that writes;
- the next processor to touch a dirty line misses and flushes it, so
  every such run costs one writeback unless it ends its line: the line's
  last epoch is a write touched by its writer alone (``M == W``).

Write-update (:meth:`ColumnarTrace.replay_write_update`) never removes a
copy: a processor misses once per line (Σ popcount(M & ~S) first touches,
of which the writes are those with ``W`` outside ``S``), and a write finds
the line shared — broadcasting one word per cell the burst wrote in it —
iff another processor touched the line first, i.e. iff the write is not
in the line's first same-processor run.
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

#: An event's one-byte code is ``proc | write << 7``.
_WRITE = np.uint8(1 << 7)
#: ``1 << proc`` for every code (``MAX_PROCS`` keeps proc below 63).
_CODE_BIT = np.left_shift(np.uint64(1), np.arange(256, dtype=np.uint64) & np.uint64(63))
_ZERO = np.uint64(0)
_M1, _M2, _M4, _H01 = (
    np.uint64(c)
    for c in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101)
)


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each element of a ``uint64`` array (SWAR, so any NumPy
    the package supports; ``np.bitwise_count`` needs 2.0)."""
    x = x - ((x >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return (x * _H01) >> np.uint64(56)


def _cells_int32(cells: np.ndarray) -> np.ndarray:
    """*cells* as the ``int32`` column every replay sorts and gathers."""
    if cells.size and int(cells.max()) >= np.iinfo(np.int32).max:
        raise CoherenceError("flat cell index overflows the int32 columns")
    return cells.astype(np.int32)


class _LineEvents(NamedTuple):
    """One event per ``(record, line)``, grouped by line, global record
    order within each group."""

    line: np.ndarray  #: cache line of each event
    code: np.ndarray  #: ``proc | write << 7`` of the event's record (``uint8``)
    new_line: np.ndarray  #: does the event open its line's group?
    n_cells: Optional[np.ndarray]  #: stream cells folded into the event

    @property
    def write(self) -> np.ndarray:
        return self.code >= _WRITE


def _line_events(
    cells: np.ndarray,
    rec_ids: np.ndarray,
    procs: np.ndarray,
    writes: np.ndarray,
    words_per_line: int,
    count_cells: bool = False,
) -> _LineEvents:
    """Extract the line events of a non-empty flattened cell stream.

    *cells* / *rec_ids* are the per-reference ``int32`` columns, *procs*
    / *writes* the per-record ones.  ``n_cells`` (how many references each
    event stands for, repeats included) is computed only when
    *count_cells* is set.

    One sort of a packed ``line << rec_bits | record`` key puts the
    references in ``(line, record)`` order, so equal neighbours are the
    cells of one event whatever their order in the stream.  The key is
    ``uint32`` when it fits — NumPy's vectorised sort is twice as fast on
    it — and ``uint64`` otherwise.
    """
    lines = cells >> np.int32(words_per_line.bit_length() - 1)  # a power of two
    rec_bits = int(procs.size - 1).bit_length()
    key_t = np.uint32 if (int(lines.max()) + 1) << rec_bits <= 1 << 32 else np.uint64
    keys = lines.astype(key_t)
    keys <<= key_t(rec_bits)
    keys |= rec_ids.astype(key_t)
    if not count_cells:
        # A burst's cells of one line mostly sit next to each other in the
        # stream (a row run, a path segment): dropping those repeats first
        # leaves the sort an eighth as many keys at 64-byte lines.
        first = _first_of_runs(keys)
        if not first.all():
            keys = keys[first]
    keys.sort()

    first = _first_of_runs(keys)
    n_cells = None
    if count_cells:
        n_cells = np.diff(np.flatnonzero(first), append=keys.size)
    if not first.all():
        keys = keys[first]
    m = keys.size
    obs.incr("sim.coherence.columnar_events", m)

    codes = procs.astype(np.uint8)
    codes[writes] |= _WRITE
    code = np.take(codes, keys & key_t((1 << rec_bits) - 1))
    line = keys >> key_t(rec_bits)
    return _LineEvents(line, code, _first_of_runs(line), n_cells)


def _first_of_runs(keys: np.ndarray) -> np.ndarray:
    """Flags the elements that differ from their predecessor."""
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _shift_in(x: np.ndarray, opens: np.ndarray) -> np.ndarray:
    """Each element's predecessor within its segment; 0 where *opens*."""
    out = np.empty_like(x)
    out[1:] = x[:-1]
    out[opens] = 0
    return out


def _prefix_or(x: np.ndarray, opens: np.ndarray) -> np.ndarray:
    """Inclusive prefix-OR of *x* within the segments *opens* starts.

    Log-step doubling: step ``d`` ORs in the value ``d`` places back
    wherever that is still in the segment, so a segment of length ``L``
    is done after ``ceil(log2 L)`` whole-array steps.
    """
    idx = np.arange(x.size, dtype=np.int32)
    depth = np.where(opens, idx, np.int32(0))
    np.maximum.accumulate(depth, out=depth)
    np.subtract(idx, depth, out=depth)  # position within the segment
    out = x.copy()
    step, longest = 1, int(depth.max()) + 1
    while step < longest:
        np.bitwise_or(out[step:], out[:-step], out=out[step:], where=depth[step:] >= step)
        step *= 2
    return out


class _Epochs(NamedTuple):
    """A line's events cut at its writes (see the module docstring)."""

    start: np.ndarray  #: first event of the epoch
    opens: np.ndarray  #: does the epoch open its line?
    mask: np.ndarray  #: OR of ``1 << proc`` over the epoch (``M``)
    writer: np.ndarray  #: the opening write's bit, or 0 (``W``)
    closed: np.ndarray  #: mask of the epoch before on the line, or 0 (``C``)
    seen: np.ndarray  #: OR of the line's earlier masks (``S``)


def _epochs(ev: _LineEvents) -> _Epochs:
    bit = np.take(_CODE_BIT, ev.code)
    write = ev.write
    start = np.flatnonzero(ev.new_line | write)
    mask = np.bitwise_or.reduceat(bit, start)
    opens = ev.new_line[start]
    writer = np.where(write[start], bit[start], _ZERO)
    closed = _shift_in(mask, opens)
    return _Epochs(start, opens, mask, writer, closed, _prefix_or(closed, opens))


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
        ep = _epochs(self._events(address_map))
        readers = ep.mask & ~ep.writer
        wrote = ep.writer != _ZERO
        wbit = ep.writer[wrote]
        closed = ep.closed[wrote]
        others = closed & ~wbit
        # A write is silent while the line is still dirty-by-p: the epoch
        # it closes was opened by p's write and touched by p alone.
        silent = (closed == wbit) & (_shift_in(ep.writer, ep.opens)[wrote] == wbit)
        n_word_writes = wbit.size - int(np.count_nonzero(silent))
        # Every run of dirty-by-p epochs is flushed by the next processor
        # to touch the line, unless it is the line's last (M == W: its
        # writer alone touched it).
        last = np.append(ep.opens[1:], True)
        n_never_flushed = int(np.count_nonzero(last & (ep.mask == ep.writer)))

        ls = address_map.line_size
        n_read_miss = int(_popcount(readers).sum())
        n_cold = int(_popcount(readers & ~ep.seen).sum())
        stats.cold_fetch_bytes = n_cold * ls
        stats.refetch_bytes = (n_read_miss - n_cold) * ls
        stats.write_miss_fetch_bytes = int(np.count_nonzero((closed & wbit) == _ZERO)) * ls
        stats.writeback_bytes = (n_word_writes - n_never_flushed) * ls
        stats.word_write_bytes = n_word_writes * WORD_BYTES
        stats.n_invalidation_events = int(np.count_nonzero(others))
        stats.n_copies_invalidated = int(_popcount(others).sum())
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
        ep = _epochs(ev)
        new = ep.mask & ~ep.seen
        # Shared iff another processor touched the line before the write
        # (only a line's first epoch opens without one, and it sees nothing).
        shared = (ep.seen & ~ep.writer) != _ZERO

        ls = address_map.line_size
        n_first = int(_popcount(new).sum())
        n_write_first = int(np.count_nonzero(ep.writer & new))
        stats.cold_fetch_bytes = (n_first - n_write_first) * ls
        stats.write_miss_fetch_bytes = n_write_first * ls
        stats.word_write_bytes = int(ev.n_cells[ep.start[shared]].sum()) * WORD_BYTES
        return stats
