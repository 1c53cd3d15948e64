"""Columnar (vectorised) replay of coherence traces, one line shard at a time.

:func:`~repro.memsim.coherence.simulate_trace` walks the trace one access
burst at a time — a Python-level loop whose per-record overhead dominates
the Table 3 cache-line sweep, which replays the *same* trace once per line
size.  This module computes the identical statistics with no per-record
loop at all, from sorts, gathers and per-epoch bit masks:

1. the burst trace is partitioned **once** (:class:`ColumnarTrace`, built
   from :meth:`ReferenceTrace.bursts
   <repro.memsim.trace.ReferenceTrace.bursts>`): the shared address space
   is cut on 64-byte boundaries into *shards* of at most
   :data:`SHARD_REFS` references, and every burst's slice of the cell pool
   is cut into *pieces*, ``(pool start, length, record)``, one per run of
   the slice inside one shard.  Only the pool, the per-burst codes and the
   pieces are kept — nothing per reference;
2. each replay expands one shard's pieces into its references, in global
   ``(time, append sequence)`` order (the invalidate replay folds a run of
   neighbouring pool cells on one line to its first cell first), maps
   them to cache lines for its line size and dedupes to one *event* per
   ``(record, line)`` pair —
   exactly the burst-level deduplication the scalar engines perform via
   :meth:`~repro.memsim.addressing.AddressMap.cells_to_lines` — grouped
   by line in record order (:func:`_line_events`, the one
   event-extraction step every replay here shares — at Tango's
   per-reference granularity too, through
   :meth:`ColumnarTrace.per_reference`); then drops the shard and sums
   its counts.  Lines larger than the 64-byte cut merge neighbouring
   shards until every shard boundary is a line boundary;
3. lines evolve independently under the infinite-cache protocols, so a
   line's events all sit in its one shard and the shards' counts add up
   to the whole trace's; and with at most 63 processors the set of
   processors that touched a line between two of its writes is one
   machine word (:func:`_epochs`), so every statistic is a popcount or a
   comparison over those words.

A replay thus holds one shard's references at a time, never the whole
expanded trace, which is what bounds a 100k-wire run's memory.

The derivation mirrors the protocols' state machines exactly, so the
returned :class:`~repro.memsim.stats.CoherenceStats` is **bit-identical**
to the scalar engines' — those stay as the differential oracles
(``locusroute verify`` cross-checks them on every run, and the hypothesis
tests in ``tests/test_memsim_columnar.py`` fuzz the equivalence on random
traces and every shard bound).

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

from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import CoherenceError
from ..obs import telemetry as obs
from ..route.wavefront import _narrowest, _pointers, _ranges
from .addressing import WORD_BYTES, AddressMap
from .coherence import WriteBackInvalidate
from .stats import CoherenceStats
from .trace import ReferenceTrace

__all__ = ["ColumnarTrace", "SHARD_REFS"]

MAX_PROCS = WriteBackInvalidate.MAX_PROCS

#: Most references a shard holds, unless one 64-byte granule alone holds
#: more.  A replay expands one shard at a time, so this bounds its memory.
SHARD_REFS = 1 << 17
#: Shards are cut on 64-byte granules of 4-byte words: ``word >> 4``.
_GRANULE_SHIFT = 4

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
    """*cells* as the ``int32`` pool every replay gathers from."""
    if cells.size and int(cells.max()) >= np.iinfo(np.int32).max:
        raise CoherenceError("flat cell index overflows the int32 columns")
    return cells.astype(np.int32, copy=False)


class _LineEvents(NamedTuple):
    """One event per ``(record, line)``, grouped by line, global record
    order within each group."""

    line: np.ndarray  #: cache line of each event, less the lowest line
    code: np.ndarray  #: ``proc | write << 7`` of the event's record (``uint8``)
    new_line: np.ndarray  #: does the event open its line's group?
    n_cells: Optional[np.ndarray]  #: stream cells folded into the event

    @property
    def write(self) -> np.ndarray:
        return self.code >= _WRITE


def _line_events(
    cells: np.ndarray,
    rec_ids: np.ndarray,
    codes: np.ndarray,
    words_per_line: int,
    count_cells: bool = False,
) -> _LineEvents:
    """Extract the line events of a non-empty cell stream.

    *cells* / *rec_ids* are per-reference ``int32`` columns, record ids
    numbered in global order; *codes* holds each record's
    ``proc | write << 7``.  ``n_cells`` (how many references each event
    stands for, repeats included) is computed only when *count_cells* is
    set.

    One sort of a packed ``line << rec_bits | record`` key puts the
    references in ``(line, record)`` order, so equal neighbours are the
    cells of one event whatever their order in the stream.  Lines count
    from the lowest one, so a shard's key is ``uint32`` when it fits —
    NumPy's vectorised sort is twice as fast on it — and ``uint64``
    otherwise.
    """
    lines = cells >> np.int32(words_per_line.bit_length() - 1)  # a power of two
    lines -= lines.min()
    rec_bits = int(codes.size - 1).bit_length()
    # Both columns are non-negative int32, so a uint32 key is a view.
    if (int(lines.max()) + 1) << rec_bits <= 1 << 32:
        key_t, keys, recs = np.uint32, lines.view(np.uint32), rec_ids.view(np.uint32)
    else:
        key_t, keys, recs = np.uint64, lines.astype(np.uint64), rec_ids.astype(np.uint64)
    keys <<= key_t(rec_bits)
    keys |= recs
    keys.sort()

    first = _first_of_runs(keys)
    n_cells = None
    if count_cells:
        n_cells = np.diff(np.flatnonzero(first), append=keys.size)
    if not first.all():
        keys = keys[first]
    obs.incr("sim.coherence.columnar_events", keys.size)

    code = np.take(codes, keys & key_t((1 << rec_bits) - 1))
    line = keys >> key_t(rec_bits)
    return _LineEvents(line, code, _first_of_runs(line), n_cells)


def _first_of_runs(keys: np.ndarray) -> np.ndarray:
    """Flags the elements that differ from their predecessor."""
    first = np.ones(keys.size, dtype=bool)
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


def _expand(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The pool positions of pieces *start* / *length*, concatenated
    (``int32``: a shard's references index an ``int32`` pool)."""
    before = np.cumsum(length) - length
    at = np.repeat((start - before).astype(np.int32), length)
    at += np.arange(at.size, dtype=np.int32)
    return at


def _cut(
    starts: np.ndarray, ends: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut the non-empty pool slices ``[starts, ends)`` wherever *values*
    (one per pool entry) changes inside them.

    Returns the pieces' starts, lengths and slices, slice by slice and in
    pool order within one: a piece per slice, and one more per cut inside
    it.
    """
    changed = np.zeros(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=changed[1:])
    rank = np.cumsum(changed, dtype=np.int32)  # the cuts at or before each entry
    lo = rank[starts]
    inner = rank[ends - 1] - lo
    del rank
    cuts = np.flatnonzero(changed).astype(np.int32)
    del changed
    n = inner + 1
    opened = _ranges(_pointers(n)[:-1] + 1, inner)  # the pieces a cut opens
    start = np.repeat(starts, n)
    start[opened] = cuts[_ranges(lo, inner)]
    length = np.repeat(ends, n)
    length[opened - 1] = start[opened]
    length -= start
    return start, length, np.repeat(np.arange(n.size, dtype=np.int32), n)


class _Pieces(NamedTuple):
    """Every burst's slice of the pool cut at the shard boundaries.

    Shard ``s`` covers granules ``[edge[s], edge[s + 1])`` and owns pieces
    ``[ptr[s], ptr[s + 1])``, in global order: by record, then by pool
    position (a burst's own order).
    """

    edge: np.ndarray  #: first granule of each shard, then the granule count
    ptr: np.ndarray  #: each shard's first piece, then the piece count
    start: np.ndarray  #: pool position of each piece (``int32``)
    length: np.ndarray  #: references in each piece (``int32``)
    record: np.ndarray  #: global order of each piece's burst (``int32``)


def _partition(pool: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> _Pieces:
    """Shard the address space and cut each burst's pool slice by shard.

    *starts* / *counts* locate the bursts' slices of *pool*, in global
    order (no trace keeps an empty burst).  Work and memory are per pool
    entry, per burst and per piece: no step expands a reference.
    """
    if starts.size == 0:  # no burst: no shard
        return _Pieces(*[np.zeros(0, dtype=np.int32)] * 5)
    n_granules = (int(pool.max()) >> _GRANULE_SHIFT) + 1
    if int(counts.sum()) <= SHARD_REFS:  # one shard: a piece per burst
        return _Pieces(
            edge=np.array([0, n_granules]),
            ptr=np.array([0, starts.size]),
            start=starts,
            length=counts,
            record=np.arange(starts.size, dtype=np.int32),
        )
    ends = starts + counts
    # How many bursts read each pool entry: the slices that start at or
    # before it less those that end there, in position order (positions
    # index the pool, so they fit int32).
    at = np.concatenate([starts, ends], dtype=np.int32)
    order = np.argsort(at, kind="stable")
    at = at[order]
    opened = order < starts.size
    del order
    depth = np.cumsum(opened, dtype=np.int32)
    depth *= 2
    depth -= np.arange(1, at.size + 1, dtype=np.int32)  # opened less closed
    del opened
    reads = np.repeat(np.append(np.int32(0), depth), np.diff(at, prepend=0, append=pool.size))
    del at, depth

    # References per granule, the pool histogrammed a block at a time so
    # the granules and float weights stay small.
    refs = np.zeros(n_granules)
    for a in range(0, pool.size, SHARD_REFS):
        block = slice(a, a + SHARD_REFS)
        refs += np.bincount(pool[block] >> _GRANULE_SHIFT, weights=reads[block], minlength=refs.size)
    del reads

    # Greedy cut: each shard takes granules while it holds at most
    # SHARD_REFS references, and at least its first referenced granule
    # and the empty ones after that.
    total = np.cumsum(refs.astype(np.int64))
    edge = [0]
    while edge[-1] < total.size:
        base = int(total[edge[-1] - 1]) if edge[-1] else 0
        first = total[np.searchsorted(total, base, "right")]
        edge.append(int(np.searchsorted(total, max(base + SHARD_REFS, first), "right")))
    edge = np.array(edge, dtype=np.int64)
    n_shards = edge.size - 1
    shard_of = np.repeat(np.arange(n_shards, dtype=_narrowest(n_shards)), np.diff(edge))
    shard_of = shard_of[pool >> _GRANULE_SHIFT]

    # A burst's slice is cut wherever the pool changes shard inside it.
    start, length, record = _cut(starts, ends, shard_of)
    shard = shard_of[start]
    del shard_of
    order = np.argsort(shard, kind="stable")
    return _Pieces(
        edge=edge,
        ptr=_pointers(np.bincount(shard, minlength=n_shards)),
        start=start[order],
        length=length[order],
        record=record[order],
    )


@dataclass(frozen=True)
class ColumnarTrace:
    """A burst trace partitioned into line shards, global order in each.

    Build once with :meth:`from_trace` and replay at any number of cache
    line sizes, through either protocol, with :meth:`replay` and
    :meth:`replay_write_update` — the partition is paid a single time per
    trace, not once per line size, and each replay expands one shard at
    a time.
    """

    #: Every burst's cells, each burst a slice (``int32`` flat cell
    #: indices; the slices may overlap and repeat).
    pool: np.ndarray
    #: Per-burst ``proc | write << 7`` in global order (``uint8``).
    codes: np.ndarray
    #: The bursts' slices of :attr:`pool`, cut and grouped by shard.
    pieces: _Pieces
    #: Individual cell references by reads / writes (scalar-engine counts).
    n_read_refs: int
    n_write_refs: int
    #: One more than the highest processor the trace references.
    n_procs_used: int
    #: Is every reference its own record (:meth:`per_reference`)?
    by_reference: bool = False

    @staticmethod
    def from_trace(trace: ReferenceTrace) -> "ColumnarTrace":
        """Partition *trace*, in global ``(time, append sequence)`` order."""
        bursts = trace.bursts()
        pool = _cells_int32(bursts.pool)
        procs, writes = bursts.procs, bursts.writes
        starts, counts = bursts.starts.astype(np.int32), bursts.counts.astype(np.int32)
        del bursts
        if procs.size and int(procs.min()) < 0:  # a replay checks the top
            raise CoherenceError("trace references a processor out of range")
        codes = procs.astype(np.uint8)
        codes[writes] |= _WRITE
        n_write_refs = int(counts[writes].sum())
        return ColumnarTrace(
            pool=pool,
            codes=codes,
            pieces=_partition(pool, starts, counts),
            n_read_refs=int(counts.sum()) - n_write_refs,
            n_write_refs=n_write_refs,
            n_procs_used=int(procs.max()) + 1 if procs.size else 0,
        )

    def per_reference(self) -> "ColumnarTrace":
        """The same references, each its own record (Tango's granularity).

        Record order is the cell stream's, so a burst's cells become
        consecutive references in their recorded order; :meth:`replay` of
        the view is the per-reference protocol outcome.
        """
        return replace(self, by_reference=True)

    def _shards(
        self, words_per_line: int, fold: bool = False
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Each shard's ``(cells, rec_ids, codes)``, expanded from the pool
        one shard at a time; shards merge until their edges are line edges.

        Record ids are local to the shard but keep global order: a burst's
        rank among the shard's bursts, or under :attr:`by_reference` the
        reference's position in the shard's stream.  With *fold* (and not
        :attr:`by_reference`), each run of neighbouring pool cells on one
        line is expanded as its first cell: a burst's row run or path
        segment then makes one reference per line, and the same events.
        One-word lines are not folded: only a repeated cell would fold.
        """
        pieces, pool = self.pieces, self.pool
        opens = np.flatnonzero((pieces.edge[:-1] << _GRANULE_SHIFT) % words_per_line == 0)
        closes = np.append(opens[1:], pieces.edge.size - 1)
        fold = fold and words_per_line > 1 and not self.by_reference
        if fold:
            head = _first_of_runs(pool >> np.int32(words_per_line.bit_length() - 1))
            pool = pool[head]
            runs = np.cumsum(head, dtype=np.int32)  # 1 + each entry's run
            del head
        for a, b in zip(opens.tolist(), closes.tolist()):
            lo, hi = int(pieces.ptr[a]), int(pieces.ptr[b])
            start, length, record = pieces.start[lo:hi], pieces.length[lo:hi], pieces.record[lo:hi]
            if b - a > 1:  # merged shards: back to global order
                order = np.lexsort((start, record))
                start, length, record = start[order], length[order], record[order]
            if fold:  # the runs each piece touches
                run0 = runs[start] - 1
                start, length = run0, runs[start + length - 1] - run0
            cells = np.take(pool, _expand(start, length))
            if self.by_reference:
                codes = np.repeat(self.codes[record], length)
                rec_ids = np.arange(cells.size, dtype=np.int32)
            else:
                first = _first_of_runs(record)
                codes = self.codes[record[first]]
                rec_ids = np.repeat(np.cumsum(first, dtype=np.int32) - 1, length)
            obs.incr("sim.coherence.shards")
            yield cells, rec_ids, codes

    def _events(self, address_map: AddressMap, count_cells: bool = False) -> Iterator[_LineEvents]:
        wpl = address_map.words_per_line
        # Only write-update counts a burst's cells on a line.
        for cells, rec_ids, codes in self._shards(wpl, fold=not count_cells):
            yield _line_events(cells, rec_ids, codes, wpl, count_cells)

    def _begin(self, n_procs: int, address_map: AddressMap) -> CoherenceStats:
        if not (1 <= n_procs <= MAX_PROCS):
            raise CoherenceError(f"n_procs must be in [1, {MAX_PROCS}]")
        if self.n_procs_used > n_procs:
            raise CoherenceError("trace references a processor out of range")
        stats = CoherenceStats(line_size=address_map.line_size)
        stats.n_read_refs = self.n_read_refs
        stats.n_write_refs = self.n_write_refs
        return stats

    # ------------------------------------------------------------------
    def replay(self, n_procs: int, address_map: AddressMap) -> CoherenceStats:
        """Replay through Write-Back-with-Invalidate; return traffic totals.

        Bit-identical to
        :func:`repro.memsim.coherence.simulate_trace` on the trace this
        was built from (the scalar engine is the differential oracle).
        """
        stats = self._begin(n_procs, address_map)
        ls = address_map.line_size
        for ev in self._events(address_map):
            ep = _epochs(ev)
            readers = ep.mask & ~ep.writer
            wrote = ep.writer != _ZERO
            wbit = ep.writer[wrote]
            closed = ep.closed[wrote]
            others = closed & ~wbit
            # A write is silent while the line is still dirty-by-p: the
            # epoch it closes was opened by p's write and touched by p alone.
            silent = (closed == wbit) & (_shift_in(ep.writer, ep.opens)[wrote] == wbit)
            n_word_writes = wbit.size - int(np.count_nonzero(silent))
            # Every run of dirty-by-p epochs is flushed by the next
            # processor to touch the line, unless it is the line's last
            # (M == W: its writer alone touched it).
            last = np.append(ep.opens[1:], True)
            n_never_flushed = int(np.count_nonzero(last & (ep.mask == ep.writer)))

            n_read_miss = int(_popcount(readers).sum())
            n_cold = int(_popcount(readers & ~ep.seen).sum())
            stats.cold_fetch_bytes += n_cold * ls
            stats.refetch_bytes += (n_read_miss - n_cold) * ls
            stats.write_miss_fetch_bytes += int(np.count_nonzero((closed & wbit) == _ZERO)) * ls
            stats.writeback_bytes += (n_word_writes - n_never_flushed) * ls
            stats.word_write_bytes += n_word_writes * WORD_BYTES
            stats.n_invalidation_events += int(np.count_nonzero(others))
            stats.n_copies_invalidated += int(_popcount(others).sum())
        return stats

    def replay_write_update(self, n_procs: int, address_map: AddressMap) -> CoherenceStats:
        """Replay through the write-update protocol; return traffic totals.

        Bit-identical to the scalar
        :class:`~repro.memsim.update_protocol.WriteUpdate` (the
        differential oracle) on the trace this was built from.
        """
        stats = self._begin(n_procs, address_map)
        ls = address_map.line_size
        for ev in self._events(address_map, count_cells=True):
            ep = _epochs(ev)
            new = ep.mask & ~ep.seen
            # Shared iff another processor touched the line before the
            # write (only a line's first epoch opens without one, and it
            # sees nothing).
            shared = (ep.seen & ~ep.writer) != _ZERO
            n_first = int(_popcount(new).sum())
            n_write_first = int(np.count_nonzero(ep.writer & new))
            stats.cold_fetch_bytes += (n_first - n_write_first) * ls
            stats.write_miss_fetch_bytes += n_write_first * ls
            stats.word_write_bytes += int(ev.n_cells[ep.start[shared]].sum()) * WORD_BYTES
        return stats
