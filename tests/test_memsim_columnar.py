"""Equivalence and unit tests for the columnar coherence engine.

The contract under test: :meth:`repro.memsim.columnar.ColumnarTrace.replay`
is *bit-identical* to the scalar :func:`repro.memsim.coherence.simulate_trace`
for every trace and line size.  The scalar engine is the oracle (it
mirrors the protocol description record by record); hypothesis fuzzes
the equivalence, the unit tests pin the edge cases the fuzz is unlikely
to hold still.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CoherenceError
from repro.kernels import use_kernels
from repro.memsim import columnar
from repro.memsim.addressing import WORD_BYTES, AddressMap
from repro.memsim.coherence import simulate_trace
from repro.memsim.columnar import (
    ColumnarTrace,
    _epochs,
    _line_events,
    _popcount,
    _prefix_or,
)
from repro.memsim.trace import BurstTable, ReferenceTrace
from repro.memsim.update_protocol import simulate_trace_write_update
from repro.route.wavefront import _ranges
from repro.obs import telemetry as obs

from . import memsim_strategies as messy

N_CHANNELS = 6
N_GRIDS = 32
LINE_SIZES = (4, 8, 16, 32)


def build_trace(bursts) -> ReferenceTrace:
    """bursts: iterable of (proc, is_write, [flat cells])."""
    trace = ReferenceTrace()
    for t, (proc, is_write, cells) in enumerate(bursts):
        trace.add(float(t), proc, is_write, np.asarray(cells, dtype=np.int64))
    return trace


def assert_equivalent(trace: ReferenceTrace, n_procs: int) -> None:
    columnar = ColumnarTrace.from_trace(trace)
    for ls in LINE_SIZES:
        amap = AddressMap(N_CHANNELS, N_GRIDS, ls)
        scalar = simulate_trace(trace, n_procs, amap)
        vector = columnar.replay(n_procs, amap)
        assert scalar == vector, f"diverged at line size {ls}"


burst_strategy = st.tuples(
    st.integers(min_value=0, max_value=7),  # proc
    st.booleans(),  # is_write
    st.lists(
        st.integers(min_value=0, max_value=N_CHANNELS * N_GRIDS - 1),
        min_size=1,
        max_size=12,
    ),
)


class TestScalarColumnarEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(burst_strategy, min_size=0, max_size=60))
    def test_random_traces_bit_identical(self, bursts):
        assert_equivalent(build_trace(bursts), n_procs=8)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(burst_strategy, min_size=1, max_size=40),
        st.integers(min_value=1, max_value=8),
    )
    def test_any_processor_count(self, bursts, n_procs):
        bursts = [(proc % n_procs, w, cells) for proc, w, cells in bursts]
        assert_equivalent(build_trace(bursts), n_procs=n_procs)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 63).flatmap(lambda n: st.tuples(st.just(n), messy.messy_bursts(n))))
    def test_unsorted_repeated_cells_and_time_ties(self, case):
        # Folding neighbouring pool cells is not exact on these bursts;
        # the (line, record) mask after the sort has to finish the job.
        n_procs, bursts = case
        trace = messy.build_trace(bursts)
        columnar = ColumnarTrace.from_trace(trace)
        for ls in messy.LINE_SIZES:
            amap = messy.address_map(ls)
            assert simulate_trace(trace, n_procs, amap) == columnar.replay(n_procs, amap), ls

    def test_empty_trace(self):
        assert_equivalent(build_trace([]), n_procs=4)

    def test_single_processor_never_invalidates(self):
        trace = build_trace([(0, False, [0, 1]), (0, True, [0]), (0, False, [1])])
        stats = ColumnarTrace.from_trace(trace).replay(1, AddressMap(N_CHANNELS, N_GRIDS, 8))
        assert stats.n_invalidation_events == 0
        assert_equivalent(trace, n_procs=1)

    def test_write_then_remote_read_forces_writeback(self):
        # Proc 0 dirties a line; proc 1's read must trigger exactly one
        # writeback in both engines.
        trace = build_trace([(0, True, [5]), (1, False, [5])])
        amap = AddressMap(N_CHANNELS, N_GRIDS, 8)
        scalar = simulate_trace(trace, 2, amap)
        vector = ColumnarTrace.from_trace(trace).replay(2, amap)
        assert scalar == vector
        assert vector.writeback_bytes == 8

    def test_burst_spanning_many_lines(self):
        trace = build_trace(
            [(0, True, list(range(0, 64))), (1, False, list(range(32, 96)))]
        )
        assert_equivalent(trace, n_procs=2)

    def test_repeated_cells_within_one_burst(self):
        # Duplicate (record, line) events must collapse to one access.
        trace = build_trace([(0, False, [3, 3, 3, 4]), (1, True, [4, 4, 3])])
        assert_equivalent(trace, n_procs=2)


class TestLineEvents:
    """The event-extraction step both replays share."""

    def test_one_event_per_record_and_line_whatever_the_cell_order(self):
        # Record 0 touches line 1 twice with line 4 in between (a fold of
        # neighbouring cells cannot see that) and repeats a cell; record 1
        # is tidy.
        cells = np.array([3, 9, 2, 2, 8, 2, 3], dtype=np.int32)
        rec_ids = np.array([0, 0, 0, 0, 0, 1, 1], dtype=np.int32)
        codes = np.array([5 | 128, 1], dtype=np.uint8)  # p5 writes, p1 reads
        for count_cells in (True, False):
            ev = _line_events(cells, rec_ids, codes, 2, count_cells=count_cells)
            assert ev.line.tolist() == [0, 0, 3]  # lines 1, 1, 4 less the lowest
            assert ev.code.dtype == np.uint8
            assert ev.code.tolist() == [5 | 128, 1, 5 | 128]  # proc | write << 7
            assert ev.write.tolist() == [True, False, True]
            assert ev.new_line.tolist() == [True, False, True]
        counted = _line_events(cells, rec_ids, codes, 2, count_cells=True)
        assert counted.n_cells.tolist() == [3, 2, 2]

    def test_previous_touch_by_the_same_processor(self):
        # Each line's events in record order: a processor's previous touch
        # of a line is the nearest earlier event of its group with its
        # processor, which is what the epoch masks fold together.
        cells = np.array([0, 0, 0, 7, 0], dtype=np.int32)
        rec_ids = np.arange(5, dtype=np.int32)
        codes = np.array([2, 3, 2 | 128, 2, 3], dtype=np.uint8)  # the third writes
        ev = _line_events(cells, rec_ids, codes, 1)
        assert ev.line.tolist() == [0, 0, 0, 0, 7]
        assert ev.code.tolist() == [2, 3, 2 | 128, 3, 2]
        assert ev.new_line.tolist() == [True, False, False, False, True]
        assert ev.n_cells is None
        ep = _epochs(ev)
        assert ep.start.tolist() == [0, 2, 4]
        assert ep.mask.tolist() == [0b1100, 0b1100, 0b100]
        assert ep.writer.tolist() == [0, 0b100, 0]
        assert ep.closed.tolist() == [0, 0b1100, 0]
        assert ep.seen.tolist() == [0, 0b1100, 0]

    def test_a_key_that_just_fits_32_bits_stays_uint32(self):
        # 2**31 lines from the lowest times 2 records is exactly 2**32 keys.
        cells = np.array([(1 << 31) - 1, 0], dtype=np.int32)
        codes = np.array([0, 1], dtype=np.uint8)
        ev = _line_events(cells, np.arange(2, dtype=np.int32), codes, 1)
        assert ev.line.dtype == np.uint32
        assert ev.line.tolist() == [0, (1 << 31) - 1]
        assert ev.code.tolist() == [1, 0]

    def test_wide_address_spaces_take_the_general_sort(self):
        # (2**30 + 1) lines from the lowest times 4 records overflow a
        # 32-bit key.
        cells = np.array([1 << 30, 0, 1 << 30], dtype=np.int32)
        rec_ids = np.array([0, 1, 2], dtype=np.int32)
        codes = np.array([0, 1, 0], dtype=np.uint8)
        ev = _line_events(cells, rec_ids, codes, 1)
        assert ev.line.dtype == np.uint64
        assert ev.line.tolist() == [0, 1 << 30, 1 << 30]
        assert ev.code.tolist() == [1, 0, 0]


class TestEpochs:
    """Per-epoch sharer masks and the counts read off them."""

    def test_popcount(self):
        words = [0, 1, 1 << 62, (1 << 63) - 1, 0x5555555555555555, 0xF0F0F0F0F0F0F0F]
        got = _popcount(np.array(words, dtype=np.uint64))
        assert got.tolist() == [bin(x).count("1") for x in words]

    def test_segmented_prefix_or_past_the_fuzzed_lengths(self):
        # Segments far longer than a fuzzed trace's, so every doubling
        # step runs; the loop is the reference.
        rng = np.random.default_rng(5)
        x = rng.integers(0, 1 << 62, 700, dtype=np.int64).astype(np.uint64)
        x &= rng.integers(0, 1 << 62, 700, dtype=np.int64).astype(np.uint64)
        opens = rng.random(700) < 0.01
        opens[[0, 300]] = True
        acc, want = 0, []
        for v, o in zip(x.tolist(), opens):
            acc = v if o else acc | v
            want.append(acc)
        assert _prefix_or(x, opens).tolist() == want

    def test_hand_computed_epochs(self):
        # Line 0: two readers, then p0 writes twice (the second write hits
        # its own dirty line and costs nothing), p2 and p1 read between
        # the two writers, p1 writes, p0 reads back.  Line 1 is opened by a
        # write that nobody ever flushes.
        trace = build_trace(
            [
                (0, False, [0]),  # cold
                (1, False, [0]),  # cold
                (0, True, [0]),  # word write, invalidates p1
                (0, True, [0]),  # silent
                (2, False, [0]),  # cold, flushes p0's line
                (1, False, [0]),  # refetch
                (1, True, [0, 0]),  # word write, invalidates p0 and p2
                (3, True, [1]),  # write miss opening line 1, word write
                (0, False, [0]),  # refetch, flushes p1's line
            ]
        )
        amap = AddressMap(N_CHANNELS, N_GRIDS, 4)
        flat = ColumnarTrace.from_trace(trace)
        stats = flat.replay(4, amap)
        assert stats == simulate_trace(trace, 4, amap)
        assert (stats.cold_fetch_bytes, stats.refetch_bytes) == (3 * 4, 2 * 4)
        assert (stats.write_miss_fetch_bytes, stats.writeback_bytes) == (1 * 4, 2 * 4)
        assert stats.word_write_bytes == 3 * WORD_BYTES
        assert (stats.n_invalidation_events, stats.n_copies_invalidated) == (2, 3)
        # Write-update: four first touches, one of them p3's write; every
        # write but p3's finds another copy and broadcasts each cell.
        update = flat.replay_write_update(4, amap)
        with use_kernels("reference"):
            assert update == simulate_trace_write_update(trace, 4, amap)
        assert (update.cold_fetch_bytes, update.write_miss_fetch_bytes) == (3 * 4, 1 * 4)
        assert update.word_write_bytes == 4 * WORD_BYTES

    def test_keys_wider_than_32_bits_match_both_scalar_engines(self):
        # 2**21 lines and 3000 records need a 33-bit (line, record) key.
        n_grids = 1 << 21
        rng = np.random.default_rng(11)
        trace = ReferenceTrace()
        for t in range(3000):
            base = int(rng.choice([rng.integers(0, 64), rng.integers(n_grids - 64, n_grids - 4)]))
            cells = base + rng.integers(0, 4, size=int(rng.integers(1, 5)))
            trace.add(float(t), int(rng.integers(0, 5)), bool(rng.random() < 0.4), cells)
        flat = ColumnarTrace.from_trace(trace)
        [(cells, rec_ids, codes)] = flat._shards(1)  # one shard holds them all
        ev = _line_events(cells, rec_ids, codes, 1)
        assert ev.line.dtype == np.uint64
        for ls in (4, 16):
            amap = AddressMap(1, n_grids, ls)
            assert flat.replay(5, amap) == simulate_trace(trace, 5, amap), ls
            with use_kernels("reference"):
                oracle = simulate_trace_write_update(trace, 5, amap)
            assert flat.replay_write_update(5, amap) == oracle, ls

    def test_event_count_is_pinned(self):
        trace = ReferenceTrace()
        for i in range(50):
            cells = np.array([i, i + 1, (i * 7) % 100, i + 1], dtype=np.int64)
            trace.add(float(i), i % 4, i % 3 == 0, cells)
        flat = ColumnarTrace.from_trace(trace)
        for ls, events in ((4, 149), (8, 123), (16, 110), (32, 102)):
            amap = AddressMap(N_CHANNELS, N_GRIDS, ls)
            for replay in (flat.replay, flat.replay_write_update):
                before = obs.get_telemetry().count("sim.coherence.columnar_events")
                replay(4, amap)
                after = obs.get_telemetry().count("sim.coherence.columnar_events")
                assert after - before == events, (ls, replay.__name__)


class TestColumnarTrace:
    def test_reuse_across_line_sizes_matches_fresh_flatten(self):
        trace = build_trace(
            [(i % 4, i % 3 == 0, [i, i + 1, (i * 7) % 100]) for i in range(50)]
        )
        shared = ColumnarTrace.from_trace(trace)
        for ls in LINE_SIZES:
            amap = AddressMap(N_CHANNELS, N_GRIDS, ls)
            assert shared.replay(4, amap) == ColumnarTrace.from_trace(trace).replay(4, amap)

    def test_rejects_bad_processor_count(self):
        trace = build_trace([(0, False, [1])])
        columnar = ColumnarTrace.from_trace(trace)
        amap = AddressMap(N_CHANNELS, N_GRIDS, 8)
        with pytest.raises(CoherenceError):
            columnar.replay(0, amap)
        with pytest.raises(CoherenceError):
            columnar.replay(64, amap)

    def test_rejects_out_of_range_processor(self):
        trace = build_trace([(5, False, [1])])
        with pytest.raises(CoherenceError):
            ColumnarTrace.from_trace(trace).replay(2, AddressMap(N_CHANNELS, N_GRIDS, 8))

    @pytest.mark.parametrize("procs", [(0, 3, 1), (3, 0), (-1, 2), (2, -1)])
    def test_every_processor_is_checked(self, procs):
        # Processors 0-3 need four; a negative one is out of range at any
        # count (its one-byte code would wrap to a valid-looking one).
        trace = build_trace([(p, i % 2 == 0, [i]) for i, p in enumerate(procs)])
        amap = AddressMap(N_CHANNELS, N_GRIDS, 8)
        with pytest.raises(CoherenceError):
            flat = ColumnarTrace.from_trace(trace)
            flat.replay(3, amap)
        if min(procs) >= 0:
            assert flat.replay(4, amap) == simulate_trace(trace, 4, amap)

    def test_int32_overflow_guard(self):
        trace = ReferenceTrace()
        trace.add(0.0, 0, False, np.array([np.iinfo(np.int32).max], dtype=np.int64))
        with pytest.raises(CoherenceError):
            ColumnarTrace.from_trace(trace)


def _replays(flat: ColumnarTrace, n_procs: int, amap: AddressMap):
    return flat.replay(n_procs, amap), flat.replay_write_update(n_procs, amap)


def _shard_sizes(flat: ColumnarTrace) -> list:
    pieces = flat.pieces
    return [int(pieces.length[a:b].sum()) for a, b in zip(pieces.ptr[:-1], pieces.ptr[1:])]


class PooledTrace(ReferenceTrace):
    """Bursts that are slices of one shared pool, as the collector's are
    (a plain trace's bursts never share cells), already in time order."""

    def __init__(self, pool, starts, counts, procs, writes) -> None:
        super().__init__()
        n = len(starts)
        self.table = BurstTable(
            times=np.arange(n, dtype=np.float64),
            procs=np.asarray(procs, dtype=np.int32),
            writes=np.asarray(writes, dtype=bool),
            starts=np.asarray(starts, dtype=np.int64),
            counts=np.asarray(counts, dtype=np.int64),
            pool=np.asarray(pool, dtype=np.int64),
        )
        self._n_bursts, self._n_refs = n, int(self.table.counts.sum())

    def _table(self) -> BurstTable:
        return self.table


def greedy_shards(refs_per_granule, bound: int) -> list:
    """The documented cut, one granule at a time: a shard opens with the
    empty granules before its first referenced one, takes that one, then
    every next granule that keeps it within the bound (or within that
    first granule's count, when that alone exceeds it)."""
    refs, edges = list(refs_per_granule), [0]
    while edges[-1] < len(refs):
        g = edges[-1]
        while refs[g] == 0:
            g += 1
        held, g = refs[g], g + 1
        cap = max(bound, held)
        while g < len(refs) and held + refs[g] <= cap:
            held, g = held + refs[g], g + 1
        edges.append(g)
    return edges


@st.composite
def pooled_traces(draw):
    pool = draw(st.lists(st.integers(0, 200), min_size=1, max_size=60))
    slices = draw(
        st.lists(st.integers(0, len(pool) - 1).flatmap(
            lambda s: st.tuples(st.just(s), st.integers(1, len(pool) - s))), min_size=1, max_size=30)
    )
    n = len(slices)
    procs = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return PooledTrace(pool, [s for s, _ in slices], [c for _, c in slices], procs, writes)


class TestShardTable:
    """The shard table's own invariants, checked before anything replays
    it: a wrong cut fails here at once, not in a replay that never ends."""

    @settings(max_examples=80, deadline=None)
    @given(pooled_traces(), st.integers(1, 40))
    def test_edges_increase_and_every_piece_holds_references(self, trace, bound):
        with mock.patch.object(columnar, "SHARD_REFS", bound):
            flat = ColumnarTrace.from_trace(trace)
        pieces = flat.pieces
        assert np.all(np.diff(pieces.edge) > 0)
        assert np.all(np.diff(pieces.ptr) > 0)  # a shard holds its first granule
        assert np.all(pieces.length > 0)
        assert int(pieces.length.sum()) == trace.n_references
        # Lines of 1 to 64 words: 256-byte lines merge 64-byte shards.
        for words_per_line in (1, 4, 16, 64):
            for _cells, rec_ids, _codes in flat._shards(words_per_line):
                assert np.all(np.diff(rec_ids) >= 0), words_per_line


class TestShards:
    """A replay expands one line shard at a time; the sums are the trace's."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_every_shard_bound_matches_the_oracles(self, data):
        n_procs = data.draw(st.integers(1, 12))
        trace = messy.build_trace(data.draw(messy.messy_bursts(n_procs)))
        # From one reference per shard to more than the trace holds.
        bound = data.draw(st.integers(1, trace.n_references + 1))
        whole = ColumnarTrace.from_trace(trace)
        with mock.patch.object(columnar, "SHARD_REFS", bound):
            flat = ColumnarTrace.from_trace(trace)
        for ls in (4, 8, 16, 32, 64, 128, 256):
            amap = messy.address_map(ls)
            with use_kernels("reference"):
                oracle = simulate_trace(trace, n_procs, amap), simulate_trace_write_update(trace, n_procs, amap)
            assert _replays(flat, n_procs, amap) == oracle == _replays(whole, n_procs, amap), (ls, bound)

    @settings(max_examples=150, deadline=None)
    @given(pooled_traces(), st.integers(1, 200))
    def test_the_cut_is_the_greedy_one_over_shared_slices(self, trace, bound):
        # Slices overlap and repeat and some pool entries are never read:
        # a granule's references are its cells counted once per burst
        # that reads them, and each piece stays inside its shard.
        table = trace.table
        cells = table.pool[_ranges(table.starts, table.counts)]
        with mock.patch.object(columnar, "SHARD_REFS", bound):
            flat = ColumnarTrace.from_trace(trace)
        pieces = flat.pieces
        want = greedy_shards(np.bincount(cells >> 4, minlength=int(table.pool.max() >> 4) + 1), bound)
        assert pieces.edge.tolist() == want
        for s, (a, b) in enumerate(zip(pieces.ptr[:-1], pieces.ptr[1:])):
            start, length, record = pieces.start[a:b], pieces.length[a:b], pieces.record[a:b]
            granules = flat.pool[columnar._expand(start, length)] >> 4
            assert np.all(granules >= want[s]) and np.all(granules < want[s + 1])
            assert np.all(np.diff(record) >= 0)
        got = [(int(r), int(c)) for r, at, ln in zip(pieces.record, pieces.start, pieces.length)
               for c in flat.pool[at:at + ln]]
        rows = np.repeat(np.arange(table.counts.size), table.counts)
        assert sorted(got) == sorted(zip(rows.tolist(), cells.tolist()))
        # A slice may open or close inside a run of pool cells on one line,
        # which the invalidate replay expands as the run's first cell.
        for ls in (4, 8, 32, 128):
            amap = AddressMap(1, 256, ls)
            with use_kernels("reference"):
                oracle = simulate_trace(trace, 6, amap), simulate_trace_write_update(trace, 6, amap)
            assert _replays(flat, 6, amap) == oracle, ls

    def test_a_run_of_pool_cells_on_one_line_expands_once(self):
        # Slices [0, 1, 2, 3, 3, 9] and [3, 3, 9, 2] of one pool; the second
        # opens inside the run 2, 3, 3, which is one line of two or four
        # words, so the invalidate replay expands that run as its cell 2.
        trace = PooledTrace([0, 1, 2, 3, 3, 9, 2], [0, 3], [6, 4], [0, 1], [False, True])
        flat = ColumnarTrace.from_trace(trace)

        def stream(words_per_line, fold):
            [(cells, rec_ids, _)] = flat._shards(words_per_line, fold=fold)
            return cells.tolist(), rec_ids.tolist()

        assert stream(2, True) == ([0, 2, 9, 2, 9, 2], [0, 0, 0, 1, 1, 1])
        assert stream(4, True) == ([0, 9, 0, 9, 2], [0, 0, 1, 1, 1])
        # Write-update counts every cell; a one-word line folds nothing.
        every = ([0, 1, 2, 3, 3, 9, 3, 3, 9, 2], [0] * 6 + [1] * 4)
        assert stream(2, False) == stream(1, True) == every
        for ls in (4, 8, 16):
            amap = AddressMap(1, 16, ls)
            with use_kernels("reference"):
                oracle = simulate_trace(trace, 2, amap), simulate_trace_write_update(trace, 2, amap)
            assert _replays(flat, 2, amap) == oracle, ls

    def test_a_hot_granule_alone_exceeds_the_bound(self):
        # Every loop grab reads and writes the two scheduler words: their
        # granule holds more references than a shard may, so it is a shard
        # of its own, and the cost array on either side is cut as usual.
        layout = messy.LAYOUT
        hot = np.arange(layout.scheduler_base, layout.scheduler_base + 2)
        bursts = []
        for t in range(40):
            bursts.append((t, t % 5, t % 2 == 1, hot.tolist()))
            bursts.append((t, (t + 1) % 5, t % 3 == 0, [(7 * t) % layout.array_words, layout.array_words - 1 - t]))
        trace = messy.build_trace(bursts)
        with mock.patch.object(columnar, "SHARD_REFS", 16):
            flat = ColumnarTrace.from_trace(trace)
        # Shards are runs of whole 64-byte (16-word) granules: granules 10
        # and 11 alone exceed the bound too, and granule 12 holds the
        # scheduler words (192 and 193).
        assert flat.pieces.edge.tolist() == [0, 3, 7, 10, 11, 12, 13]
        assert _shard_sizes(flat) == [14, 14, 15, 19, 18, 80]
        pieces = flat.pieces
        for s, (a, b) in enumerate(zip(pieces.ptr[:-1], pieces.ptr[1:])):
            cells = flat.pool[columnar._expand(pieces.start[a:b], pieces.length[a:b])]
            assert np.all(cells >> 4 >= pieces.edge[s]) and np.all(cells >> 4 < pieces.edge[s + 1])
        # 256-byte lines span four granules: only edges 0 and 12 are line
        # edges, so the first five shards replay as one.
        for ls, replayed in ((4, 6), (64, 6), (256, 2)):
            amap = messy.address_map(ls)
            with use_kernels("reference"):
                oracle = simulate_trace(trace, 5, amap), simulate_trace_write_update(trace, 5, amap)
            before = obs.get_telemetry().count("sim.coherence.shards")
            assert _replays(flat, 5, amap) == oracle, ls
            assert obs.get_telemetry().count("sim.coherence.shards") - before == 2 * replayed, ls

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), messy.messy_bursts(n))))
    def test_per_reference_is_exact_across_shards(self, case):
        n_procs, bursts = case
        trace = messy.build_trace(bursts)
        with mock.patch.object(columnar, "SHARD_REFS", 7):
            view = ColumnarTrace.from_trace(trace).per_reference()
        cut = ReferenceTrace()
        for r in trace.sorted_records():
            for cell in r.flat_cells.tolist():
                cut.add(r.time, r.proc, r.is_write, np.array([cell]))
        for ls in (4, 16, 128):
            amap = messy.address_map(ls)
            assert view.replay(n_procs, amap) == simulate_trace(cut, n_procs, amap), ls

    def test_memory_is_per_shard_not_per_reference(self):
        # 6000 bursts reading slices of one 4096-cell pool: 1.2 M
        # references, about nine shards.
        rng = np.random.default_rng(3)
        n, pool = 6000, np.arange(4096, dtype=np.int64) * 7 % 60_000
        counts = rng.integers(1, 400, n)
        trace = PooledTrace(
            pool, rng.integers(0, pool.size - counts), counts, rng.integers(0, 16, n), rng.random(n) < 0.3
        )
        tracemalloc.start()
        try:
            flat = ColumnarTrace.from_trace(trace)
            flatten_peak = tracemalloc.get_traced_memory()[1]
            refs = flat.n_read_refs + flat.n_write_refs
            largest = max(_shard_sizes(flat))
            assert len(_shard_sizes(flat)) >= 8 and refs > 1_000_000
            # The partition keeps and allocates per pool entry, burst and
            # piece: under a byte per reference.
            assert flatten_peak < refs
            amap = AddressMap(1, 60_000, 8)
            for replay in (flat.replay, flat.replay_write_update):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                replay(16, amap)
                # One shard's columns, keys and per-event epoch words: about
                # 70 bytes a reference here, so the whole trace's at once
                # would be eight times this bound.
                assert tracemalloc.get_traced_memory()[1] - base < 100 * largest, replay.__name__
        finally:
            tracemalloc.stop()
