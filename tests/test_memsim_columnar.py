"""Equivalence and unit tests for the columnar coherence engine.

The contract under test: :meth:`repro.memsim.columnar.ColumnarTrace.replay`
is *bit-identical* to the scalar :func:`repro.memsim.coherence.simulate_trace`
for every trace and line size.  The scalar engine is the oracle (it
mirrors the protocol description record by record); hypothesis fuzzes
the equivalence, the unit tests pin the edge cases the fuzz is unlikely
to hold still.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CoherenceError
from repro.kernels import use_kernels
from repro.memsim.addressing import WORD_BYTES, AddressMap
from repro.memsim.coherence import simulate_trace
from repro.memsim.columnar import (
    ColumnarTrace,
    _epochs,
    _line_events,
    _popcount,
    _prefix_or,
)
from repro.memsim.trace import ReferenceTrace
from repro.memsim.update_protocol import simulate_trace_write_update
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
        # The in-stream de-duplication is not exact on these bursts; the
        # (line, record) mask after the sort has to finish the job.
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
        # Record 0 touches line 1 twice with line 4 in between (the stream
        # pass cannot see that) and repeats a cell; record 1 is tidy.
        cells = np.array([3, 9, 2, 2, 8, 2, 3], dtype=np.int32)
        rec_ids = np.array([0, 0, 0, 0, 0, 1, 1], dtype=np.int32)
        procs = np.array([5, 1], dtype=np.int32)
        writes = np.array([True, False])
        for count_cells in (True, False):
            ev = _line_events(cells, rec_ids, procs, writes, 2, count_cells=count_cells)
            assert ev.line.tolist() == [1, 1, 4]
            assert ev.code.dtype == np.uint8
            assert ev.code.tolist() == [5 | 128, 1, 5 | 128]  # proc | write << 7
            assert ev.write.tolist() == [True, False, True]
            assert ev.new_line.tolist() == [True, False, True]
        counted = _line_events(cells, rec_ids, procs, writes, 2, count_cells=True)
        assert counted.n_cells.tolist() == [3, 2, 2]

    def test_previous_touch_by_the_same_processor(self):
        # Each line's events in record order: a processor's previous touch
        # of a line is the nearest earlier event of its group with its
        # processor, which is what the epoch masks fold together.
        cells = np.array([0, 0, 0, 7, 0], dtype=np.int32)
        rec_ids = np.arange(5, dtype=np.int32)
        procs = np.array([2, 3, 2, 2, 3], dtype=np.int32)
        writes = np.array([False, False, True, False, False])
        ev = _line_events(cells, rec_ids, procs, writes, 1)
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

    def test_wide_address_spaces_take_the_general_sort(self):
        # (2**30 + 1) lines times 4 records overflow a 32-bit key.
        cells = np.array([1 << 30, 5, 1 << 30], dtype=np.int32)
        rec_ids = np.array([0, 1, 2], dtype=np.int32)
        procs = np.array([0, 1, 0], dtype=np.int32)
        ev = _line_events(cells, rec_ids, procs, np.zeros(3, dtype=bool), 1)
        assert ev.line.dtype == np.uint64
        assert ev.line.tolist() == [5, 1 << 30, 1 << 30]
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
        ev = _line_events(flat.cells, flat.rec_ids, flat.rec_proc, flat.rec_is_write, 1)
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

    def test_int32_overflow_guard(self):
        trace = ReferenceTrace()
        trace.add(0.0, 0, False, np.array([np.iinfo(np.int32).max], dtype=np.int64))
        with pytest.raises(CoherenceError):
            ColumnarTrace.from_trace(trace)

