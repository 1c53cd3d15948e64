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
from repro.memsim.addressing import AddressMap
from repro.memsim.coherence import simulate_trace
from repro.memsim.columnar import ColumnarTrace, _line_events
from repro.memsim.trace import ReferenceTrace

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
        ev = _line_events(cells, rec_ids, procs, writes, 2, count_cells=True)
        assert ev.line.tolist() == [1, 1, 4]
        assert ev.proc.tolist() == [5, 1, 5]
        assert ev.write.tolist() == [True, False, True]
        assert ev.n_cells.tolist() == [3, 2, 2]
        assert ev.new_line.tolist() == [True, False, True]
        assert ev.seg_start.tolist() == [0, 0, 2]
        assert ev.prev_lp.tolist() == [-1, -1, -1]
        assert all(col.dtype == np.int32 for col in (ev.line, ev.proc, ev.seg_start, ev.prev_lp))

    def test_previous_touch_by_the_same_processor(self):
        cells = np.array([0, 0, 0, 7, 0], dtype=np.int32)
        rec_ids = np.arange(5, dtype=np.int32)
        procs = np.array([2, 3, 2, 2, 3], dtype=np.int32)
        writes = np.zeros(5, dtype=bool)
        ev = _line_events(cells, rec_ids, procs, writes, 1)
        assert ev.line.tolist() == [0, 0, 0, 0, 7]
        assert ev.prev_lp.tolist() == [-1, -1, 0, 1, -1]
        assert ev.n_cells is None

    def test_wide_address_spaces_take_the_general_sort(self):
        cells = np.array([1 << 20, 5, 1 << 20], dtype=np.int32)
        rec_ids = np.array([0, 1, 2], dtype=np.int32)
        procs = np.array([0, 1, 0], dtype=np.int32)
        ev = _line_events(cells, rec_ids, procs, np.zeros(3, dtype=bool), 1)
        assert ev.line.tolist() == [5, 1 << 20, 1 << 20]
        assert ev.prev_lp.tolist() == [-1, -1, 1]


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

