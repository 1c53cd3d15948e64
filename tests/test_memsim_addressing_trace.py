"""Tests for address mapping and reference traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CoherenceError
from repro.memsim import AddressMap, ReferenceTrace, WORD_BYTES


class TestAddressMap:
    def test_words_per_line(self):
        amap = AddressMap(4, 40, 16)
        assert amap.words_per_line == 4
        assert amap.line_size == 16

    def test_line_count_covers_array(self):
        amap = AddressMap(4, 40, 8)
        assert amap.n_lines == (4 * 40 * WORD_BYTES) // 8

    def test_extra_words_extend_line_count(self):
        base = AddressMap(4, 40, 8)
        extended = AddressMap(4, 40, 8, extra_words=100)
        assert extended.n_lines > base.n_lines

    @pytest.mark.parametrize("bad", [2, 3, 12, 0])
    def test_bad_line_sizes_rejected(self, bad):
        with pytest.raises(CoherenceError):
            AddressMap(4, 40, bad)

    def test_negative_extra_words_rejected(self):
        with pytest.raises(CoherenceError):
            AddressMap(4, 40, 8, extra_words=-1)

    def test_cells_to_lines_dedupes(self):
        amap = AddressMap(4, 40, 16)  # 4 words per line
        cells = np.array([0, 1, 2, 3, 4], dtype=np.int64)
        assert list(amap.cells_to_lines(cells)) == [0, 1]

    def test_word_sized_lines_one_per_cell(self):
        amap = AddressMap(4, 40, 4)
        cells = np.array([0, 7, 19], dtype=np.int64)
        assert list(amap.cells_to_lines(cells)) == [0, 7, 19]


class TestReferenceTrace:
    def test_add_and_counts(self):
        trace = ReferenceTrace()
        trace.add(0.0, 0, False, np.array([1, 2, 3]))
        trace.add(1.0, 1, True, np.array([4]))
        assert trace.n_records == 2
        assert trace.n_references == 4

    def test_empty_bursts_dropped(self):
        trace = ReferenceTrace()
        trace.add(0.0, 0, False, np.empty(0, dtype=np.int64))
        assert trace.n_records == 0

    def test_negative_time_rejected(self):
        trace = ReferenceTrace()
        with pytest.raises(CoherenceError):
            trace.add(-1.0, 0, False, np.array([1]))

    def test_negative_time_rejected_even_for_an_empty_burst(self):
        # Validation comes before the empty-burst drop.
        trace = ReferenceTrace()
        with pytest.raises(CoherenceError):
            trace.add(-1.0, 0, False, np.empty(0, dtype=np.int64))
        with pytest.raises(CoherenceError):
            trace.add(float("nan"), 0, False, np.array([1]))
        assert trace.n_records == 0

    def test_n_references_is_a_running_count(self):
        trace = ReferenceTrace()
        assert trace.n_references == 0
        trace.add(0.0, 0, False, np.array([1, 2, 3]))
        assert trace.n_references == 3
        trace.add(0.0, 0, False, np.empty(0, dtype=np.int64))
        trace.add(0.5, 1, True, np.array([4, 4]))
        assert trace.n_references == 5 == sum(r.n_refs for r in trace.records)

    def test_records_are_what_was_added(self):
        added = [
            (2.0, 0, False, [9, 3, 3]),
            (1.0, 1, True, [2]),
            (1.0, 2, False, [3, 1]),
            (0.0, 1, True, [7, 7]),
        ]
        trace = ReferenceTrace()
        for time, proc, is_write, cells in added:
            trace.add(time, proc, is_write, np.array(cells, dtype=np.int32))

        def plain(records):
            return [(r.time, r.proc, r.is_write, r.flat_cells.tolist()) for r in records]

        assert plain(trace.records) == added
        assert all(r.flat_cells.dtype == np.int64 for r in trace.records)
        # (time, append sequence) order: the two 1.0 bursts keep append order.
        assert plain(trace.sorted_records()) == [added[3], added[1], added[2], added[0]]
        assert plain(ReferenceTrace(records=trace.records).records) == added

    def test_columns_are_the_sorted_records_flattened(self):
        trace = ReferenceTrace()
        trace.add(2.0, 0, False, np.array([9, 3, 3]))
        trace.add(1.0, 1, True, np.array([2]))
        trace.add(1.0, 2, False, np.array([3, 1]))
        cols = trace.columns()
        ordered = list(trace.sorted_records())
        assert cols.times.tolist() == [r.time for r in ordered]
        assert cols.procs.tolist() == [r.proc for r in ordered]
        assert cols.writes.tolist() == [r.is_write for r in ordered]
        assert cols.offsets.tolist() == [0, 1, 3, 6]
        assert cols.cells.tolist() == [2, 3, 1, 9, 3, 3]
        assert cols.cells.dtype == np.int64
        empty = ReferenceTrace().columns()
        assert empty.cells.size == 0 and empty.offsets.tolist() == [0]

    def test_sorted_records_interleaves_by_time(self):
        trace = ReferenceTrace()
        trace.add(2.0, 0, False, np.array([1]))
        trace.add(1.0, 1, True, np.array([2]))
        trace.add(1.0, 2, False, np.array([3]))
        ordered = list(trace.sorted_records())
        assert [r.time for r in ordered] == [1.0, 1.0, 2.0]
        # ties keep append order
        assert [r.proc for r in ordered] == [1, 2, 0]

    def test_many_ties_keep_append_order(self):
        """Thousands of bursts over a handful of times: the replay order
        is Python's stable sort of the append order, in every reader."""
        times = np.random.default_rng(5).integers(0, 7, size=4000).astype(float)
        trace = ReferenceTrace()
        for i, t in enumerate(times.tolist()):
            trace.add(t, i % 16, bool(i % 3), np.array([i]))
        expected = sorted(range(times.size), key=times.__getitem__)
        assert trace.columns().cells.tolist() == expected
        assert [int(r.flat_cells[0]) for r in trace.sorted_records()] == expected

