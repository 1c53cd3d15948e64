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

    def test_cell_address(self):
        amap = AddressMap(4, 40, 8)
        assert list(amap.cell_address(np.array([0, 3]))) == [0, 12]

    def test_rect_to_lines(self):
        amap = AddressMap(4, 40, 8)  # 2 words/line; rows are 20 lines wide
        lines = amap.rect_to_lines(0, 0, 1, 3)
        # row 0 cols 0-3 -> lines 0,1 ; row 1 cols 0-3 -> words 40-43 -> lines 20,21
        assert list(lines) == [0, 1, 20, 21]

    def test_rect_degenerate_rejected(self):
        amap = AddressMap(4, 40, 8)
        with pytest.raises(CoherenceError):
            amap.rect_to_lines(2, 0, 1, 3)


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


class TestTraceIO:
    """Round-trip and export tests for trace files."""

    def _sample_trace(self):
        trace = ReferenceTrace()
        trace.add(0.5, 0, False, np.array([1, 2, 3]))
        trace.add(0.1, 2, True, np.array([7]))
        trace.add(0.9, 1, False, np.array([4, 5]))
        return trace

    def test_npz_round_trip(self, tmp_path):
        """The stream container (the one on-disk format) keeps every
        record; they come back in global replay order."""
        from repro.memsim import load_trace_stream, save_trace_stream

        trace = self._sample_trace()
        path = tmp_path / "t.lrts"
        save_trace_stream(trace, path)
        loaded = load_trace_stream(path)
        assert loaded.n_records == trace.n_records
        assert loaded.n_references == trace.n_references
        for a, b in zip(trace.sorted_records(), loaded.records):
            assert a.time == b.time and a.proc == b.proc
            assert a.is_write == b.is_write
            assert list(a.flat_cells) == list(b.flat_cells)

    def test_round_trip_preserves_coherence_results(self, tmp_path):
        from repro.memsim import load_trace_stream, save_trace_stream, simulate_trace

        trace = self._sample_trace()
        path = tmp_path / "t.lrts"
        save_trace_stream(trace, path)
        amap = AddressMap(2, 16, 8)
        assert (
            simulate_trace(trace, 4, amap).as_dict()
            == simulate_trace(load_trace_stream(path), 4, amap).as_dict()
        )

    def test_empty_trace_round_trip(self, tmp_path):
        from repro.memsim import load_trace_stream, save_trace_stream

        path = tmp_path / "empty.lrts"
        save_trace_stream(ReferenceTrace(), path)
        loaded = load_trace_stream(path)
        assert loaded.n_records == 0 and loaded.n_references == 0

    def test_dinero_export(self, tmp_path):
        from repro.memsim import export_dinero

        trace = self._sample_trace()
        path = tmp_path / "t.din"
        n = export_dinero(trace, path)
        lines = path.read_text().splitlines()
        assert n == len(lines) == trace.n_references
        # time-ordered: the write at t=0.1 comes first
        assert lines[0] == "1 1c"  # cell 7 * 4 bytes = 0x1c
        assert all(line.split()[0] in ("0", "1") for line in lines)
