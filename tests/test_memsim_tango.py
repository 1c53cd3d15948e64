"""Tests for the Tango trace collector and shared layout."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Pin
from repro.grid import CostArray
from repro.memsim.tango import SharedLayout, TangoCollector
from repro.route import RoutePath, route_segment


@pytest.fixture
def layout():
    return SharedLayout(n_channels=4, n_grids=40, n_wires=10)


@pytest.fixture
def segment():
    return route_segment(CostArray(4, 40), Pin(2, 0), Pin(12, 3))


class TestSharedLayout:
    def test_regions_are_disjoint_and_ordered(self, layout):
        assert layout.array_words == 160
        assert layout.scheduler_base == 160
        assert layout.records_base == 160 + SharedLayout.SCHEDULER_WORDS
        assert layout.total_words == layout.records_base + 4 * 10

    def test_wire_records_do_not_overlap(self, layout):
        a = set(layout.wire_record_cells(0).tolist())
        b = set(layout.wire_record_cells(1).tolist())
        assert not (a & b)
        assert min(a) >= layout.records_base

    def test_scheduler_cells_in_scheduler_region(self, layout):
        cells = layout.scheduler_cells()
        assert all(layout.scheduler_base <= c < layout.records_base for c in cells)


class TestCollector:
    def test_disabled_collector_records_nothing(self, layout, segment):
        tango = TangoCollector(layout, enabled=False)
        tango.record_evaluation(0.0, 1.0, 0, [segment])
        tango.record_loop_grab(0.0, 0)
        assert tango.trace.n_records == 0

    def test_evaluation_emits_chunks_sweeps(self, layout, segment):
        tango = TangoCollector(layout, chunks=3)
        tango.record_evaluation(0.0, 3.0, 0, [segment])
        assert tango.trace.n_records == 3
        times = sorted({r.time for r in tango.trace.records})
        assert times == [0.0, 1.0, 2.0]

    def test_geometry_footprint_equals_read_cells(self):
        """Segments priced from a circuit's tables (the vectorized kernels)
        take their footprint from the tables' read-cell column;
        reference-kernel segments compute it per call.  Same arrays, and
        ``record_evaluation`` records the bursts of the reference route's
        ``read_cells``."""
        from repro.circuits import bnre_like
        from repro.kernels import use_kernels
        from repro.route.twobend import route_wire, route_wire_reference

        circuit = bnre_like(n_wires=40)
        cost = CostArray(circuit.n_channels, circuit.n_grids)
        layout = SharedLayout(circuit.n_channels, circuit.n_grids, circuit.n_wires)
        traces = {}
        for mode in ("vectorized", "reference"):
            tango = TangoCollector(layout, chunks=2)
            expected = []
            with use_kernels(mode):
                for idx in range(circuit.n_wires):
                    segments = route_wire(cost, circuit.wire(idx)).segments
                    for s in segments:
                        assert (s.table_segment is not None) == (mode == "vectorized")
                        np.testing.assert_array_equal(
                            s.footprint(circuit.n_grids), s.read_cells(circuit.n_grids)
                        )
                        np.testing.assert_array_equal(
                            s.footprint(circuit.n_grids + 3), s.read_cells(circuit.n_grids + 3)
                        )
                        if mode == "vectorized":  # a slice of the circuit's one column
                            cells = s.footprint(circuit.n_grids)
                            column = segments[0].footprint(circuit.n_grids).base
                            assert not cells.flags.writeable
                            assert np.shares_memory(cells, column)
                    tango.record_evaluation(float(idx), idx + 1.0, idx % 4, segments)
                    oracle = route_wire_reference(cost, circuit.wire(idx)).segments
                    for k in range(2):
                        expected += [
                            (idx + k / 2, idx % 4, False, s.read_cells(circuit.n_grids).tolist())
                            for s in oracle
                        ]
            traces[mode] = [
                (r.time, r.proc, r.is_write, r.flat_cells.tolist()) for r in tango.trace.records
            ]
            assert traces[mode] == expected
        assert traces["vectorized"] == traces["reference"]
        assert len(traces["vectorized"]) > 2 * circuit.n_wires

    def test_evaluation_reads_only(self, layout, segment):
        tango = TangoCollector(layout, chunks=2)
        tango.record_evaluation(0.0, 1.0, 0, [segment])
        assert all(not r.is_write for r in tango.trace.records)

    def test_commit_writes_path_and_record(self, layout):
        tango = TangoCollector(layout)
        path = RoutePath.from_cells(np.array([5, 6, 7]), 40)
        tango.record_commit(1.0, 2, 3, path)
        writes = [r for r in tango.trace.records if r.is_write]
        assert len(writes) == 2
        record_cells = set(layout.wire_record_cells(3).tolist())
        assert set(writes[1].flat_cells.tolist()) == record_cells

    def test_ripup_reads_record_and_writes_path(self, layout):
        tango = TangoCollector(layout)
        path = RoutePath.from_cells(np.array([5, 6, 7]), 40)
        tango.record_ripup(1.0, 2, 3, path)
        kinds = [r.is_write for r in tango.trace.records]
        assert kinds == [False, True]

    def test_loop_grab_touches_scheduler(self, layout):
        tango = TangoCollector(layout)
        tango.record_loop_grab(0.5, 1)
        assert tango.trace.n_records == 2
        for r in tango.trace.records:
            assert all(
                layout.scheduler_base <= c < layout.records_base
                for c in r.flat_cells
            )

    def test_bad_chunks_rejected(self, layout):
        with pytest.raises(ValueError):
            TangoCollector(layout, chunks=0)
