"""Tests for the Tango trace collector and shared layout."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Pin, Wire, bnre_like, mdc_like
from repro.errors import CoherenceError
from repro.faults import NodeCrash
from repro.grid import CostArray
from repro.kernels import use_kernels
from repro.memsim.columnar import ColumnarTrace
from repro.memsim.tango import SharedLayout, TangoCollector
from repro.memsim.trace import ReferenceTrace
from repro.parallel import sm_sim
from repro.route import RoutePath
from repro.route.twobend import route_wire
from repro.route.wavefront import wire_geometry


@pytest.fixture
def layout():
    return SharedLayout(n_channels=4, n_grids=40, n_wires=10)


@pytest.fixture
def wire():
    """One bend segment from channel 0 to channel 3 (two interior channels)."""
    return Wire("w", [Pin(2, 0), Pin(12, 3)])


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
    def test_disabled_collector_records_nothing(self, layout, wire):
        tango = TangoCollector(layout, enabled=False)
        tango.record_evaluation(0.0, 1.0, 0, wire)
        tango.record_loop_grab(0.0, 0)
        assert tango.trace.n_records == 0

    def test_evaluation_emits_chunks_sweeps(self, layout, wire):
        tango = TangoCollector(layout, chunks=3)
        tango.record_evaluation(0.0, 3.0, 0, wire)
        assert tango.trace.n_records == 3
        times = sorted({r.time for r in tango.trace.records})
        assert times == [0.0, 1.0, 2.0]

    def test_geometry_footprint_equals_read_cells(self):
        """Segments priced from a circuit's tables (the vectorized kernels)
        take their footprint from the tables' read-cell column;
        reference-kernel segments compute it per call.  Same arrays, and
        ``record_evaluation`` of a wire records the bursts of the
        reference route's ``read_cells`` under either kernel mode."""
        from repro.route.twobend import route_wire_reference

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
                    tango.record_evaluation(float(idx), idx + 1.0, idx % 4, circuit.wire(idx))
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

    def test_evaluation_reads_only(self, layout, wire):
        tango = TangoCollector(layout, chunks=2)
        tango.record_evaluation(0.0, 1.0, 0, wire)
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

    def test_added_bursts_keep_their_place_among_the_rows(self, layout, wire):
        """``add`` on a collector's trace (what a ``keep_trace`` caller
        holds) is one more row: it sorts by its time and, on a tie, by
        when it was appended."""
        tango = TangoCollector(layout, chunks=1)
        tango.record_loop_grab(1.0, 0)
        tango.trace.add(1.0, 2, True, np.array([9, 9, 3], dtype=np.int32))
        tango.trace.add(0.5, 1, False, np.empty(0, dtype=np.int64))  # dropped
        tango.record_evaluation(0.25, 2.0, 1, wire)
        got = [
            (r.time, r.proc, r.is_write, r.flat_cells.tolist())
            for r in tango.trace.sorted_records()
        ]
        sched = layout.scheduler_cells().tolist()
        assert got[1:] == [
            (1.0, 0, False, sched),
            (1.0, 0, True, sched[:1]),
            (1.0, 2, True, [9, 9, 3]),
        ]
        assert got[0][:3] == (0.25, 1, False)
        assert tango.trace.n_records == 4
        assert tango.trace.n_references == len(got[0][3]) + 3 + 3
        with pytest.raises(CoherenceError, match="negative trace time"):
            tango.record_loop_grab(-1.0, 0)


class PerBurstCollector:
    """The per-burst collector the row collector replaced, kept as its
    differential oracle: every operation becomes ``ReferenceTrace.add``
    calls at once, and an evaluation reads its segments' footprints
    (``SegmentRoute.footprint``; under the reference kernels that is
    ``read_cells`` computed per segment)."""

    def __init__(self, layout: SharedLayout, enabled: bool = True, chunks: int = 4) -> None:
        self.layout, self.enabled, self.chunks = layout, enabled, chunks
        self.trace = ReferenceTrace()

    def record_evaluation(self, start_time, end_time, proc, wire) -> None:
        if not self.enabled:
            return
        # What a segment reads depends on its pins and candidates only.
        blank = CostArray(self.layout.n_channels, self.layout.n_grids)
        segments = route_wire(blank, wire).segments
        footprints = [s.footprint(self.layout.n_grids) for s in segments]
        span = max(0.0, end_time - start_time)
        for k in range(self.chunks):
            t = start_time + span * k / self.chunks
            for cells in footprints:
                self.trace.add(t, proc, False, cells)

    def record_commit(self, time, proc, wire_idx, path) -> None:
        if self.enabled:
            self.trace.add(time, proc, True, path.flat_cells)
            self.trace.add(time, proc, True, self.layout.wire_record_cells(wire_idx))

    def record_ripup(self, time, proc, wire_idx, path) -> None:
        if self.enabled:
            self.trace.add(time, proc, False, self.layout.wire_record_cells(wire_idx))
            self.trace.add(time, proc, True, path.flat_cells)

    def record_loop_grab(self, time, proc) -> None:
        if self.enabled:
            cells = self.layout.scheduler_cells()
            self.trace.add(time, proc, False, cells)
            self.trace.add(time, proc, True, cells[:1])


@pytest.mark.parametrize("mode", ["vectorized", "reference"])
def test_wires_read_from_several_circuits_tables(mode):
    """A wire keeps the table rows of the circuit that first prepared it,
    so one run can read several circuits' tables (a circuit built from
    another's wires); every table's read column lands in the one pool."""
    from repro.circuits import Circuit

    big = bnre_like(17, n_wires=30)
    for idx in range(0, 30, 2):  # these wires now read big's tables
        route_wire(CostArray(*big.shape), big.wire(idx))
    small = Circuit("mixed", big.n_channels, big.n_grids, big.wires[:20])
    layout = SharedLayout(small.n_channels, small.n_grids, small.n_wires)
    tango, oracle = TangoCollector(layout, chunks=3), PerBurstCollector(layout, chunks=3)
    picked = (3, 0, 5, 2, 19, 18)
    with use_kernels(mode):
        for idx in picked:
            for collector in (tango, oracle):
                collector.record_evaluation(float(idx), idx + 0.5, idx % 3, small.wire(idx))
                collector.record_loop_grab(idx + 0.25, 1)
    tables = {id(wire_geometry(small.wire(idx), small.n_grids)[0]) for idx in picked}
    assert len(tables) == 2
    _assert_same_trace(tango.trace, oracle.trace)


def _traced_pair(monkeypatch, circuit, **kwargs):
    """Run the simulator once with both collectors fed every operation;
    return (result, row trace, per-burst trace)."""
    oracles = []

    class Both(TangoCollector):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            self.oracle = PerBurstCollector(*args, **kw)
            oracles.append(self.oracle)

        def record_evaluation(self, *args):
            super().record_evaluation(*args)
            self.oracle.record_evaluation(*args)

        def record_commit(self, *args):
            super().record_commit(*args)
            self.oracle.record_commit(*args)

        def record_ripup(self, *args):
            super().record_ripup(*args)
            self.oracle.record_ripup(*args)

        def record_loop_grab(self, *args):
            super().record_loop_grab(*args)
            self.oracle.record_loop_grab(*args)

    monkeypatch.setattr(sm_sim, "TangoCollector", Both)
    result = sm_sim.run_shared_memory(circuit, iterations=2, keep_trace=True, **kwargs)
    (oracle,) = oracles
    return result, result.meta["trace"], oracle.trace


def _assert_same_trace(trace, oracle) -> None:
    assert (trace.n_records, trace.n_references) == (oracle.n_records, oracle.n_references)
    got, want = trace.columns(), oracle.columns()
    for name in want._fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    ordered = list(trace.sorted_records())
    assert len(ordered) == oracle.n_records
    for r, o in zip(ordered, oracle.sorted_records()):
        assert (r.time, r.proc, r.is_write) == (o.time, o.proc, o.is_write)
        assert r.flat_cells.dtype == o.flat_cells.dtype
        np.testing.assert_array_equal(r.flat_cells, o.flat_cells)
    # The pools differ in layout (the collector's holds every shared word),
    # so the pieces and the last granule may; the shards' cuts and their
    # expanded columns may not.
    flat, expected = ColumnarTrace.from_trace(trace), ColumnarTrace.from_trace(oracle)
    np.testing.assert_array_equal(flat.codes, expected.codes)
    np.testing.assert_array_equal(flat.pieces.edge[:-1], expected.pieces.edge[:-1])
    for got, want in zip(flat._shards(1), expected._shards(1), strict=True):
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)


def _coincident(trace, layout) -> bool:
    """Does some time carry a commit's record write, a loop grab's
    scheduler read and an evaluation's cost-array read?"""
    seen = {}
    for r in trace.sorted_records():
        first = int(r.flat_cells[0])
        if r.is_write and first >= layout.records_base:
            kind = "commit"
        elif not r.is_write and first == layout.scheduler_base:
            kind = "grab"
        elif not r.is_write and first < layout.array_words:
            kind = "sweep"
        else:
            continue
        seen.setdefault(r.time, set()).add(kind)
    return any(kinds == {"commit", "grab", "sweep"} for kinds in seen.values())


@pytest.mark.parametrize("mode", ["vectorized", "reference"])
class TestRowsAgainstPerBurstOracle:
    """The row collector's trace is the per-burst collector's, array for
    array, on traced simulator runs under both kernel modes."""

    def test_sixteen_processor_bnre(self, monkeypatch, mode):
        with use_kernels(mode):
            _, trace, oracle = _traced_pair(monkeypatch, bnre_like(3, n_wires=90), n_procs=16)
        _assert_same_trace(trace, oracle)

    def test_four_processor_mdc(self, monkeypatch, mode):
        with use_kernels(mode):
            _, trace, oracle = _traced_pair(monkeypatch, mdc_like(5, n_wires=70), n_procs=4)
        _assert_same_trace(trace, oracle)

    def test_one_sweep_per_evaluation(self, monkeypatch, mode):
        with use_kernels(mode):
            _, trace, oracle = _traced_pair(
                monkeypatch, bnre_like(7, n_wires=60), n_procs=8, trace_chunks=1
            )
        _assert_same_trace(trace, oracle)

    def test_crash_cancels_a_commit(self, monkeypatch, mode):
        with use_kernels(mode):
            result, trace, oracle = _traced_pair(
                monkeypatch, bnre_like(11, n_wires=60), n_procs=4, crashes=[NodeCrash(1, 0.02)]
            )
        # The dead processor's evaluation is in the trace; its commit is not.
        assert result.meta["crash"]["requeued_wires"] > 0
        _assert_same_trace(trace, oracle)

    def test_write_update_protocol(self, monkeypatch, mode):
        with use_kernels(mode):
            _, trace, oracle = _traced_pair(
                monkeypatch, bnre_like(9, n_wires=60), n_procs=8, protocol="update"
            )
        _assert_same_trace(trace, oracle)

    def test_commit_grab_and_sweep_share_a_time(self, monkeypatch, mode):
        # A free loop grab puts a processor's commit, its next grab and the
        # next evaluation's first sweep at one time: only the append
        # sequence orders them.
        monkeypatch.setattr(sm_sim, "LOOP_GRAB_UNITS", 0.0)
        circuit = bnre_like(13, n_wires=60)
        with use_kernels(mode):
            result, trace, oracle = _traced_pair(monkeypatch, circuit, n_procs=4)
        assert _coincident(oracle, result.meta["layout"])
        _assert_same_trace(trace, oracle)
